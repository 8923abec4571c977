#include "bfs/validate.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <vector>

#include "util/pool.hpp"

namespace ent::bfs {
namespace {

ValidationReport fail(const std::string& msg) { return {false, msg}; }

// Vertices per block of the pooled passes.
constexpr graph::vertex_t kVertexBlock = 16384;

enum class Fault : std::uint8_t {
  kNone,
  kParentDisagreement,
  kParentRange,
  kUnvisitedParent,
  kParentLevel,
  kTreeEdgeMissing,
  kEndpointRange,
  kSkippedLevel,
};

const char* to_string(Fault f) {
  switch (f) {
    case Fault::kNone:
      break;
    case Fault::kParentDisagreement:
      return "visited/parent disagreement";
    case Fault::kParentRange:
      return "parent out of range";
    case Fault::kUnvisitedParent:
      return "unvisited parent";
    case Fault::kParentLevel:
      return "parent not one level shallower";
    case Fault::kTreeEdgeMissing:
      return "tree edge missing from graph";
    case Fault::kEndpointRange:
      return "edge endpoint out of range";
    case Fault::kSkippedLevel:
      return "edge skips a level";
  }
  return "";
}

struct Failure {
  Fault fault = Fault::kNone;
  graph::vertex_t vertex = 0;
};

// The first vertex v of [0, n) for which check(v) reports a fault. Each
// block stops at its own first fault, and the lowest failing block wins.
template <class Check>
Failure first_failure(graph::vertex_t n, Check check) {
  Failure first;
  std::vector<Failure> rest;
  util::host_pool().for_each_part(
      n, kVertexBlock, first, rest,
      [&](std::size_t begin, std::size_t end, Failure& part) {
        // A local copy: the compiler can keep its captures in registers.
        const Check local = check;
        const auto last = static_cast<graph::vertex_t>(end);
        for (auto v = static_cast<graph::vertex_t>(begin); v < last; ++v) {
          if (const Fault f = local(v); f != Fault::kNone) {
            part = {f, v};
            return;
          }
        }
      });
  if (first.fault != Fault::kNone) return first;
  for (const Failure& f : rest) {
    if (f.fault != Fault::kNone) return f;
  }
  return {};
}

ValidationReport fail(const Failure& f) {
  std::ostringstream oss;
  oss << to_string(f.fault) << " (vertex " << f.vertex << ")";
  return fail(oss.str());
}

}  // namespace

ValidationReport validate_tree(const graph::Csr& g, const graph::Csr& reverse,
                               const BfsResult& result) {
  using graph::kInvalidVertex;
  using graph::vertex_t;
  const vertex_t n = g.num_vertices();
  if (result.levels.size() != n || result.parents.size() != n) {
    return fail("levels/parents size mismatch");
  }
  if (result.source >= n) return fail("source out of range");
  if (result.levels[result.source] != 0) return fail("source level != 0");
  if (result.parents[result.source] != result.source) {
    return fail("source parent != source");
  }
  const std::int32_t* const levels = result.levels.data();
  const vertex_t* const parents = result.parents.data();
  const vertex_t source = result.source;
  const graph::edge_t* const in_rows = reverse.row_offsets().data();
  const vertex_t* const in_cols = reverse.col_indices().data();
  const graph::edge_t* const out_rows = g.row_offsets().data();
  const vertex_t* const out_cols = g.col_indices().data();

  // Tree edges: every visited vertex hangs off a visited parent one level
  // shallower, through an edge of the graph.
  const Failure tree = first_failure(n, [=](vertex_t v) {
    const bool has_level = levels[v] >= 0;
    const bool has_parent = parents[v] != kInvalidVertex;
    if (has_level != has_parent) return Fault::kParentDisagreement;
    if (!has_level || v == source) return Fault::kNone;
    const vertex_t p = parents[v];
    if (p >= n) return Fault::kParentRange;
    if (levels[p] < 0) return Fault::kUnvisitedParent;
    if (levels[v] != levels[p] + 1) return Fault::kParentLevel;
    // Tree edge p -> v must exist; equivalently v -> p in the reverse CSR.
    const vertex_t* const in_end = in_cols + in_rows[v + 1];
    if (std::find(in_cols + in_rows[v], in_end, p) == in_end) {
      return Fault::kTreeEdgeMissing;
    }
    return Fault::kNone;
  });
  if (tree.fault != Fault::kNone) return fail(tree);

  // No edge may skip a level: u visited => v reached by level[u] + 1.
  const Failure edges = first_failure(n, [=](vertex_t u) {
    if (levels[u] < 0) return Fault::kNone;
    for (const vertex_t v : std::span(out_cols + out_rows[u],
                                      out_cols + out_rows[u + 1])) {
      // A silently corrupted adjacency entry can point past the vertex
      // space; report it as a broken edge instead of reading out of bounds.
      if (v >= n) return Fault::kEndpointRange;
      if (levels[v] < 0 || levels[v] > levels[u] + 1) {
        return Fault::kSkippedLevel;
      }
    }
    return Fault::kNone;
  });
  if (edges.fault != Fault::kNone) return fail(edges);
  return {};
}

ValidationReport validate_levels(const std::vector<std::int32_t>& got,
                                 const std::vector<std::int32_t>& expected) {
  if (got.size() != expected.size()) return fail("level map size mismatch");
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (got[v] != expected[v]) {
      std::ostringstream oss;
      oss << "level mismatch at vertex " << v << ": got " << got[v]
          << ", expected " << expected[v];
      return fail(oss.str());
    }
  }
  return {};
}

}  // namespace ent::bfs
