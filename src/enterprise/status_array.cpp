#include "enterprise/status_array.hpp"

#include <algorithm>

#include "util/pool.hpp"

namespace ent::enterprise {
namespace {

// Vertices per block of the pooled finalize pass.
constexpr std::size_t kVertexBlock = 16384;

}  // namespace

graph::vertex_t StatusArray::visited_count() const {
  graph::vertex_t count = 0;
  for (std::int32_t l : levels_) {
    if (l != kUnvisited) ++count;
  }
  return count;
}

void finalize(bfs::BfsResult& result, const graph::Csr& g,
              StatusArray&& status, std::vector<graph::vertex_t>&& parents) {
  // One pass: visited count and depth (every status but kUnvisited) and the
  // traversed-edge sum (count_traversed_edges' rule, level >= 0). Tallied in
  // locals: stores through `result` could alias the graph as far as the
  // compiler knows, which would keep this O(n) loop in memory.
  struct Tally {
    graph::vertex_t visited = 0;
    std::int32_t depth = 0;
    graph::edge_t edges = 0;
  };
  const std::int32_t* const levels = status.data().data();
  const std::span<const graph::edge_t> offsets = g.row_offsets();
  Tally first;
  std::vector<Tally> rest;
  util::host_pool().for_each_part(
      status.size(), kVertexBlock, first, rest,
      [&](std::size_t begin, std::size_t end, Tally& part) {
        Tally t;
        for (std::size_t v = begin; v < end; ++v) {
          const std::int32_t level = levels[v];
          if (level != kUnvisited) {
            ++t.visited;
            t.depth = std::max(t.depth, level);
          }
          if (level >= 0) t.edges += offsets[v + 1] - offsets[v];
        }
        part = t;
      });
  for (const Tally& t : rest) {
    first.visited += t.visited;
    first.depth = std::max(first.depth, t.depth);
    first.edges += t.edges;
  }
  result.depth = first.depth;
  result.vertices_visited = first.visited;
  result.levels = std::move(status).take();
  result.parents = std::move(parents);
  result.edges_traversed = first.edges;
}

}  // namespace ent::enterprise
