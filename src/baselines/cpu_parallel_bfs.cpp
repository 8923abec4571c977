#include "baselines/cpu_parallel_bfs.hpp"

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "enterprise/direction.hpp"
#include "enterprise/status_array.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"
#include "util/timer.hpp"

namespace ent::baselines {

using enterprise::StatusArray;
using graph::edge_t;
using graph::vertex_t;

namespace {

// Beamer's switch rule: bottom-up once alpha = m_u / m_f falls below kAlpha
// on a growing frontier, top-down again once the frontier holds fewer than
// n / kBeta vertices.
constexpr double kAlpha = 15.0;
constexpr double kBeta = 18.0;

// Frontier entries per block of a top-down level, and vertices per block of
// a bottom-up sweep.
constexpr std::size_t kTopDownBlock = 1024;
constexpr std::size_t kBottomUpBlock = 16384;

struct Claim {
  vertex_t vertex;
  vertex_t parent;
};

// Expands `frontier` top-down, appending the vertices it visits to `next`;
// each takes its first discoverer in frontier order as its parent. A
// frontier wider than one block is scanned on the pool: each block only
// reads statuses and lists its claims in its own stretch of one buffer, and
// the claims are applied in block order. Returns the edges inspected.
edge_t expand_top_down(const graph::Csr& g, std::span<const vertex_t> frontier,
                       std::int32_t next_level, StatusArray& status,
                       std::vector<vertex_t>& parents,
                       std::vector<vertex_t>& next) {
  const vertex_t n = g.num_vertices();
  // w >= n never holds on a valid CSR; a corrupted adjacency entry is
  // skipped when this search runs as a fallback.
  const auto claim = [&](vertex_t w, vertex_t parent) {
    if (w < n && !status.visited(w)) {
      status.visit(w, next_level);
      parents[w] = parent;
      next.push_back(w);
    }
  };
  edge_t inspected = 0;
  if (frontier.size() <= kTopDownBlock) {
    for (const vertex_t v : frontier) {
      for (const vertex_t w : g.neighbors(v)) claim(w, v);
      inspected += g.out_degree(v);
    }
    return inspected;
  }
  // Block b lists at most its entries' degree sum, from starts[b] on.
  const std::size_t blocks =
      (frontier.size() + kTopDownBlock - 1) / kTopDownBlock;
  std::vector<edge_t> starts(blocks);
  std::vector<edge_t> ends(blocks);
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    if (i % kTopDownBlock == 0) starts[i / kTopDownBlock] = inspected;
    inspected += g.out_degree(frontier[i]);
  }
  const auto claims = std::make_unique_for_overwrite<Claim[]>(inspected);
  util::host_pool().for_each_block(
      frontier.size(), kTopDownBlock, [&](std::size_t begin, std::size_t end) {
        const std::size_t b = begin / kTopDownBlock;
        edge_t out = starts[b];
        for (std::size_t i = begin; i < end; ++i) {
          const vertex_t v = frontier[i];
          for (const vertex_t w : g.neighbors(v)) {
            if (w < n && !status.visited(w)) claims[out++] = {w, v};
          }
        }
        ends[b] = out;
      });
  for (std::size_t b = 0; b < blocks; ++b) {
    for (edge_t i = starts[b]; i < ends[b]; ++i) {
      claim(claims[i].vertex, claims[i].parent);
    }
  }
  return inspected;
}

// Sweeps the unvisited vertices bottom-up, appending the ones it visits to
// `next` in ascending ids; each adopts its first in-neighbour on the
// frontier (status `level`). Blocks of vertices run on the pool, each
// writing only its own vertices' statuses and parents and listing them in
// its own stretch of `found`, n entries long. Returns the edges inspected.
edge_t sweep_bottom_up(const graph::Csr& in_edges, std::int32_t level,
                       StatusArray& status, std::vector<vertex_t>& parents,
                       vertex_t* found, std::vector<vertex_t>& next) {
  const vertex_t n = status.size();
  struct Part {
    std::size_t visited = 0;
    edge_t inspected = 0;
  };
  Part first;
  std::vector<Part> rest;
  util::host_pool().for_each_part(
      n, kBottomUpBlock, first, rest,
      [&](std::size_t begin, std::size_t end, Part& part) {
        Part p;
        for (vertex_t v = static_cast<vertex_t>(begin); v < end; ++v) {
          if (status.visited(v)) continue;
          for (const vertex_t u : in_edges.neighbors(v)) {
            ++p.inspected;
            if (u < n && status.level(u) == level) {
              status.visit(v, level + 1);
              parents[v] = u;
              found[begin + p.visited++] = v;
              break;
            }
          }
        }
        part = p;
      });
  edge_t inspected = 0;
  for (std::size_t b = 0; b <= rest.size(); ++b) {
    const Part& part = b == 0 ? first : rest[b - 1];
    const vertex_t* const block = found + b * kBottomUpBlock;
    next.insert(next.end(), block, block + part.visited);
    inspected += part.inspected;
  }
  return inspected;
}

}  // namespace

bfs::BfsResult cpu_parallel_bfs(const graph::Csr& g, vertex_t source,
                                const CpuParallelOptions& options) {
  const vertex_t n = g.num_vertices();
  ENT_ASSERT(source < n);
  const graph::Csr& in_edges = g.in_edges();
  std::optional<util::InlineScope> serial;
  if (options.num_threads == 1) serial.emplace();

  Timer timer;
  StatusArray status(n);
  std::vector<vertex_t> parents(n, graph::kInvalidVertex);
  status.visit(source, 0);
  parents[source] = source;

  bfs::BfsResult result;
  result.source = source;
  std::vector<vertex_t> frontier{source};
  std::vector<vertex_t> next;
  const auto found = std::make_unique_for_overwrite<vertex_t[]>(n);
  edge_t frontier_edges = g.out_degree(source);
  edge_t unexplored_edges = g.num_edges() - frontier_edges;
  std::size_t previous_size = 0;
  bool bottom_up = false;
  for (std::int32_t level = 0; !frontier.empty(); ++level) {
    bfs::LevelTrace trace;
    trace.level = level;
    trace.frontier_count = static_cast<vertex_t>(frontier.size());
    trace.alpha = enterprise::compute_alpha(unexplored_edges, frontier_edges);
    if (!bottom_up && level > 0 && frontier.size() > previous_size &&
        trace.alpha < kAlpha) {
      bottom_up = true;
    } else if (bottom_up && static_cast<double>(frontier.size()) <
                                static_cast<double>(n) / kBeta) {
      bottom_up = false;
    }
    trace.direction =
        bottom_up ? bfs::Direction::kBottomUp : bfs::Direction::kTopDown;

    next.clear();
    if (bottom_up) {
      trace.edges_inspected =
          sweep_bottom_up(in_edges, level, status, parents, found.get(), next);
    } else {
      trace.edges_inspected =
          expand_top_down(g, frontier, level + 1, status, parents, next);
    }
    result.level_trace.push_back(std::move(trace));
    previous_size = frontier.size();
    frontier.swap(next);
    frontier_edges = 0;
    for (const vertex_t v : frontier) frontier_edges += g.out_degree(v);
    unexplored_edges -= frontier_edges;
  }

  enterprise::finalize(result, g, std::move(status), std::move(parents));
  result.time_ms = timer.millis();
  return result;
}

}  // namespace ent::baselines
