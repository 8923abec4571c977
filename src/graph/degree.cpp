#include "graph/degree.hpp"

#include <algorithm>
#include <functional>

#include "util/assert.hpp"

namespace ent::graph {

std::vector<double> degree_sequence(const Csr& g) {
  std::vector<double> out(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    out[v] = static_cast<double>(g.out_degree(v));
  }
  return out;
}

HubStats hub_stats_for_threshold(const Csr& g, edge_t tau) {
  HubStats s;
  s.threshold = tau;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    const edge_t d = g.out_degree(v);
    if (d > tau) {
      ++s.num_hubs;
      s.hub_edges += d;
    }
  }
  if (g.num_vertices() > 0) {
    s.hub_vertex_share =
        static_cast<double>(s.num_hubs) / static_cast<double>(g.num_vertices());
  }
  if (g.num_edges() > 0) {
    s.hub_edge_share =
        static_cast<double>(s.hub_edges) / static_cast<double>(g.num_edges());
  }
  return s;
}

HubStats select_hub_threshold(const Csr& g, vertex_t target_hubs) {
  ENT_ASSERT(target_hubs >= 1);
  // tau = degree of the (target_hubs)-th highest vertex; everything strictly
  // above it qualifies, which keeps the hub count at or below the target
  // even when ties cross the boundary. Only that order statistic is needed:
  // a min-heap of the target_hubs + 1 highest degrees seen holds it on top
  // after one pass, and most vertices fall below the top at one compare.
  edge_t tau = 0;
  if (g.num_vertices() > target_hubs) {
    std::vector<edge_t> top;
    top.reserve(static_cast<std::size_t>(target_hubs) + 1);
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
      const edge_t d = g.out_degree(v);
      if (top.size() <= target_hubs) {
        top.push_back(d);
        std::push_heap(top.begin(), top.end(), std::greater<>());
      } else if (d > top.front()) {
        std::pop_heap(top.begin(), top.end(), std::greater<>());
        top.back() = d;
        std::push_heap(top.begin(), top.end(), std::greater<>());
      }
    }
    tau = top.front();
  }
  return hub_stats_for_threshold(g, tau);
}

std::vector<std::uint8_t> hub_flags(const Csr& g, edge_t tau) {
  std::vector<std::uint8_t> flags(g.num_vertices(), 0);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    flags[v] = g.out_degree(v) > tau ? 1 : 0;
  }
  return flags;
}

}  // namespace ent::graph
