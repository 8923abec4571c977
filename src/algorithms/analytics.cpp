#include "algorithms/analytics.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/random.hpp"

namespace ent::algorithms {

using graph::vertex_t;

SsspResult sssp(bfs::Engine& engine, vertex_t source) {
  const bfs::BfsResult r = engine.run(source);
  SsspResult out;
  out.distance = r.levels;
  out.parent = r.parents;
  out.reached = r.vertices_visited;
  out.ecc = r.depth;
  return out;
}

std::vector<vertex_t> shortest_path(const SsspResult& r, vertex_t source,
                                    vertex_t target) {
  std::vector<vertex_t> path;
  if (target >= r.distance.size() || r.distance[target] < 0) return path;
  vertex_t v = target;
  path.push_back(v);
  while (v != source) {
    v = r.parent[v];
    ENT_ASSERT_MSG(v != graph::kInvalidVertex, "broken parent chain");
    path.push_back(v);
    ENT_ASSERT_MSG(path.size() <= r.distance.size(), "parent cycle");
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ComponentsResult connected_components(const graph::Csr& g,
                                      bfs::Engine& engine) {
  ENT_ASSERT_MSG(!g.directed(),
                 "connected_components requires an undirected graph");
  const vertex_t n = g.num_vertices();
  ComponentsResult out;
  out.component.assign(n, graph::kInvalidVertex);
  for (vertex_t v = 0; v < n; ++v) {
    if (out.component[v] != graph::kInvalidVertex) continue;
    const vertex_t id = out.num_components++;
    if (g.out_degree(v) == 0) {
      out.component[v] = id;
      out.giant_size = std::max(out.giant_size, vertex_t{1});
      continue;
    }
    const bfs::BfsResult r = engine.run(v);
    vertex_t size = 0;
    for (vertex_t w = 0; w < n; ++w) {
      if (r.levels[w] >= 0) {
        out.component[w] = id;
        ++size;
      }
    }
    out.giant_size = std::max(out.giant_size, size);
  }
  return out;
}

DiameterResult pseudo_diameter(const graph::Csr& g, vertex_t start,
                               bfs::Engine& engine,
                               unsigned max_sweeps) {
  DiameterResult out;
  out.endpoint_a = start;
  vertex_t current = start;
  for (unsigned sweep = 0; sweep < max_sweeps; ++sweep) {
    const bfs::BfsResult r = engine.run(current);
    ++out.sweeps;
    // Farthest vertex reached this sweep.
    vertex_t farthest = current;
    std::int32_t depth = 0;
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
      if (r.levels[v] > depth) {
        depth = r.levels[v];
        farthest = v;
      }
    }
    if (depth <= out.lower_bound) break;  // no longer growing
    out.lower_bound = depth;
    out.endpoint_a = current;
    out.endpoint_b = farthest;
    current = farthest;
  }
  return out;
}

std::vector<double> betweenness_centrality(const graph::Csr& g,
                                           bfs::Engine& engine,
                                           vertex_t sample_sources,
                                           std::uint64_t seed) {
  const vertex_t n = g.num_vertices();
  std::vector<double> centrality(n, 0.0);

  // Source set: every vertex (exact) or a pseudo-random sample.
  std::vector<vertex_t> sources;
  if (sample_sources == 0 || sample_sources >= n) {
    sources.resize(n);
    for (vertex_t v = 0; v < n; ++v) sources[v] = v;
  } else {
    SplitMix64 rng(seed);
    while (sources.size() < sample_sources) {
      const auto v = static_cast<vertex_t>(rng.next_below(n));
      if (g.out_degree(v) > 0) sources.push_back(v);
    }
  }

  std::vector<double> sigma(n);      // shortest-path counts
  std::vector<double> delta(n);      // dependency accumulators
  std::vector<vertex_t> order;       // vertices in nondecreasing level
  order.reserve(n);
  for (vertex_t s : sources) {
    const bfs::BfsResult r = engine.run(s);

    // sigma via one pass in level order: sigma[s] = 1;
    // sigma[w] += sigma[v] for every DAG edge v->w (level[w]=level[v]+1).
    order.clear();
    for (vertex_t v = 0; v < n; ++v) {
      if (r.levels[v] >= 0) order.push_back(v);
    }
    std::sort(order.begin(), order.end(), [&](vertex_t a, vertex_t b) {
      return r.levels[a] < r.levels[b];
    });
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    sigma[s] = 1.0;
    for (vertex_t v : order) {
      for (vertex_t w : g.neighbors(v)) {
        if (r.levels[w] == r.levels[v] + 1) sigma[w] += sigma[v];
      }
    }
    // Dependency accumulation in reverse level order (Brandes).
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const vertex_t v = *it;
      for (vertex_t w : g.neighbors(v)) {
        if (r.levels[w] == r.levels[v] + 1 && sigma[w] > 0.0) {
          delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
        }
      }
      if (v != s) centrality[v] += delta[v];
    }
  }
  // Scale sampled estimates to the full-source equivalent.
  if (!sources.empty() && sources.size() < n) {
    const double scale =
        static_cast<double>(n) / static_cast<double>(sources.size());
    for (double& c : centrality) c *= scale;
  }
  // Undirected graphs count each path twice (once per direction).
  if (!g.directed()) {
    for (double& c : centrality) c /= 2.0;
  }
  return centrality;
}

std::vector<double> harmonic_closeness(const graph::Csr& g,
                                       const std::vector<vertex_t>& sources,
                                       bfs::Engine& engine) {
  std::vector<double> out;
  out.reserve(sources.size());
  for (vertex_t s : sources) {
    const bfs::BfsResult r = engine.run(s);
    double sum = 0.0;
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
      if (v != s && r.levels[v] > 0) {
        sum += 1.0 / static_cast<double>(r.levels[v]);
      }
    }
    out.push_back(sum);
  }
  return out;
}

vertex_t k_hop_reachability(const graph::Csr& g, vertex_t source,
                            std::int32_t hops, bfs::Engine& engine) {
  const bfs::BfsResult r = engine.run(source);
  vertex_t count = 0;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (r.levels[v] >= 0 && r.levels[v] <= hops) ++count;
  }
  return count;
}

}  // namespace ent::algorithms
