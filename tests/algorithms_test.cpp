// Tests for the BFS-based analytics layer (§1/§7 workloads), run over both
// the CPU reference engine and the Enterprise engine — results must agree.
#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/analytics.hpp"
#include "bfs/engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace ent::algorithms {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr path5() {
  // 0 - 1 - 2 - 3 - 4 (undirected)
  graph::BuildOptions opts;
  opts.symmetrize = true;
  opts.directed = false;
  return graph::build_csr(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, opts);
}

Csr two_triangles_bridge() {
  // Triangle {0,1,2} - bridge 2-3 - triangle {3,4,5}.
  graph::BuildOptions opts;
  opts.symmetrize = true;
  opts.directed = false;
  return graph::build_csr(6, {{0, 1}, {1, 2}, {0, 2}, {2, 3},
                              {3, 4}, {4, 5}, {3, 5}},
                          opts);
}

// The analytics take any registered engine built over the same graph: the
// sequential host reference, or the simulated Enterprise system.
std::unique_ptr<bfs::Engine> cpu(const Csr& g) {
  return bfs::make_engine("cpu", g);
}

std::unique_ptr<bfs::Engine> enterprise(const Csr& g) {
  return bfs::make_engine("enterprise", g);
}

// ---- sssp ----------------------------------------------------------------------

TEST(Sssp, DistancesOnPath) {
  const Csr g = path5();
  const SsspResult r = sssp(*cpu(g), 0);
  EXPECT_EQ(r.distance, (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(r.reached, 5u);
  EXPECT_DOUBLE_EQ(r.ecc, 4.0);
}

TEST(Sssp, ShortestPathReconstruction) {
  const Csr g = two_triangles_bridge();
  const SsspResult r = sssp(*cpu(g), 0);
  const auto path = shortest_path(r, 0, 5);
  ASSERT_EQ(path.size(), 4u);  // 0 -> 2 -> 3 -> 5 (one of the valid routes)
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 5u);
  // Consecutive hops must be graph edges.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto nb = g.neighbors(path[i]);
    EXPECT_TRUE(std::find(nb.begin(), nb.end(), path[i + 1]) != nb.end());
  }
}

TEST(Sssp, UnreachableTargetsHaveEmptyPath) {
  graph::BuildOptions opts;
  opts.symmetrize = true;
  opts.directed = false;
  const Csr g = graph::build_csr(4, {{0, 1}, {2, 3}}, opts);
  const SsspResult r = sssp(*cpu(g), 0);
  EXPECT_EQ(r.distance[2], -1);
  EXPECT_TRUE(shortest_path(r, 0, 2).empty());
}

TEST(Sssp, EnterpriseEngineMatchesCpu) {
  graph::KroneckerParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 3;
  const Csr g = graph::generate_kronecker(p);
  vertex_t src = 0;
  while (g.out_degree(src) == 0) ++src;
  const SsspResult a = sssp(*cpu(g), src);
  const SsspResult b = sssp(*enterprise(g), src);
  EXPECT_EQ(a.distance, b.distance);
  EXPECT_EQ(a.reached, b.reached);
}

// ---- connected components ----------------------------------------------------------

TEST(Components, CountsAndGiant) {
  graph::BuildOptions opts;
  opts.symmetrize = true;
  opts.directed = false;
  // Component A {0,1,2}, component B {3,4}, isolated {5}.
  const Csr g = graph::build_csr(6, {{0, 1}, {1, 2}, {3, 4}}, opts);
  const ComponentsResult r = connected_components(g, *cpu(g));
  EXPECT_EQ(r.num_components, 3u);
  EXPECT_EQ(r.giant_size, 3u);
  EXPECT_EQ(r.component[0], r.component[2]);
  EXPECT_EQ(r.component[3], r.component[4]);
  EXPECT_NE(r.component[0], r.component[3]);
  EXPECT_NE(r.component[5], r.component[0]);
}

TEST(Components, PartitionIsTotal) {
  graph::SocialProfile p;
  p.num_vertices = 2000;
  p.average_degree = 3.0;
  p.directed = false;
  p.seed = 4;
  const Csr g = graph::generate_social(p);
  const ComponentsResult r = connected_components(g, *cpu(g));
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LT(r.component[v], r.num_components);
  }
  // Every edge stays within one component.
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    for (vertex_t w : g.neighbors(v)) {
      EXPECT_EQ(r.component[v], r.component[w]);
    }
  }
}

// ---- diameter -------------------------------------------------------------------------

TEST(Diameter, ExactOnPath) {
  const Csr g = path5();
  const DiameterResult r = pseudo_diameter(g, 2, *cpu(g));
  EXPECT_EQ(r.lower_bound, 4);  // double sweep is exact on trees
}

TEST(Diameter, LowerBoundsGridDiameter) {
  const Csr g = graph::generate_road_grid(20, 20, 1);
  const DiameterResult r = pseudo_diameter(g, 0, *cpu(g));
  EXPECT_GE(r.lower_bound, 19);       // at least one full side
  EXPECT_LE(r.lower_bound, 2 * 40);   // sanity ceiling
}

// ---- betweenness ------------------------------------------------------------------------

TEST(Betweenness, BridgeVerticesDominate) {
  const Csr g = two_triangles_bridge();
  const auto bc = betweenness_centrality(g, *cpu(g), 0);
  // Bridge endpoints 2 and 3 carry all cross-triangle paths.
  EXPECT_GT(bc[2], bc[0]);
  EXPECT_GT(bc[2], bc[1]);
  EXPECT_GT(bc[3], bc[4]);
  EXPECT_NEAR(bc[2], bc[3], 1e-9);  // symmetric structure
}

TEST(Betweenness, PathCenterExact) {
  // On a path of 5, exact BC of the middle vertex is 4 pairs routed = 4
  // ((0,3),(0,4),(1,3),(1,4) plus symmetry handled by the /2 correction).
  const Csr g = path5();
  const auto bc = betweenness_centrality(g, *cpu(g), 0);
  EXPECT_NEAR(bc[2], 4.0, 1e-9);
  EXPECT_NEAR(bc[0], 0.0, 1e-9);
  EXPECT_NEAR(bc[1], 3.0, 1e-9);
}

TEST(Betweenness, SampledApproximatesExact) {
  graph::SocialProfile p;
  p.num_vertices = 600;
  p.average_degree = 6.0;
  p.directed = false;
  p.seed = 9;
  const Csr g = graph::generate_social(p);
  const auto exact = betweenness_centrality(g, *cpu(g), 0);
  const auto sampled = betweenness_centrality(g, *cpu(g), 300, 7);
  // Spearman-ish check: the top-exact vertex should rank high in the
  // sampled estimate.
  const auto top_exact = static_cast<vertex_t>(
      std::max_element(exact.begin(), exact.end()) - exact.begin());
  vertex_t better = 0;
  for (double c : sampled) {
    if (c > sampled[top_exact]) ++better;
  }
  EXPECT_LT(better, g.num_vertices() / 20);  // top-5% at worst
}

TEST(Betweenness, EnterpriseEngineMatchesCpu) {
  const Csr g = two_triangles_bridge();
  const auto a = betweenness_centrality(g, *cpu(g), 0);
  const auto b = betweenness_centrality(g, *enterprise(g), 0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t v = 0; v < a.size(); ++v) EXPECT_NEAR(a[v], b[v], 1e-9);
}

// ---- closeness / reachability ----------------------------------------------------------------

TEST(Closeness, CenterBeatsLeaf) {
  const Csr g = path5();
  const auto c = harmonic_closeness(g, {0, 2}, *cpu(g));
  ASSERT_EQ(c.size(), 2u);
  EXPECT_GT(c[1], c[0]);  // vertex 2 (center) closer to everything
  // Exact values: center = 2*(1 + 1/2), leaf = 1 + 1/2 + 1/3 + 1/4.
  EXPECT_NEAR(c[1], 3.0, 1e-9);
  EXPECT_NEAR(c[0], 1.0 + 0.5 + 1.0 / 3.0 + 0.25, 1e-9);
}

TEST(Reachability, HopCountsOnPath) {
  const Csr g = path5();
  EXPECT_EQ(k_hop_reachability(g, 0, 0, *cpu(g)), 1u);
  EXPECT_EQ(k_hop_reachability(g, 0, 2, *cpu(g)), 3u);
  EXPECT_EQ(k_hop_reachability(g, 2, 2, *cpu(g)), 5u);
}

}  // namespace
}  // namespace ent::algorithms
