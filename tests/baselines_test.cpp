// Tests for the baselines and comparator models: correctness against the
// CPU reference, plus the performance-ordering properties the paper's
// evaluation relies on.
#include <gtest/gtest.h>

#include "baselines/atomic_queue_bfs.hpp"
#include "baselines/comparators.hpp"
#include "baselines/cpu_bfs.hpp"
#include "baselines/cpu_parallel_bfs.hpp"
#include "baselines/status_array_bfs.hpp"
#include "bfs/validate.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr test_kron(std::uint64_t seed) {
  graph::KroneckerParams p;
  p.scale = 11;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::generate_kronecker(p);
}

vertex_t connected_source(const Csr& g, graph::edge_t min_degree) {
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) >= min_degree) return v;
  }
  return 0;
}

void expect_levels_match(const Csr& g, const bfs::BfsResult& got,
                         vertex_t source, const std::string& what) {
  const bfs::BfsResult ref = baselines::cpu_bfs(g, source);
  const auto rep = bfs::validate_levels(got.levels, ref.levels);
  EXPECT_TRUE(rep.ok) << what << ": " << rep.error;
}

TEST(CpuBfs, SimpleChain) {
  const Csr g = graph::build_csr(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto r = baselines::cpu_bfs(g, 0);
  EXPECT_EQ(r.levels, (std::vector<std::int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(r.depth, 3);
  EXPECT_EQ(r.vertices_visited, 4u);
}

TEST(StatusArrayBfs, MatchesReferenceOnKron) {
  const Csr g = test_kron(1);
  baselines::StatusArrayBfs bl(g);
  for (vertex_t s : {vertex_t{0}, vertex_t{5}, vertex_t{100}}) {
    if (g.out_degree(s) == 0) continue;
    expect_levels_match(g, bl.run(s), s, "BL");
  }
}

TEST(StatusArrayBfs, MatchesReferenceOnDirected) {
  graph::RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 4;
  const Csr g = graph::generate_rmat(p);
  baselines::StatusArrayBfs bl(g);
  expect_levels_match(g, bl.run(7), 7, "BL directed");
}

TEST(AtomicQueueBfs, MatchesReference) {
  const Csr g = test_kron(3);
  baselines::AtomicQueueBfs aq(g);
  expect_levels_match(g, aq.run(11), 11, "atomic queue");
}

TEST(AtomicQueueBfs, SlowerThanEnterpriseOnPowerLaw) {
  // §2.1/§3: atomic enqueue serializes contending threads. Run on the
  // scaled testbed so work dominates launch overhead.
  graph::KroneckerParams p;
  p.scale = 13;
  p.edge_factor = 16;
  p.seed = 5;
  const Csr g = graph::generate_kronecker(p);
  baselines::AtomicQueueOptions aq_opt;
  aq_opt.device = sim::k40_sim();
  baselines::AtomicQueueBfs aq(g, aq_opt);
  enterprise::EnterpriseOptions ent_opt;
  ent_opt.device = sim::k40_sim();
  enterprise::EnterpriseBfs ent(g, ent_opt);
  const vertex_t s = connected_source(g, 8);
  const auto slow = aq.run(s);
  const auto fast = ent.run(s);
  EXPECT_GT(slow.time_ms, fast.time_ms);
}

// The direction-optimizing host BFS, serial preset (`beamer`).
bfs::BfsResult serial_hybrid(const Csr& g, vertex_t source) {
  baselines::CpuParallelOptions opt;
  opt.num_threads = 1;
  return baselines::cpu_parallel_bfs(g, source, opt);
}

TEST(BeamerHybrid, MatchesReferenceUndirected) {
  const Csr g = test_kron(6);
  const vertex_t src = connected_source(g, 8);
  const auto r = serial_hybrid(g, src);
  expect_levels_match(g, r, src, "beamer");
  // Hybrid runs should record at least one bottom-up level on power law.
  bool bottom_up = false;
  for (const auto& t : r.level_trace) {
    bottom_up |= t.direction == bfs::Direction::kBottomUp;
  }
  EXPECT_TRUE(bottom_up);
}

TEST(BeamerHybrid, MatchesReferenceDirected) {
  graph::RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 7;
  const Csr g = graph::generate_rmat(p);
  const auto r = serial_hybrid(g, 3);
  expect_levels_match(g, r, 3, "beamer directed");
}

// ---- comparator models -------------------------------------------------------

class ComparatorCorrectness
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ComparatorCorrectness, MatchesReference) {
  const Csr g = test_kron(8);
  baselines::ComparatorProfile profile;
  const std::string which = GetParam();
  if (which == "b40c") profile = baselines::b40c_like(sim::k40());
  if (which == "gunrock") profile = baselines::gunrock_like(sim::k40());
  if (which == "mapgraph") profile = baselines::mapgraph_like(sim::k40());
  if (which == "graphbig") profile = baselines::graphbig_like(sim::k40());
  const auto r = baselines::comparator_bfs(g, 13, profile);
  expect_levels_match(g, r, 13, which);
  EXPECT_GT(r.time_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Models, ComparatorCorrectness,
                         ::testing::Values("b40c", "gunrock", "mapgraph",
                                           "graphbig"));

TEST(Comparators, PowerLawOrderingMatchesFig14) {
  // Enterprise > B40C > Gunrock > MapGraph > GraphBIG on power-law graphs.
  // Run on the scaled testbed so work dominates launch overhead, as on the
  // paper's full-size graphs.
  graph::KroneckerParams kp;
  kp.scale = 13;
  kp.edge_factor = 16;
  kp.seed = 9;
  const Csr g = graph::generate_kronecker(kp);
  const vertex_t s = 2;
  const sim::DeviceSpec dev = sim::k40_sim();
  enterprise::EnterpriseOptions eopt;
  eopt.device = dev;
  enterprise::EnterpriseBfs ent(g, eopt);
  const double t_ent = ent.run(s).time_ms;
  const double t_b40c =
      baselines::comparator_bfs(g, s, baselines::b40c_like(dev)).time_ms;
  const double t_gun =
      baselines::comparator_bfs(g, s, baselines::gunrock_like(dev)).time_ms;
  const double t_map =
      baselines::comparator_bfs(g, s, baselines::mapgraph_like(dev)).time_ms;
  const double t_big =
      baselines::comparator_bfs(g, s, baselines::graphbig_like(dev)).time_ms;
  EXPECT_LT(t_ent, t_b40c);
  EXPECT_LT(t_b40c, t_gun);
  EXPECT_LT(t_gun, t_map);
  EXPECT_LT(t_map, t_big);
}

TEST(Comparators, GraphBigWorstOnRoadNetworks) {
  const Csr g = graph::generate_road_grid(192, 192, 2);
  const sim::DeviceSpec dev = sim::k40_sim();
  const double t_b40c =
      baselines::comparator_bfs(g, 0, baselines::b40c_like(dev)).time_ms;
  const double t_big =
      baselines::comparator_bfs(g, 0, baselines::graphbig_like(dev)).time_ms;
  EXPECT_GT(t_big, 5.0 * t_b40c);
}

}  // namespace
}  // namespace ent
