// Tests for multi-GPU Enterprise: exact traversal, communication
// accounting, and the scaling behaviours of Fig. 15.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "baselines/cpu_bfs.hpp"
#include "bfs/validate.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "bfs/runner.hpp"
#include "enterprise/multi_gpu_bfs.hpp"
#include "graph/generators.hpp"
#include "obs/trace_sink.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr scaling_kron(int scale, int edge_factor, std::uint64_t seed) {
  graph::KroneckerParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  return graph::generate_kronecker(p);
}

class MultiGpuCorrectness : public ::testing::TestWithParam<unsigned> {};

TEST_P(MultiGpuCorrectness, MatchesCpuReference) {
  const Csr g = scaling_kron(11, 8, 1);
  enterprise::MultiGpuOptions opt;
  opt.num_gpus = GetParam();
  enterprise::MultiGpuEnterpriseBfs sys(g, {}, opt);
  for (vertex_t s : {vertex_t{0}, vertex_t{33}}) {
    if (g.out_degree(s) == 0) continue;
    const auto got = sys.run(s);
    const auto ref = baselines::cpu_bfs(g, s);
    const auto rep = bfs::validate_levels(got.levels, ref.levels);
    EXPECT_TRUE(rep.ok) << opt.num_gpus << " GPUs: " << rep.error;
    const auto tree = bfs::validate_tree(g, g, got);
    EXPECT_TRUE(tree.ok) << tree.error;
  }
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, MultiGpuCorrectness,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(MultiGpu, PartitionCoversVertexSpace) {
  const Csr g = scaling_kron(10, 8, 2);
  enterprise::MultiGpuOptions opt;
  opt.num_gpus = 4;
  enterprise::MultiGpuEnterpriseBfs sys(g, {}, opt);
  EXPECT_TRUE(graph::covers_all(sys.partition(), g.num_vertices()));
}

TEST(MultiGpu, CommunicationTrackedAndCompressed) {
  const Csr g = scaling_kron(11, 8, 3);
  enterprise::MultiGpuOptions opt;
  opt.num_gpus = 4;
  enterprise::MultiGpuEnterpriseBfs sys(g, {}, opt);
  sys.run(0);
  const auto& stats = sys.last_run_stats();
  EXPECT_GT(stats.comm_ms, 0.0);
  EXPECT_GT(stats.bytes_communicated, 0u);
  // The __ballot() compression claim (§4.4): ~90% reduction vs byte status.
  EXPECT_NEAR(static_cast<double>(stats.bytes_communicated) /
                  static_cast<double>(stats.bytes_uncompressed),
              0.125, 0.01);
}

TEST(MultiGpu, SingleGpuHasNoCommunication) {
  const Csr g = scaling_kron(10, 8, 4);
  enterprise::MultiGpuOptions opt;
  opt.num_gpus = 1;
  enterprise::MultiGpuEnterpriseBfs sys(g, {}, opt);
  sys.run(0);
  EXPECT_DOUBLE_EQ(sys.last_run_stats().comm_ms, 0.0);
}

TEST(MultiGpu, StrongScalingSpeedsUpButSubLinearly) {
  // Fig. 15: 2 GPUs give a real speedup; 8 GPUs saturate well below 8x.
  const Csr g = scaling_kron(16, 16, 5);
  double t1 = 0.0;
  double t2 = 0.0;
  double t8 = 0.0;
  for (unsigned gpus : {1u, 2u, 8u}) {
    enterprise::EnterpriseOptions eopt;
    eopt.device = sim::k40_sim();
    enterprise::MultiGpuOptions opt;
    opt.num_gpus = gpus;
    enterprise::MultiGpuEnterpriseBfs sys(g, eopt, opt);
    const double t = sys.run(bfs::sample_sources(g, 1, 5).at(0)).time_ms;
    if (gpus == 1) t1 = t;
    if (gpus == 2) t2 = t;
    if (gpus == 8) t8 = t;
  }
  EXPECT_LT(t2, t1);
  EXPECT_LT(t8, t1);                 // always beats one GPU
  EXPECT_LT(t8, t2 * 1.25);          // saturates near the 2-GPU point
  EXPECT_GT(t8, t1 / 8.0);           // far from ideal (comm-bound)
}

// With WB off every device expands its shard as one kernel at the
// configured granularity, the same knob the single-GPU driver honours.
TEST(MultiGpu, FixedGranularityIsHonoured) {
  struct KernelLog final : obs::TraceSink {
    std::set<std::string> seen;
    void kernel(const obs::KernelEvent& e) override { seen.insert(e.name); }
  };
  const Csr g = scaling_kron(10, 8, 5);
  KernelLog names;
  enterprise::EnterpriseOptions eopt;
  eopt.workload_balancing = false;
  eopt.fixed_granularity = enterprise::Granularity::kThread;
  eopt.sink = &names;
  enterprise::MultiGpuOptions opt;
  opt.num_gpus = 2;
  enterprise::MultiGpuEnterpriseBfs sys(g, eopt, opt);
  vertex_t source = 0;
  while (g.out_degree(source) == 0) ++source;
  const auto got = sys.run(source);
  const auto rep =
      bfs::validate_levels(got.levels, baselines::cpu_bfs(g, source).levels);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(names.seen.contains("Expand(Thread)"));
  EXPECT_FALSE(names.seen.contains("Expand(CTA)"));
}

TEST(MultiGpu, RejectsDirectedGraphs) {
  graph::RmatParams p;
  p.scale = 8;
  p.edge_factor = 4;
  const Csr g = graph::generate_rmat(p);
  enterprise::MultiGpuOptions opt;
  EXPECT_DEATH(enterprise::MultiGpuEnterpriseBfs(g, {}, opt), "undirected");
}

}  // namespace
}  // namespace ent
