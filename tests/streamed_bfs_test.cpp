// Tests for the streamed (out-of-core) BFS extension, EnterpriseBfs with
// partition residency on: exact results, LRU behaviour, transfer accounting,
// the expected cost ordering against the fully-resident system, and the
// transfers' place on the run's device and clock.
#include <gtest/gtest.h>

#include "baselines/cpu_bfs.hpp"
#include "bfs/guard.hpp"
#include "bfs/runner.hpp"
#include "bfs/validate.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "gpusim/fault.hpp"
#include "graph/generators.hpp"

namespace ent::enterprise {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr test_graph(std::uint64_t seed) {
  graph::KroneckerParams p;
  p.scale = 12;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::generate_kronecker(p);
}

EnterpriseOptions options(unsigned partitions, unsigned resident) {
  EnterpriseOptions opt;
  opt.device = sim::k40_sim();
  opt.residency = {.partitions = partitions, .resident = resident};
  return opt;
}

class StreamedCorrectness
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(StreamedCorrectness, MatchesCpuReference) {
  const auto [partitions, resident] = GetParam();
  const Csr g = test_graph(1);
  EnterpriseBfs sys(g, options(partitions, resident));
  for (vertex_t s : bfs::sample_sources(g, 2, 3)) {
    const auto got = sys.run(s);
    const auto ref = baselines::cpu_bfs(g, s);
    const auto rep = bfs::validate_levels(got.levels, ref.levels);
    EXPECT_TRUE(rep.ok) << partitions << "/" << resident << ": "
                        << rep.error;
    EXPECT_TRUE(bfs::validate_tree(g, g, got).ok);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StreamedCorrectness,
    ::testing::Values(std::make_tuple(2u, 1u), std::make_tuple(8u, 2u),
                      std::make_tuple(8u, 8u), std::make_tuple(16u, 3u)));

TEST(Streamed, FullyResidentHasMinimalFaults) {
  const Csr g = test_graph(3);
  EnterpriseBfs sys(g, options(8, 8));
  sys.run(bfs::sample_sources(g, 1, 5).at(0));
  const auto& stats = sys.residency_stats();
  // Each partition faults at most once (cold) when everything fits.
  EXPECT_LE(stats.partition_faults, 8u);
  EXPECT_GT(stats.partition_hits, 0u);
}

TEST(Streamed, TightMemoryFaultsMore) {
  const Csr g = test_graph(4);
  const auto src = bfs::sample_sources(g, 1, 7).at(0);
  EnterpriseBfs roomy(g, options(8, 8));
  roomy.run(src);
  EnterpriseBfs tight(g, options(8, 1));
  tight.run(src);
  EXPECT_GT(tight.residency_stats().partition_faults,
            roomy.residency_stats().partition_faults);
  EXPECT_GT(tight.residency_stats().bytes_transferred,
            roomy.residency_stats().bytes_transferred);
}

TEST(Streamed, TransfersCostTime) {
  const Csr g = test_graph(5);
  const auto src = bfs::sample_sources(g, 1, 9).at(0);
  EnterpriseBfs roomy(g, options(8, 8));
  const double t_roomy = roomy.run(src).time_ms;
  EnterpriseBfs tight(g, options(8, 1));
  const double t_tight = tight.run(src).time_ms;
  EXPECT_GT(t_tight, t_roomy);
  EXPECT_GT(tight.residency_stats().transfer_ms, 0.0);
}

TEST(Streamed, CommTimeAppearsInTrace) {
  const Csr g = test_graph(6);
  EnterpriseBfs sys(g, options(8, 1));
  const auto r = sys.run(bfs::sample_sources(g, 1, 11).at(0));
  double comm = 0.0;
  for (const auto& t : r.level_trace) comm += t.comm_ms;
  EXPECT_NEAR(comm, sys.residency_stats().transfer_ms, 1e-9);
}

TEST(Streamed, RejectsDirectedGraphs) {
  graph::RmatParams p;
  p.scale = 8;
  p.edge_factor = 4;
  const Csr g = graph::generate_rmat(p);
  EXPECT_DEATH(EnterpriseBfs(g, options(4, 2)), "undirected");
}

// The host link belongs to the run's device: a comm fault pinned to its
// ordinal hits the partition transfers, one pinned to another device does
// not.
TEST(Streamed, LinkFaultNamesTheRunsDevice) {
  const Csr g = test_graph(7);
  const vertex_t src = bfs::sample_sources(g, 1, 13).at(0);
  const auto run_under = [&](const char* plan) {
    sim::FaultInjector injector(sim::FaultPlan::parse(plan).value());
    EnterpriseOptions opt = options(8, 2);
    opt.fault_injector = &injector;
    opt.device_ordinal = 3;
    EnterpriseBfs sys(g, opt);
    return sys.run(src);
  };
  try {
    run_under("comm-timeout@device=3");
    ADD_FAILURE() << "a comm timeout on the run's device never fired";
  } catch (const sim::SimFault& fault) {
    EXPECT_EQ(fault.type(), sim::FaultType::kCommTimeout);
    EXPECT_EQ(fault.device(), 3u);
  }
  const auto r = run_under("comm-timeout@device=0");
  EXPECT_TRUE(
      bfs::validate_levels(r.levels, baselines::cpu_bfs(g, src).levels).ok);
}

// The guard reads the run's clock, which counts the transfers. On the
// device clock alone no level top reaches the run's device time, so a
// deadline there trips only because the transfers count.
TEST(Streamed, GuardDeadlineCountsTransfers) {
  const Csr g = test_graph(8);
  const vertex_t src = bfs::sample_sources(g, 1, 15).at(0);
  EnterpriseBfs unguarded(g, options(8, 1));
  const double time_ms = unguarded.run(src).time_ms;
  const double transfer_ms = unguarded.residency_stats().transfer_ms;
  ASSERT_GT(transfer_ms, 0.0);

  bfs::GuardLimits limits;
  limits.deadline_ms = time_ms - transfer_ms;
  bfs::RunGuard guard(limits);
  EnterpriseOptions opt = options(8, 1);
  opt.guard = &guard;
  EnterpriseBfs guarded(g, opt);
  try {
    guarded.run(src);
    ADD_FAILURE() << "the deadline at the device time never tripped";
  } catch (const bfs::GuardTripped& trip) {
    EXPECT_EQ(trip.kind(), bfs::GuardKind::kDeadline);
    EXPECT_GT(trip.level(), 0);
  }
}

}  // namespace
}  // namespace ent::enterprise
