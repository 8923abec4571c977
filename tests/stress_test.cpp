// Randomized stress sweep: deterministic pseudo-random graphs x option
// combinations, every run validated structurally and against the CPU
// reference. Catches interaction bugs the targeted suites miss.
#include <gtest/gtest.h>

#include <string>

#include "baselines/cpu_bfs.hpp"
#include "bfs/engine.hpp"
#include "bfs/resilient.hpp"
#include "bfs/runner.hpp"
#include "bfs/validate.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "enterprise/multi_gpu_bfs.hpp"
#include "graph/generators.hpp"
#include "gpusim/fault.hpp"
#include "util/random.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr random_graph(SplitMix64& rng) {
  switch (rng.next_below(5)) {
    case 0: {
      graph::KroneckerParams p;
      p.scale = static_cast<int>(8 + rng.next_below(4));
      p.edge_factor = static_cast<int>(2 + rng.next_below(15));
      p.seed = rng.next();
      return graph::generate_kronecker(p);
    }
    case 1: {
      graph::RmatParams p;
      p.scale = static_cast<int>(8 + rng.next_below(4));
      p.edge_factor = static_cast<int>(2 + rng.next_below(15));
      p.seed = rng.next();
      return graph::generate_rmat(p);
    }
    case 2: {
      graph::SocialProfile p;
      p.num_vertices = static_cast<vertex_t>(256 + rng.next_below(4096));
      p.average_degree = 2.0 + static_cast<double>(rng.next_below(20));
      p.min_degree = 1 + rng.next_below(3);
      p.directed = rng.next_below(2) == 0;
      p.seed = rng.next();
      return graph::generate_social(p);
    }
    case 3: {
      const auto side = static_cast<vertex_t>(8 + rng.next_below(40));
      return graph::generate_road_grid(side, side, rng.next());
    }
    default:
      return graph::generate_erdos_renyi(
          static_cast<vertex_t>(128 + rng.next_below(4096)),
          static_cast<graph::edge_t>(256 + rng.next_below(16384)),
          rng.next_below(2) == 0, rng.next());
  }
}

enterprise::EnterpriseOptions random_options(SplitMix64& rng) {
  enterprise::EnterpriseOptions opt;
  opt.workload_balancing = rng.next_below(2) == 0;
  opt.hub_cache = rng.next_below(2) == 0;
  opt.allow_direction_switch = rng.next_below(2) == 0;
  opt.direction.use_gamma = rng.next_below(2) == 0;
  opt.direction.gamma_threshold_percent =
      10.0 + static_cast<double>(rng.next_below(60));
  opt.direction.alpha_threshold = 2.0 + static_cast<double>(rng.next_below(30));
  opt.hub_cache_capacity = 16u << rng.next_below(8);
  opt.chunked_switch_scan = rng.next_below(2) == 0;
  opt.bottom_up_filter = rng.next_below(2) == 0;
  if (rng.next_below(3) == 0) opt.switch_back_beta = 18.0;
  switch (rng.next_below(3)) {
    case 0: opt.fixed_granularity = enterprise::Granularity::kThread; break;
    case 1: opt.fixed_granularity = enterprise::Granularity::kWarp; break;
    default: opt.fixed_granularity = enterprise::Granularity::kCta; break;
  }
  opt.device = rng.next_below(2) == 0 ? sim::k40() : sim::k40_sim();
  return opt;
}

// Repro banner attached (via SCOPED_TRACE) to every assertion in the sweep
// bodies: a failing CI line carries the exact parameter seed — and, for the
// fault sweep, the full fault-plan summary — so the failing configuration
// can be replayed locally with --gtest_filter=<suite>/<seed> alone.
std::string repro_banner(const char* sweep, std::uint64_t seed,
                         const std::string& extra = "") {
  std::string banner = "REPRO: " + std::string(sweep) + " sweep, seed " +
                       std::to_string(seed) +
                       " (--gtest_filter=Seeds/" + sweep + ".*/" +
                       std::to_string(seed) + ")";
  if (!extra.empty()) banner += " | " + extra;
  return banner;
}

class StressSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressSweep, RandomConfigMatchesReference) {
  SCOPED_TRACE(repro_banner("StressSweep", GetParam()));
  SplitMix64 rng(GetParam() * 0x9e3779b9ull + 1);
  const Csr g = random_graph(rng);
  const enterprise::EnterpriseOptions opt = random_options(rng);
  enterprise::EnterpriseBfs sys(g, opt);

  const auto sources = bfs::sample_sources(g, 2, rng.next());
  ASSERT_FALSE(sources.empty());
  std::optional<Csr> reverse;
  if (g.directed()) reverse.emplace(g.reversed());
  for (vertex_t s : sources) {
    const auto got = sys.run(s);
    const auto ref = baselines::cpu_bfs(g, s);
    const auto levels = bfs::validate_levels(got.levels, ref.levels);
    EXPECT_TRUE(levels.ok)
        << "seed " << GetParam() << " n=" << g.num_vertices()
        << " directed=" << g.directed() << " src=" << s << ": "
        << levels.error;
    const auto tree =
        bfs::validate_tree(g, reverse ? *reverse : g, got);
    EXPECT_TRUE(tree.ok) << "seed " << GetParam() << ": " << tree.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressSweep, ::testing::Range<std::uint64_t>(0, 24));

class MultiGpuStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiGpuStress, RandomUndirectedConfigMatchesReference) {
  SCOPED_TRACE(repro_banner("MultiGpuStress", GetParam()));
  SplitMix64 rng(GetParam() * 0x7f4a7c15ull + 3);
  graph::KroneckerParams p;
  p.scale = static_cast<int>(8 + rng.next_below(4));
  p.edge_factor = static_cast<int>(2 + rng.next_below(12));
  p.seed = rng.next();
  const Csr g = graph::generate_kronecker(p);

  enterprise::MultiGpuOptions opt;
  opt.num_gpus = static_cast<unsigned>(1 + rng.next_below(8));
  enterprise::EnterpriseOptions eopt = random_options(rng);
  opt.partition = rng.next_below(2) == 0
                      ? enterprise::PartitionPolicy::kEqualVertices
                      : enterprise::PartitionPolicy::kEqualEdges;
  // The multi-GPU driver has no single-kernel path for switch-back.
  eopt.switch_back_beta = 0.0;
  enterprise::MultiGpuEnterpriseBfs sys(g, eopt, opt);

  const auto s = bfs::sample_sources(g, 1, rng.next()).at(0);
  const auto got = sys.run(s);
  const auto ref = baselines::cpu_bfs(g, s);
  const auto levels = bfs::validate_levels(got.levels, ref.levels);
  EXPECT_TRUE(levels.ok) << "seed " << GetParam() << " gpus="
                         << opt.num_gpus << ": " << levels.error;
  EXPECT_TRUE(bfs::validate_tree(g, g, got).ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiGpuStress,
                         ::testing::Range<std::uint64_t>(0, 12));

// Builds a random fault plan: a mix of scheduled one-shot faults and
// unlimited probability rules, over every fault type.
sim::FaultPlan random_fault_plan(SplitMix64& rng) {
  sim::FaultPlan plan;
  plan.seed = rng.next();
  const std::size_t num_rules = 1 + rng.next_below(4);
  for (std::size_t i = 0; i < num_rules; ++i) {
    sim::FaultRule rule;
    switch (rng.next_below(5)) {
      case 0: rule.type = sim::FaultType::kTransientKernelAbort; break;
      case 1: rule.type = sim::FaultType::kEccMemoryError; break;
      case 2: rule.type = sim::FaultType::kDeviceLost; break;
      case 3: rule.type = sim::FaultType::kCommTimeout; break;
      default: rule.type = sim::FaultType::kCommPartyDrop; break;
    }
    if (rng.next_below(2) == 0) {
      rule.probability = 0.002 * static_cast<double>(1 + rng.next_below(50));
      rule.max_fires = rng.next_below(2) == 0
                           ? 0u
                           : static_cast<unsigned>(1 + rng.next_below(3));
    } else {
      switch (rng.next_below(3)) {
        case 0: rule.index = static_cast<std::int64_t>(rng.next_below(40)); break;
        case 1: rule.level = static_cast<std::int32_t>(rng.next_below(6)); break;
        default: rule.device = static_cast<int>(rng.next_below(4)); break;
      }
    }
    plan.rules.push_back(rule);
  }
  return plan;
}

// Satellite sweep: under arbitrary randomized fault schedules, every run
// either completes with a tree that validates, or fails loudly with the
// typed ResilienceExhausted — never a silent wrong answer.
class FaultStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultStress, ValidatedTreeOrTypedFailure) {
  SplitMix64 rng(GetParam() * 0x2545f491ull + 11);
  graph::KroneckerParams p;
  p.scale = static_cast<int>(8 + rng.next_below(3));
  p.edge_factor = static_cast<int>(4 + rng.next_below(10));
  p.seed = rng.next();
  const Csr g = graph::generate_kronecker(p);

  sim::FaultInjector injector(random_fault_plan(rng));
  // The fault-plan summary is part of the repro banner: the plan is derived
  // from the seed, but printing it spares the next engineer a debugger trip.
  SCOPED_TRACE(repro_banner("FaultStress", GetParam(),
                            "plan " + injector.plan().summary()));
  bfs::EngineConfig config;
  config.fault_injector = &injector;
  const bool multi = rng.next_below(3) == 0;
  if (multi) {
    config.multi_gpu.num_gpus = static_cast<unsigned>(2 + rng.next_below(3));
  }
  if (rng.next_below(4) == 0) config.resilience.use_checkpoints = false;
  config.resilience.max_retries = static_cast<int>(1 + rng.next_below(3));

  const auto engine = bfs::make_engine(
      multi ? "resilient:multi-gpu" : "resilient:enterprise", g, config);
  ASSERT_NE(engine, nullptr);

  const auto sources = bfs::sample_sources(g, 2, rng.next());
  ASSERT_FALSE(sources.empty());
  for (vertex_t s : sources) {
    try {
      const auto got = engine->run(s);
      const auto tree = bfs::validate_tree(g, g, got);
      EXPECT_TRUE(tree.ok)
          << "seed " << GetParam() << " plan "
          << injector.plan().summary() << ": " << tree.error;
      const auto ref = baselines::cpu_bfs(g, s);
      EXPECT_TRUE(bfs::validate_levels(got.levels, ref.levels).ok)
          << "seed " << GetParam();
      EXPECT_GE(got.attempts, 1);
    } catch (const bfs::ResilienceExhausted& e) {
      // Loud, typed, and accounted-for: acceptable only when faults were
      // actually seen.
      EXPECT_GT(e.stats().faults_seen, 0u) << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultStress,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace ent
