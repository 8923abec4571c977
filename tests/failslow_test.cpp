// Fail-slow tolerance (gpusim/straggler.hpp, enterprise/multi_gpu_bfs.cpp):
// slow/stall plan grammar, timing-only injection, FaultInjector::reset()
// state coverage, the EWMA-vs-median straggler detector, the mitigation
// ladder (speculation -> rebalance -> demotion through ResilientEngine),
// the zero-overhead guarantee with the machinery disarmed, and the
// fail_slow report section's diff parity.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/cpu_bfs.hpp"
#include "bfs/engine.hpp"
#include "bfs/resilient.hpp"
#include "bfs/runner.hpp"
#include "bfs/validate.hpp"
#include "enterprise/multi_gpu_bfs.hpp"
#include "graph/generators.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/straggler.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace_sink.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr test_graph(int scale, int edge_factor, std::uint64_t seed) {
  graph::KroneckerParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  return graph::generate_kronecker(p);
}

// --- plan grammar -----------------------------------------------------------

TEST(FailSlowPlan, ParsesSlowAndStallRules) {
  const auto plan = sim::FaultPlan::parse(
      "slow@2=4.5,after=10,fires=6;stall@1,level=3,stall_ms=2.5;seed=7");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->rules.size(), 2u);
  EXPECT_TRUE(plan->has_slow_rules());

  const sim::FaultRule& slow = plan->rules[0];
  EXPECT_EQ(slow.type, sim::FaultType::kSlowDown);
  EXPECT_EQ(slow.device, 2);
  EXPECT_DOUBLE_EQ(slow.slow_factor, 4.5);
  EXPECT_DOUBLE_EQ(slow.after_ms, 10.0);
  EXPECT_EQ(slow.max_fires, 6u);

  const sim::FaultRule& stall = plan->rules[1];
  EXPECT_EQ(stall.type, sim::FaultType::kStall);
  EXPECT_EQ(stall.device, 1);
  EXPECT_EQ(stall.level, 3);
  EXPECT_DOUBLE_EQ(stall.stall_ms, 2.5);
  EXPECT_EQ(stall.max_fires, 0u);  // fail-slow rules default to unlimited
}

TEST(FailSlowPlan, SummaryRoundTrips) {
  const std::string spec =
      "slow@0=4;slow@1=2,after=5,fires=3;stall@2,level=1,stall_ms=0.5;seed=9";
  const auto plan = sim::FaultPlan::parse(spec);
  ASSERT_TRUE(plan.has_value());
  const auto reparsed = sim::FaultPlan::parse(plan->summary());
  ASSERT_TRUE(reparsed.has_value()) << plan->summary();
  EXPECT_EQ(reparsed->summary(), plan->summary());
  ASSERT_EQ(reparsed->rules.size(), plan->rules.size());
  EXPECT_DOUBLE_EQ(reparsed->rules[0].slow_factor, 4.0);
  EXPECT_DOUBLE_EQ(reparsed->rules[2].stall_ms, 0.5);
}

TEST(FailSlowPlan, RejectsMalformedRules) {
  std::string error;
  // A multiplier of 1 (or less) is not a slowdown.
  EXPECT_FALSE(sim::FaultPlan::parse("slow@0=1", &error).has_value());
  EXPECT_NE(error.find("factor > 1"), std::string::npos) << error;
  EXPECT_FALSE(sim::FaultPlan::parse("slow@0=0.5").has_value());
  EXPECT_FALSE(sim::FaultPlan::parse("slow@0", &error).has_value());
  EXPECT_FALSE(sim::FaultPlan::parse("slow=4").has_value());
  EXPECT_FALSE(sim::FaultPlan::parse("slow@nope=4").has_value());
  EXPECT_FALSE(sim::FaultPlan::parse("slow@0=4,level=2", &error).has_value());
  EXPECT_NE(error.find("unknown slow condition"), std::string::npos) << error;
  EXPECT_FALSE(sim::FaultPlan::parse("stall@0,stall_ms=0").has_value());
  EXPECT_FALSE(sim::FaultPlan::parse("stall@0,stall_ms=-1").has_value());
  EXPECT_FALSE(sim::FaultPlan::parse("stall@0,bogus=1", &error).has_value());
  EXPECT_NE(error.find("unknown stall condition"), std::string::npos) << error;
}

TEST(FailSlowPlan, RejectsDuplicatesAndConflicts) {
  std::string error;
  EXPECT_FALSE(
      sim::FaultPlan::parse("slow@0=4;slow@0=4", &error).has_value());
  EXPECT_NE(error.find("duplicate rule"), std::string::npos) << error;
  // Two unconditional multipliers on one device from the same instant: which
  // factor wins would be rule-order lottery, the ambiguity the link grammar
  // also rejects.
  EXPECT_FALSE(
      sim::FaultPlan::parse("slow@0=4;slow@0=2", &error).has_value());
  EXPECT_NE(error.find("conflicting slow rules"), std::string::npos) << error;
  // Different devices, different arming instants, or an explicit probability
  // de-conflict.
  EXPECT_TRUE(sim::FaultPlan::parse("slow@0=4;slow@1=2").has_value());
  EXPECT_TRUE(sim::FaultPlan::parse("slow@0=4;slow@0=2,after=10").has_value());
  // Slow and stall coexist (penalties add); stalls never conflict.
  EXPECT_TRUE(sim::FaultPlan::parse("slow@0=4;stall@0").has_value());
  EXPECT_TRUE(
      sim::FaultPlan::parse("stall@0,level=1;stall@0,level=2").has_value());
}

// --- injector: timing-only penalties ----------------------------------------

TEST(FailSlowInjector, SlowMultipliesAndStallAddsWithoutThrowing) {
  const auto plan =
      sim::FaultPlan::parse("slow@0=4;stall@1,stall_ms=2.5;seed=1");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  ASSERT_TRUE(injector.has_slow_rules());

  // slow: base * (factor - 1) extra; stall: a fixed add; other devices free.
  EXPECT_DOUBLE_EQ(injector.slow_penalty_ms(0, "expand", 10.0, 0.0), 30.0);
  EXPECT_DOUBLE_EQ(injector.slow_penalty_ms(1, "expand", 10.0, 0.0), 2.5);
  EXPECT_DOUBLE_EQ(injector.slow_penalty_ms(2, "expand", 10.0, 0.0), 0.0);

  // The fault is invisible except through timing: nothing was thrown, the
  // devices are all still healthy, and each rule counted one injected fault
  // on first application only.
  EXPECT_FALSE(injector.device_lost(0));
  EXPECT_EQ(injector.faults_injected(), 2u);
  injector.slow_penalty_ms(0, "expand", 10.0, 1.0);
  EXPECT_EQ(injector.faults_injected(), 2u);
  EXPECT_EQ(injector.slow_faults(), 2u);
  EXPECT_EQ(injector.slow_applications(), 3u);
  EXPECT_DOUBLE_EQ(injector.slow_ms_injected(), 62.5);
}

TEST(FailSlowInjector, AfterArmsAndFiresCaps) {
  const auto plan = sim::FaultPlan::parse("slow@0=3,after=5,fires=2;seed=1");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);

  // Not armed before the clock passes after_ms.
  EXPECT_DOUBLE_EQ(injector.slow_penalty_ms(0, "k", 1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(injector.slow_penalty_ms(0, "k", 1.0, 4.9), 0.0);
  EXPECT_EQ(injector.slow_applications(), 0u);
  // Two applications, then the fires budget is spent.
  EXPECT_DOUBLE_EQ(injector.slow_penalty_ms(0, "k", 1.0, 5.0), 2.0);
  EXPECT_DOUBLE_EQ(injector.slow_penalty_ms(0, "k", 1.0, 6.0), 2.0);
  EXPECT_DOUBLE_EQ(injector.slow_penalty_ms(0, "k", 1.0, 7.0), 0.0);
  EXPECT_EQ(injector.slow_applications(), 2u);
  EXPECT_DOUBLE_EQ(injector.slow_ms_injected(), 4.0);
}

TEST(FailSlowInjector, StallPinnedToLevelOnlyFiresThere) {
  const auto plan = sim::FaultPlan::parse("stall@0,level=2,stall_ms=3;seed=1");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);

  injector.set_level(1);
  EXPECT_DOUBLE_EQ(injector.slow_penalty_ms(0, "k", 1.0, 0.0), 0.0);
  injector.set_level(2);
  EXPECT_DOUBLE_EQ(injector.slow_penalty_ms(0, "k", 1.0, 0.0), 3.0);
  injector.set_level(3);
  EXPECT_DOUBLE_EQ(injector.slow_penalty_ms(0, "k", 1.0, 0.0), 0.0);
}

// --- satellite: reset() restores the exact post-construction state ----------

TEST(FailSlowInjector, ResetRearmsSlowCountersAndFiresBudgets) {
  const auto plan = sim::FaultPlan::parse("slow@0=4,after=2,fires=2;seed=1");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);

  const auto drain = [&injector] {
    double total = 0.0;
    for (int i = 0; i < 4; ++i) {
      total +=
          injector.slow_penalty_ms(0, "k", 1.0, static_cast<double>(i));
    }
    return total;
  };
  const double first = drain();
  EXPECT_DOUBLE_EQ(first, 6.0);  // armed at clock 2 and 3, then capped
  EXPECT_EQ(injector.slow_faults(), 1u);

  // A checkpoint-replay restart resets the injector and replays the same
  // clock sequence: the after= arming instant and the fires= budget must
  // replay identically, not resume half-spent.
  injector.reset();
  EXPECT_EQ(injector.slow_faults(), 0u);
  EXPECT_EQ(injector.slow_applications(), 0u);
  EXPECT_DOUBLE_EQ(injector.slow_ms_injected(), 0.0);
  EXPECT_DOUBLE_EQ(drain(), first);
}

TEST(FailSlowInjector, ResetCoversEveryFaultClassAtOnce) {
  // One plan arming a scheduled kernel fault, a persisted link fault, a
  // degrade, and a slow rule: reset() must restore all four machines.
  const auto plan = sim::FaultPlan::parse(
      "transient@index=1;link@0-1:down;link@2-3:degrade=0.25;"
      "slow@0=2,fires=1;seed=3");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);

  const auto exercise = [&injector] {
    injector.on_kernel(0, "a", 0.0);  // ordinal 0: clean
    EXPECT_THROW(injector.on_kernel(0, "b", 1.0), sim::SimFault);
    EXPECT_THROW(injector.on_link(0, 1, 0.0), sim::SimFault);
    EXPECT_THROW(injector.on_link(2, 3, 0.0), sim::SimFault);
    EXPECT_DOUBLE_EQ(injector.slow_penalty_ms(0, "k", 1.0, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(injector.slow_penalty_ms(0, "k", 1.0, 1.0), 0.0);
  };
  exercise();
  EXPECT_TRUE(injector.link_down(0, 1));
  EXPECT_DOUBLE_EQ(injector.link_degrade_factor(2, 3), 0.25);
  EXPECT_EQ(injector.launches(), 2u);
  EXPECT_EQ(injector.faults_injected(), 4u);

  injector.reset();
  EXPECT_EQ(injector.launches(), 0u);
  EXPECT_EQ(injector.faults_injected(), 0u);
  EXPECT_FALSE(injector.link_down(0, 1));
  EXPECT_DOUBLE_EQ(injector.link_degrade_factor(2, 3), 1.0);
  // The replay is byte-identical: same ordinals fault, same budgets spend.
  exercise();
  EXPECT_EQ(injector.faults_injected(), 4u);
}

TEST(FailSlowInjector, ProbabilisticSlowScheduleReplaysAfterReset) {
  // The plan grammar keeps slow rules structural (after/fires only), but a
  // probabilistic slow rule is still a legal FaultPlan — the injector's RNG
  // stream must rewind with reset() like every other draw.
  sim::FaultPlan plan;
  plan.seed = 11;
  sim::FaultRule rule;
  rule.type = sim::FaultType::kSlowDown;
  rule.device = 0;
  rule.slow_factor = 2.0;
  rule.probability = 0.3;
  rule.max_fires = 0;
  plan.rules.push_back(rule);
  sim::FaultInjector injector(plan);

  const auto schedule = [&injector] {
    std::vector<int> hits;
    for (int i = 0; i < 100; ++i) {
      if (injector.slow_penalty_ms(0, "k", 1.0, 0.0) > 0.0) hits.push_back(i);
    }
    return hits;
  };
  const auto first = schedule();
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 100u);
  injector.reset();
  EXPECT_EQ(schedule(), first);  // same RNG stream from the plan seed
}

// --- detector ----------------------------------------------------------------

sim::StragglerOptions detector_options() {
  sim::StragglerOptions o;
  o.enabled = true;
  o.k = 3.0;
  o.warmup_levels = 3;
  o.hysteresis_levels = 2;
  return o;
}

// Feed four devices one level where device 0 runs `slow_ms` and the rest
// 1 ms, then judge.
std::optional<sim::StragglerVerdict> feed_level(sim::StragglerDetector& d,
                                                double slow_ms) {
  d.observe(0, slow_ms);
  for (unsigned dev = 1; dev < 4; ++dev) d.observe(dev, 1.0);
  return d.judge();
}

TEST(StragglerDetector, WarmupThenHysteresisThenFlag) {
  sim::StragglerDetector d(detector_options());
  // Levels 1-2: inside the warm-up window (observations < 3), never judged
  // however slow. Level 3: warm, first over-threshold judgement —
  // hysteresis holds it.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(feed_level(d, 50.0).has_value()) << i;
  }
  // Level 4: second consecutive breach — flagged.
  const auto verdict = feed_level(d, 50.0);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->device, 0u);
  EXPECT_DOUBLE_EQ(verdict->median_ms, 1.0);
  EXPECT_GT(verdict->slowdown, 3.0);
  EXPECT_EQ(d.detections(), 1u);
}

TEST(StragglerDetector, HealthyDevicesNeverFlag) {
  sim::StragglerDetector d(detector_options());
  for (int i = 0; i < 20; ++i) {
    // Jitter below k x median never breaches.
    EXPECT_FALSE(feed_level(d, 2.0).has_value()) << i;
  }
  EXPECT_EQ(d.detections(), 0u);
}

TEST(StragglerDetector, SingleOutlierLevelDecaysOut) {
  sim::StragglerDetector d(detector_options());
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(feed_level(d, 1.0).has_value());
  // One bad level breaches once (EWMA 4.5 > 3x median); the next healthy
  // level decays the EWMA back under the threshold and re-arms hysteresis.
  EXPECT_FALSE(feed_level(d, 8.0).has_value());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(feed_level(d, 1.0).has_value()) << i;
  }
  EXPECT_EQ(d.detections(), 0u);
}

TEST(StragglerDetector, ForgetDropsDeviceAndResetRestartsWarmup) {
  sim::StragglerDetector d(detector_options());
  for (int i = 0; i < 3; ++i) feed_level(d, 50.0);
  ASSERT_TRUE(feed_level(d, 50.0).has_value());
  EXPECT_GT(d.ewma_ms(0), 0.0);

  // Demoted: the device leaves the tracked set, the rest stay warm.
  d.forget(0);
  EXPECT_DOUBLE_EQ(d.ewma_ms(0), 0.0);
  EXPECT_GT(d.ewma_ms(1), 0.0);

  // Repartition: every baseline changed, warm-up starts over.
  d.reset();
  EXPECT_DOUBLE_EQ(d.ewma_ms(1), 0.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(feed_level(d, 50.0).has_value()) << i;
  }
}

// --- zero overhead when disarmed --------------------------------------------

TEST(FailSlowZeroOverhead, NonMatchingSlowRuleAddsNoSimulatedTime) {
  const Csr g = test_graph(11, 8, 4);
  enterprise::MultiGpuOptions mopt;
  mopt.num_gpus = 2;
  enterprise::MultiGpuEnterpriseBfs clean(g, {}, mopt);
  const double clean_ms = [&] {
    clean.run(0);
    return clean.last_run_stats().total_ms;
  }();

  // A slow rule scoped to a device that never launches: the penalty query
  // is armed (has_slow_rules) but must return zero everywhere, leaving the
  // simulated clock untouched.
  const auto plan = sim::FaultPlan::parse("slow@7=4;seed=1");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  enterprise::EnterpriseOptions eopt;
  eopt.fault_injector = &injector;
  enterprise::MultiGpuEnterpriseBfs armed(g, eopt, mopt);
  armed.run(0);
  EXPECT_EQ(armed.last_run_stats().total_ms, clean_ms);
  EXPECT_EQ(injector.slow_applications(), 0u);
  EXPECT_EQ(injector.faults_injected(), 0u);
}

obs::Json multi_gpu_report_json(const sim::StragglerOptions& straggler,
                                const std::string& fault_spec) {
  const Csr g = test_graph(10, 8, 6);
  obs::JsonTraceSink sink;
  obs::MetricsRegistry metrics;
  std::optional<sim::FaultInjector> injector;

  bfs::EngineConfig config;
  config.sink = &sink;
  config.metrics = &metrics;
  config.multi_gpu.num_gpus = 4;
  config.multi_gpu.straggler = straggler;
  if (!fault_spec.empty()) {
    const auto plan = sim::FaultPlan::parse(fault_spec);
    EXPECT_TRUE(plan.has_value());
    injector.emplace(*plan);
    injector->set_sink(&sink);
    injector->set_metrics(&metrics);
    config.fault_injector = &*injector;
  }

  const auto engine = bfs::make_engine("multi-gpu", g, config);
  const auto summary = bfs::run_sources(g, *engine, 3, 13);

  obs::RunReport report;
  report.system = engine->name();
  report.device = "K40";
  report.options_summary = engine->options_summary();
  report.graph = {"kron-10-8", g.num_vertices(), g.num_edges(), g.directed()};
  report.seed = 13;
  report.requested_sources = 3;
  report.summary = summary;
  report.levels = engine->trace();
  report.metrics = metrics.to_json();
  report.events = sink.events();
  return report.to_json();
}

// The acceptance bar: no slow rules in the plan and the detector off means
// byte-identical reports — the fail-slow machinery may not move a single
// simulated timestamp, metric, or event while disarmed.
TEST(FailSlowZeroOverhead, DisarmedReportsAreByteIdentical) {
  sim::StragglerOptions off;  // enabled = false
  const obs::Json baseline = multi_gpu_report_json(off, "");

  // Non-default knobs behind a disabled master switch change nothing.
  sim::StragglerOptions tuned;
  tuned.enabled = false;
  tuned.k = 1.01;
  tuned.warmup_levels = 0;
  tuned.hysteresis_levels = 1;
  EXPECT_EQ(multi_gpu_report_json(tuned, "").dump(2), baseline.dump(2));

  // A fault plan without fail-slow rules keeps the penalty path disarmed.
  const obs::Json with_plan =
      multi_gpu_report_json(off, "transient@index=9999;seed=5");
  // Identical apart from the events/metrics the transient plan itself adds.
  EXPECT_EQ(with_plan.at("summary").dump(2), baseline.at("summary").dump(2));
  EXPECT_EQ(with_plan.at("levels").dump(2), baseline.at("levels").dump(2));
}

TEST(FailSlowZeroOverhead, DetectionAndMitigationAreDeterministic) {
  sim::StragglerOptions on;
  on.enabled = true;
  on.k = 2.0;
  const obs::Json first = multi_gpu_report_json(on, "slow@0=6;seed=3");
  const obs::Json second = multi_gpu_report_json(on, "slow@0=6;seed=3");
  EXPECT_EQ(first.dump(2), second.dump(2));
}

// --- mitigation ladder -------------------------------------------------------

struct LadderRun {
  obs::MetricsRegistry metrics;
  std::vector<graph::VertexRange> partition;
  double total_ms = 0.0;
  bool valid = true;
};

LadderRun run_ladder(const Csr& g, unsigned gpus,
                     const sim::StragglerOptions& straggler,
                     const std::string& spec, unsigned sources) {
  LadderRun out;
  const auto plan = sim::FaultPlan::parse(spec);
  EXPECT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  injector.set_metrics(&out.metrics);

  enterprise::EnterpriseOptions eopt;
  eopt.fault_injector = &injector;
  eopt.metrics = &out.metrics;
  enterprise::MultiGpuOptions mopt;
  mopt.num_gpus = gpus;
  mopt.straggler = straggler;
  enterprise::MultiGpuEnterpriseBfs sys(g, eopt, mopt);

  const auto srcs = bfs::sample_sources(g, sources, 17);
  for (vertex_t s : srcs) {
    const auto r = sys.run(s);
    out.total_ms += sys.last_run_stats().total_ms;
    const auto ref = baselines::cpu_bfs(g, s);
    const auto levels = bfs::validate_levels(r.levels, ref.levels);
    EXPECT_TRUE(levels.ok) << levels.error;
    if (!levels.ok) out.valid = false;
    const auto tree = bfs::validate_tree(g, g, r);
    EXPECT_TRUE(tree.ok) << tree.error;
    if (!tree.ok) out.valid = false;
  }
  out.partition = sys.partition();
  return out;
}

TEST(MitigationLadder, SpeculationWinsAndResultsStayExact) {
  const Csr g = test_graph(12, 8, 21);
  sim::StragglerOptions straggler;
  straggler.enabled = true;
  straggler.k = 2.0;
  straggler.rebalance = false;
  straggler.speculation_limit = 1u << 20;  // never escalate past rung 1

  LadderRun run = run_ladder(g, 4, straggler, "slow@0=6;seed=3", 3);
  ASSERT_TRUE(run.valid);
  // The detector flagged and the level loop speculated; the internal
  // byte-identity assertion on the shadow shard ran on every speculation.
  const std::uint64_t specs =
      run.metrics.counter("straggler.speculations").value();
  EXPECT_GE(run.metrics.counter("straggler.detections").value(), 1u);
  ASSERT_GE(specs, 1u);
  EXPECT_EQ(run.metrics.counter("straggler.speculations_won").value() +
                run.metrics.counter("straggler.speculations_lost").value(),
            specs);
  // A 6x straggler always loses to a healthy helper running two shards.
  EXPECT_GE(run.metrics.counter("straggler.speculations_won").value(), 1u);
  EXPECT_GT(run.metrics.gauge("straggler.wasted_spec_ms").value(), 0.0);
  // Rung 2 stayed dark.
  EXPECT_EQ(run.metrics.counter("straggler.rebalances").value(), 0u);
}

TEST(MitigationLadder, RebalanceShrinksTheSlowShard) {
  const Csr g = test_graph(12, 8, 22);
  sim::StragglerOptions straggler;
  straggler.enabled = true;
  straggler.k = 2.0;
  straggler.speculation = false;
  straggler.rebalance_limit = 1u << 20;

  LadderRun run = run_ladder(g, 4, straggler, "slow@0=6;seed=3", 3);
  ASSERT_TRUE(run.valid);
  EXPECT_GE(run.metrics.counter("straggler.rebalances").value(), 1u);
  EXPECT_GE(run.metrics.counter("straggler.vertices_moved").value(), 1u);
  // Device 0 now owns less than its original 1/4 share; the partition still
  // covers the vertex space.
  ASSERT_EQ(run.partition.size(), 4u);
  EXPECT_LT(run.partition[0].size(), g.num_vertices() / 4);
  EXPECT_TRUE(graph::covers_all(run.partition, g.num_vertices()));
  EXPECT_EQ(run.metrics.counter("straggler.speculations").value(), 0u);
}

TEST(MitigationLadder, ObserveOnlyNeverMitigatesOrDemotes) {
  const Csr g = test_graph(11, 8, 23);
  sim::StragglerOptions straggler;
  straggler.enabled = true;
  straggler.k = 2.0;
  straggler.speculation = false;
  straggler.rebalance = false;  // the --no-speculation --no-rebalance baseline

  LadderRun run = run_ladder(g, 4, straggler, "slow@0=6;seed=3", 3);
  ASSERT_TRUE(run.valid);
  EXPECT_GE(run.metrics.counter("straggler.detections").value(), 1u);
  EXPECT_EQ(run.metrics.counter("straggler.speculations").value(), 0u);
  EXPECT_EQ(run.metrics.counter("straggler.rebalances").value(), 0u);
  EXPECT_EQ(run.metrics.counter("straggler.demotions").value(), 0u);
}

TEST(MitigationLadder, ExhaustedLadderDemotesThroughResilientEngine) {
  const Csr g = test_graph(11, 8, 24);
  obs::JsonTraceSink sink;
  obs::MetricsRegistry metrics;
  const auto plan = sim::FaultPlan::parse("slow@0=8;seed=3");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  injector.set_sink(&sink);
  injector.set_metrics(&metrics);

  bfs::EngineConfig config;
  config.sink = &sink;
  config.metrics = &metrics;
  config.fault_injector = &injector;
  config.multi_gpu.num_gpus = 4;
  config.multi_gpu.straggler.enabled = true;
  config.multi_gpu.straggler.k = 2.0;
  // Zero rounds of either rung: the first flag demotes.
  config.multi_gpu.straggler.speculation_limit = 0;
  config.multi_gpu.straggler.rebalance_limit = 0;

  const auto engine = bfs::make_engine("resilient:multi-gpu", g, config);
  const auto summary = bfs::run_sources(g, *engine, 3, 25);
  EXPECT_GT(summary.mean_teps, 0.0);

  EXPECT_GE(metrics.counter("straggler.demotions").value(), 1u);
  const auto* resilient =
      dynamic_cast<const bfs::ResilientEngine*>(engine.get());
  ASSERT_NE(resilient, nullptr);
  EXPECT_GE(resilient->session_stats().devices_blacklisted, 1u);
  EXPECT_GE(resilient->session_stats().repartitions, 1u);
  // The blacklist recovery event names the fail-slow cause and slowdown.
  EXPECT_NE(sink.events().dump().find("fail-slow"), std::string::npos);
}

// Acceptance bar: a slow@0=4 storm on 8 simulated devices, full ladder vs
// the observe-only baseline — mitigation must recover at least 2x.
TEST(MitigationLadder, RecoversTwoXUnderSlowStormOnEightDevices) {
  // Dense enough that per-level expansion dominates the all-gather — on a
  // comm-bound workload no amount of compute mitigation could reach 2x.
  const Csr g = test_graph(12, 64, 26);
  const std::string spec = "slow@0=4;seed=5";

  sim::StragglerOptions baseline;
  baseline.enabled = true;
  baseline.k = 2.0;
  baseline.speculation = false;
  baseline.rebalance = false;

  sim::StragglerOptions mitigated = baseline;
  mitigated.speculation = true;
  mitigated.rebalance = true;
  mitigated.speculation_limit = 0;  // escalate to demotion on first flag
  mitigated.rebalance_limit = 0;

  const auto run_resilient = [&](const sim::StragglerOptions& straggler) {
    const auto plan = sim::FaultPlan::parse(spec);
    EXPECT_TRUE(plan.has_value());
    sim::FaultInjector injector(*plan);
    bfs::EngineConfig config;
    config.fault_injector = &injector;
    config.multi_gpu.num_gpus = 8;
    // NVLink-class fabric: on the default PCIe spec the per-message
    // all-gather latency is the level floor and caps any compute-side
    // recovery well under 2x regardless of mitigation.
    config.multi_gpu.interconnect.bandwidth_gbs = 50.0;
    config.multi_gpu.interconnect.latency_us = 1.0;
    config.multi_gpu.straggler = straggler;
    const auto engine = bfs::make_engine("resilient:multi-gpu", g, config);
    const auto summary = bfs::run_sources(g, *engine, 16, 27);
    EXPECT_GT(summary.mean_teps, 0.0);
    return summary.mean_time_ms;
  };

  const double unmitigated_ms = run_resilient(baseline);
  const double mitigated_ms = run_resilient(mitigated);
  EXPECT_GE(unmitigated_ms, 2.0 * mitigated_ms)
      << "unmitigated " << unmitigated_ms << " ms vs mitigated "
      << mitigated_ms << " ms";
}

// --- satellite: fail_slow report section diff parity -------------------------

obs::RunReport minimal_report() {
  obs::RunReport r;
  r.system = "multi-gpu";
  r.device = "K40";
  r.graph = {"kron-10-8", 1024, 8192, false};
  r.summary.mean_teps = 1e9;
  r.summary.harmonic_teps = 1e9;
  r.summary.mean_time_ms = 1.0;
  r.summary.p50_teps = 1e9;
  r.summary.p95_time_ms = 1.0;
  return r;
}

// Mirror of Obs.DiffReportsOneSidedSectionMatchesBothPresentMetricSet for
// the fail_slow section: the n/a rows when only one side carries the
// section must cover exactly the metric set the both-present path compares.
TEST(FailSlowReport, DiffOneSidedSectionMatchesBothPresentMetricSet) {
  const obs::RunReport base = minimal_report();
  obs::RunReport with_failslow = base;
  with_failslow.fail_slow.emplace();
  with_failslow.fail_slow->detector = true;
  with_failslow.fail_slow->k = 3.0;
  with_failslow.fail_slow->slow_faults = 2;
  with_failslow.fail_slow->slow_applications = 40;
  with_failslow.fail_slow->slow_ms_injected = 12.5;
  with_failslow.fail_slow->detections = 3;
  with_failslow.fail_slow->speculations = 2;
  with_failslow.fail_slow->speculations_won = 2;
  with_failslow.fail_slow->wasted_speculation_ms = 1.5;
  with_failslow.fail_slow->rebalances = 1;
  with_failslow.fail_slow->vertices_moved = 100;

  const auto collect = [](const std::vector<obs::ReportDelta>& deltas,
                          bool expect_na) {
    std::vector<std::string> names;
    for (const auto& d : deltas) {
      if (d.metric.rfind("fail_slow.", 0) != 0) continue;
      EXPECT_EQ(d.not_applicable, expect_na) << d.metric;
      names.push_back(d.metric);
    }
    return names;
  };

  const auto both =
      collect(obs::diff_reports(with_failslow, with_failslow), false);
  EXPECT_FALSE(both.empty());

  const auto added = collect(obs::diff_reports(base, with_failslow), true);
  const auto removed = collect(obs::diff_reports(with_failslow, base), true);
  EXPECT_EQ(added, both);
  EXPECT_EQ(removed, both);
  // A section appearing or vanishing is informational, never a regression.
  EXPECT_FALSE(obs::has_regression(obs::diff_reports(base, with_failslow)));

  // Round-trip: the section survives to_json -> validate -> from_json.
  const obs::Json j = with_failslow.to_json();
  EXPECT_TRUE(obs::validate_report(j).empty());
  const auto parsed = obs::RunReport::from_json(j);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->fail_slow.has_value());
  EXPECT_EQ(parsed->fail_slow->detections, 3u);
  EXPECT_DOUBLE_EQ(parsed->fail_slow->slow_ms_injected, 12.5);
  EXPECT_EQ(parsed->fail_slow->vertices_moved, 100u);
}

// Regressions inside the section are still caught when both sides carry it.
TEST(FailSlowReport, MoreWasteOrDemotionsIsARegression) {
  obs::RunReport base = minimal_report();
  base.fail_slow.emplace();
  base.fail_slow->wasted_speculation_ms = 1.0;

  obs::RunReport worse = base;
  worse.fail_slow->wasted_speculation_ms = 10.0;
  EXPECT_TRUE(obs::has_regression(obs::diff_reports(base, worse)));
  EXPECT_FALSE(obs::has_regression(obs::diff_reports(worse, base)));

  obs::RunReport demoted = base;
  demoted.fail_slow->demotions = 2;
  EXPECT_TRUE(obs::has_regression(obs::diff_reports(base, demoted)));
}

}  // namespace
}  // namespace ent
