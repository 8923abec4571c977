// Fault injection (gpusim/fault.hpp) and resilient execution
// (bfs/resilient.hpp): plan parsing, injector determinism, retry/replay
// recovery, device blacklisting + repartition, the fallback cascade, typed
// terminal failure, byte-identical reports under identical seeds, and the
// zero-overhead guarantee with faults disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bfs/engine.hpp"
#include "bfs/resilient.hpp"
#include "bfs/runner.hpp"
#include "bfs/validate.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "gpusim/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace_sink.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr test_graph(std::uint64_t seed) {
  graph::KroneckerParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::generate_kronecker(p);
}

vertex_t connected_source(const Csr& g) {
  vertex_t v = 0;
  while (g.out_degree(v) < 4) ++v;
  return v;
}

// --- FaultPlan spec mini-language ------------------------------------------

TEST(FaultPlan, ParsesTypesAndCriteria) {
  const auto plan = sim::FaultPlan::parse(
      "transient@index=5;device-lost@device=1,level=2;"
      "ecc@prob=0.25,fires=0;comm-timeout@index=3;seed=42");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 42u);
  ASSERT_EQ(plan->rules.size(), 4u);
  EXPECT_EQ(plan->rules[0].type, sim::FaultType::kTransientKernelAbort);
  EXPECT_EQ(plan->rules[0].index, 5);
  EXPECT_EQ(plan->rules[0].max_fires, 1u);
  EXPECT_EQ(plan->rules[1].type, sim::FaultType::kDeviceLost);
  EXPECT_EQ(plan->rules[1].device, 1);
  EXPECT_EQ(plan->rules[1].level, 2);
  EXPECT_EQ(plan->rules[2].type, sim::FaultType::kEccMemoryError);
  EXPECT_DOUBLE_EQ(plan->rules[2].probability, 0.25);
  EXPECT_EQ(plan->rules[2].max_fires, 0u);
  EXPECT_EQ(plan->rules[3].type, sim::FaultType::kCommTimeout);
}

TEST(FaultPlan, SummaryRoundTrips) {
  const std::string spec =
      "seed=7;transient@index=5;device-lost@device=1,level=2";
  const auto plan = sim::FaultPlan::parse(spec);
  ASSERT_TRUE(plan.has_value());
  const auto reparsed = sim::FaultPlan::parse(plan->summary());
  ASSERT_TRUE(reparsed.has_value()) << plan->summary();
  EXPECT_EQ(reparsed->summary(), plan->summary());
  EXPECT_EQ(reparsed->seed, plan->seed);
  EXPECT_EQ(reparsed->rules.size(), plan->rules.size());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(sim::FaultPlan::parse("meteor-strike", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(sim::FaultPlan::parse("transient@bogus=1").has_value());
  EXPECT_FALSE(sim::FaultPlan::parse("transient@prob=nope").has_value());
}

// Ambiguous plans are a parse error, not a silent rule-order lottery: the
// same rule twice can never be meant, and two fail-stop types pinned to the
// same launch ordinal would shadow one another (the first throw wins).
TEST(FaultPlan, RejectsDuplicateRules) {
  std::string error;
  EXPECT_FALSE(sim::FaultPlan::parse("transient@level=2;transient@level=2",
                                     &error)
                   .has_value());
  EXPECT_NE(error.find("duplicate rule"), std::string::npos) << error;
  EXPECT_NE(error.find("identical criteria"), std::string::npos) << error;
  // Different criteria are NOT duplicates.
  EXPECT_TRUE(sim::FaultPlan::parse("transient@level=2;transient@level=3")
                  .has_value());
}

TEST(FaultPlan, RejectsConflictingPinnedRules) {
  std::string error;
  EXPECT_FALSE(
      sim::FaultPlan::parse("transient@index=3;ecc@index=3", &error)
          .has_value());
  EXPECT_NE(error.find("conflicting rules"), std::string::npos) << error;
  EXPECT_NE(error.find("index 3"), std::string::npos) << error;
  // Probabilistic rules can coexist on one ordinal — either may fire.
  EXPECT_TRUE(
      sim::FaultPlan::parse("transient@index=3,prob=0.5;ecc@index=3")
          .has_value());
  // Different ordinal classes never conflict (launch vs all-gather).
  EXPECT_TRUE(
      sim::FaultPlan::parse("transient@index=3;comm-timeout@index=3")
          .has_value());
  // Silent flips are not fail-stop; they never shadow anything.
  EXPECT_TRUE(sim::FaultPlan::parse(
                  "transient@index=3;flip@target=status,offset=3,bit=1")
                  .has_value());
}

TEST(FaultPlan, ParsesLinkRulesAndRoundTripsThroughSummary) {
  const std::string spec =
      "link@0-1:down;link@2-3:degrade=0.25,after=5;"
      "link@5-4:flaky=0.5,after=1,fires=3;seed=9";
  const auto plan = sim::FaultPlan::parse(spec);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->has_link_rules());
  ASSERT_EQ(plan->rules.size(), 3u);

  EXPECT_EQ(plan->rules[0].type, sim::FaultType::kLinkDown);
  EXPECT_EQ(plan->rules[0].link_a, 0);
  EXPECT_EQ(plan->rules[0].link_b, 1);
  EXPECT_FALSE(plan->rules[0].link_flaky);
  EXPECT_EQ(plan->rules[0].max_fires, 1u);  // persists, fires once

  EXPECT_EQ(plan->rules[1].type, sim::FaultType::kLinkDegraded);
  EXPECT_DOUBLE_EQ(plan->rules[1].degrade_factor, 0.25);
  EXPECT_DOUBLE_EQ(plan->rules[1].after_ms, 5.0);

  // Endpoints normalize to (min, max); flaky defaults to unlimited fires
  // unless capped.
  EXPECT_EQ(plan->rules[2].type, sim::FaultType::kLinkDown);
  EXPECT_TRUE(plan->rules[2].link_flaky);
  EXPECT_EQ(plan->rules[2].link_a, 4);
  EXPECT_EQ(plan->rules[2].link_b, 5);
  EXPECT_DOUBLE_EQ(plan->rules[2].probability, 0.5);
  EXPECT_EQ(plan->rules[2].max_fires, 3u);

  const auto reparsed = sim::FaultPlan::parse(plan->summary());
  ASSERT_TRUE(reparsed.has_value()) << plan->summary();
  EXPECT_EQ(reparsed->summary(), plan->summary());
}

TEST(FaultPlan, RejectsMalformedLinkRules) {
  std::string error;
  EXPECT_FALSE(sim::FaultPlan::parse("link@0-1:melt", &error).has_value());
  EXPECT_NE(error.find("unknown link mode"), std::string::npos) << error;
  EXPECT_FALSE(sim::FaultPlan::parse("link@0:down").has_value());
  EXPECT_FALSE(sim::FaultPlan::parse("link@0-1:degrade=1.5").has_value());
  EXPECT_FALSE(sim::FaultPlan::parse("link@0-1:flaky=2").has_value());
  EXPECT_FALSE(
      sim::FaultPlan::parse("link@0-1:down,device=2", &error).has_value());
  EXPECT_NE(error.find("unknown link condition key"), std::string::npos)
      << error;
  // Link faults can't be spelled like launch-ordinal rules.
  EXPECT_FALSE(
      sim::FaultPlan::parse("link-down@device=1", &error).has_value());
  EXPECT_NE(error.find("spelled"), std::string::npos) << error;
}

TEST(FaultPlan, RejectsDuplicateAndConflictingLinkRules) {
  std::string error;
  EXPECT_FALSE(
      sim::FaultPlan::parse("link@0-1:down;link@0-1:down", &error)
          .has_value());
  EXPECT_NE(error.find("duplicate rule"), std::string::npos) << error;
  // A persisted down shadows any other unconditional rule on the same
  // endpoints: once down, the link never carries traffic again.
  EXPECT_FALSE(
      sim::FaultPlan::parse("link@0-1:down;link@0-1:degrade=0.5", &error)
          .has_value());
  EXPECT_NE(error.find("conflicting rules on link 0-1"), std::string::npos)
      << error;
  // Distinct links, or flaky (transient) plus degrade, are fine.
  EXPECT_TRUE(
      sim::FaultPlan::parse("link@0-1:down;link@1-2:down").has_value());
  EXPECT_TRUE(
      sim::FaultPlan::parse("link@0-1:flaky=0.5;link@0-1:degrade=0.5")
          .has_value());
}

TEST(FaultInjector, LinkFaultsPersistAndDegradeUntilReset) {
  const auto plan = sim::FaultPlan::parse(
      "link@0-1:down;link@2-3:degrade=0.25;seed=3");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  ASSERT_TRUE(injector.has_link_rules());

  EXPECT_THROW(injector.on_link(1, 0, 0.0), sim::SimFault);
  EXPECT_TRUE(injector.link_down(0, 1));
  EXPECT_EQ(injector.faults_injected(), 1u);
  // Consulting a downed link re-raises without counting a fresh fault.
  EXPECT_THROW(injector.on_link(0, 1, 1.0), sim::SimFault);
  EXPECT_EQ(injector.faults_injected(), 1u);

  EXPECT_THROW(injector.on_link(2, 3, 0.0), sim::SimFault);
  EXPECT_FALSE(injector.link_down(2, 3));
  EXPECT_DOUBLE_EQ(injector.link_degrade_factor(2, 3), 0.25);
  // Degraded links keep carrying (slower) traffic: no further throws.
  injector.on_link(2, 3, 1.0);

  injector.reset();
  EXPECT_FALSE(injector.link_down(0, 1));
  EXPECT_DOUBLE_EQ(injector.link_degrade_factor(2, 3), 1.0);
}

// --- FaultInjector ----------------------------------------------------------

// Two injectors built from the same plan and fed the same launch sequence
// must fault at exactly the same ordinals.
TEST(FaultInjector, DeterministicAcrossInstances) {
  const auto plan = sim::FaultPlan::parse("transient@prob=0.2,fires=0;seed=9");
  ASSERT_TRUE(plan.has_value());

  const auto fault_ordinals = [&plan] {
    sim::FaultInjector injector(*plan);
    std::vector<std::uint64_t> ordinals;
    for (int i = 0; i < 200; ++i) {
      try {
        injector.on_kernel(0, "expand", 1.0);
      } catch (const sim::SimFault& f) {
        ordinals.push_back(f.launch_index());
      }
    }
    return ordinals;
  };
  const auto first = fault_ordinals();
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 200u);  // probabilistic, not every launch
  EXPECT_EQ(first, fault_ordinals());
}

TEST(FaultInjector, DeviceLossIsPermanentUntilReset) {
  const auto plan = sim::FaultPlan::parse("device-lost@index=0");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);

  EXPECT_THROW(injector.on_kernel(3, "expand", 0.0), sim::SimFault);
  EXPECT_TRUE(injector.device_lost(3));
  // Every later launch on the lost device refuses, without consuming rules.
  for (int i = 0; i < 3; ++i) {
    try {
      injector.on_kernel(3, "expand", 0.0);
      FAIL() << "lost device accepted a launch";
    } catch (const sim::SimFault& f) {
      EXPECT_EQ(f.type(), sim::FaultType::kDeviceLost);
      EXPECT_FALSE(f.transient());
    }
  }
  // Other devices are unaffected.
  EXPECT_NO_THROW(injector.on_kernel(0, "expand", 0.0));

  injector.reset();
  EXPECT_FALSE(injector.device_lost(3));
  // The single-fire rule is armed again after reset: ordinal 0 faults anew.
  EXPECT_THROW(injector.on_kernel(3, "expand", 0.0), sim::SimFault);
}

// --- ResilientEngine recovery paths ----------------------------------------

TEST(ResilientEngine, TransientFaultRetriesAndValidates) {
  const Csr g = test_graph(1);
  const vertex_t source = connected_source(g);

  const auto plan = sim::FaultPlan::parse("transient@level=2");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);

  obs::JsonTraceSink sink;
  injector.set_sink(&sink);
  bfs::EngineConfig config;
  config.sink = &sink;
  config.fault_injector = &injector;

  const auto engine = bfs::make_engine("resilient:enterprise", g, config);
  ASSERT_NE(engine, nullptr);
  const auto r = engine->run(source);

  EXPECT_TRUE(bfs::validate_tree(g, g, r).ok);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.faults_survived, 1);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.completed_by, "enterprise");

  const auto* resilient =
      dynamic_cast<const bfs::ResilientEngine*>(engine.get());
  ASSERT_NE(resilient, nullptr);
  const bfs::ResilienceStats& s = resilient->last_run_stats();
  EXPECT_EQ(s.faults_seen, 1u);
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.replays, 1u);  // enterprise checkpoints: replay, not restart
  EXPECT_GT(s.backoff_ms, 0.0);

  // The fault and the recovery are both visible on the trace.
  bool saw_fault = false;
  bool saw_recovery = false;
  for (const auto& e : sink.events().items()) {
    const auto& kind = e.at("event").as_string();
    saw_fault |= kind == "fault";
    saw_recovery |= kind == "recovery";
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_recovery);
}

// On a road grid every level runs top-down. The fault strikes the level's
// expansion launch, after the host has already marked that level's
// discoveries, so the replay must still build the same queues: the
// recovered tree equals a clean run's, parent for parent.
TEST(ResilientEngine, FaultAfterTopDownExpansionReplaysTheCleanTree) {
  graph::SuiteOptions opt;
  opt.scale = 1.0 / 16;
  opt.seed = 11;
  const Csr g = graph::make_suite_graph("ROAD", opt).graph;
  const bfs::BfsResult clean = bfs::make_engine("enterprise", g, {})->run(0);

  const auto plan = sim::FaultPlan::parse("transient@level=5");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  bfs::EngineConfig config;
  config.fault_injector = &injector;
  const auto engine = bfs::make_engine("resilient:enterprise", g, config);
  const bfs::BfsResult r = engine->run(0);
  EXPECT_EQ(r.faults_survived, 1);
  EXPECT_EQ(r.levels, clean.levels);
  EXPECT_EQ(r.parents, clean.parents);
  // A second source on the same engine starts from clean state too.
  EXPECT_EQ(engine->run(1).parents,
            bfs::make_engine("enterprise", g, {})->run(1).parents);
}

TEST(ResilientEngine, MidRunDeviceLossBlacklistsAndRepartitions) {
  const Csr g = test_graph(2);
  const vertex_t source = connected_source(g);

  const auto plan = sim::FaultPlan::parse("device-lost@device=1,level=2");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);

  bfs::EngineConfig config;
  config.fault_injector = &injector;
  config.multi_gpu.num_gpus = 4;

  const auto engine = bfs::make_engine("resilient:multi-gpu", g, config);
  ASSERT_NE(engine, nullptr);
  const auto r = engine->run(source);

  EXPECT_TRUE(bfs::validate_tree(g, g, r).ok);
  EXPECT_EQ(r.faults_survived, 1);
  EXPECT_FALSE(r.degraded);  // the run finished on the surviving devices
  EXPECT_EQ(r.completed_by, "multi-gpu");

  const auto* resilient =
      dynamic_cast<const bfs::ResilientEngine*>(engine.get());
  ASSERT_NE(resilient, nullptr);
  const bfs::ResilienceStats& s = resilient->last_run_stats();
  EXPECT_EQ(s.devices_blacklisted, 1u);
  EXPECT_EQ(s.repartitions, 1u);
  EXPECT_TRUE(injector.device_lost(1));
}

TEST(ResilientEngine, CascadesToHostWhenEveryDeviceIsLost) {
  const Csr g = test_graph(3);
  const vertex_t source = connected_source(g);

  // Unlimited device-lost faults: every device-backed stage dies on its
  // first launch; only the host fallback can finish.
  const auto plan = sim::FaultPlan::parse("device-lost@prob=1,fires=0");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);

  bfs::EngineConfig config;
  config.fault_injector = &injector;

  const auto engine = bfs::make_engine("resilient:enterprise", g, config);
  ASSERT_NE(engine, nullptr);
  const auto r = engine->run(source);

  EXPECT_TRUE(bfs::validate_tree(g, g, r).ok);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.completed_by, "cpu-parallel");
  EXPECT_GE(r.faults_survived, 2);  // enterprise and bl both died

  const auto* resilient =
      dynamic_cast<const bfs::ResilientEngine*>(engine.get());
  ASSERT_NE(resilient, nullptr);
  EXPECT_EQ(resilient->active_engine(), "cpu-parallel");
  EXPECT_GE(resilient->last_run_stats().fallbacks, 2u);
  EXPECT_EQ(resilient->last_run_stats().degraded_runs, 1u);
}

TEST(ResilientEngine, ExhaustionFailsLoudlyWithTypedError) {
  const Csr g = test_graph(4);
  const vertex_t source = connected_source(g);

  const auto plan = sim::FaultPlan::parse("device-lost@prob=1,fires=0");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);

  bfs::EngineConfig config;
  config.fault_injector = &injector;
  // No host stage anywhere in the cascade: recovery cannot succeed.
  config.resilience.fallbacks = {"bl"};

  const auto engine = bfs::make_engine("resilient:enterprise", g, config);
  ASSERT_NE(engine, nullptr);
  try {
    engine->run(source);
    FAIL() << "expected ResilienceExhausted";
  } catch (const bfs::ResilienceExhausted& e) {
    EXPECT_GE(e.stats().faults_seen, 2u);
    EXPECT_GE(e.stats().fallbacks, 1u);
  }
}

TEST(ResilientEngine, RetryBudgetRespectsMaxRetries) {
  const Csr g = test_graph(5);
  const vertex_t source = connected_source(g);

  // Unlimited transient faults: every attempt of every stage dies, so each
  // stage burns exactly max_retries retries before the cascade moves on,
  // and the host stage (never launching kernels) finishes untouched.
  const auto plan = sim::FaultPlan::parse("transient@prob=1,fires=0");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);

  bfs::EngineConfig config;
  config.fault_injector = &injector;
  config.resilience.max_retries = 2;
  config.resilience.fallbacks = {"cpu-parallel"};

  const auto engine = bfs::make_engine("resilient:enterprise", g, config);
  const auto r = engine->run(source);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.completed_by, "cpu-parallel");
  const auto* resilient =
      dynamic_cast<const bfs::ResilientEngine*>(engine.get());
  ASSERT_NE(resilient, nullptr);
  EXPECT_EQ(resilient->last_run_stats().retries, 2u);
}

// Recovered runs carry the lost work: a faulted-then-recovered run is
// simulated-slower than the identical clean run.
TEST(ResilientEngine, RecoveredRunsPayForLostAttempts) {
  const Csr g = test_graph(6);
  const vertex_t source = connected_source(g);

  const auto clean = bfs::make_engine("enterprise", g)->run(source);

  const auto plan = sim::FaultPlan::parse("transient@level=1");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  bfs::EngineConfig config;
  config.fault_injector = &injector;
  const auto recovered =
      bfs::make_engine("resilient:enterprise", g, config)->run(source);

  EXPECT_EQ(recovered.vertices_visited, clean.vertices_visited);
  EXPECT_GT(recovered.time_ms, clean.time_ms);
}

// --- determinism (satellite): identical seeds => identical reports ---------

obs::Json report_json(std::uint64_t graph_seed, const std::string& spec) {
  const Csr g = test_graph(graph_seed);
  const auto plan = sim::FaultPlan::parse(spec);
  EXPECT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);

  obs::JsonTraceSink sink;
  obs::MetricsRegistry metrics;
  injector.set_sink(&sink);
  injector.set_metrics(&metrics);
  bfs::EngineConfig config;
  config.sink = &sink;
  config.metrics = &metrics;
  config.fault_injector = &injector;

  const auto engine = bfs::make_engine("resilient:enterprise", g, config);
  const auto summary = bfs::run_sources(g, *engine, 4, 11);

  obs::RunReport report;
  report.system = engine->name();
  report.device = "K40";
  report.options_summary = engine->options_summary();
  report.graph = {"kron-10-8", g.num_vertices(), g.num_edges(), g.directed()};
  report.seed = 11;
  report.requested_sources = 4;
  report.summary = summary;
  report.levels = engine->trace();
  report.hardware_counters = engine->counters();
  obs::ResilienceSection rs;
  rs.fault_plan = injector.plan().summary();
  rs.faults_injected = injector.faults_injected();
  const auto* resilient =
      dynamic_cast<const bfs::ResilientEngine*>(engine.get());
  EXPECT_NE(resilient, nullptr);
  const bfs::ResilienceStats& s = resilient->session_stats();
  rs.retries = s.retries;
  rs.replays = s.replays;
  rs.fallbacks = s.fallbacks;
  rs.devices_blacklisted = s.devices_blacklisted;
  rs.repartitions = s.repartitions;
  rs.degraded_runs = s.degraded_runs;
  rs.validation_failures = s.validation_failures;
  rs.backoff_ms = s.backoff_ms;
  report.resilience = rs;
  report.metrics = metrics.to_json();
  report.events = sink.events();
  return report.to_json();
}

TEST(Determinism, SameSeedsProduceByteIdenticalReports) {
  const std::string spec = "transient@level=2;ecc@prob=0.05,fires=0;seed=77";
  const obs::Json first = report_json(8, spec);
  const obs::Json second = report_json(8, spec);
  EXPECT_EQ(first.dump(2), second.dump(2));
  // Sanity: the plan actually fired, so this is determinism under faults.
  EXPECT_GT(first.at("resilience").at("faults_injected").as_uint(), 0u);
  // And the report round-trips through the schema.
  EXPECT_TRUE(obs::validate_report(first).empty());
  const auto parsed = obs::RunReport::from_json(first);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->resilience.has_value());
  EXPECT_EQ(parsed->resilience->faults_injected,
            first.at("resilience").at("faults_injected").as_uint());
}

// A different fault seed must actually change the injected schedule.
TEST(Determinism, DifferentFaultSeedChangesTheSchedule) {
  const obs::Json a = report_json(8, "ecc@prob=0.05,fires=0;seed=1");
  const obs::Json b = report_json(8, "ecc@prob=0.05,fires=0;seed=2");
  EXPECT_NE(a.dump(), b.dump());
}

// --- zero overhead with faults disabled ------------------------------------

TEST(ResilientEngine, NoInjectorMeansIdenticalKernelTimeline) {
  const Csr g = test_graph(9);
  const vertex_t source = connected_source(g);

  const auto plain = bfs::make_engine("enterprise", g);
  const auto wrapped = bfs::make_engine("resilient:enterprise", g);
  const auto rp = plain->run(source);
  const auto rw = wrapped->run(source);

  EXPECT_EQ(rw.time_ms, rp.time_ms);
  EXPECT_EQ(rw.attempts, 1);
  ASSERT_NE(plain->device(), nullptr);
  ASSERT_NE(wrapped->device(), nullptr);
  const auto tp = plain->device()->timeline();
  const auto tw = wrapped->device()->timeline();
  ASSERT_EQ(tw.size(), tp.size());
  for (std::size_t i = 0; i < tp.size(); ++i) {
    EXPECT_EQ(tw[i].name, tp[i].name) << i;
    EXPECT_EQ(tw[i].warp_cycles, tp[i].warp_cycles) << i;
  }
  EXPECT_EQ(wrapped->device()->elapsed_ms(), plain->device()->elapsed_ms());
}

// --- metrics wiring ---------------------------------------------------------

TEST(ResilientEngine, RecoveryCountersLandInTheRegistry) {
  const Csr g = test_graph(10);
  const vertex_t source = connected_source(g);

  const auto plan = sim::FaultPlan::parse("transient@level=2");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  obs::MetricsRegistry metrics;
  injector.set_metrics(&metrics);

  bfs::EngineConfig config;
  config.metrics = &metrics;
  config.fault_injector = &injector;
  const auto engine = bfs::make_engine("resilient:enterprise", g, config);
  engine->run(source);

  EXPECT_EQ(metrics.counter("fault.injected").value(), 1u);
  EXPECT_EQ(metrics.counter("fault.injected.transient").value(), 1u);
  EXPECT_EQ(metrics.counter("resilience.faults_seen").value(), 1u);
  EXPECT_EQ(metrics.counter("resilience.retries").value(), 1u);
  EXPECT_EQ(metrics.counter("resilience.replays").value(), 1u);
}

// --- report diffing ---------------------------------------------------------

TEST(ReportDiff, ResilienceRegressionOffZeroBaseline) {
  obs::RunReport baseline;
  baseline.summary.mean_teps = 1e9;
  obs::ResilienceSection rs;
  baseline.resilience = rs;  // all-zero counters
  obs::RunReport candidate = baseline;
  candidate.resilience->retries = 3;
  candidate.resilience->faults_injected = 3;

  const auto deltas = obs::diff_reports(baseline, candidate);
  bool found = false;
  for (const auto& d : deltas) {
    if (d.metric == "resilience.retries") {
      found = true;
      EXPECT_TRUE(d.regression);
    }
    if (d.metric == "resilience.faults_injected") {
      EXPECT_FALSE(d.regression);  // injected faults are an input, not a loss
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(obs::has_regression(deltas));

  // Identical counters: no resilience regression.
  candidate.resilience = baseline.resilience;
  EXPECT_FALSE(obs::has_regression(obs::diff_reports(baseline, candidate)));

  // Repartitioning off a zero baseline is a recovery step like a retry.
  candidate.resilience->repartitions = 1;
  const auto moved = obs::diff_reports(baseline, candidate);
  const auto row =
      std::find_if(moved.begin(), moved.end(), [](const obs::ReportDelta& d) {
        return d.metric == "resilience.repartitions";
      });
  ASSERT_NE(row, moved.end());
  EXPECT_TRUE(row->regression);
  EXPECT_TRUE(obs::has_regression(moved));
}

}  // namespace
}  // namespace ent
