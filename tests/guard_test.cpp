// Guarded execution (bfs/guard.hpp, bfs/guarded.hpp): deadline/level/
// frontier circuit breakers, memory-budget admission with graceful
// degradation, composition with resilient:, the zero-overhead guarantee
// for never-tripping limits, and the RunReport guards section.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "bfs/engine.hpp"
#include "bfs/guard.hpp"
#include "bfs/guarded.hpp"
#include "bfs/validate.hpp"
#include "graph/generators.hpp"
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

// --- RunGuard unit behaviour ------------------------------------------------

TEST(RunGuard, ZeroLimitsNeverTrip) {
  const bfs::RunGuard guard(bfs::GuardLimits{});
  EXPECT_FALSE(bfs::GuardLimits{}.any());
  EXPECT_NO_THROW(guard.check_level(1000000, 1u << 30, 1e12));
  EXPECT_NO_THROW(guard.check_completed(1e12, 1u << 30));
}

TEST(RunGuard, DeadlineTripCarriesContext) {
  bfs::GuardLimits limits;
  limits.deadline_ms = 5.0;
  const bfs::RunGuard guard(limits);
  EXPECT_NO_THROW(guard.check_level(3, 10, 5.0));  // at the limit: fine
  try {
    guard.check_level(3, 10, 6.5);
    FAIL() << "expected GuardTripped";
  } catch (const bfs::GuardTripped& t) {
    EXPECT_EQ(t.kind(), bfs::GuardKind::kDeadline);
    EXPECT_DOUBLE_EQ(t.observed(), 6.5);
    EXPECT_DOUBLE_EQ(t.limit(), 5.0);
    EXPECT_EQ(t.level(), 3);
    EXPECT_NE(std::string(t.what()).find("deadline"), std::string::npos);
  }
}

TEST(RunGuard, LevelAndFrontierBreakers) {
  bfs::GuardLimits limits;
  limits.max_levels = 4;
  limits.max_frontier = 100;
  const bfs::RunGuard guard(limits);
  EXPECT_NO_THROW(guard.check_level(3, 100, 0.0));
  EXPECT_THROW(guard.check_level(4, 1, 0.0), bfs::GuardTripped);
  EXPECT_THROW(guard.check_level(0, 101, 0.0), bfs::GuardTripped);
  EXPECT_NO_THROW(guard.check_completed(0.0, 4));
  EXPECT_THROW(guard.check_completed(0.0, 5), bfs::GuardTripped);
}

// --- cooperative trips on the enterprise driver -----------------------------

TEST(GuardedEngine, TinyDeadlineTripsCooperatively) {
  const Csr g = test_graph(1);
  const vertex_t source = connected_source(g);

  obs::JsonTraceSink sink;
  obs::MetricsRegistry metrics;
  bfs::EngineConfig config;
  config.sink = &sink;
  config.metrics = &metrics;
  config.guards.deadline_ms = 1e-6;  // trips at the first level boundary

  const auto engine = bfs::make_engine("guarded:enterprise", g, config);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->name(), "guarded:enterprise");
  try {
    engine->run(source);
    FAIL() << "expected GuardTripped";
  } catch (const bfs::GuardTripped& t) {
    EXPECT_EQ(t.kind(), bfs::GuardKind::kDeadline);
    EXPECT_GT(t.level(), 0);  // level 0 starts at clock zero
  }

  // Trip mirrored to the trace and the metrics registry.
  bool saw_trip = false;
  for (const auto& e : sink.events().items()) {
    if (e.at("event").as_string() == "guard" &&
        e.at("action").as_string() == "trip") {
      saw_trip = true;
      EXPECT_EQ(e.at("guard").as_string(), "deadline");
    }
  }
  EXPECT_TRUE(saw_trip);
  EXPECT_EQ(metrics.counter("guard.trips").value(), 1u);
  EXPECT_EQ(metrics.counter("guard.trips.deadline").value(), 1u);

  const auto* guarded = dynamic_cast<const bfs::GuardedEngine*>(engine.get());
  ASSERT_NE(guarded, nullptr);
  EXPECT_EQ(guarded->last_run_stats().trips, 1u);
  EXPECT_EQ(guarded->last_run_stats().last_trip, "deadline");
}

// Every driver that checks the guard at its level top trips at the same
// level: the BFS drivers and the vertex-program engine on one and on four
// devices.
TEST(GuardedEngine, LevelBreakerTripsAtTheConfiguredLevel) {
  const Csr g = test_graph(2);
  const vertex_t source = connected_source(g);

  bfs::EngineConfig config;
  config.guards.max_levels = 2;
  config.multi_gpu.num_gpus = 4;
  for (const char* spec : {"guarded:enterprise", "guarded:multi-gpu",
                           "guarded:enterprise/sssp",
                           "guarded:multi-gpu/sssp"}) {
    SCOPED_TRACE(spec);
    const auto engine = bfs::make_engine(spec, g, config);
    ASSERT_NE(engine, nullptr);
    try {
      engine->run(source);
      ADD_FAILURE() << "expected GuardTripped";
    } catch (const bfs::GuardTripped& t) {
      EXPECT_EQ(t.kind(), bfs::GuardKind::kLevels);
      EXPECT_EQ(t.level(), 2);
    }
  }
}

// The level bodies resolve their counters at first use, so a run cancelled
// at its first level top adds no per-level counter to the registry, not
// even a zero.
TEST(GuardedEngine, CancelAtLevelZeroAddsNoLevelCounters) {
  const Csr g = test_graph(4);
  const vertex_t source = connected_source(g);
  const std::atomic<bool> cancel{true};
  for (const char* spec : {"guarded:enterprise", "guarded:enterprise/sssp"}) {
    SCOPED_TRACE(spec);
    obs::MetricsRegistry metrics;
    bfs::EngineConfig config;
    config.metrics = &metrics;
    config.guards.cancel = &cancel;
    config.integrity.audit = bfs::AuditMode::kFull;
    const auto engine = bfs::make_engine(spec, g, config);
    try {
      engine->run(source);
      ADD_FAILURE() << "expected GuardTripped";
    } catch (const bfs::GuardTripped& t) {
      EXPECT_EQ(t.kind(), bfs::GuardKind::kCancelled);
      EXPECT_EQ(t.level(), 0);
    }
    for (const auto& [name, counter] : metrics.counters()) {
      EXPECT_NE(name.rfind("enterprise.", 0), 0u) << name;
      EXPECT_NE(name.rfind("integrity.", 0), 0u) << name;
    }
  }
}

TEST(GuardedEngine, FrontierBreakerTripsOnExplosion) {
  const Csr g = test_graph(3);
  const vertex_t source = connected_source(g);

  bfs::EngineConfig config;
  config.guards.max_frontier = 2;  // any real frontier explodes past this
  const auto engine = bfs::make_engine("guarded:enterprise", g, config);
  try {
    engine->run(source);
    FAIL() << "expected GuardTripped";
  } catch (const bfs::GuardTripped& t) {
    EXPECT_EQ(t.kind(), bfs::GuardKind::kFrontier);
    EXPECT_GT(t.observed(), 2.0);
  }
}

// Engines without a cooperative hook are validated post-run.
TEST(GuardedEngine, PostRunCheckCoversNonCooperativeEngines) {
  const Csr g = test_graph(4);
  const vertex_t source = connected_source(g);

  bfs::EngineConfig config;
  config.guards.deadline_ms = 1e-6;
  const auto engine = bfs::make_engine("guarded:atomic", g, config);
  ASSERT_NE(engine, nullptr);
  try {
    engine->run(source);
    FAIL() << "expected GuardTripped";
  } catch (const bfs::GuardTripped& t) {
    EXPECT_EQ(t.kind(), bfs::GuardKind::kDeadline);
    EXPECT_EQ(t.level(), -1);  // post-run detection
  }
}

// --- zero overhead with never-tripping limits --------------------------------

obs::Json guarded_report_json(const std::string& engine_name,
                              std::uint64_t graph_seed) {
  const Csr g = test_graph(graph_seed);
  obs::JsonTraceSink sink;
  obs::MetricsRegistry metrics;
  bfs::EngineConfig config;
  config.sink = &sink;
  config.metrics = &metrics;
  if (engine_name.rfind("guarded:", 0) == 0) {
    // Generous limits that can never trip on a scale-10 graph.
    config.guards.deadline_ms = 1e12;
    config.guards.max_levels = 1u << 20;
    config.guards.max_frontier = std::uint64_t{1} << 40;
    config.guards.memory_budget_bytes = std::uint64_t{1} << 40;
  }
  const auto engine = bfs::make_engine(engine_name, g, config);
  EXPECT_NE(engine, nullptr);
  const auto summary = bfs::run_sources(g, *engine, 4, 11);

  obs::RunReport report;
  // Naming fields are pinned so the comparison isolates execution content;
  // the engine's own name/options differ by construction.
  report.system = "enterprise";
  report.device = "K40";
  report.options_summary = "pinned";
  report.graph = {"kron-10-8", g.num_vertices(), g.num_edges(), g.directed()};
  report.seed = 11;
  report.requested_sources = 4;
  report.summary = summary;
  report.levels = engine->trace();
  report.hardware_counters = engine->counters();
  report.metrics = metrics.to_json();
  report.events = sink.events();
  return report.to_json();
}

TEST(GuardedEngine, NeverTrippingLimitsAreByteInvisible) {
  const obs::Json bare = guarded_report_json("enterprise", 5);
  const obs::Json guarded = guarded_report_json("guarded:enterprise", 5);
  // The decorator necessarily names itself in the begin_run event (exactly
  // as resilient: does); every other byte — timings, kernel timeline,
  // metrics, traces — must match, and no guards section may appear.
  std::string got = guarded.dump(2);
  const std::string from = "\"system\": \"guarded:enterprise\"";
  const std::string to = "\"system\": \"enterprise\"";
  std::size_t pos = got.find(from);
  ASSERT_NE(pos, std::string::npos);  // one begin_run per source
  while (pos != std::string::npos) {
    got.replace(pos, from.size(), to);
    pos = got.find(from, pos + to.size());
  }
  EXPECT_EQ(got.find("guarded"), std::string::npos);
  EXPECT_EQ(got.find("\"guards\""), std::string::npos);
  EXPECT_EQ(bare.dump(2), got);
}

TEST(GuardedEngine, NeverTrippingLimitsKeepTheKernelTimeline) {
  const Csr g = test_graph(6);
  const vertex_t source = connected_source(g);

  const auto plain = bfs::make_engine("enterprise", g);
  bfs::EngineConfig config;
  config.guards.deadline_ms = 1e12;
  config.guards.max_levels = 1u << 20;
  const auto wrapped = bfs::make_engine("guarded:enterprise", g, config);
  const auto rp = plain->run(source);
  const auto rw = wrapped->run(source);

  EXPECT_EQ(rw.time_ms, rp.time_ms);
  EXPECT_FALSE(rw.degraded);
  ASSERT_NE(plain->device(), nullptr);
  ASSERT_NE(wrapped->device(), nullptr);
  const auto tp = plain->device()->timeline();
  const auto tw = wrapped->device()->timeline();
  ASSERT_EQ(tw.size(), tp.size());
  for (std::size_t i = 0; i < tp.size(); ++i) {
    EXPECT_EQ(tw[i].name, tp[i].name) << i;
  }
}

// --- memory-budget admission and graceful degradation ------------------------

TEST(GuardedEngine, BudgetBetweenRungsDropsTheHubCacheOnly) {
  const Csr g = test_graph(7);
  const vertex_t source = connected_source(g);

  bfs::EngineConfig probe;
  const std::uint64_t full =
      bfs::GuardedEngine::admission_estimate("enterprise", g, probe);
  bfs::EngineConfig no_hub_probe;
  no_hub_probe.enterprise.hub_cache = false;
  const std::uint64_t no_hub =
      bfs::GuardedEngine::admission_estimate("enterprise", g, no_hub_probe);
  ASSERT_LT(no_hub, full);

  obs::JsonTraceSink sink;
  bfs::EngineConfig config;
  config.sink = &sink;
  config.guards.memory_budget_bytes = (no_hub + full) / 2;
  const auto engine = bfs::make_engine("guarded:enterprise", g, config);
  const auto* guarded = dynamic_cast<const bfs::GuardedEngine*>(engine.get());
  ASSERT_NE(guarded, nullptr);
  EXPECT_TRUE(guarded->degraded());
  EXPECT_EQ(guarded->degradation(), "drop-hub-cache");
  EXPECT_EQ(guarded->active_engine(), "enterprise");
  EXPECT_LE(guarded->admitted_bytes(), config.guards.memory_budget_bytes);

  const auto r = engine->run(source);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.completed_by, "enterprise");
  EXPECT_TRUE(bfs::validate_tree(g, g, r).ok);

  // The degradation step is on the trace.
  bool saw_step = false;
  for (const auto& e : sink.events().items()) {
    if (e.at("event").as_string() == "guard" &&
        e.at("action").as_string() == "drop-hub-cache") {
      saw_step = true;
    }
  }
  EXPECT_TRUE(saw_step);
}

TEST(GuardedEngine, TightBudgetFallsBackToStatusArray) {
  const Csr g = test_graph(8);
  const vertex_t source = connected_source(g);

  bfs::EngineConfig probe;
  const std::uint64_t bl =
      bfs::GuardedEngine::admission_estimate("bl", g, probe);
  bfs::EngineConfig no_hub_probe;
  no_hub_probe.enterprise.hub_cache = false;
  const std::uint64_t shrunk = bfs::GuardedEngine::admission_estimate(
      "enterprise", g, no_hub_probe, /*shrunk_queue=*/true);
  ASSERT_LT(bl, shrunk);

  bfs::EngineConfig config;
  config.guards.memory_budget_bytes = (bl + shrunk) / 2;
  const auto engine = bfs::make_engine("guarded:enterprise", g, config);
  const auto* guarded = dynamic_cast<const bfs::GuardedEngine*>(engine.get());
  ASSERT_NE(guarded, nullptr);
  EXPECT_EQ(guarded->degradation(),
            "drop-hub-cache,shrink-queue,fallback-engine");
  EXPECT_EQ(guarded->active_engine(), "bl");

  const auto r = engine->run(source);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.completed_by, "bl");
  EXPECT_TRUE(bfs::validate_tree(g, g, r).ok);
}

TEST(GuardedEngine, StarvationBudgetStillCompletesOnTheHost) {
  const Csr g = test_graph(9);
  const vertex_t source = connected_source(g);

  obs::MetricsRegistry metrics;
  bfs::EngineConfig config;
  config.metrics = &metrics;
  config.guards.memory_budget_bytes = 1;  // nothing device-backed fits
  const auto engine = bfs::make_engine("guarded:enterprise", g, config);
  const auto* guarded = dynamic_cast<const bfs::GuardedEngine*>(engine.get());
  ASSERT_NE(guarded, nullptr);
  EXPECT_EQ(guarded->active_engine(), "cpu-parallel");
  EXPECT_EQ(guarded->admitted_bytes(), 0u);

  const auto r = engine->run(source);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.completed_by, "cpu-parallel");
  EXPECT_TRUE(bfs::validate_tree(g, g, r).ok);
  EXPECT_EQ(metrics.counter("guard.degraded_runs").value(), 1u);
  // The host floor's tree does not depend on the pool: it is the serial
  // preset's, vertex for vertex.
  const auto serial = bfs::make_engine("beamer", g)->run(source);
  EXPECT_EQ(r.levels, serial.levels);
  EXPECT_EQ(r.parents, serial.parents);
}

// Degradation costs simulated performance, never correctness: the degraded
// tree visits exactly what the unrestricted tree visits.
TEST(GuardedEngine, DegradedRunsMatchBareResults) {
  const Csr g = test_graph(10);
  const vertex_t source = connected_source(g);

  const auto bare = bfs::make_engine("enterprise", g)->run(source);

  bfs::EngineConfig config;
  config.guards.memory_budget_bytes = 1;
  const auto degraded =
      bfs::make_engine("guarded:enterprise", g, config)->run(source);
  EXPECT_EQ(degraded.vertices_visited, bare.vertices_visited);
  EXPECT_EQ(degraded.depth, bare.depth);
}

// --- composition with resilient: --------------------------------------------

TEST(GuardedEngine, ComposesOverResilient) {
  const Csr g = test_graph(11);
  const vertex_t source = connected_source(g);

  const auto plan = sim::FaultPlan::parse("transient@level=2");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);

  bfs::EngineConfig config;
  config.fault_injector = &injector;
  config.guards.deadline_ms = 1e12;  // never trips

  const auto engine =
      bfs::make_engine("guarded:resilient:enterprise", g, config);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->name(), "guarded:resilient:enterprise");
  const auto r = engine->run(source);
  EXPECT_TRUE(bfs::validate_tree(g, g, r).ok);
  EXPECT_EQ(r.attempts, 2);  // the resilient layer still retried the fault
  EXPECT_EQ(r.faults_survived, 1);
}

TEST(GuardedEngine, TripPropagatesThroughResilientUnretried) {
  const Csr g = test_graph(12);
  const vertex_t source = connected_source(g);

  bfs::EngineConfig config;
  config.guards.deadline_ms = 1e-6;
  const auto engine =
      bfs::make_engine("guarded:resilient:enterprise", g, config);
  ASSERT_NE(engine, nullptr);
  EXPECT_THROW(engine->run(source), bfs::GuardTripped);
}

TEST(GuardedEngine, RejectsMalformedDecoratorNames) {
  const Csr g = test_graph(13);
  EXPECT_EQ(bfs::make_engine("guarded:", g), nullptr);
  EXPECT_EQ(bfs::make_engine("guarded:guarded:enterprise", g), nullptr);
  EXPECT_EQ(bfs::make_engine("resilient:guarded:enterprise", g), nullptr);
  EXPECT_EQ(bfs::make_engine("guarded:resilient:", g), nullptr);
  EXPECT_EQ(bfs::make_engine("guarded:no-such-engine", g), nullptr);
  EXPECT_EQ(bfs::make_engine("guarded:resilient:no-such-engine", g), nullptr);
  EXPECT_NE(bfs::make_engine("guarded:bl", g), nullptr);
}

// --- RunReport guards section ------------------------------------------------

TEST(GuardReport, SectionRoundTripsAndDiffs) {
  obs::RunReport report;
  report.summary.mean_teps = 1e9;
  obs::GuardSection gs;
  gs.limits = "deadline=5ms";
  gs.trips = 1;
  gs.degrade_steps = 2;
  gs.degraded_runs = 1;
  gs.admitted_bytes = 4096;
  gs.budget_bytes = 8192;
  gs.degraded = true;
  gs.degradation = "drop-hub-cache,shrink-queue";
  gs.last_trip = "deadline";
  report.guards = gs;

  const obs::Json j = report.to_json();
  EXPECT_TRUE(obs::validate_report(j).empty());
  const auto parsed = obs::RunReport::from_json(j);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->guards.has_value());
  EXPECT_EQ(parsed->guards->trips, 1u);
  EXPECT_EQ(parsed->guards->degradation, "drop-hub-cache,shrink-queue");
  EXPECT_TRUE(parsed->guards->degraded);

  // Off-zero trips in the candidate is a regression.
  obs::RunReport baseline;
  baseline.summary.mean_teps = 1e9;
  obs::GuardSection zero;
  baseline.guards = zero;
  obs::RunReport candidate = baseline;
  candidate.guards->trips = 2;
  bool found = false;
  for (const auto& d : obs::diff_reports(baseline, candidate)) {
    if (d.metric == "guards.trips") {
      found = true;
      EXPECT_TRUE(d.regression);
    }
  }
  EXPECT_TRUE(found);
}

// A clean report omits the section entirely.
TEST(GuardReport, CleanReportOmitsGuards) {
  obs::RunReport report;
  report.summary.mean_teps = 1e9;
  const obs::Json j = report.to_json();
  EXPECT_FALSE(j.contains("guards"));
  EXPECT_TRUE(obs::validate_report(j).empty());
}

}  // namespace
}  // namespace ent
