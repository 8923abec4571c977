// Tests for the uniform BFS engine API: the factory registry (including the
// resilient:<inner> decorator syntax), correctness of every registered
// engine, telemetry wiring, and percentile summaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/cpu_bfs.hpp"
#include "bfs/engine.hpp"
#include "bfs/program.hpp"
#include "bfs/runner.hpp"
#include "bfs/validate.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
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

TEST(Engine, RegistryListsAllBuiltIns) {
  const auto names = bfs::engine_names();
  for (const char* expected :
       {"enterprise", "multi-gpu", "bl", "atomic", "beamer", "cpu",
        "cpu-parallel", "b40c", "gunrock", "mapgraph", "graphbig"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " missing from registry";
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Engine, UnknownNameReturnsNull) {
  const Csr g = test_graph(1);
  EXPECT_EQ(bfs::make_engine("no-such-system", g), nullptr);
}

// Every registered engine must construct by name and produce a valid BFS
// tree on the shared (undirected) Kronecker graph.
TEST(Engine, EveryRegisteredEngineRunsValidBfs) {
  const Csr g = test_graph(2);
  const vertex_t source = connected_source(g);
  const auto ref = baselines::cpu_bfs(g, source);

  for (const auto& name : bfs::engine_names()) {
    const auto engine = bfs::make_engine(name, g);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->name(), name);
    EXPECT_FALSE(engine->options_summary().empty()) << name;

    const auto r = engine->run(source);
    const auto tree = bfs::validate_tree(g, g, r);
    EXPECT_TRUE(tree.ok) << name << ": " << tree.error;
    const auto levels = bfs::validate_levels(r.levels, ref.levels);
    EXPECT_TRUE(levels.ok) << name << ": " << levels.error;

    // trace() mirrors the last run's per-level trace.
    EXPECT_EQ(engine->trace().size(), r.level_trace.size()) << name;
  }
}

TEST(Engine, CountersPresentOnlyForDeviceBackedEngines) {
  const Csr g = test_graph(3);
  const vertex_t source = connected_source(g);
  for (const char* name : {"enterprise", "bl", "atomic"}) {
    const auto engine = bfs::make_engine(name, g);
    engine->run(source);
    EXPECT_TRUE(engine->counters().has_value()) << name;
    EXPECT_GT(engine->counters()->gld_transactions, 0u) << name;
  }
  for (const char* name : {"cpu", "beamer"}) {
    const auto engine = bfs::make_engine(name, g);
    engine->run(source);
    EXPECT_FALSE(engine->counters().has_value()) << name;
  }
}

TEST(Engine, ConfigOptionsReachTheWrappedSystem) {
  const Csr g = test_graph(4);
  bfs::EngineConfig config;
  config.device = sim::k20();
  config.enterprise.hub_cache = false;
  const auto engine = bfs::make_engine("enterprise", g, config);
  const std::string summary = engine->options_summary();
  EXPECT_NE(summary.find("hc=off"), std::string::npos) << summary;
  EXPECT_NE(summary.find("K20"), std::string::npos) << summary;
}

// `config.enterprise` holds the one set of technique toggles: the multi-GPU
// engine and its vertex programs run every device with it, just as the
// single-GPU engine does.
TEST(Engine, MultiGpuHonoursEnterpriseToggles) {
  struct KernelLog final : obs::TraceSink {
    std::set<std::string> seen;
    void kernel(const obs::KernelEvent& e) override { seen.insert(e.name); }
  };
  const Csr g = test_graph(4);
  for (const auto& [spec, expand] :
       {std::pair{"multi-gpu", "Expand(Thread)"},
        std::pair{"multi-gpu/sssp", "Relax(Thread)"}}) {
    KernelLog names;
    bfs::EngineConfig config;
    config.enterprise.workload_balancing = false;
    config.enterprise.fixed_granularity = enterprise::Granularity::kThread;
    config.sink = &names;
    const auto engine = bfs::make_engine(spec, g, config);
    ASSERT_NE(engine, nullptr) << spec;
    engine->run(connected_source(g));
    EXPECT_TRUE(names.seen.contains(expand)) << spec;
    EXPECT_FALSE(names.seen.contains("classify")) << spec;
  }
}

TEST(Engine, TelemetryFlowsThroughSinkAndRegistry) {
  const Csr g = test_graph(5);
  const vertex_t source = connected_source(g);

  obs::JsonTraceSink sink;
  obs::MetricsRegistry metrics;
  bfs::EngineConfig config;
  config.sink = &sink;
  config.metrics = &metrics;

  const auto engine = bfs::make_engine("enterprise", g, config);
  const auto r = engine->run(source);

  const auto& events = sink.events().items();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().at("event").as_string(), "begin_run");
  EXPECT_EQ(events.back().at("event").as_string(), "end_run");
  std::size_t levels = 0;
  std::size_t kernels = 0;
  for (const auto& e : events) {
    const auto& kind = e.at("event").as_string();
    levels += kind == "level" ? 1u : 0u;
    kernels += kind == "kernel" ? 1u : 0u;
  }
  EXPECT_EQ(levels, r.level_trace.size());
  EXPECT_GT(kernels, 0u);

  EXPECT_EQ(metrics.histogram("run.time_ms").count(), 1u);
  EXPECT_EQ(metrics.counter("run.sources").value(), 1u);
  EXPECT_GT(metrics.counter("enterprise.levels").value(), 0u);
}

// Host engines get their level events emitted by the wrapper after the run;
// they must not be duplicated for self-instrumenting engines.
TEST(Engine, HostEngineLevelEventsEmittedOnce) {
  const Csr g = test_graph(6);
  const vertex_t source = connected_source(g);
  obs::JsonTraceSink sink;
  bfs::EngineConfig config;
  config.sink = &sink;
  const auto engine = bfs::make_engine("cpu", g, config);
  const auto r = engine->run(source);
  std::size_t levels = 0;
  for (const auto& e : sink.events().items()) {
    levels += e.at("event").as_string() == "level" ? 1u : 0u;
  }
  EXPECT_EQ(levels, r.level_trace.size());
}

TEST(Engine, RunSourcesComputesPercentileFields) {
  const Csr g = test_graph(7);
  const auto engine = bfs::make_engine("enterprise", g);
  const auto summary = bfs::run_sources(g, *engine, 8, 11);

  ASSERT_EQ(summary.runs.size(), 8u);
  EXPECT_GT(summary.min_time_ms, 0.0);
  EXPECT_LE(summary.min_time_ms, summary.p50_time_ms);
  EXPECT_LE(summary.p50_time_ms, summary.p95_time_ms);
  EXPECT_LE(summary.p95_time_ms, summary.max_time_ms);
  EXPECT_LE(summary.min_teps, summary.p50_teps);
  EXPECT_LE(summary.p50_teps, summary.p95_teps);
  EXPECT_LE(summary.p95_teps, summary.max_teps);
  EXPECT_GE(summary.mean_teps, summary.harmonic_teps);
  EXPECT_GE(summary.mean_time_ms, summary.min_time_ms);
  EXPECT_LE(summary.mean_time_ms, summary.max_time_ms);
}

// Minimal custom engine for the registry-extension test: a host BFS lifted
// onto the Engine interface the way an experiment would do it.
class CustomCpuEngine final : public bfs::Engine {
 public:
  explicit CustomCpuEngine(const Csr& g) : graph_(&g) {}

  std::string name() const override { return "custom-test-engine"; }
  std::string options_summary() const override { return "test engine"; }

 protected:
  bfs::BfsResult do_run(vertex_t source) override {
    return baselines::cpu_bfs(*graph_, source);
  }

 private:
  const Csr* graph_;
};

TEST(Engine, RegisterEngineExtendsTheRegistry) {
  const Csr g = test_graph(9);
  const bfs::EngineFactory factory = [](const Csr& gg,
                                        const bfs::EngineConfig&) {
    return std::unique_ptr<bfs::Engine>(std::make_unique<CustomCpuEngine>(gg));
  };
  EXPECT_TRUE(bfs::register_engine("custom-test-engine", factory));
  EXPECT_FALSE(bfs::register_engine("custom-test-engine", factory));
  EXPECT_FALSE(bfs::register_engine("enterprise", factory));
  // ':' is reserved for the resilient:<inner> decorator spelling.
  EXPECT_FALSE(bfs::register_engine("resilient:custom", factory));

  const auto engine = bfs::make_engine("custom-test-engine", g);
  ASSERT_NE(engine, nullptr);
  const auto r = engine->run(connected_source(g));
  EXPECT_TRUE(bfs::validate_tree(g, g, r).ok);

  // Registered engines are automatically reachable through the decorator.
  const auto wrapped = bfs::make_engine("resilient:custom-test-engine", g);
  ASSERT_NE(wrapped, nullptr);
  EXPECT_EQ(wrapped->name(), "resilient:custom-test-engine");
  EXPECT_TRUE(bfs::validate_tree(g, g, wrapped->run(connected_source(g))).ok);
}

TEST(Engine, ResilientDecoratorRejectsMalformedNames) {
  const Csr g = test_graph(10);
  EXPECT_EQ(bfs::make_engine("resilient:", g), nullptr);
  EXPECT_EQ(bfs::make_engine("resilient:no-such-engine", g), nullptr);
  EXPECT_EQ(bfs::make_engine("resilient:resilient:enterprise", g), nullptr);
}

// The multi-GPU BFS driver partitions undirected graphs only, so on a
// digraph make_engine refuses it, bare or decorated; its vertex programs
// run on either kind of graph.
TEST(Engine, MultiGpuBfsOnDirectedGraphReturnsNull) {
  graph::RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 13;
  const Csr g = graph::generate_rmat(p);
  ASSERT_TRUE(g.directed());
  EXPECT_EQ(bfs::make_engine("multi-gpu", g), nullptr);
  EXPECT_EQ(bfs::make_engine("resilient:multi-gpu", g), nullptr);
  EXPECT_EQ(bfs::make_engine("guarded:multi-gpu", g), nullptr);

  const auto cc = bfs::make_engine("multi-gpu/cc", g);
  ASSERT_NE(cc, nullptr);
  const auto validator = bfs::make_program("cc", g);
  ASSERT_NE(validator, nullptr);
  EXPECT_TRUE(validator->validate(g, cc->run(connected_source(g))).ok);
}

// The canonical decorator stack is guards OUTERMOST: a blown deadline must
// trip immediately, never be retried by the resilience layer as if it were
// a fault. The reverse order is rejected structurally, not just documented
// (docs/ARCHITECTURE.md, "The engine decorator stack").
TEST(Engine, CanonicalDecoratorOrderIsGuardedOutermost) {
  const Csr g = test_graph(11);
  const auto canonical = bfs::make_engine("guarded:resilient:enterprise", g);
  ASSERT_NE(canonical, nullptr);
  EXPECT_EQ(canonical->name(), "guarded:resilient:enterprise");
  const auto r = canonical->run(connected_source(g));
  EXPECT_TRUE(bfs::validate_tree(g, g, r).ok);

  EXPECT_EQ(bfs::make_engine("resilient:guarded:enterprise", g), nullptr);
  EXPECT_EQ(bfs::make_engine("resilient:guarded:bl", g), nullptr);
  EXPECT_EQ(bfs::make_engine("guarded:guarded:enterprise", g), nullptr);
}

TEST(Engine, CloneRebuildsAnIndependentIdenticalEngine) {
  const Csr g = test_graph(12);
  const vertex_t source = connected_source(g);
  const auto original = bfs::make_engine("enterprise", g);
  ASSERT_NE(original, nullptr);
  const auto first = original->run(source);

  const auto copy = original->clone();
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->name(), original->name());
  EXPECT_EQ(copy->options_summary(), original->options_summary());

  // The simulator is deterministic, so a clone built from the same recipe
  // reproduces the original's first run exactly — fresh device clock, fresh
  // scratch, no state inherited from the original's completed traversal.
  const auto replay = copy->run(source);
  EXPECT_EQ(replay.vertices_visited, first.vertices_visited);
  EXPECT_EQ(replay.depth, first.depth);
  EXPECT_DOUBLE_EQ(replay.time_ms, first.time_ms);
  // And the clone's run leaves the original's last-run trace untouched.
  EXPECT_EQ(original->trace().size(), first.level_trace.size());
}

TEST(Engine, EnterpriseEnginesOnOneGraphBorrowOneHubSet) {
  const Csr g = test_graph(12);
  const auto a = bfs::make_engine("enterprise", g);
  const auto b = bfs::make_engine("enterprise", g);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const auto clone = a->clone();
  ASSERT_NE(clone, nullptr);
  const graph::HubView* hubs = a->hubs();
  ASSERT_NE(hubs, nullptr);
  EXPECT_EQ(b->hubs(), hubs);
  EXPECT_EQ(clone->hubs(), hubs);
  // The auto target at n = 1024 is 16 (EnterpriseOptions::hub_target_count).
  EXPECT_EQ(&g.hubs(16), hubs);
  const enterprise::EnterpriseBfs direct(g);
  EXPECT_EQ(&direct.hubs(), hubs);
  EXPECT_EQ(direct.hub_threshold(), hubs->tau);
  EXPECT_EQ(direct.total_hubs(), hubs->count);
  EXPECT_GT(hubs->count, 0u);
  EXPECT_EQ(bfs::make_engine("bl", g)->hubs(), nullptr);
}

TEST(Engine, CloneOfDecoratedStackClonesTheWholeStack) {
  const Csr g = test_graph(13);
  bfs::EngineConfig config;
  config.guards.max_levels = 64;
  const auto original =
      bfs::make_engine("guarded:resilient:enterprise", g, config);
  ASSERT_NE(original, nullptr);
  const auto copy = original->clone();
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->name(), "guarded:resilient:enterprise");
  EXPECT_TRUE(bfs::validate_tree(g, g, copy->run(connected_source(g))).ok);
}

TEST(Engine, CloneWithConfigSwapsTelemetryTaps) {
  const Csr g = test_graph(14);
  const vertex_t source = connected_source(g);
  obs::MetricsRegistry original_metrics;
  bfs::EngineConfig config;
  config.metrics = &original_metrics;
  const auto original = bfs::make_engine("enterprise", g, config);
  ASSERT_NE(original, nullptr);

  obs::MetricsRegistry clone_metrics;
  bfs::EngineConfig clone_config = config;
  clone_config.metrics = &clone_metrics;
  const auto copy = original->clone(clone_config);
  ASSERT_NE(copy, nullptr);
  copy->run(source);
  EXPECT_EQ(original_metrics.counter("enterprise.levels").value(), 0u);
  EXPECT_GT(clone_metrics.counter("enterprise.levels").value(), 0u);
}

TEST(Engine, HandBuiltEngineHasNoCloneRecipe) {
  const Csr g = test_graph(15);
  CustomCpuEngine hand_built(g);
  EXPECT_EQ(hand_built.clone(), nullptr);
}

// The serving layer's foundational property: two engines built from the
// same recipe traverse the SAME shared graph from different threads without
// aliasing any mutable state. Run several interleaved traversals per thread
// and validate every tree against the host reference.
TEST(Engine, ClonedEnginesRunConcurrentlyOnSharedGraph) {
  const Csr g = test_graph(16);
  const vertex_t source_a = connected_source(g);
  vertex_t source_b = source_a + 1;
  while (g.out_degree(source_b) < 4) ++source_b;
  const auto ref_a = baselines::cpu_bfs(g, source_a);
  const auto ref_b = baselines::cpu_bfs(g, source_b);

  const auto engine_a = bfs::make_engine("guarded:resilient:enterprise", g);
  ASSERT_NE(engine_a, nullptr);
  const auto engine_b = engine_a->clone();
  ASSERT_NE(engine_b, nullptr);

  constexpr int kRuns = 8;
  std::vector<bfs::BfsResult> results_a(kRuns);
  std::vector<bfs::BfsResult> results_b(kRuns);
  std::thread ta([&] {
    for (int i = 0; i < kRuns; ++i) results_a[static_cast<std::size_t>(i)] =
        engine_a->run(source_a);
  });
  std::thread tb([&] {
    for (int i = 0; i < kRuns; ++i) results_b[static_cast<std::size_t>(i)] =
        engine_b->run(source_b);
  });
  ta.join();
  tb.join();

  for (int i = 0; i < kRuns; ++i) {
    const auto& ra = results_a[static_cast<std::size_t>(i)];
    const auto& rb = results_b[static_cast<std::size_t>(i)];
    EXPECT_TRUE(bfs::validate_tree(g, g, ra).ok) << "thread A run " << i;
    EXPECT_TRUE(bfs::validate_levels(ra.levels, ref_a.levels).ok)
        << "thread A run " << i;
    EXPECT_TRUE(bfs::validate_tree(g, g, rb).ok) << "thread B run " << i;
    EXPECT_TRUE(bfs::validate_levels(rb.levels, ref_b.levels).ok)
        << "thread B run " << i;
  }
}

}  // namespace
}  // namespace ent
