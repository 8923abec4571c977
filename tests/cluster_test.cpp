// Cluster-scale resilience: the topology-aware interconnect's ladder —
// bounded flaky-link retry with backoff, reroute around downed links,
// degraded-mode fallback to a surviving ring, typed ClusterPartitioned on a
// disconnected fabric — plus the ResilientEngine repartition path, a
// 64-device link-storm traversal, the RunReport cluster section, and the
// zero-overhead guarantee on the default ring.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bfs/engine.hpp"
#include "bfs/resilient.hpp"
#include "bfs/runner.hpp"
#include "bfs/validate.hpp"
#include "enterprise/multi_gpu_bfs.hpp"
#include "graph/generators.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/multi_gpu.hpp"
#include "gpusim/topology.hpp"
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

sim::FaultInjector make_injector(const std::string& spec) {
  const auto plan = sim::FaultPlan::parse(spec);
  EXPECT_TRUE(plan.has_value()) << spec;
  return sim::FaultInjector(*plan);
}

// Per-hop cost at the default link (12 GB/s, 10 us).
double hop_ms(std::uint64_t bytes) {
  return 0.01 + static_cast<double>(bytes) / 12e6;
}

// --- the resilience ladder, rung by rung ------------------------------------

TEST(ClusterLadder, FlakyLinkRetriesWithExponentialBackoff) {
  // prob=1 with fires=2 misfires exactly twice, then the link heals: the
  // message succeeds on its third try after 0.05 + 0.10 ms of simulated
  // backoff (base * 2^(k-1)), within the default budget of 2 retries.
  sim::FaultInjector injector = make_injector("link@0-1:flaky=1,fires=2");
  sim::Interconnect ic({12.0, 10.0});
  ic.set_fault_injector(&injector, {0, 1});

  const std::uint64_t bytes = 1 << 20;
  const double t = hop_ms(bytes);
  EXPECT_NEAR(ic.allgather_ms(bytes, 2), t + 0.05 + 0.10, 1e-9);
  EXPECT_EQ(ic.comm_stats().retries, 2u);
  EXPECT_EQ(ic.comm_stats().link_faults, 2u);
  EXPECT_EQ(ic.comm_stats().reroutes, 0u);
}

TEST(ClusterLadder, ReroutesAroundDownedLinkAndBooksDetour) {
  sim::FaultInjector injector = make_injector("link@0-1:down");
  sim::Interconnect ic({12.0, 10.0});
  ic.set_fault_injector(&injector, {0, 1, 2, 3});

  const std::uint64_t bytes = 1 << 20;
  const double t = hop_ms(bytes);
  // Every ring step's 0->1 slice detours the long way (0-3-2-1, 3 hops).
  const double cost = ic.allgather_ms(bytes, 4);
  EXPECT_NEAR(cost, 3 * (3 * t), 1e-9);
  EXPECT_EQ(ic.comm_stats().link_faults, 1u);  // one persisted down
  EXPECT_GE(ic.comm_stats().reroutes, 1u);
  EXPECT_GT(ic.comm_stats().detour_ms, 0.0);
  EXPECT_TRUE(injector.link_down(0, 1));
}

TEST(ClusterLadder, ButterflyFallsBackToSurvivingRingWithoutReroute) {
  sim::FaultInjector injector = make_injector("link@0-1:down");
  sim::InterconnectSpec spec{12.0, 10.0, {sim::TopologyKind::kButterfly}};
  spec.policy.reroute = false;  // force the whole-collective fallback
  sim::Interconnect ic(spec);
  ic.set_fault_injector(&injector, {0, 1, 2, 3});

  const double cost = ic.allgather_ms(1 << 20, 4);
  EXPECT_GT(cost, 0.0);
  EXPECT_EQ(ic.comm_stats().degraded_rings, 1u);
  // The ring fallback store-and-forwards over the surviving butterfly
  // links, so it still costs more than the clean log-step exchange.
  sim::Interconnect clean({12.0, 10.0, {sim::TopologyKind::kButterfly}});
  EXPECT_GT(cost, clean.allgather_ms(1 << 20, 4));
}

TEST(ClusterLadder, DisconnectedFabricThrowsTypedPartition) {
  // Both of device 0's ring links go down (0-1 on its own message, 3-0 on
  // the same step's wrap-around slice); the next 0->1 message finds no
  // surviving path and the fabric reports {0} unreachable.
  sim::FaultInjector injector = make_injector("link@0-1:down;link@3-0:down");
  sim::Interconnect ic({12.0, 10.0});
  ic.set_fault_injector(&injector, {0, 1, 2, 3});

  try {
    ic.allgather_ms(1 << 20, 4);
    FAIL() << "disconnected fabric completed a collective";
  } catch (const sim::ClusterPartitioned& fault) {
    EXPECT_EQ(fault.type(), sim::FaultType::kLinkDown);
    EXPECT_FALSE(fault.transient());
    ASSERT_EQ(fault.unreachable().size(), 1u);
    EXPECT_EQ(fault.unreachable().front(), 0u);
  }
  EXPECT_EQ(ic.comm_stats().partitions, 1u);
}

// --- ResilientEngine: repartition-and-continue ------------------------------

TEST(ClusterResilience, PartitionBlacklistsUnreachableAndContinues) {
  const Csr g = test_graph(21);
  const vertex_t source = connected_source(g);

  sim::FaultInjector injector =
      make_injector("link@0-1:down;link@3-0:down");
  bfs::EngineConfig config;
  config.fault_injector = &injector;
  config.multi_gpu.num_gpus = 4;

  const auto engine = bfs::make_engine("resilient:multi-gpu", g, config);
  ASSERT_NE(engine, nullptr);
  const auto r = engine->run(source);

  EXPECT_TRUE(bfs::validate_tree(g, g, r).ok);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.completed_by, "multi-gpu");

  const auto* resilient =
      dynamic_cast<const bfs::ResilientEngine*>(engine.get());
  ASSERT_NE(resilient, nullptr);
  const bfs::ResilienceStats& s = resilient->last_run_stats();
  EXPECT_GE(s.devices_blacklisted, 1u);
  EXPECT_GE(s.repartitions, 1u);
}

// --- 64 simulated devices under a link storm --------------------------------

TEST(ClusterScale, SixtyFourDeviceButterflySurvivesLinkStorm) {
  const Csr g = test_graph(64);
  const vertex_t source = connected_source(g);

  sim::FaultInjector injector = make_injector(
      "link@0-1:down;link@2-3:degrade=0.25;link@4-5:flaky=0.5,fires=4;"
      "seed=99");
  obs::MetricsRegistry metrics;

  enterprise::EnterpriseOptions eopt;
  eopt.fault_injector = &injector;
  eopt.metrics = &metrics;
  enterprise::MultiGpuOptions mopt;
  mopt.num_gpus = 64;
  mopt.interconnect.topology.kind = sim::TopologyKind::kButterfly;
  enterprise::MultiGpuEnterpriseBfs sys(g, eopt, mopt);

  const auto r = sys.run(source);
  EXPECT_TRUE(bfs::validate_tree(g, g, r).ok);
  EXPECT_GT(injector.faults_injected(), 0u);
  // The downed bit-0 link reroutes every level; the storm never stops the
  // traversal or corrupts the tree.
  EXPECT_GE(metrics.counter("comm.link_faults").value(), 1u);
  EXPECT_GE(metrics.counter("comm.reroutes").value(), 1u);
  EXPECT_EQ(metrics.counter("comm.partitions").value(), 0u);
  EXPECT_GT(sys.last_run_stats().comm_ms, 0.0);
}

// --- RunReport cluster section ----------------------------------------------

TEST(ClusterReport, SectionRoundTripsThroughSchemaAndDiff) {
  obs::RunReport report;
  report.system = "multi-gpu";
  report.device = "K40";
  report.graph = {"kron-10-8", 1024, 8192, false};

  obs::ClusterSection cs;
  cs.topology = "butterfly";
  cs.parties = 64;
  cs.links_total = 192;
  cs.links_failed = 1;
  cs.collectives = 12;
  cs.comm_volume_bytes = 123456;
  cs.comm_time_ms = 1.5;
  cs.link_faults = 3;
  cs.comm_retries = 2;
  cs.reroutes = 4;
  cs.detour_ms = 0.25;
  report.cluster = cs;

  const obs::Json j = report.to_json();
  const auto schema_errors = obs::validate_report(j);
  EXPECT_TRUE(schema_errors.empty())
      << (schema_errors.empty() ? "" : schema_errors.front());
  const auto parsed = obs::RunReport::from_json(j);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->cluster.has_value());
  EXPECT_EQ(parsed->cluster->topology, "butterfly");
  EXPECT_EQ(parsed->cluster->parties, 64u);
  EXPECT_EQ(parsed->cluster->links_failed, 1u);
  EXPECT_DOUBLE_EQ(parsed->cluster->detour_ms, 0.25);

  // A link-fault delta shows up in the report diff.
  obs::RunReport clean = *parsed;
  obs::ClusterSection quiet = cs;
  quiet.links_failed = 0;
  quiet.link_faults = 0;
  quiet.reroutes = 0;
  quiet.detour_ms = 0.0;
  clean.cluster = quiet;
  const auto deltas = obs::diff_reports(clean, *parsed);
  bool saw_cluster_row = false;
  for (const auto& delta : deltas) {
    saw_cluster_row |= delta.metric.rfind("cluster.", 0) == 0;
  }
  EXPECT_TRUE(saw_cluster_row);
}

// --- zero overhead on the default ring --------------------------------------

TEST(ClusterZeroOverhead, DefaultRingRecordsNothingAndStaysByteIdentical) {
  const Csr g = test_graph(5);

  const auto report_dump = [&g] {
    obs::JsonTraceSink sink;
    obs::MetricsRegistry metrics;
    bfs::EngineConfig config;
    config.sink = &sink;
    config.metrics = &metrics;
    config.multi_gpu.num_gpus = 4;

    const auto engine = bfs::make_engine("multi-gpu", g, config);
    const auto summary = bfs::run_sources(g, *engine, 4, 11);

    obs::RunReport report;
    report.system = engine->name();
    report.device = "K40";
    report.options_summary = engine->options_summary();
    report.graph = {"kron-10-8", g.num_vertices(), g.num_edges(),
                    g.directed()};
    report.seed = 11;
    report.requested_sources = 4;
    report.summary = summary;
    report.levels = engine->trace();
    report.metrics = metrics.to_json();
    report.events = sink.events();
    return report.to_json().dump(2);
  };

  const std::string first = report_dump();
  EXPECT_EQ(first, report_dump());
  // The default ring with no link rules takes the historical fast path:
  // no cluster section, no comm.* metrics, no link events.
  EXPECT_EQ(first.find("\"cluster\""), std::string::npos);
  EXPECT_EQ(first.find("comm."), std::string::npos);
  EXPECT_EQ(first.find("\"event\": \"link\""), std::string::npos);

  // And the costed time is exactly the historical closed form.
  sim::Interconnect ic({12.0, 10.0});
  EXPECT_FALSE(ic.cluster_active());
  const std::uint64_t bytes = 4096;
  EXPECT_DOUBLE_EQ(ic.allgather_ms(bytes, 4), ic.transfer_ms(bytes) * 3);
  EXPECT_EQ(ic.comm_stats().collectives, 0u);
}

}  // namespace
}  // namespace ent
