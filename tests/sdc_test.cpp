// Silent-data-corruption defense, end to end: flip-rule parsing, segment
// digests, the per-level audits inside the enterprise and multi-GPU
// drivers, the detection-coverage sweep the subsystem is accountable to
// (>=99% of injected single-bit flips across status/frontier/adjacency
// detected before a report is emitted, `missed` as ground truth), a status
// flip that must reach the top-down queue, a frontier flip that the level's
// α and γ must read, the zero-overhead contract with everything off, and
// recovery through resilient:enterprise.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/cpu_bfs.hpp"
#include "bfs/engine.hpp"
#include "bfs/integrity.hpp"
#include "bfs/resilient.hpp"
#include "bfs/runner.hpp"
#include "bfs/validate.hpp"
#include "graph/builder.hpp"
#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "gpusim/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace_sink.hpp"
#include "util/pool.hpp"

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

// --- flip-rule mini-language -----------------------------------------------

TEST(FlipRules, ParseAndSummaryRoundTrip) {
  const auto plan = sim::FaultPlan::parse(
      "flip@target=frontier,level=2,offset=33,bit=5;seed=9");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->rules.size(), 1u);
  const sim::FaultRule& r = plan->rules[0];
  EXPECT_EQ(r.type, sim::FaultType::kSilentFlip);
  EXPECT_EQ(r.flip_target, sim::FlipTarget::kFrontier);
  EXPECT_EQ(r.level, 2);
  EXPECT_EQ(r.flip_offset, 33);
  EXPECT_EQ(r.flip_bit, 5);
  EXPECT_TRUE(plan->has_flip_rules());
  const auto again = sim::FaultPlan::parse(plan->summary());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->summary(), plan->summary());
}

TEST(FlipRules, FlipKeysRejectedOnFailStopRules) {
  std::string error;
  EXPECT_FALSE(sim::FaultPlan::parse("transient@target=status", &error)
                   .has_value());
  EXPECT_NE(error.find("flip"), std::string::npos);
}

// --- segment digests -------------------------------------------------------

TEST(SegmentDigests, CleanGraphVerifies) {
  const Csr g = test_graph(3);
  const auto digests = graph::SegmentDigests::compute(g);
  EXPECT_GT(digests.blocks(), 1u);
  EXPECT_FALSE(digests.verify(g).has_value());
}

TEST(SegmentDigests, SingleBitAdjacencyFlipNamesTheBlock) {
  Csr g = test_graph(3);
  const auto digests = graph::SegmentDigests::compute(g);
  auto bytes = g.raw_adjacency_bytes();
  const std::size_t offset = 12345 % bytes.size();
  bytes[offset] ^= std::byte{0x10};
  const auto mismatch = digests.verify(g);
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_EQ(mismatch->segment, "adjacency");
  EXPECT_EQ(mismatch->block, offset / digests.block_bytes());
  EXPECT_NE(mismatch->expected, mismatch->actual);
  // Undo the flip and the digests agree again — detection, not damage.
  bytes[offset] ^= std::byte{0x10};
  EXPECT_FALSE(digests.verify(g).has_value());
}

// --- detection sweep -------------------------------------------------------

struct FlipRunOutcome {
  std::uint64_t injected = 0;
  std::uint64_t detections = 0;
  std::uint64_t missed = 0;
  bool threw_integrity = false;
  bool completed = false;
  bfs::BfsResult result;
};

// Runs `engine_name` over a fresh copy of `g` with the given flip plan and
// integrity knobs; the adjacency segment is armed the way bfs_runner arms
// it. Plain (non-resilient) engines surface detection as IntegrityFault.
FlipRunOutcome run_with_flips(const std::string& engine_name, Csr& g,
                              const std::string& plan_spec,
                              bfs::AuditMode audit,
                              std::uint32_t scrub_interval) {
  obs::MetricsRegistry metrics;
  const auto plan = sim::FaultPlan::parse(plan_spec);
  EXPECT_TRUE(plan.has_value()) << plan_spec;
  sim::FaultInjector injector(*plan);
  injector.set_metrics(&metrics);
  injector.register_flip_target(sim::FlipTarget::kAdjacency, 0,
                                g.raw_adjacency_bytes());
  bfs::EngineConfig config;
  config.metrics = &metrics;
  config.fault_injector = &injector;
  config.integrity.audit = audit;
  config.integrity.scrub_interval = scrub_interval;
  const auto engine = bfs::make_engine(engine_name, g, config);
  EXPECT_NE(engine, nullptr) << engine_name;
  FlipRunOutcome out;
  try {
    out.result = engine->run(connected_source(g));
    out.completed = true;
  } catch (const sim::IntegrityFault&) {
    out.threw_integrity = true;
  }
  out.injected = injector.flips_injected();
  const auto section = bfs::collect_integrity(metrics, config.integrity);
  if (section.has_value()) {
    out.detections = section->detections;
    out.missed = section->flips_missed;
  }
  return out;
}

TEST(DetectionSweep, FullAuditsCatchAtLeast99PercentOfSingleBitFlips) {
  const char* targets[] = {"status", "frontier", "adjacency"};
  const int offsets[] = {3, 65, 257, 1025, 2049};
  const int bits[] = {0, 2, 7};
  std::uint64_t armed = 0;
  std::uint64_t detected = 0;
  for (const char* target : targets) {
    for (const int offset : offsets) {
      for (const int bit : bits) {
        // Fresh graph per run: an adjacency flip persists in memory.
        Csr g = test_graph(5);
        std::ostringstream spec;
        spec << "flip@target=" << target << ",level=1,offset=" << offset
             << ",bit=" << bit << ";seed=13";
        const FlipRunOutcome out = run_with_flips(
            "enterprise", g, spec.str(), bfs::AuditMode::kFull, 1);
        ASSERT_EQ(out.injected, 1u)
            << target << " offset=" << offset << " bit=" << bit;
        ++armed;
        if (out.detections > 0) {
          ++detected;
          EXPECT_EQ(out.missed, 0u)
              << target << " offset=" << offset << " bit=" << bit;
        }
      }
    }
  }
  ASSERT_EQ(armed, 45u);
  // The acceptance bar is 99%; full audits + every-level scrubs are exact
  // detectors for level-top corruption, so every armed run should catch.
  EXPECT_GE(detected * 100, armed * 99)
      << detected << " of " << armed << " flips detected";
}

TEST(DetectionSweep, MultiGpuDriverDetectsStatusAndFrontierFlips) {
  for (const char* target : {"status", "frontier"}) {
    Csr g = test_graph(6);
    const std::string spec = std::string("flip@target=") + target +
                             ",level=1,offset=129,bit=6;seed=21";
    const FlipRunOutcome out =
        run_with_flips("multi-gpu", g, spec, bfs::AuditMode::kFull, 1);
    EXPECT_EQ(out.injected, 1u) << target;
    EXPECT_TRUE(out.threw_integrity) << target;
    EXPECT_GE(out.detections, 1u) << target;
    EXPECT_EQ(out.missed, 0u) << target;
  }
}

TEST(DetectionSweep, SampledAuditsRunCheapChecksOnCleanRuns) {
  Csr g = test_graph(7);
  obs::MetricsRegistry metrics;
  bfs::EngineConfig config;
  config.metrics = &metrics;
  config.integrity.audit = bfs::AuditMode::kSampled;
  const auto engine = bfs::make_engine("enterprise", g, config);
  const auto result = engine->run(connected_source(g));
  EXPECT_GT(result.vertices_visited, 0u);
  const auto section = bfs::collect_integrity(metrics, config.integrity);
  ASSERT_TRUE(section.has_value());
  EXPECT_GT(section->audit_checks, 0u);
  EXPECT_EQ(section->audit_failures, 0u);
  EXPECT_EQ(section->detections, 0u);
}

// --- missed counter as ground truth ----------------------------------------

TEST(MissedCounter, AuditsOffMeansEveryFlipIsMissed) {
  Csr g = test_graph(8);
  const FlipRunOutcome out = run_with_flips(
      "enterprise", g, "flip@target=status,level=1,offset=65,bit=3;seed=17",
      bfs::AuditMode::kOff, 0);
  EXPECT_TRUE(out.completed);  // silent: nothing checks, nothing throws
  EXPECT_FALSE(out.threw_integrity);
  EXPECT_EQ(out.injected, 1u);
  EXPECT_EQ(out.detections, 0u);
  EXPECT_EQ(out.missed, 1u);
}

// --- a status flip reaches the top-down queue -------------------------------

// The top-down queue is harvested from the expansion's discoveries, and a
// flipped status byte is no discovery. With flip rules armed the driver
// keeps the full status scan, so the flip reaches the queue the way the
// device's scan would see it. CI's control flip writes a level no scan ever
// matches, so only this case covers it.
TEST(StatusFlip, FlipToALaterLevelJoinsThatLevelsQueue) {
  graph::SuiteOptions opt;
  opt.scale = 1.0 / 16;
  opt.seed = 3;
  const Csr g = graph::make_suite_graph("ROAD", opt).graph;
  const bfs::BfsResult clean = bfs::make_engine("enterprise", g, {})->run(0);
  const auto first = std::find(clean.levels.begin(), clean.levels.end(), 1);
  ASSERT_NE(first, clean.levels.end());
  const auto v = static_cast<std::size_t>(first - clean.levels.begin());
  ASSERT_GT(clean.level_trace.size(), 3u);

  // Bit 1 of v's low status byte turns its level 1 into 3 at the level-2
  // top, so level 3's queue gains v.
  const auto plan = sim::FaultPlan::parse(
      "flip@target=status,level=2,offset=" + std::to_string(4 * v) +
      ",bit=1;seed=7");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  bfs::EngineConfig config;
  config.fault_injector = &injector;
  config.integrity.audit = bfs::AuditMode::kOff;
  const bfs::BfsResult flipped =
      bfs::make_engine("enterprise", g, config)->run(0);
  EXPECT_EQ(injector.flips_injected(), 1u);
  ASSERT_GT(flipped.level_trace.size(), 3u);
  EXPECT_EQ(flipped.level_trace[3].frontier_count,
            clean.level_trace[3].frontier_count + 1);
}

// A frontier flip at a level top rewrites a queue entry after the queue was
// built, so α and γ must read the queue as the flip left it. Bit 1 of the
// level-1 queue's first entry turns a plain vertex into a hub: α and γ both
// move, the run still switches at level 1, and the tree changes.
TEST(FrontierFlip, AlphaAndGammaReadTheFlippedQueue) {
  graph::KroneckerParams p;
  p.scale = 12;
  p.edge_factor = 16;
  p.seed = 5;
  const Csr g = graph::generate_kronecker(p);
  const vertex_t source = connected_source(g);
  struct Level {
    bfs::Direction direction;
    std::uint64_t alpha_bits;
    std::uint64_t gamma_bits;
  };
  constexpr bfs::Direction kTd = bfs::Direction::kTopDown;
  constexpr bfs::Direction kBu = bfs::Direction::kBottomUp;
  const std::vector<Level> pinned{
      {kTd, 0x4054ebf36838ffd6ull, 0x4019000000000000ull},
      {kBu, 0x3fd88fa95a3e4cafull, 0x4059000000000000ull},
      {kBu, 0, 0},
      {kBu, 0, 0},
  };
  const bfs::BfsResult clean =
      bfs::make_engine("enterprise", g, {})->run(source);
  ASSERT_GT(clean.level_trace.size(), 1u);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    util::ScopedHostPool pool(threads);
    const auto plan = sim::FaultPlan::parse(
        "flip@target=frontier,level=1,offset=0,bit=1;seed=7");
    ASSERT_TRUE(plan.has_value());
    sim::FaultInjector injector(*plan);
    bfs::EngineConfig config;
    config.fault_injector = &injector;
    config.integrity.audit = bfs::AuditMode::kOff;
    config.integrity.scrub_interval = 0;
    const bfs::BfsResult flipped =
        bfs::make_engine("enterprise", g, config)->run(source);
    EXPECT_EQ(injector.flips_injected(), 1u);
    ASSERT_EQ(flipped.level_trace.size(), pinned.size());
    for (std::size_t l = 0; l < pinned.size(); ++l) {
      SCOPED_TRACE(::testing::Message() << "level " << l);
      const bfs::LevelTrace& t = flipped.level_trace[l];
      EXPECT_EQ(t.direction, pinned[l].direction);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(t.alpha), pinned[l].alpha_bits)
          << t.alpha;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(t.gamma), pinned[l].gamma_bits)
          << t.gamma;
    }
    EXPECT_EQ(graph::fnv1a64(std::as_bytes(std::span(flipped.parents)),
                             graph::fnv1a64(std::as_bytes(
                                 std::span(flipped.levels)))),
              0x01c23cc614e13cb7ull);
    // The flip is what moved level 1's indicators.
    EXPECT_NE(flipped.level_trace[1].alpha, clean.level_trace[1].alpha);
    EXPECT_NE(flipped.level_trace[1].gamma, clean.level_trace[1].gamma);
  }
}

// --- zero overhead when off ------------------------------------------------

obs::Json clean_report_json(bool mention_integrity) {
  const Csr g = test_graph(9);
  obs::JsonTraceSink sink;
  obs::MetricsRegistry metrics;
  bfs::EngineConfig config;
  config.sink = &sink;
  config.metrics = &metrics;
  if (mention_integrity) {
    // Spelling out the defaults must change nothing anywhere.
    config.integrity.audit = bfs::AuditMode::kOff;
    config.integrity.scrub_interval = 0;
  }
  const auto engine = bfs::make_engine("enterprise", g, config);
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
  report.integrity = bfs::collect_integrity(metrics, config.integrity);
  report.metrics = metrics.to_json();
  report.events = sink.events();
  return report.to_json();
}

TEST(ZeroOverhead, IntegrityKnobsOffProduceByteIdenticalReports) {
  const obs::Json plain = clean_report_json(false);
  const obs::Json spelled_out = clean_report_json(true);
  EXPECT_EQ(plain.dump(2), spelled_out.dump(2));
  // And no integrity section sneaks into a clean report.
  EXPECT_FALSE(plain.contains("integrity"));
}

TEST(ZeroOverhead, FullAuditsNeverMoveTheDeviceClockOnCleanRuns) {
  const Csr g = test_graph(10);
  const vertex_t source = connected_source(g);
  bfs::EngineConfig off;
  const auto plain = bfs::make_engine("enterprise", g, off);
  bfs::EngineConfig armed;
  armed.integrity.audit = bfs::AuditMode::kFull;
  armed.integrity.scrub_interval = 1;
  const auto audited = bfs::make_engine("enterprise", g, armed);
  const auto rp = plain->run(source);
  const auto ra = audited->run(source);
  // Audits and scrubs are host-side; the simulated kernel timeline and the
  // tree are identical to an unaudited run.
  EXPECT_EQ(ra.time_ms, rp.time_ms);
  EXPECT_EQ(ra.levels, rp.levels);
  EXPECT_EQ(ra.vertices_visited, rp.vertices_visited);
}

// --- recovery through the resilient stage ----------------------------------

TEST(Recovery, ResilientEngineReplaysPastADetectedStatusFlip) {
  Csr g = test_graph(12);
  const vertex_t source = connected_source(g);
  const auto truth = baselines::cpu_bfs(g, source).levels;

  obs::MetricsRegistry metrics;
  const auto plan = sim::FaultPlan::parse(
      "flip@target=status,level=1,offset=65,bit=7;seed=29");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  injector.set_metrics(&metrics);
  bfs::EngineConfig config;
  config.metrics = &metrics;
  config.fault_injector = &injector;
  config.integrity.audit = bfs::AuditMode::kFull;
  config.integrity.scrub_interval = 1;
  const auto engine = bfs::make_engine("resilient:enterprise", g, config);

  const auto result = engine->run(source);
  EXPECT_TRUE(bfs::validate_levels(result.levels, truth).ok);
  const auto* resilient =
      dynamic_cast<const bfs::ResilientEngine*>(engine.get());
  ASSERT_NE(resilient, nullptr);
  EXPECT_GE(resilient->session_stats().integrity_faults, 1u);
  // The detection survives the recovery: the counters are not rolled back.
  const auto section = bfs::collect_integrity(metrics, config.integrity);
  ASSERT_TRUE(section.has_value());
  EXPECT_EQ(section->flips_injected, 1u);
  EXPECT_GE(section->detections, 1u);
  EXPECT_EQ(section->flips_missed, 0u);
}

// --- bfs/validate satellites -----------------------------------------------

TEST(ValidateTree, DirectedEdgeSkippingALevelViolatesInvariantFour) {
  // Directed path 0->1->2->3 plus the shortcut 0->3: any tree claiming
  // level(3) == 3 lets edge 0->3 skip two levels.
  std::vector<graph::Edge> edges{{0, 1}, {1, 2}, {2, 3}, {0, 3}};
  graph::BuildOptions opts;
  opts.directed = true;
  const Csr g = graph::build_csr(4, edges, opts);
  const Csr reverse = g.reversed();

  bfs::BfsResult good = baselines::cpu_bfs(g, 0);
  EXPECT_TRUE(bfs::validate_tree(g, reverse, good).ok);

  bfs::BfsResult bad = good;
  bad.levels = {0, 1, 2, 3};
  bad.parents = {0, 0, 1, 2};
  const auto report = bfs::validate_tree(g, reverse, bad);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("edge skips a level"), std::string::npos)
      << report.error;
}

TEST(ValidateTree, CorruptedOutOfRangeAdjacencyEntryIsReported) {
  Csr g = test_graph(14);
  const vertex_t source = connected_source(g);
  const Csr reverse = g.reversed();
  const bfs::BfsResult result = baselines::cpu_bfs(g, source);
  ASSERT_TRUE(bfs::validate_tree(g, reverse, result).ok);

  // Point the source's first adjacency entry past the vertex space, the
  // way a high-bit flip would.
  const auto neighbors = g.neighbors(source);
  ASSERT_FALSE(neighbors.empty());
  auto bytes = g.raw_adjacency_bytes();
  const auto offset = static_cast<std::size_t>(
      reinterpret_cast<const std::byte*>(neighbors.data()) - bytes.data());
  const vertex_t bad = g.num_vertices() + 7;
  std::memcpy(bytes.data() + offset, &bad, sizeof(bad));

  const auto report = bfs::validate_tree(g, reverse, result);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("edge endpoint out of range"),
            std::string::npos)
      << report.error;
}

TEST(ValidateLevels, MismatchNamesVertexAndBothValues) {
  const std::vector<std::int32_t> expected{0, 1, 1, 2};
  std::vector<std::int32_t> got = expected;
  EXPECT_TRUE(bfs::validate_levels(got, expected).ok);
  got[2] = 3;
  const auto report = bfs::validate_levels(got, expected);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.error, "level mismatch at vertex 2: got 3, expected 1");
  const auto size_report =
      bfs::validate_levels({0, 1}, expected);
  EXPECT_FALSE(size_report.ok);
  EXPECT_NE(size_report.error.find("size mismatch"), std::string::npos);
}

}  // namespace
}  // namespace ent
