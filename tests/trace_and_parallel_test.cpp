// Tests for the trace CSV exporter and the multithreaded host BFS.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <sstream>
#include <vector>

#include "baselines/cpu_bfs.hpp"
#include "baselines/cpu_parallel_bfs.hpp"
#include "bfs/trace_io.hpp"
#include "bfs/validate.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "util/pool.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr test_graph(std::uint64_t seed) {
  graph::KroneckerParams p;
  p.scale = 11;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::generate_kronecker(p);
}

vertex_t connected_source(const Csr& g) {
  vertex_t v = 0;
  while (g.out_degree(v) < 4) ++v;
  return v;
}

// ---- CSV export ----------------------------------------------------------------

TEST(TraceIo, CsvEscape) {
  EXPECT_EQ(bfs::csv_escape("plain"), "plain");
  EXPECT_EQ(bfs::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(bfs::csv_escape("he said \"hi\""), "\"he said \"\"hi\"\"\"");
}

TEST(TraceIo, LevelTraceRowsMatchLevels) {
  const Csr g = test_graph(1);
  enterprise::EnterpriseBfs sys(g);
  const auto r = sys.run(connected_source(g));
  std::ostringstream oss;
  bfs::write_level_trace_csv(oss, r);
  const std::string csv = oss.str();
  // Header + one line per level.
  const auto lines = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, r.level_trace.size() + 1);
  EXPECT_NE(csv.find("level,direction,frontier"), std::string::npos);
  EXPECT_NE(csv.find("bottom-up"), std::string::npos);
}

TEST(TraceIo, RunsCsvIncludesTeps) {
  const Csr g = test_graph(2);
  enterprise::EnterpriseBfs sys(g);
  std::vector<bfs::BfsResult> runs;
  runs.push_back(sys.run(connected_source(g)));
  std::ostringstream oss;
  bfs::write_runs_csv(oss, runs);
  const std::string csv = oss.str();
  EXPECT_NE(csv.find("teps"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(TraceIo, KernelsCsvListsEveryKernel) {
  const Csr g = test_graph(3);
  enterprise::EnterpriseBfs sys(g);
  const auto r = sys.run(connected_source(g));
  std::size_t kernel_count = 0;
  for (const auto& t : r.level_trace) kernel_count += t.kernels.size();
  std::ostringstream oss;
  bfs::write_kernels_csv(oss, r);
  const std::string csv = oss.str();
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            kernel_count + 1);
}

TEST(TraceIo, CountersCsvRoundTrips) {
  const Csr g = test_graph(4);
  enterprise::EnterpriseBfs sys(g);
  sys.run(connected_source(g));
  std::ostringstream oss;
  bfs::write_counters_csv(oss, "enterprise", sys.device().counters());
  const std::string csv = oss.str();
  EXPECT_NE(csv.find("enterprise,"), std::string::npos);
  EXPECT_NE(csv.find("power_w"), std::string::npos);
}

// ---- parallel host BFS ---------------------------------------------------------

// The pooled search gives the serial search's tree and trace at every pool
// size, and both match the sequential reference's levels.
class CpuParallelThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(CpuParallelThreads, MatchesSequentialReference) {
  const Csr g = test_graph(5);
  const vertex_t src = connected_source(g);
  const auto ref = baselines::cpu_bfs(g, src);
  baselines::CpuParallelOptions serial;
  serial.num_threads = 1;
  const auto want = baselines::cpu_parallel_bfs(g, src, serial);
  util::ScopedHostPool pool(GetParam());
  const auto got = baselines::cpu_parallel_bfs(g, src);
  EXPECT_TRUE(bfs::validate_levels(got.levels, ref.levels).ok);
  EXPECT_EQ(got.vertices_visited, ref.vertices_visited);
  EXPECT_EQ(got.depth, ref.depth);
  EXPECT_EQ(got.edges_traversed, ref.edges_traversed);
  EXPECT_TRUE(bfs::validate_tree(g, g, got).ok);
  EXPECT_EQ(got.levels, want.levels);
  EXPECT_EQ(got.parents, want.parents);
  ASSERT_EQ(got.level_trace.size(), want.level_trace.size());
  for (std::size_t i = 0; i < got.level_trace.size(); ++i) {
    const bfs::LevelTrace& a = got.level_trace[i];
    const bfs::LevelTrace& b = want.level_trace[i];
    EXPECT_EQ(a.direction, b.direction) << "level " << i;
    EXPECT_EQ(a.frontier_count, b.frontier_count) << "level " << i;
    EXPECT_EQ(a.edges_inspected, b.edges_inspected) << "level " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.alpha),
              std::bit_cast<std::uint64_t>(b.alpha))
        << "level " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CpuParallelThreads,
                         ::testing::Values(1, 2, 4, 7));

TEST(CpuParallel, DirectedGraphCorrect) {
  graph::RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 9;
  const Csr g = graph::generate_rmat(p);
  const vertex_t src = connected_source(g);
  const auto ref = baselines::cpu_bfs(g, src);
  baselines::CpuParallelOptions opt;
  opt.num_threads = 4;
  const auto got = baselines::cpu_parallel_bfs(g, src, opt);
  EXPECT_TRUE(bfs::validate_levels(got.levels, ref.levels).ok);
}

// ---- host direction-optimizing BFS -----------------------------------------

// One run's pinned tree and per-level trace.
struct HostPin {
  vertex_t source;
  // FNV-1a over the levels, continued over the parents.
  std::uint64_t tree_digest;
  // FNV-1a over each level's direction, frontier count, edges inspected and
  // the bits of alpha.
  std::uint64_t trace_digest;
};

std::uint64_t tree_digest(const bfs::BfsResult& r) {
  return graph::fnv1a64(std::as_bytes(std::span(r.parents)),
                        graph::fnv1a64(std::as_bytes(std::span(r.levels))));
}

std::uint64_t trace_digest(const bfs::BfsResult& r) {
  std::vector<std::uint64_t> words;
  for (const bfs::LevelTrace& t : r.level_trace) {
    words.push_back(static_cast<std::uint64_t>(t.direction));
    words.push_back(t.frontier_count);
    words.push_back(t.edges_inspected);
    words.push_back(std::bit_cast<std::uint64_t>(t.alpha));
  }
  return graph::fnv1a64(std::as_bytes(std::span(words)));
}

// Four sources spread over the id space: the first vertex with an edge at or
// after each quarter mark.
std::vector<vertex_t> quarter_sources(const Csr& g) {
  std::vector<vertex_t> sources;
  for (vertex_t q = 0; q < 4; ++q) {
    vertex_t v = g.num_vertices() / 4 * q;
    while (g.out_degree(v) == 0) ++v;
    sources.push_back(v);
  }
  return sources;
}

// The host hybrid's trees and traces on three graph families, pinned bit for
// bit for the serial search and for the pooled one at several pool sizes.
// The cases reach a top-down level of more than 1,024 entries (the TW
// switch-back levels) and bottom-up sweeps of more than 16,384 vertices, so
// both pooled merges run.
TEST(HostHybrid, PinnedTreesAndTraces) {
  graph::KroneckerParams kp;
  kp.scale = 16;
  kp.edge_factor = 16;
  kp.seed = 42;
  graph::SuiteOptions quarter;
  quarter.scale = 0.25;
  const Csr kron = graph::generate_kronecker(kp);
  const Csr tw = graph::make_suite_graph("TW", quarter).graph;
  const Csr road = graph::make_suite_graph("ROAD", quarter).graph;
  ASSERT_TRUE(tw.directed());
  ASSERT_EQ(tw.num_vertices(), 65536u);

  struct Case {
    const char* name;
    const Csr* graph;
    HostPin pins[4];
  };
  const Case cases[] = {
      {"kron16",
       &kron,
       {{0, 0x110a2fbbbdcc8275ull, 0xca2389d2a4b3416eull},
        {16386, 0x51d6fa3b10254eddull, 0x39709d662c1a1709ull},
        {32769, 0x2cbbf944289374cbull, 0xd7fc434352d83fbfull},
        {49153, 0x48a3d001f6ae4222ull, 0xeb23425786641bc7ull}}},
      {"tw-quarter",
       &tw,
       {{0, 0x3412c71af2b12286ull, 0x13545c8354db7bb2ull},
        {16384, 0xc46b71c4e7a2eb71ull, 0x20ae63f8118e6e2eull},
        {32768, 0x03d30a48bb0226a0ull, 0x7da41fd30611fccfull},
        {49152, 0xffc144f1ceacf8c1ull, 0x8ae1e76ed7d38287ull}}},
      {"road-quarter",
       &road,
       {{0, 0x5fe682f3ea7a425full, 0x97a8cf953e298589ull},
        {4096, 0xf92e1376334529ffull, 0xf0314da74522ced4ull},
        {8192, 0x965cd80b88030eaaull, 0xa18ce581272d8988ull},
        {12288, 0xd6be912f94428337ull, 0x4ea219c34c9cd65cull}}},
  };

  bool wide_top_down = false;
  bool wide_bottom_up = false;
  const auto expect_pins = [&](const baselines::CpuParallelOptions& options) {
    for (const Case& c : cases) {
      const Csr& g = *c.graph;
      const std::vector<vertex_t> sources = quarter_sources(g);
      for (std::size_t i = 0; i < sources.size(); ++i) {
        SCOPED_TRACE(::testing::Message()
                     << c.name << " source " << sources[i]);
        ASSERT_EQ(sources[i], c.pins[i].source);
        const bfs::BfsResult r =
            baselines::cpu_parallel_bfs(g, sources[i], options);
        EXPECT_EQ(tree_digest(r), c.pins[i].tree_digest);
        EXPECT_EQ(trace_digest(r), c.pins[i].trace_digest);
        for (const bfs::LevelTrace& t : r.level_trace) {
          wide_top_down |= t.direction == bfs::Direction::kTopDown &&
                           t.frontier_count > 1024;
          wide_bottom_up |= t.direction == bfs::Direction::kBottomUp &&
                            g.num_vertices() > 16384;
        }
      }
    }
  };
  {
    SCOPED_TRACE("serial");
    baselines::CpuParallelOptions serial;
    serial.num_threads = 1;
    expect_pins(serial);
  }
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE(::testing::Message() << threads << " pool threads");
    util::ScopedHostPool pool(threads);
    expect_pins({});
  }
  EXPECT_TRUE(wide_top_down);
  EXPECT_TRUE(wide_bottom_up);
}

}  // namespace
}  // namespace ent
