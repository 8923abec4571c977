// Pinned simulated fingerprint: the exact priced results of `enterprise` on
// two fixed graphs. The simulated clock carries the paper's claims, so a
// host-side speedup must leave every value here bit-for-bit unchanged. A
// drift of one issue cycle, one load transaction or one ulp of any level's
// priced time fails this test. A deliberate cost-model change re-pins the
// table and says why.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "bfs/engine.hpp"
#include "gpusim/device.hpp"
#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

struct Fingerprint {
  vertex_t source;
  std::uint64_t time_ms_bits;  // bit pattern of BfsResult::time_ms
  graph::edge_t edges_traversed;
  std::size_t levels;
  // FNV-1a over the bit patterns of every level's (queue_gen_ms, expand_ms).
  std::uint64_t level_digest;
  std::uint64_t gld_transactions;
  // SIMT issue cycles over every kernel of the run: catches a pricing drift
  // in a launch whose time is set by another bound.
  std::uint64_t warp_cycles;
};

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

void expect_fingerprints(const Csr& g, std::span<const Fingerprint> pinned) {
  const auto engine = bfs::make_engine("enterprise", g);
  ASSERT_NE(engine, nullptr);
  const std::vector<vertex_t> sources = quarter_sources(g);
  ASSERT_EQ(sources.size(), pinned.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Fingerprint& want = pinned[i];
    SCOPED_TRACE(::testing::Message() << "source " << sources[i]);
    ASSERT_EQ(sources[i], want.source);
    const bfs::BfsResult r = engine->run(sources[i]);
    std::vector<double> level_ms;
    for (const bfs::LevelTrace& t : r.level_trace) {
      level_ms.push_back(t.queue_gen_ms);
      level_ms.push_back(t.expand_ms);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.time_ms), want.time_ms_bits)
        << "time_ms " << r.time_ms;
    EXPECT_EQ(r.edges_traversed, want.edges_traversed);
    EXPECT_EQ(r.level_trace.size(), want.levels);
    EXPECT_EQ(graph::fnv1a64(std::as_bytes(std::span(level_ms))),
              want.level_digest);
    EXPECT_EQ(engine->counters()->gld_transactions, want.gld_transactions);
    std::uint64_t warp_cycles = 0;
    for (const sim::KernelRecord& k : engine->device()->timeline()) {
      warp_cycles += k.warp_cycles;
    }
    EXPECT_EQ(warp_cycles, want.warp_cycles);
  }
}

TEST(ModelFingerprint, EnterpriseOnRoadSixteenth) {
  graph::SuiteOptions opt;
  opt.scale = 1.0 / 16;
  opt.seed = 11;
  const Csr g = graph::make_suite_graph("ROAD", opt).graph;
  const Fingerprint pinned[] = {
      {0, 0x3fecfcf8c03009b2ull, 15072, 109, 0x604eee8ced53b23eull, 635961,
       242015},
      {1024, 0x3fe972b95317259bull, 15072, 95, 0x8d59523fd6cfe184ull, 740979,
       264758},
      {2048, 0x3fe949b9dd94b536ull, 15072, 95, 0x18e32a981fe45c63ull, 776441,
       273352},
      {3072, 0x3fed143570fcfec7ull, 15072, 111, 0x9b876e2947023934ull, 591999,
       222595},
  };
  expect_fingerprints(g, pinned);
}

TEST(ModelFingerprint, EnterpriseOnKroneckerScale12) {
  graph::KroneckerParams p;
  p.scale = 12;
  p.edge_factor = 16;
  p.seed = 11;
  const Csr g = graph::generate_kronecker(p);
  const Fingerprint pinned[] = {
      {0, 0x3fa777fb6d19136eull, 130877, 5, 0x11a6ed0faa98f230ull, 12515,
       10101},
      {1026, 0x3fae403c147da9e8ull, 130877, 5, 0x8bc873e2e6d3fe2bull, 19139,
       9724},
      {2048, 0x3fa7c92869088f62ull, 130877, 5, 0x8476652b6bd465c7ull, 20016,
       28349},
      {3072, 0x3fa70ee8f04987f6ull, 130877, 5, 0x42818bbc8efea651ull, 19306,
       9860},
  };
  expect_fingerprints(g, pinned);
}

}  // namespace
}  // namespace ent
