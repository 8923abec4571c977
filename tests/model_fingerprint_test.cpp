// Pinned simulated fingerprint: the exact priced results of `enterprise`,
// `multi-gpu` and the vertex-program engine on fixed graphs. The simulated
// clock carries the paper's claims, so a host-side speedup or a refactor of
// a driver's level loop must leave every value here bit-for-bit unchanged.
// A drift of one issue cycle, one load transaction or one ulp of any level's
// priced time fails this test. A deliberate cost-model change re-pins the
// table and says why. The BFS cases also pin the tree itself: the first
// visitor of a vertex becomes its parent, so parents follow queue order.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bfs/engine.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "gpusim/device.hpp"
#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "util/pool.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

struct Fingerprint {
  vertex_t source;
  std::uint64_t time_ms_bits;  // bit pattern of BfsResult::time_ms
  graph::edge_t edges_traversed;
  std::size_t levels;
  // FNV-1a over the bit patterns of every level's (queue_gen_ms, expand_ms),
  // followed by comm_ms when the case prices an interconnect.
  std::uint64_t level_digest;
  // Pinned only for engines with a device(); 0 otherwise.
  std::uint64_t gld_transactions;
  // SIMT issue cycles over every kernel of the run: catches a pricing drift
  // in a launch whose time is set by another bound.
  std::uint64_t warp_cycles;
  // FNV-1a over the result's levels, continued over its parents. Pinned only
  // for BFS engines; 0 otherwise.
  std::uint64_t tree_digest;
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

// Checks one run's result, and the device it ran on when there is one.
void expect_result(const bfs::BfsResult& r, const sim::Device* device,
                   const Fingerprint& want, bool with_comm) {
  std::vector<double> level_ms;
  for (const bfs::LevelTrace& t : r.level_trace) {
    level_ms.push_back(t.queue_gen_ms);
    level_ms.push_back(t.expand_ms);
    if (with_comm) level_ms.push_back(t.comm_ms);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.time_ms), want.time_ms_bits)
      << "time_ms " << r.time_ms;
  EXPECT_EQ(r.edges_traversed, want.edges_traversed);
  EXPECT_EQ(r.level_trace.size(), want.levels);
  EXPECT_EQ(graph::fnv1a64(std::as_bytes(std::span(level_ms))),
            want.level_digest);
  if (want.tree_digest != 0) {
    EXPECT_EQ(graph::fnv1a64(std::as_bytes(std::span(r.parents)),
                             graph::fnv1a64(std::as_bytes(
                                 std::span(r.levels)))),
              want.tree_digest);
  }
  if (device == nullptr) return;
  EXPECT_EQ(device->counters().gld_transactions, want.gld_transactions);
  std::uint64_t warp_cycles = 0;
  for (const sim::KernelRecord& k : device->timeline()) {
    warp_cycles += k.warp_cycles;
  }
  EXPECT_EQ(warp_cycles, want.warp_cycles);
}

void expect_fingerprint(bfs::Engine& engine, vertex_t source,
                        const Fingerprint& want, bool with_comm) {
  expect_result(engine.run(source), engine.device(), want, with_comm);
}

// Every case runs at several host pool sizes: the pooled host loops must not
// move a simulated value.
void expect_fingerprints(const std::string& spec, const Csr& g,
                         std::span<const Fingerprint> pinned,
                         const bfs::EngineConfig& config = {},
                         bool with_comm = false) {
  const auto engine = bfs::make_engine(spec, g, config);
  ASSERT_NE(engine, nullptr);
  const std::vector<vertex_t> sources = quarter_sources(g);
  ASSERT_EQ(sources.size(), pinned.size());
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    util::ScopedHostPool pool(threads);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << spec << " source " << sources[i]
                                        << ", " << threads << " threads");
      ASSERT_EQ(sources[i], pinned[i].source);
      expect_fingerprint(*engine, sources[i], pinned[i], with_comm);
    }
  }
}

Csr kronecker12() {
  graph::KroneckerParams p;
  p.scale = 12;
  p.edge_factor = 16;
  p.seed = 11;
  return graph::generate_kronecker(p);
}

TEST(ModelFingerprint, EnterpriseOnRoadSixteenth) {
  graph::SuiteOptions opt;
  opt.scale = 1.0 / 16;
  opt.seed = 11;
  const Csr g = graph::make_suite_graph("ROAD", opt).graph;
  const Fingerprint pinned[] = {
      {0, 0x3fecfcf8c03009b2ull, 15072, 109, 0x604eee8ced53b23eull, 635961,
       242015, 0x9f725c1f692f8a46ull},
      {1024, 0x3fe972b95317259bull, 15072, 95, 0x8d59523fd6cfe184ull, 740979,
       264758, 0xdb6c75b9478973beull},
      {2048, 0x3fe949b9dd94b536ull, 15072, 95, 0x18e32a981fe45c63ull, 776441,
       273352, 0xda90e314c5b5dd7dull},
      {3072, 0x3fed143570fcfec7ull, 15072, 111, 0x9b876e2947023934ull, 591999,
       222595, 0xa3592d2800290a89ull},
  };
  expect_fingerprints("enterprise", g, pinned);
}

TEST(ModelFingerprint, EnterpriseOnKroneckerScale12) {
  const Csr g = kronecker12();
  const Fingerprint pinned[] = {
      {0, 0x3fa777fb6d19136eull, 130877, 5, 0x11a6ed0faa98f230ull, 12515,
       10101, 0xddf03830ad4e6c71ull},
      {1026, 0x3fae403c147da9e8ull, 130877, 5, 0x8bc873e2e6d3fe2bull, 19139,
       9724, 0xe23dac029b00c5b1ull},
      {2048, 0x3fa7c92869088f62ull, 130877, 5, 0x8476652b6bd465c7ull, 20016,
       28349, 0xc93988843890d046ull},
      {3072, 0x3fa70ee8f04987f6ull, 130877, 5, 0x42818bbc8efea651ull, 19306,
       9860, 0x7473cbf6c319d600ull},
  };
  expect_fingerprints("enterprise", g, pinned);
}

Csr kronecker17() {
  graph::KroneckerParams p;
  p.scale = 17;
  p.edge_factor = 16;
  p.seed = 11;
  return graph::generate_kronecker(p);
}

// Scale 17 spans several blocks of every pooled loop: the bottom-up
// expansion, queue generation, classification and finalize.
TEST(ModelFingerprint, EnterpriseOnKroneckerScale17) {
  const Csr g = kronecker17();
  const Fingerprint pinned[] = {
      {0, 0x3fc7cef5fb00bb1eull, 4193694, 6, 0xa69eca37d3bc4f0full, 405113,
       409619, 0xfe901f39bb70ba0eull},
      {32769, 0x3fc95567a972f0abull, 4193694, 7, 0xdf5811abb8d1146cull,
       408559, 435589, 0x2c221031a6d282d3ull},
      {65537, 0x3fc94d1110d343aaull, 4193694, 6, 0x65cab058f0d4d13eull,
       397699, 440534, 0x917ba390135f4845ull},
      {98304, 0x3fc9c4c5bcf072a8ull, 4193694, 6, 0xbe020564d9625796ull,
       407076, 541371, 0x6cdc11b513ef150eull},
  };
  expect_fingerprints("enterprise", g, pinned);
}

TEST(ModelFingerprint, MultiGpuFourOnKroneckerScale17) {
  const Csr g = kronecker17();
  bfs::EngineConfig config;
  config.multi_gpu.num_gpus = 4;
  const Fingerprint pinned[] = {
      {0, 0x3fce844bb6201ef3ull, 4193694, 6, 0x303482df86e9f1a1ull, 0, 0,
       0xb8d0040d34784079ull},
      {32769, 0x3fd1c378f3d012a0ull, 4193694, 7, 0xe94b4fdd47bc4053ull, 0, 0,
       0x2f17bb4bfeffdea7ull},
      {65537, 0x3fd01c9751a412adull, 4193694, 6, 0xe11d6fdd4bb5f66full, 0, 0,
       0xdf19ad10d1db55edull},
      {98304, 0x3fcfa063f4583867ull, 4193694, 6, 0x19c9e60dc2bf43abull, 0, 0,
       0x61403e452900e2b0ull},
  };
  expect_fingerprints("multi-gpu", g, pinned, config, /*with_comm=*/true);
}

// Four private status arrays, the compressed all-gather and the per-device
// queue scans. The engine exposes no single device, so only the run-level
// fields and the per-level digest (with comm_ms) are pinned.
TEST(ModelFingerprint, MultiGpuFourOnKroneckerScale12) {
  const Csr g = kronecker12();
  bfs::EngineConfig config;
  config.multi_gpu.num_gpus = 4;
  const Fingerprint pinned[] = {
      {0, 0x3fc52050eedf96b1ull, 130877, 5, 0xa73d6e78cd4df975ull, 0, 0,
       0xc538a4b86bf2ec69ull},
      {1026, 0x3fc6d3563af74c07ull, 130877, 5, 0x6428a8fa2c8c26f5ull, 0, 0,
       0x32c92f3e37caedb0ull},
      {2048, 0x3fc53fa965f42726ull, 130877, 5, 0x5f5b4934b24c43f9ull, 0, 0,
       0xfe4042efd7de21ccull},
      {3072, 0x3fc580a92e63ad11ull, 130877, 5, 0x71db469041070ae8ull, 0, 0,
       0x44c0e86c6e2dc1dcull},
  };
  expect_fingerprints("multi-gpu", g, pinned, config, /*with_comm=*/true);
}

// cc on a directed graph relaxes along in-edges too, so this pins the
// program engine's reverse-CSR relax path. cc's answer and its priced run
// do not depend on the source, so all four rows agree.
TEST(ModelFingerprint, ConnectedComponentsOnTwitterSixtyFourth) {
  graph::SuiteOptions opt;
  opt.scale = 1.0 / 64;
  opt.seed = 11;
  const Csr g = graph::make_suite_graph("TW", opt).graph;
  ASSERT_TRUE(g.directed());
  const Fingerprint pinned[] = {
      {0, 0x3fc2fb00a4c6a027ull, 173907, 3, 0xf186305f4b78e24cull, 199120,
       38121, 0},
      {1024, 0x3fc2fb00a4c6a027ull, 173907, 3, 0xf186305f4b78e24cull, 199120,
       38121, 0},
      {2048, 0x3fc2fb00a4c6a027ull, 173907, 3, 0xf186305f4b78e24cull, 199120,
       38121, 0},
      {3072, 0x3fc2fb00a4c6a027ull, 173907, 3, 0xf186305f4b78e24cull, 199120,
       38121, 0},
  };
  expect_fingerprints("enterprise/cc", g, pinned, {}, /*with_comm=*/true);
}

// The §7 streamed run: EnterpriseBfs with 8 equal-edge partitions, 2 of
// them resident, on the default K40. Besides the usual columns (the level
// digest without comm_ms) it pins every level's comm_ms, which is the
// partition transfers, and the run's paging traffic.
struct StreamedFingerprint {
  Fingerprint run;
  std::uint64_t comm_digest;  // FNV-1a over the bit patterns of comm_ms
  std::uint64_t partition_faults;
  std::uint64_t partition_hits;
  std::uint64_t bytes_transferred;
  std::uint64_t transfer_ms_bits;
};

// Re-pinned once, when the separate streamed driver was folded into
// EnterpriseBfs: streamed runs now run the WB pipeline (classified queues,
// Hyper-Q groups) instead of fixed Thread and CTA kernels per partition. That
// moved time_ms, the queue_gen/expand digest, gld_transactions, warp_cycles
// and the parents in the tree digest. Levels, directions, the comm_ms digest
// and the four traffic stats kept their pre-fold values. The kernel columns
// now equal EnterpriseOnKroneckerScale12's: paging adds only transfer time.
TEST(ModelFingerprint, StreamedOnKroneckerScale12) {
  const Csr g = kronecker12();
  enterprise::EnterpriseOptions options;
  options.residency = {.partitions = 8, .resident = 2};
  enterprise::EnterpriseBfs sys(g, options);
  const StreamedFingerprint pinned[] = {
      {{0, 0x3fdc3498d4e7d526ull, 130877, 5, 0x11a6ed0faa98f230ull, 12515,
        10101, 0xddf03830ad4e6c71ull},
       0x9d0ef58bbbf602f6ull, 25, 1, 1738476, 0x3fd945996744b2b8ull},
      {{1026, 0x3fe2108bdf8eed82ull, 130877, 5, 0x8bc873e2e6d3fe2bull, 19139,
        9724, 0xe23dac029b00c5b1ull},
       0x5254622ff27ac31cull, 32, 0, 2225232, 0x3fe02c881e4712e4ull},
      {{2048, 0x3fe22bdd6256edcaull, 130877, 5, 0x8476652b6bd465c7ull, 20016,
        28349, 0xc93988843890d046ull},
       0x56bd2171f1efc520ull, 33, 0, 2296776, 0x3fe0af4adbc664d4ull},
      {{3072, 0x3fe21ed9cb6fca6eull, 130877, 5, 0x42818bbc8efea651ull, 19306,
        9860, 0x7473cbf6c319d600ull},
       0x283f47a9344d6301ull, 33, 0, 2294764, 0x3fe0adeb3c6b31efull},
  };
  const std::vector<vertex_t> sources = quarter_sources(g);
  ASSERT_EQ(sources.size(), std::size(pinned));
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    util::ScopedHostPool pool(threads);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "streamed source " << sources[i]
                                        << ", " << threads << " threads");
      const StreamedFingerprint& want = pinned[i];
      ASSERT_EQ(sources[i], want.run.source);
      const bfs::BfsResult r = sys.run(sources[i]);
      expect_result(r, &sys.device(), want.run, /*with_comm=*/false);
      std::vector<double> comm_ms;
      for (const bfs::LevelTrace& t : r.level_trace) {
        comm_ms.push_back(t.comm_ms);
      }
      EXPECT_EQ(graph::fnv1a64(std::as_bytes(std::span(comm_ms))),
                want.comm_digest);
      const enterprise::ResidencyStats& stats = sys.residency_stats();
      EXPECT_EQ(stats.partition_faults, want.partition_faults);
      EXPECT_EQ(stats.partition_hits, want.partition_hits);
      EXPECT_EQ(stats.bytes_transferred, want.bytes_transferred);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.transfer_ms),
                want.transfer_ms_bits);
    }
  }
}

}  // namespace
}  // namespace ent
