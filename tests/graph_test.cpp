// Tests for the CSR graph, builder, I/O, degree analytics, and partitioner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <latch>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/degree.hpp"
#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "graph/suite.hpp"
#include "util/pool.hpp"
#include "util/random.hpp"

namespace ent::graph {
namespace {

Csr diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  return build_csr(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
}

TEST(Csr, BasicAccessors) {
  const Csr g = diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(3), 0u);
  const auto n0 = g.neighbors(0);
  EXPECT_EQ(std::vector<vertex_t>(n0.begin(), n0.end()),
            (std::vector<vertex_t>{1, 2}));
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.0);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Csr, ReversedSwapsDirections) {
  const Csr g = diamond();
  const Csr r = g.reversed();
  EXPECT_EQ(r.num_edges(), g.num_edges());
  const auto in3 = r.neighbors(3);
  EXPECT_EQ(std::vector<vertex_t>(in3.begin(), in3.end()),
            (std::vector<vertex_t>{1, 2}));
  EXPECT_EQ(r.out_degree(0), 0u);
}

TEST(Csr, ReverseOfReverseIsIdentity) {
  const Csr g = diamond();
  const Csr rr = g.reversed().reversed();
  ASSERT_EQ(rr.num_vertices(), g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = rr.neighbors(v);
    EXPECT_EQ(std::vector<vertex_t>(a.begin(), a.end()),
              std::vector<vertex_t>(b.begin(), b.end()));
  }
}

Csr directed_rmat() {
  RmatParams p;
  p.scale = 8;
  p.edge_factor = 8;
  p.seed = 3;
  return generate_rmat(p);
}

TEST(Csr, InEdgesOfUndirectedGraphIsTheGraph) {
  BuildOptions opts;
  opts.symmetrize = true;
  opts.directed = false;
  const Csr g = build_csr(4, {{0, 1}, {1, 2}, {2, 3}}, opts);
  EXPECT_EQ(&g.in_edges(), &g);
}

TEST(Csr, InEdgesOfDirectedGraphIsItsReverseBuiltOnce) {
  const Csr g = directed_rmat();
  ASSERT_TRUE(g.directed());
  const Csr& view = g.in_edges();
  EXPECT_NE(&view, &g);
  const Csr expected = g.reversed();
  EXPECT_TRUE(std::ranges::equal(view.row_offsets(), expected.row_offsets()));
  EXPECT_TRUE(std::ranges::equal(view.col_indices(), expected.col_indices()));
  EXPECT_EQ(&g.in_edges(), &view);
}

TEST(Csr, RacingFirstInEdgesCallsGetOneView) {
  const Csr g = directed_rmat();
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<const Csr*> views(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      views[static_cast<std::size_t>(t)] = &g.in_edges();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Csr* view : views) EXPECT_EQ(view, views[0]);
  EXPECT_NE(views[0], &g);
}

TEST(Csr, MovedToGraphKeepsTheViewItsSourceBuilt) {
  Csr source = diamond();
  const Csr* view = &source.in_edges();
  const Csr moved = std::move(source);
  EXPECT_EQ(&moved.in_edges(), view);
  const auto in3 = moved.in_edges().neighbors(3);
  EXPECT_EQ(std::vector<vertex_t>(in3.begin(), in3.end()),
            (std::vector<vertex_t>{1, 2}));
}

// ---- pooled passes ------------------------------------------------------------

constexpr unsigned kPoolSizes[] = {1, 2, 4, 7};

// The serial counting transpose: in-degrees, their prefix, then every edge
// scattered in source order through one cursor per row.
struct Arrays {
  std::vector<edge_t> offsets;
  std::vector<vertex_t> cols;
};
Arrays reference_transpose(const Csr& g) {
  const std::size_t n = g.num_vertices();
  Arrays r{std::vector<edge_t>(n + 1, 0),
           std::vector<vertex_t>(g.num_edges())};
  for (const vertex_t dst : g.col_indices()) ++r.offsets[dst + 1];
  for (std::size_t v = 0; v < n; ++v) r.offsets[v + 1] += r.offsets[v];
  std::vector<edge_t> cursor(r.offsets.begin(), r.offsets.end() - 1);
  for (vertex_t src = 0; src < n; ++src) {
    for (const vertex_t dst : g.neighbors(src)) r.cols[cursor[dst]++] = src;
  }
  return r;
}

// Directed R-MAT with its duplicates and self-loops, plus one explicit of
// each, a row of 5,000 entries, and a last vertex with no out-edges.
Csr awkward_rmat(int scale) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 16;
  p.seed = 40 + static_cast<std::uint64_t>(scale);
  std::vector<Edge> edges = generate_rmat_edges(p);
  const auto n = static_cast<vertex_t>(1u << scale);
  std::erase_if(edges, [n](const Edge& e) { return e.src == n - 1; });
  edges.push_back({1, 1});
  edges.push_back({2, 3});
  edges.push_back({2, 3});
  for (vertex_t k = 0; k < 5000; ++k) edges.push_back({5, (k * 7919) % n});
  return build_csr(n, std::move(edges));
}

TEST(PooledReverse, MatchesSerialTransposeAtEveryPoolSize) {
  std::vector<Csr> graphs;
  for (int scale = 12; scale <= 16; ++scale) graphs.push_back(awkward_rmat(scale));
  SuiteOptions tw;
  tw.scale = 1.0 / 16;
  graphs.push_back(std::move(make_suite_graph("TW", tw).graph));
  for (const Csr& g : graphs) {
    ASSERT_TRUE(g.directed());
    const Arrays expected = reference_transpose(g);
    for (const unsigned threads : kPoolSizes) {
      util::ScopedHostPool pool(threads);
      const Csr r = g.reversed();
      EXPECT_TRUE(std::ranges::equal(r.row_offsets(), expected.offsets))
          << "n " << g.num_vertices() << " threads " << threads;
      EXPECT_TRUE(std::ranges::equal(r.col_indices(), expected.cols))
          << "n " << g.num_vertices() << " threads " << threads;
    }
  }
}

// The first block (of `block` bytes) where the two byte strings differ.
std::size_t first_differing_block(std::span<const std::byte> a,
                                  std::span<const std::byte> b,
                                  std::size_t block) {
  const auto at = std::ranges::mismatch(a, b).in1;
  return static_cast<std::size_t>(at - a.begin()) / block;
}

TEST(PooledDigests, EveryBlockMatchesSerialFnvAtEveryPoolSize) {
  const Csr g = awkward_rmat(14);
  const auto offsets = std::as_bytes(g.row_offsets());
  const auto adjacency = std::as_bytes(g.col_indices());
  for (const std::size_t block : {std::size_t{1}, std::size_t{64},
                                  std::size_t{4096}}) {
    if (block > 1) {
      ASSERT_NE(offsets.size() % block, 0u) << "want a partial last block";
    }
    const auto expect_blocks = [block](std::span<const std::byte> bytes,
                                       std::span<const std::uint64_t> got) {
      ASSERT_EQ(got.size(), (bytes.size() + block - 1) / block);
      for (std::size_t i = 0; i < got.size(); ++i) {
        const std::size_t off = i * block;
        ASSERT_EQ(got[i],
                  fnv1a64(bytes.subspan(off, std::min(block, bytes.size() - off))))
            << "block " << i << " of " << block << " bytes";
      }
    };
    for (const unsigned threads : kPoolSizes) {
      util::ScopedHostPool pool(threads);
      const SegmentDigests d = SegmentDigests::compute(g, block);
      expect_blocks(offsets, d.row_offset_digests());
      expect_blocks(adjacency, d.adjacency_digests());
      EXPECT_FALSE(d.verify(g).has_value());
    }
  }
}

TEST(PooledDigests, VerifyNamesTheLowestCorruptBlockAtEveryPoolSize) {
  const Csr g = awkward_rmat(14);
  const auto copy = [&g](std::vector<edge_t> offsets) {
    return Csr(g.num_vertices(), std::move(offsets),
               std::vector<vertex_t>(g.col_indices().begin(),
                                     g.col_indices().end()),
               g.directed());
  };
  const std::vector<edge_t> offsets(g.row_offsets().begin(),
                                    g.row_offsets().end());
  // One corrupt block per segment: the last entry of row u moves into row
  // u + 1 (the offsets stay a valid CSR), and adjacency block 3 flips.
  vertex_t u = 9000;
  while (g.out_degree(u) == 0) ++u;
  std::vector<edge_t> moved = offsets;
  --moved[u + 1];
  Csr both = copy(moved);
  both.raw_adjacency_bytes()[3 * 4096 + 5] ^= std::byte{0x10};
  // Two corrupt adjacency blocks, in different pool chunks.
  Csr twice = copy(offsets);
  twice.raw_adjacency_bytes()[200 * 4096 + 1] ^= std::byte{0x01};
  twice.raw_adjacency_bytes()[10 * 4096 + 2] ^= std::byte{0x80};

  const std::size_t offsets_block = first_differing_block(
      std::as_bytes(g.row_offsets()), std::as_bytes(both.row_offsets()), 4096);
  const std::size_t adjacency_block = first_differing_block(
      std::as_bytes(g.col_indices()), std::as_bytes(twice.col_indices()), 4096);
  ASSERT_EQ(offsets_block, (u + 1) * sizeof(edge_t) / 4096);
  ASSERT_GT(offsets_block, 3u);
  ASSERT_EQ(adjacency_block, 10u);
  for (const unsigned threads : kPoolSizes) {
    util::ScopedHostPool pool(threads);
    const SegmentDigests d = SegmentDigests::compute(g);
    const auto m1 = d.verify(both);
    ASSERT_TRUE(m1.has_value()) << "threads " << threads;
    EXPECT_EQ(m1->segment, "row_offsets") << "threads " << threads;
    EXPECT_EQ(m1->block, offsets_block) << "threads " << threads;
    const auto m2 = d.verify(twice);
    ASSERT_TRUE(m2.has_value()) << "threads " << threads;
    EXPECT_EQ(m2->segment, "adjacency") << "threads " << threads;
    EXPECT_EQ(m2->block, adjacency_block) << "threads " << threads;
    EXPECT_EQ(m2->expected, d.adjacency_digests()[adjacency_block]);
  }
}

TEST(Builder, SymmetrizeDoublesEdges) {
  BuildOptions opts;
  opts.symmetrize = true;
  opts.directed = false;
  const Csr g = build_csr(3, {{0, 1}, {1, 2}}, opts);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(1), 2u);
}

TEST(Builder, SelfLoopSymmetrizedOnce) {
  BuildOptions opts;
  opts.symmetrize = true;
  const Csr g = build_csr(2, {{0, 0}, {0, 1}}, opts);
  // (0,0) stays single; (0,1) gains (1,0).
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Builder, KeepsDuplicatesByDefault) {
  const Csr g = build_csr(2, {{0, 1}, {0, 1}, {0, 0}});
  EXPECT_EQ(g.num_edges(), 3u);  // the paper performs no pre-processing
}

TEST(Builder, SortsNeighbors) {
  const Csr g = build_csr(4, {{0, 3}, {0, 1}, {0, 2}});
  const auto n = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
}

// ---- degree / hubs ------------------------------------------------------------

TEST(Degree, SequenceMatchesOutDegrees) {
  const Csr g = diamond();
  const auto seq = degree_sequence(g);
  EXPECT_EQ(seq, (std::vector<double>{2, 1, 1, 0}));
}

TEST(Degree, HubThresholdSelectsTopVertices) {
  // Star: vertex 0 has degree 10, others degree 0.
  std::vector<Edge> edges;
  for (vertex_t i = 1; i <= 10; ++i) edges.push_back({0, i});
  const Csr g = build_csr(11, std::move(edges));
  const HubStats hubs = select_hub_threshold(g, 1);
  EXPECT_EQ(hubs.num_hubs, 1u);
  EXPECT_EQ(hubs.hub_edges, 10u);
  EXPECT_DOUBLE_EQ(hubs.hub_edge_share, 1.0);
  const auto flags = hub_flags(g, hubs.threshold);
  EXPECT_EQ(flags[0], 1);
  EXPECT_EQ(flags[1], 0);
}

TEST(Degree, HubCountNeverExceedsTarget) {
  std::vector<Edge> edges;
  for (vertex_t v = 0; v < 64; ++v) {
    for (vertex_t k = 0; k <= v % 8; ++k) edges.push_back({v, (v + k + 1) % 64});
  }
  const Csr g = build_csr(64, std::move(edges));
  for (vertex_t target : {1u, 4u, 16u}) {
    const HubStats hubs = select_hub_threshold(g, target);
    EXPECT_LE(hubs.num_hubs, target) << "target " << target;
  }
}

// tau by definition: the degree at position `target` of every degree sorted
// descending, or 0 when there are no more vertices than the target.
edge_t reference_hub_threshold(const Csr& g, vertex_t target) {
  std::vector<edge_t> degrees;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    degrees.push_back(g.out_degree(v));
  }
  std::sort(degrees.begin(), degrees.end(), std::greater<>());
  return g.num_vertices() > target ? degrees[target] : 0;
}

TEST(Degree, HubThresholdMatchesFullSortReference) {
  SplitMix64 rng(21);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<vertex_t>(1 + rng.next_below(400));
    // Few distinct degrees in odd trials, so ties cross the cut; a heavy
    // tail in even ones.
    const std::uint64_t spread = trial % 2 ? 4 : 64;
    std::vector<Edge> edges;
    for (vertex_t v = 0; v < n; ++v) {
      std::uint64_t degree = rng.next_below(spread);
      if (trial % 2 == 0 && rng.next_below(16) == 0) degree *= 20;
      for (std::uint64_t k = 0; k < degree; ++k) {
        edges.push_back({v, static_cast<vertex_t>(rng.next_below(n))});
      }
    }
    const Csr g = build_csr(n, std::move(edges));
    for (const vertex_t target :
         {vertex_t{1}, static_cast<vertex_t>(1 + rng.next_below(n)),
          std::max<vertex_t>(1, n - 1), n, n + 7}) {
      const edge_t tau = reference_hub_threshold(g, target);
      const HubStats hubs = select_hub_threshold(g, target);
      const HubStats expected = hub_stats_for_threshold(g, tau);
      EXPECT_EQ(hubs.threshold, tau) << "trial " << trial << " n " << n
                                     << " target " << target;
      EXPECT_EQ(hubs.num_hubs, expected.num_hubs) << "trial " << trial;
      EXPECT_EQ(hubs.hub_edges, expected.hub_edges) << "trial " << trial;
      EXPECT_LE(hubs.num_hubs, target) << "trial " << trial;
    }
  }
}

// ---- hub view -------------------------------------------------------------------

TEST(HubView, MatchesThresholdAndFlags) {
  const Csr g = directed_rmat();
  const vertex_t n = g.num_vertices();
  for (const vertex_t target : {vertex_t{1}, vertex_t{16}, vertex_t{128}, n,
                                n + 5}) {
    const HubView& view = g.hubs(target);
    const HubStats stats = select_hub_threshold(g, target);
    EXPECT_EQ(view.tau, stats.threshold) << "target " << target;
    EXPECT_EQ(view.count, stats.num_hubs) << "target " << target;
    EXPECT_EQ(view.flags, hub_flags(g, stats.threshold)) << "target " << target;
    EXPECT_EQ(&g.hubs(target), &view) << "target " << target;
  }
}

TEST(HubView, RacingFirstCallsGetOneView) {
  const Csr g = directed_rmat();
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<const HubView*> views(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      views[static_cast<std::size_t>(t)] = &g.hubs(16);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const HubView* view : views) EXPECT_EQ(view, views[0]);
  EXPECT_EQ(views[0]->tau, select_hub_threshold(g, 16).threshold);
}

TEST(HubView, MovedToGraphKeepsTheView) {
  Csr source = directed_rmat();
  const HubView* view = &source.hubs(16);
  const Csr moved = std::move(source);
  EXPECT_EQ(&moved.hubs(16), view);
  EXPECT_EQ(view->flags.size(), moved.num_vertices());
}

TEST(HubView, TwoTargetsGiveTwoViews) {
  const Csr g = directed_rmat();
  const HubView& few = g.hubs(4);
  const HubView& many = g.hubs(64);
  EXPECT_NE(&few, &many);
  EXPECT_LE(few.count, 4u);
  EXPECT_LE(many.count, 64u);
  EXPECT_GE(few.tau, many.tau);
  EXPECT_EQ(&g.hubs(4), &few);
  EXPECT_EQ(&g.hubs(64), &many);
}

// ---- io -----------------------------------------------------------------------

TEST(Io, TextRoundTrip) {
  EdgeList list;
  list.num_vertices = 5;
  list.edges = {{0, 1}, {3, 4}, {2, 2}};
  std::stringstream ss;
  write_edge_list_text(ss, list);
  const EdgeList back = read_edge_list_text(ss);
  EXPECT_EQ(back.num_vertices, 5u);
  EXPECT_EQ(back.edges, list.edges);
}

TEST(Io, TextSkipsComments) {
  std::stringstream ss("# header\n0 1\n% other comment\n1 2\n");
  const EdgeList list = read_edge_list_text(ss);
  EXPECT_EQ(list.edges.size(), 2u);
  EXPECT_EQ(list.num_vertices, 3u);
}

TEST(Io, BinaryRoundTrip) {
  EdgeList list;
  list.num_vertices = 100;
  for (vertex_t i = 0; i + 1 < 100; ++i) list.edges.push_back({i, i + 1});
  std::stringstream ss;
  write_edge_list_binary(ss, list);
  const EdgeList back = read_edge_list_binary(ss);
  EXPECT_EQ(back.num_vertices, list.num_vertices);
  EXPECT_EQ(back.edges, list.edges);
}

TEST(Io, BinaryRejectsBadMagic) {
  std::stringstream ss("XXXXgarbage");
  EXPECT_THROW(read_edge_list_binary(ss), std::runtime_error);
}

TEST(Io, MatrixMarketPattern) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% comment\n"
      "3 3 2\n"
      "1 2\n"
      "3 1\n");
  const EdgeList list = read_matrix_market(ss);
  EXPECT_EQ(list.num_vertices, 3u);
  ASSERT_EQ(list.edges.size(), 2u);
  EXPECT_EQ(list.edges[0], (Edge{0, 1}));
  EXPECT_EQ(list.edges[1], (Edge{2, 0}));
}

TEST(Io, MatrixMarketRejectsMissingBanner) {
  std::stringstream ss("3 3 1\n1 2\n");
  EXPECT_THROW(read_matrix_market(ss), std::runtime_error);
}

// ---- partition ----------------------------------------------------------------

class PartitionTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PartitionTest, EqualVerticesCoversAll) {
  const unsigned parts = GetParam();
  const auto ranges = partition_equal_vertices(1003, parts);
  ASSERT_EQ(ranges.size(), parts);
  EXPECT_TRUE(covers_all(ranges, 1003));
  // Near-equal: sizes differ by at most one.
  vertex_t lo = ranges[0].size();
  vertex_t hi = ranges[0].size();
  for (const auto& r : ranges) {
    lo = std::min(lo, r.size());
    hi = std::max(hi, r.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST_P(PartitionTest, EqualEdgesCoversAll) {
  std::vector<Edge> edges;
  for (vertex_t v = 0; v < 200; ++v) {
    for (vertex_t k = 0; k < (v % 13); ++k) edges.push_back({v, (v + k) % 200});
  }
  const Csr g = build_csr(200, std::move(edges));
  const auto ranges = partition_equal_edges(g, GetParam());
  ASSERT_EQ(ranges.size(), GetParam());
  EXPECT_TRUE(covers_all(ranges, g.num_vertices()));
}

INSTANTIATE_TEST_SUITE_P(Parts, PartitionTest, ::testing::Values(1, 2, 3, 8));

}  // namespace
}  // namespace ent::graph
