// Tests for the CSR graph, builder, I/O, degree analytics, and partitioner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <latch>
#include <sstream>
#include <thread>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
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

TEST(Partition, ExtractPreservesOwnedEdges) {
  const Csr g = diamond();
  const auto ranges = partition_equal_vertices(4, 2);
  const Csr p0 = extract_partition(g, ranges[0]);
  const Csr p1 = extract_partition(g, ranges[1]);
  EXPECT_EQ(p0.num_edges() + p1.num_edges(), g.num_edges());
  EXPECT_EQ(p0.num_vertices(), g.num_vertices());  // global id space kept
  EXPECT_EQ(p0.out_degree(0), 2u);
  EXPECT_EQ(p0.out_degree(2), 0u);  // owned by partition 1
  EXPECT_EQ(p1.out_degree(2), 1u);
}

}  // namespace
}  // namespace ent::graph
