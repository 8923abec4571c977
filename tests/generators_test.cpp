// Tests for the graph generators: determinism, size targets, degree
// character (power-law tails, hub mass), and the structural properties the
// high-diameter stand-ins rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/degree.hpp"
#include "graph/digest.hpp"
#include "graph/errors.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "util/pool.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace ent::graph {
namespace {

TEST(Rmat, SizeAndDeterminism) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 3;
  const Csr a = generate_rmat(p);
  const Csr b = generate_rmat(p);
  EXPECT_EQ(a.num_vertices(), 1024u);
  EXPECT_EQ(a.num_edges(), 1024u * 8u);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.col_indices().begin(), a.col_indices().end(),
                         b.col_indices().begin()));
}

TEST(Rmat, SeedChangesGraph) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 3;
  const Csr a = generate_rmat(p);
  p.seed = 4;
  const Csr b = generate_rmat(p);
  EXPECT_FALSE(std::equal(a.col_indices().begin(), a.col_indices().end(),
                          b.col_indices().begin()));
}

TEST(Rmat, BadProbabilitiesThrowTyped) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    double a, b, c;
    const char* shown;
  } cases[] = {{0.9, 0.2, 0.19, "a=0.9 b=0.2 c=0.19"},  // a + b + c > 1
               {nan, 0.19, 0.19, "a=nan"},
               {0.57, nan, 0.19, "b=nan"},
               {0.57, 0.19, nan, "c=nan"},
               {-0.5, 0.19, 0.19, "a=-0.5"},
               {0.57, -0.25, 0.19, "b=-0.25"},
               {0.57, 0.19, -1e-300, "c=-1e-300"},
               {inf, 0.19, 0.19, "a=inf"},
               {0.57, 0.19, -inf, "c=-inf"}};
  for (const auto& c : cases) {
    RmatParams p;
    p.scale = 8;
    p.a = c.a;
    p.b = c.b;
    p.c = c.c;
    for (const bool edges_only : {false, true}) {
      try {
        if (edges_only) {
          (void)generate_rmat_edges(p);
        } else {
          (void)generate_rmat(p);
        }
        FAIL() << "expected GraphFormatError for " << c.shown;
      } catch (const GraphFormatError& e) {
        EXPECT_NE(e.invariant().find(c.shown), std::string::npos) << e.what();
        EXPECT_NE(e.invariant().find("a + b + c <= 1"), std::string::npos);
      }
    }
  }
  // Good probabilities, but an edge list (2^20 * 2e9 edges) that no build
  // could count: typed, through both entry points, and before allocating.
  RmatParams p;
  p.scale = 20;
  p.edge_factor = 2000000000;
  for (const bool edges_only : {false, true}) {
    try {
      if (edges_only) {
        (void)generate_rmat_edges(p);
      } else {
        (void)generate_rmat(p);
      }
      FAIL() << "expected GraphFormatError for the edge count";
    } catch (const GraphFormatError& e) {
      EXPECT_NE(e.invariant().find("scale 20 and edge factor 2000000000"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Kronecker, SymmetrizedAndSkewed) {
  KroneckerParams p;
  p.scale = 12;
  p.edge_factor = 16;
  p.seed = 5;
  const Csr g = generate_kronecker(p);
  EXPECT_EQ(g.num_vertices(), 4096u);
  EXPECT_FALSE(g.directed());
  // Symmetrization roughly doubles the edge factor (self-loops excepted).
  EXPECT_GT(g.num_edges(), 4096u * 16u);
  // Kronecker graphs are heavy-tailed: max degree far above the mean.
  EXPECT_GT(static_cast<double>(g.max_degree()), 10.0 * g.average_degree());
}

TEST(Kronecker, UndirectedEdgesComeInPairs) {
  KroneckerParams p;
  p.scale = 9;
  p.edge_factor = 4;
  p.seed = 11;
  const Csr g = generate_kronecker(p);
  // Every directed edge u->v (u != v) must have a matching v->u.
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (vertex_t v : g.neighbors(u)) {
      if (v == u) continue;
      const auto back = g.neighbors(v);
      EXPECT_TRUE(std::find(back.begin(), back.end(), u) != back.end())
          << u << "->" << v;
    }
  }
}

class SocialProfileTest : public ::testing::TestWithParam<double> {};

TEST_P(SocialProfileTest, HitsAverageDegree) {
  SocialProfile p;
  p.num_vertices = 1 << 14;
  p.average_degree = GetParam();
  p.max_degree = 4096;
  p.directed = false;
  p.seed = 7;
  const Csr g = generate_social(p);
  EXPECT_EQ(g.num_vertices(), p.num_vertices);
  // Undirected build symmetrizes the stub pairing, so the directed-edge
  // average lands near 2x the profile target over 2 (i.e., the target).
  EXPECT_NEAR(g.average_degree(), p.average_degree, p.average_degree * 0.25);
}

INSTANTIATE_TEST_SUITE_P(AvgDegrees, SocialProfileTest,
                         ::testing::Values(4.0, 16.0, 64.0));

TEST(SocialProfile, PowerLawTail) {
  SocialProfile p;
  p.num_vertices = 1 << 15;
  p.average_degree = 16.0;
  p.exponent = 2.1;
  p.max_degree = 8192;
  p.hub_fraction = 5e-4;
  p.seed = 13;
  const Csr g = generate_social(p);
  const auto degrees = degree_sequence(g);
  // Small-world character (§2.3): most vertices small, hubs own outsized
  // edge share.
  EXPECT_GT(fraction_below(degrees, 32.0), 0.5);
  const HubStats hubs = select_hub_threshold(g, 64);
  EXPECT_GT(hubs.hub_edge_share, 0.05);
  EXPECT_LT(hubs.hub_vertex_share, 0.01);
}

TEST(SocialProfile, DirectedGraphIsDirected) {
  SocialProfile p;
  p.num_vertices = 4096;
  p.directed = true;
  p.seed = 2;
  const Csr g = generate_social(p);
  EXPECT_TRUE(g.directed());
}

TEST(RoadGrid, DegreeBoundedAndUndirected) {
  const Csr g = generate_road_grid(50, 40, 3);
  EXPECT_EQ(g.num_vertices(), 2000u);
  EXPECT_FALSE(g.directed());
  EXPECT_LE(g.max_degree(), 10u);  // 4-grid + sparse diagonals, symmetrized
  EXPECT_GT(g.num_edges(), 2u * 2000u);
}

TEST(Mesh, NearUniformDegree) {
  const Csr g = generate_mesh(2048, 16, 9);
  const auto degrees = degree_sequence(g);
  const Summary s = summarize(degrees);
  EXPECT_NEAR(s.mean, 16.0, 1.5);
  EXPECT_LT(s.stddev, 3.0);
}

TEST(LongPath, MeanDegreeNearTwo) {
  const Csr g = generate_long_path(10000, 0.05, 1);
  EXPECT_NEAR(g.average_degree(), 2.1, 0.3);
}

TEST(Comb, SizeAndDegreeCharacter) {
  const Csr g = generate_comb(128, 15, 4);
  EXPECT_EQ(g.num_vertices(), 128u * 16u);
  EXPECT_NEAR(g.average_degree(), 2.1, 0.4);
  EXPECT_LE(g.max_degree(), 6u);
}

TEST(ErdosRenyi, EdgeCountExact) {
  const Csr g = generate_erdos_renyi(1000, 5000, /*directed=*/true, 17);
  EXPECT_EQ(g.num_edges(), 5000u);
  EXPECT_TRUE(g.directed());
}

// ---- suite ---------------------------------------------------------------------

TEST(Suite, AllTable1EntriesBuild) {
  SuiteOptions opt;
  opt.scale = 1.0 / 64.0;  // tiny versions for the test
  for (const std::string& abbr : table1_abbreviations()) {
    const SuiteEntry entry = make_suite_graph(abbr, opt);
    EXPECT_EQ(entry.abbr, abbr);
    EXPECT_GT(entry.graph.num_vertices(), 0u) << abbr;
    EXPECT_GT(entry.graph.num_edges(), 0u) << abbr;
    entry.graph.check_invariants();
  }
}

TEST(Suite, HighDiameterEntriesBuild) {
  SuiteOptions opt;
  opt.scale = 1.0 / 64.0;
  for (const std::string& abbr : high_diameter_abbreviations()) {
    const SuiteEntry entry = make_suite_graph(abbr, opt);
    EXPECT_GT(entry.graph.num_edges(), 0u) << abbr;
    EXPECT_FALSE(entry.graph.directed()) << abbr;
  }
}

TEST(Suite, DirectednessMatchesTable1) {
  SuiteOptions opt;
  opt.scale = 1.0 / 64.0;
  // Table 1: LJ, PK, TW, WK, WT are directed; FB, FR, GO, HW, Kron, OR, YT
  // are not.
  EXPECT_TRUE(make_suite_graph("TW", opt).graph.directed());
  EXPECT_TRUE(make_suite_graph("WT", opt).graph.directed());
  EXPECT_FALSE(make_suite_graph("FB", opt).graph.directed());
  EXPECT_FALSE(make_suite_graph("KR0", opt).graph.directed());
}

class SuiteScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(SuiteScaleSweep, EveryEntryBuildsAndScales) {
  SuiteOptions opt;
  opt.scale = GetParam();
  for (const std::string& abbr : {std::string("FB"), std::string("KR2"),
                                  std::string("TW"), std::string("WT")}) {
    const SuiteEntry entry = make_suite_graph(abbr, opt);
    entry.graph.check_invariants();
    EXPECT_GT(entry.graph.num_edges(), 0u) << abbr;
    // Average degree is scale-invariant by design (vertex counts shrink,
    // degree character does not).
    SuiteOptions full;
    full.scale = 1.0 / 8.0;
    const SuiteEntry reference = make_suite_graph(abbr, full);
    EXPECT_NEAR(entry.graph.average_degree(),
                reference.graph.average_degree(),
                reference.graph.average_degree() * 0.5)
        << abbr;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, SuiteScaleSweep,
                         ::testing::Values(1.0 / 64.0, 1.0 / 16.0,
                                           1.0 / 4.0));

TEST(Suite, DeterministicForSeed) {
  SuiteOptions opt;
  opt.scale = 1.0 / 64.0;
  const SuiteEntry a = make_suite_graph("YT", opt);
  const SuiteEntry b = make_suite_graph("YT", opt);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_TRUE(std::equal(a.graph.col_indices().begin(),
                         a.graph.col_indices().end(),
                         b.graph.col_indices().begin()));
}

// ---- pinned bytes ----------------------------------------------------------------

// FNV-1a over row_offsets, then col_indices: any change to a generated
// graph's bytes changes it.
std::uint64_t csr_digest(const Csr& g) {
  return fnv1a64(std::as_bytes(g.col_indices()),
                 fnv1a64(std::as_bytes(g.row_offsets())));
}

Csr pinned_graph(const std::string& name) {
  if (name == "kron-10") return generate_kronecker({10, 16, 1});
  if (name == "kron-14") return generate_kronecker({14, 16, 42});
  if (name == "rmat-12") {
    RmatParams p;
    p.scale = 12;  // directed, GTgraph (0.45, 0.15, 0.15)
    return generate_rmat(p);
  }
  SuiteOptions opt;
  opt.scale = 1.0 / 16.0;
  return make_suite_graph(name, opt).graph;
}

// Digests of every generator family as first released: generation must
// stay byte-for-byte reproducible from its parameters.
const std::vector<std::pair<std::string, std::uint64_t>> kPinnedDigests = {
    {"kron-10", 0xefdf9fe3c33a78e2ull},
    {"kron-14", 0x0d634589ee0af0deull},
    {"rmat-12", 0x13b7a13b4fce7636ull},
    {"FB", 0xf983bacf5b986392ull},
    {"FR", 0xb6fb7683a1669a57ull},
    {"GO", 0x499c1d96a452d0f4ull},
    {"HW", 0x77a82bacffb450cdull},
    {"KR0", 0x8e983693803de9a8ull},
    {"KR1", 0x06e6097e1fb824d3ull},
    {"KR2", 0xbd51a5b93b28643bull},
    {"KR3", 0xae349153ca9cda28ull},
    {"KR4", 0x8f0f44df3a314de5ull},
    {"LJ", 0xde9938da8dad419cull},
    {"OR", 0x385f7713e91d82fdull},
    {"PK", 0x208eb3dee61e7de6ull},
    {"RM", 0xe21e6dee7a543887ull},
    {"TW", 0xaff688da59d2a0fcull},
    {"WK", 0x41eb1c4d5d07a46full},
    {"WT", 0xde6944acb3440c3aull},
    {"YT", 0x20f33bb6e89a11a6ull},
    {"AUDI", 0x5f76c211446afd7aull},
    {"ROAD", 0x18ae71200ccd96e9ull},
    {"OSM", 0x6c28e29962d38867ull},
};

// Generation and the CSR build run on the host pool; their bytes must not
// depend on its size. Seven threads split edge lists unevenly.
class GeneratedBytes : public ::testing::TestWithParam<unsigned> {};

TEST_P(GeneratedBytes, MatchPinnedDigestsAtEveryPoolSize) {
  util::ScopedHostPool pool(GetParam());
  for (const auto& [name, digest] : kPinnedDigests) {
    const std::uint64_t actual = csr_digest(pinned_graph(name));
    EXPECT_EQ(actual, digest)
        << name << " digests to 0x" << std::hex << actual;
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, GeneratedBytes,
                         ::testing::Values(1u, 2u, 4u, 7u));

// ---- R-MAT draws against the double compare ------------------------------

// The R-MAT draws as first released: one serial SplitMix64(seed) stream, and
// each level compares the double draw with a, a + b and a + b + c.
std::vector<Edge> reference_rmat_edges(const RmatParams& p) {
  SplitMix64 rng(p.seed);
  std::vector<Edge> edges;
  const std::size_t count = (std::size_t{1} << p.scale) *
                            static_cast<std::size_t>(p.edge_factor);
  for (std::size_t e = 0; e < count; ++e) {
    vertex_t src = 0;
    vertex_t dst = 0;
    for (int level = 0; level < p.scale; ++level) {
      const double r = rng.next_double();
      src <<= 1;
      dst <<= 1;
      if (r < p.a) {
        // top-left: neither bit set
      } else if (r < p.a + p.b) {
        dst |= 1;
      } else if (r < p.a + p.b + p.c) {
        src |= 1;
      } else {
        src |= 1;
        dst |= 1;
      }
    }
    edges.push_back({src, dst});
  }
  return edges;
}

class RmatOracle : public ::testing::TestWithParam<unsigned> {};

// The integer cut points draw the same edges as the double compare, in the
// skewed, uniform and degenerate corners (cut points at 0 and at 2^53), over
// three pool chunks of edges.
TEST_P(RmatOracle, CutPointsDrawTheDoubleCompareEdges) {
  util::ScopedHostPool pool(GetParam());
  const struct {
    double a, b, c;
  } sets[] = {{0.57, 0.19, 0.19}, {0.45, 0.15, 0.15}, {0.25, 0.25, 0.25},
              {1.0, 0.0, 0.0},    {0.0, 1.0, 0.0},    {0.0, 0.0, 1.0},
              {0.0, 0.0, 0.0},    {0.5, 0.5, 0.0}};
  std::uint64_t seed = 31;
  for (const auto& set : sets) {
    RmatParams p;
    p.scale = 13;
    p.edge_factor = 24;
    p.a = set.a;
    p.b = set.b;
    p.c = set.c;
    p.seed = seed++;
    const std::vector<Edge> edges = generate_rmat_edges(p);
    const std::vector<Edge> expected = reference_rmat_edges(p);
    ASSERT_EQ(edges.size(), expected.size());
    const auto [got, want] = std::ranges::mismatch(edges, expected);
    EXPECT_TRUE(got == edges.end())
        << "(" << set.a << ", " << set.b << ", " << set.c << ") edge "
        << (got - edges.begin()) << " is (" << got->src << ", " << got->dst
        << "), the double compare draws (" << want->src << ", " << want->dst
        << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, RmatOracle, ::testing::Values(1u, 4u));

// The seed whose SplitMix64 stream starts with `value`: the output mix is a
// bijection (xor-shifts and odd multipliers), so it runs backwards.
std::uint64_t seed_for_first_draw(std::uint64_t value) {
  const auto unshift = [](std::uint64_t z, int shift) {
    std::uint64_t x = z;
    for (int i = 0; i < 64 / shift; ++i) x = z ^ (x >> shift);
    return x;
  };
  const auto inverse = [](std::uint64_t odd) {
    std::uint64_t inv = odd;  // Newton: each step doubles the correct bits
    for (int i = 0; i < 5; ++i) inv *= 2 - odd * inv;
    return inv;
  };
  std::uint64_t z = unshift(value, 31) * inverse(0x94d049bb133111ebull);
  z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9ull);
  return unshift(z, 30) - SplitMix64::kGamma;
}

// Random draws almost never land on a cut point. Force the first draw of a
// scale-1 graph onto every 53-bit value next to a, a + b and a + b + c, with
// the 11 discarded low bits clear and set, and compare the quadrant with the
// double compare's.
TEST(RmatOracleBoundaries, DrawsNextToEveryCutPointMatchTheDoubleCompare) {
  const struct {
    double a, b, c;
  } sets[] = {{0.57, 0.19, 0.19}, {0.45, 0.15, 0.15}, {0.1, 0.2, 0.3},
              {1.0 / 3, 1.0 / 3, 1.0 / 3}, {0.0, 0.5, 0.5}};
  int probes = 0;
  for (const auto& set : sets) {
    for (const double t : {set.a, set.a + set.b, set.a + set.b + set.c}) {
      const auto k0 = static_cast<std::int64_t>(std::floor(t * 0x1.0p53));
      for (std::int64_t k = k0 - 2; k <= k0 + 2; ++k) {
        if (k < 0 || k >= (std::int64_t{1} << 53)) continue;
        for (const std::uint64_t low : {0ull, 0x7ffull}) {
          const std::uint64_t draw =
              (static_cast<std::uint64_t>(k) << 11) | low;
          RmatParams p;
          p.scale = 1;
          p.edge_factor = 1;
          p.a = set.a;
          p.b = set.b;
          p.c = set.c;
          p.seed = seed_for_first_draw(draw);
          ASSERT_EQ(SplitMix64(p.seed).next(), draw);
          EXPECT_EQ(generate_rmat_edges(p)[0], reference_rmat_edges(p)[0])
              << "(" << set.a << ", " << set.b << ", " << set.c << ") k " << k;
          ++probes;
        }
      }
    }
  }
  EXPECT_GT(probes, 100);
}

// ---- build_csr against a naive reference ------------------------------------------

// The CSR of an edge multiset by definition: every directed pair (both
// directions of a non-loop edge under symmetrize), sorted, then counted.
std::pair<std::vector<edge_t>, std::vector<vertex_t>> reference_csr(
    vertex_t n, const std::vector<Edge>& edges, bool symmetrize) {
  std::vector<std::pair<vertex_t, vertex_t>> pairs;
  for (const Edge& e : edges) {
    pairs.emplace_back(e.src, e.dst);
    if (symmetrize && e.src != e.dst) pairs.emplace_back(e.dst, e.src);
  }
  std::sort(pairs.begin(), pairs.end());
  std::vector<edge_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<vertex_t> cols;
  for (const auto& [src, dst] : pairs) {
    ++offsets[static_cast<std::size_t>(src) + 1];
    cols.push_back(dst);
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  return {offsets, cols};
}

class BuildCsrDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(BuildCsrDifferential, MatchesSortedPairReference) {
  util::ScopedHostPool pool(GetParam());
  SplitMix64 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<vertex_t>(2 + rng.next_below(300));
    // Endpoints below `used` only, so vertices [used, n-1) stay isolated;
    // vertex n-1 gets one edge of its own.
    const auto used = static_cast<vertex_t>(1 + rng.next_below(n - 1));
    const auto m = static_cast<std::size_t>(rng.next_below(20u * n));
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < m; ++i) {
      const auto src = static_cast<vertex_t>(rng.next_below(used));
      const auto dst = rng.next_below(8) == 0
                           ? src  // a self-loop
                           : static_cast<vertex_t>(rng.next_below(used));
      edges.push_back({src, dst});
    }
    if (!edges.empty()) edges.push_back(edges[rng.next_below(edges.size())]);
    edges.push_back({n - 1, 0});
    for (const bool symmetrize : {false, true}) {
      BuildOptions opts;
      opts.symmetrize = symmetrize;
      const Csr g = build_csr(n, edges, opts);
      const auto [offsets, cols] = reference_csr(n, edges, symmetrize);
      EXPECT_TRUE(std::ranges::equal(g.row_offsets(), offsets))
          << "trial " << trial << " symmetrize " << symmetrize;
      EXPECT_TRUE(std::ranges::equal(g.col_indices(), cols))
          << "trial " << trial << " symmetrize " << symmetrize;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, BuildCsrDifferential,
                         ::testing::Values(1u, 2u, 4u, 7u));

// build_csr radix sorts rows of 256 or more entries in
// ceil(bit_width(n - 1) / 8) digit passes: one up to n = 2^8, two up to
// 2^16, three above. Each graph has long rows of 256-5,000 entries with
// duplicates and self-loops, and vertex 0's long row arrives sorted (no other
// edge touches vertex 0), on both sides of each pass-count boundary.
class BuildCsrLongRows : public ::testing::TestWithParam<unsigned> {};

TEST_P(BuildCsrLongRows, MatchesSortedPairReference) {
  util::ScopedHostPool pool(GetParam());
  SplitMix64 rng(4096);
  for (const vertex_t n : {200u, 256u, 257u, 4000u, 65536u, 65537u}) {
    const auto other = [&] {
      return static_cast<vertex_t>(1 + rng.next_below(n - 1));
    };
    std::vector<Edge> edges;
    for (vertex_t i = 0; i < n / 4; ++i) edges.push_back({other(), other()});
    const auto sorted_len = 256 + rng.next_below(4745);
    for (std::uint64_t i = 0; i < sorted_len; ++i) {
      // Ascending, with runs of duplicates and the self-loop first.
      edges.push_back({0, static_cast<vertex_t>(i * (n - 1) / sorted_len)});
    }
    for (int hub = 0; hub < 5; ++hub) {
      const vertex_t src = other();
      const auto len = 256 + rng.next_below(4745);
      for (std::uint64_t i = 0; i < len; ++i) {
        const vertex_t dst = rng.next_below(8) == 0 ? src : other();
        edges.push_back({src, dst});
        if (rng.next_below(16) == 0) edges.push_back({src, dst});
      }
    }
    // One more long row, closed by 300 copies of the top label.
    const vertex_t flat = other();
    for (int i = 0; i < 300; ++i) edges.push_back({flat, n - 1});
    for (const bool symmetrize : {false, true}) {
      BuildOptions opts;
      opts.symmetrize = symmetrize;
      opts.directed = !symmetrize;
      const Csr g = build_csr(n, edges, opts);
      const auto [offsets, cols] = reference_csr(n, edges, symmetrize);
      EXPECT_GE(g.out_degree(0), 256u);
      EXPECT_TRUE(std::ranges::equal(g.row_offsets(), offsets))
          << "n " << n << " symmetrize " << symmetrize;
      EXPECT_TRUE(std::ranges::equal(g.col_indices(), cols))
          << "n " << n << " symmetrize " << symmetrize;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, BuildCsrLongRows,
                         ::testing::Values(1u, 2u, 4u, 7u));

}  // namespace
}  // namespace ent::graph
