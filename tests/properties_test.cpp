// Cross-cutting property tests: validator rejection of corrupted trees,
// memory-model conservation laws, kernel-equivalence invariants (every
// granularity and workflow visits the same set), and cost-model
// monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>

#include "baselines/cpu_bfs.hpp"
#include "bfs/validate.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "enterprise/frontier_queue.hpp"
#include "enterprise/kernels.hpp"
#include "graph/builder.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "gpusim/device.hpp"
#include "util/pool.hpp"
#include "util/stats.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr small_kron(std::uint64_t seed) {
  graph::KroneckerParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::generate_kronecker(p);
}

// ---- validator catches corruption ----------------------------------------------

class ValidatorRejection : public ::testing::Test {
 protected:
  ValidatorRejection() : g_(small_kron(2)) {
    source_ = 0;
    while (g_.out_degree(source_) == 0) ++source_;
    good_ = baselines::cpu_bfs(g_, source_);
  }

  Csr g_;
  vertex_t source_ = 0;
  bfs::BfsResult good_;
};

TEST_F(ValidatorRejection, AcceptsCorrectTree) {
  EXPECT_TRUE(bfs::validate_tree(g_, g_, good_).ok);
}

TEST_F(ValidatorRejection, CatchesWrongSourceLevel) {
  bfs::BfsResult bad = good_;
  bad.levels[source_] = 1;
  EXPECT_FALSE(bfs::validate_tree(g_, g_, bad).ok);
}

TEST_F(ValidatorRejection, CatchesSkippedLevel) {
  bfs::BfsResult bad = good_;
  for (vertex_t v = 0; v < g_.num_vertices(); ++v) {
    if (bad.levels[v] == 2) {
      bad.levels[v] = 3;  // vertex claims to be deeper than its BFS level
      break;
    }
  }
  EXPECT_FALSE(bfs::validate_tree(g_, g_, bad).ok);
}

TEST_F(ValidatorRejection, CatchesNonEdgeParent) {
  bfs::BfsResult bad = good_;
  for (vertex_t v = 0; v < g_.num_vertices(); ++v) {
    if (v != source_ && bad.levels[v] > 0) {
      // Point the parent at a vertex at the right level that is (almost
      // surely) not a neighbor; find one explicitly.
      for (vertex_t p = 0; p < g_.num_vertices(); ++p) {
        if (bad.levels[p] != bad.levels[v] - 1) continue;
        const auto nb = g_.neighbors(p);
        if (std::find(nb.begin(), nb.end(), v) == nb.end()) {
          bad.parents[v] = p;
          EXPECT_FALSE(bfs::validate_tree(g_, g_, bad).ok);
          return;
        }
      }
    }
  }
  GTEST_SKIP() << "graph too dense to construct a non-edge parent";
}

TEST_F(ValidatorRejection, CatchesVisitedWithoutParent) {
  bfs::BfsResult bad = good_;
  for (vertex_t v = 0; v < g_.num_vertices(); ++v) {
    if (v != source_ && bad.levels[v] > 0) {
      bad.parents[v] = graph::kInvalidVertex;
      break;
    }
  }
  EXPECT_FALSE(bfs::validate_tree(g_, g_, bad).ok);
}

// ---- validator's first failure at scale ---------------------------------------

// validate_tree splits both passes over 65,536-vertex blocks. On a graph that
// spans several blocks, the message must still name the first failing vertex
// of the first failing pass, at any pool size. The messages were captured
// from the serial validator.
enum class Plant {
  kNoParent,        // visited/parent disagreement
  kParentRange,     // parent out of range
  kUnvisitedParent,
  kParentLevel,     // parent not one level shallower
  kNonEdgeParent,   // tree edge missing from graph
  kEndpointRange,   // edge endpoint out of range (pass 2)
  kSkippedLevel,    // edge skips a level (pass 2)
};

struct ScaleCase {
  const char* name;
  std::vector<std::pair<Plant, double>> plants;  // kind, where (fraction of n)
  const char* undirected;  // expected message on the Kronecker graph
  const char* directed;    // ... and on the directed R-MAT graph
};

class ValidatorAtScale : public ::testing::Test {
 protected:
  struct Input {
    Csr g;
    std::optional<Csr> reverse;  // in-edges of a directed graph
    bfs::BfsResult tree;
    std::vector<std::uint8_t> has_child;

    const Csr& in() const { return reverse ? *reverse : g; }
  };

  static Input make_input(Csr g) {
    Input in{std::move(g), std::nullopt, {}, {}};
    if (in.g.directed()) in.reverse.emplace(in.g.reversed());
    vertex_t source = 0;
    while (in.g.out_degree(source) < 8) ++source;
    in.tree = baselines::cpu_bfs(in.g, source);
    in.has_child.assign(in.g.num_vertices(), 0);
    for (vertex_t v = 0; v < in.g.num_vertices(); ++v) {
      if (in.tree.levels[v] > 0) in.has_child[in.tree.parents[v]] = 1;
    }
    return in;
  }

  static void SetUpTestSuite() {
    graph::KroneckerParams k;
    k.scale = 17;
    k.edge_factor = 8;
    k.seed = 17;
    undirected_ = new Input(make_input(graph::generate_kronecker(k)));
    graph::RmatParams r;
    r.scale = 17;
    r.edge_factor = 8;
    r.seed = 18;
    directed_ = new Input(make_input(graph::generate_rmat(r)));
  }
  static void TearDownTestSuite() {
    delete undirected_;
    delete directed_;
  }

  // Plants `kind` at the first eligible vertex at or after `from`. An
  // adjacency corruption is recorded in `undo` so the caller can restore it.
  static void plant(Input& in, bfs::BfsResult& bad, Plant kind, vertex_t from,
                    std::vector<std::pair<std::size_t, vertex_t>>& undo) {
    const vertex_t n = in.g.num_vertices();
    const auto& lv = bad.levels;
    for (vertex_t v = from; v < n; ++v) {
      if (v == bad.source || lv[v] <= 0) continue;
      switch (kind) {
        case Plant::kNoParent:
          bad.parents[v] = graph::kInvalidVertex;
          return;
        case Plant::kParentRange:
          bad.parents[v] = n + 5;
          return;
        case Plant::kUnvisitedParent:
          for (vertex_t u = 0; u < n; ++u) {
            if (lv[u] < 0) {
              bad.parents[v] = u;
              return;
            }
          }
          break;
        case Plant::kParentLevel:
          if (lv[v] >= 2) {
            bad.parents[v] = bad.source;
            return;
          }
          break;
        case Plant::kNonEdgeParent: {
          const auto nb = in.in().neighbors(v);
          for (vertex_t p = 0; p < n; ++p) {
            if (lv[p] == lv[v] - 1 &&
                std::find(nb.begin(), nb.end(), p) == nb.end()) {
              bad.parents[v] = p;
              return;
            }
          }
          break;
        }
        case Plant::kEndpointRange: {
          // Corrupt a slot of v's out-list that is not v's own tree edge,
          // so an undirected graph's pass 1 still accepts v.
          const auto nb = in.g.neighbors(v);
          const auto bytes = in.g.raw_adjacency_bytes();
          for (std::size_t i = 0; i < nb.size(); ++i) {
            if (nb[i] == bad.parents[v]) continue;
            const auto offset = static_cast<std::size_t>(
                reinterpret_cast<const std::byte*>(&nb[i]) - bytes.data());
            undo.emplace_back(offset, nb[i]);
            const vertex_t out_of_range = n + 7;
            std::memcpy(bytes.data() + offset, &out_of_range,
                        sizeof(out_of_range));
            return;
          }
          break;
        }
        case Plant::kSkippedLevel: {
          // Push a leaf one level deeper under a same-level in-neighbour:
          // pass 1 still holds, and its old parent's edge now skips a level.
          if (in.has_child[v] != 0) break;
          for (const vertex_t p : in.in().neighbors(v)) {
            if (p != v && lv[p] == lv[v]) {
              bad.levels[v] = lv[v] + 1;
              bad.parents[v] = p;
              return;
            }
          }
          break;
        }
      }
    }
    FAIL() << "no vertex to plant kind " << static_cast<int>(kind);
  }

  static void expect_message(Input& in, const ScaleCase& c,
                             const char* want) {
    SCOPED_TRACE(c.name);
    bfs::BfsResult bad = in.tree;
    std::vector<std::pair<std::size_t, vertex_t>> undo;
    for (const auto& [kind, where] : c.plants) {
      plant(in, bad, kind,
            static_cast<vertex_t>(where * in.g.num_vertices()), undo);
    }
    for (const unsigned threads : {1u, 2u, 4u, 7u}) {
      util::ScopedHostPool pool(threads);
      const auto report = bfs::validate_tree(in.g, in.in(), bad);
      EXPECT_FALSE(report.ok) << threads << " threads";
      EXPECT_EQ(report.error, want) << threads << " threads";
    }
    const auto bytes = in.g.raw_adjacency_bytes();
    for (const auto& [offset, value] : undo) {
      std::memcpy(bytes.data() + offset, &value, sizeof(value));
    }
  }

  static Input* undirected_;
  static Input* directed_;
};

ValidatorAtScale::Input* ValidatorAtScale::undirected_ = nullptr;
ValidatorAtScale::Input* ValidatorAtScale::directed_ = nullptr;

const ScaleCase kScaleCases[] = {
    // One violation of each kind, each in another part of the id space.
    {"no parent", {{Plant::kNoParent, 0.9}},
     "visited/parent disagreement (vertex 117965)",
     "visited/parent disagreement (vertex 117965)"},
    {"parent out of range", {{Plant::kParentRange, 0.7}},
     "parent out of range (vertex 91751)",
     "parent out of range (vertex 91750)"},
    {"unvisited parent", {{Plant::kUnvisitedParent, 0.55}},
     "unvisited parent (vertex 72092)",
     "unvisited parent (vertex 72089)"},
    {"parent level", {{Plant::kParentLevel, 0.3}},
     "parent not one level shallower (vertex 39321)",
     "parent not one level shallower (vertex 39321)"},
    {"non-edge parent", {{Plant::kNonEdgeParent, 0.8}},
     "tree edge missing from graph (vertex 104857)",
     "tree edge missing from graph (vertex 104857)"},
    {"endpoint out of range", {{Plant::kEndpointRange, 0.6}},
     "edge endpoint out of range (vertex 78644)",
     "edge endpoint out of range (vertex 78643)"},
    {"skipped level", {{Plant::kSkippedLevel, 0.95}},
     "edge skips a level (vertex 116122)",
     "edge skips a level (vertex 107546)"},
    // Pairs in one pass: the lower block's violation wins.
    {"pass 1 pair", {{Plant::kNonEdgeParent, 0.85}, {Plant::kNoParent, 0.2}},
     "visited/parent disagreement (vertex 26215)",
     "visited/parent disagreement (vertex 26214)"},
    {"pass 1 pair, one block",
     {{Plant::kParentRange, 0.62}, {Plant::kUnvisitedParent, 0.58}},
     "unvisited parent (vertex 76021)",
     "unvisited parent (vertex 76021)"},
    {"pass 2 pair",
     {{Plant::kSkippedLevel, 0.75}, {Plant::kEndpointRange, 0.15}},
     "edge endpoint out of range (vertex 19660)",
     "edge endpoint out of range (vertex 19660)"},
    {"pass 2 pair, reversed",
     {{Plant::kEndpointRange, 0.9}, {Plant::kSkippedLevel, 0.1}},
     "edge skips a level (vertex 104792)",
     "edge skips a level (vertex 61823)"},
    // One violation in each pass: pass 1 wins wherever the other sits.
    {"both passes",
     {{Plant::kEndpointRange, 0.05}, {Plant::kParentLevel, 0.9}},
     "parent not one level shallower (vertex 117965)",
     "parent not one level shallower (vertex 117965)"},
    {"both passes, reversed",
     {{Plant::kSkippedLevel, 0.4}, {Plant::kNonEdgeParent, 0.65}},
     "tree edge missing from graph (vertex 85196)",
     "tree edge missing from graph (vertex 85196)"},
};

TEST_F(ValidatorAtScale, AcceptsCorrectTreesAtEveryPoolSize) {
  for (const Input* in : {undirected_, directed_}) {
    ASSERT_GT(in->g.num_vertices(), 65536u);
    for (const unsigned threads : {1u, 2u, 4u, 7u}) {
      util::ScopedHostPool pool(threads);
      const auto report = bfs::validate_tree(in->g, in->in(), in->tree);
      EXPECT_TRUE(report.ok) << report.error;
    }
  }
}

TEST_F(ValidatorAtScale, FirstFailureOnUndirectedGraph) {
  for (const ScaleCase& c : kScaleCases) {
    expect_message(*undirected_, c, c.undirected);
  }
}

TEST_F(ValidatorAtScale, FirstFailureOnDirectedGraphWithReverse) {
  for (const ScaleCase& c : kScaleCases) {
    expect_message(*directed_, c, c.directed);
  }
}

TEST_F(ValidatorRejection, CatchesLevelMismatch) {
  std::vector<std::int32_t> other = good_.levels;
  other[source_] = 7;
  EXPECT_FALSE(bfs::validate_levels(good_.levels, other).ok);
  EXPECT_TRUE(bfs::validate_levels(good_.levels, good_.levels).ok);
}

// ---- memory model conservation -----------------------------------------------------

class MemoryConservation
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>> {};

TEST_P(MemoryConservation, RequestedBytesExact) {
  const auto [count, elem] = GetParam();
  const sim::DeviceSpec spec = sim::k40();
  sim::MemoryModel mm(spec);
  mm.set_working_set(1ull << 30);
  for (auto pattern :
       {sim::AccessPattern::kSequential, sim::AccessPattern::kStrided,
        sim::AccessPattern::kRandom}) {
    sim::MemoryCounters c;
    mm.record_load(c, pattern, count, elem);
    EXPECT_EQ(c.requested_bytes, count * elem);
    // DRAM bytes never undercut a single transaction's worth, and dram
    // transactions never exceed replayed line count.
    if (count > 0) {
      EXPECT_GT(c.dram_transactions, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MemoryConservation,
    ::testing::Combine(::testing::Values(1u, 31u, 32u, 1000u, 100000u),
                       ::testing::Values(1u, 4u, 8u, 16u)));

TEST(MemoryModel, StridedCostsMoreDramThanSequential) {
  const sim::DeviceSpec spec = sim::k40();
  sim::MemoryModel mm(spec);
  sim::MemoryCounters seq;
  sim::MemoryCounters str;
  mm.record_load(seq, sim::AccessPattern::kSequential, 100000, 4);
  mm.record_load(str, sim::AccessPattern::kStrided, 100000, 4);
  EXPECT_GT(str.dram_bytes, seq.dram_bytes);
  EXPECT_GE(static_cast<double>(str.dram_bytes) /
                static_cast<double>(seq.dram_bytes),
            2.0);  // the §4.1 chunked-scan penalty regime
}

// ---- kernel equivalence: every granularity visits the same set ------------------------

class GranularityEquivalence
    : public ::testing::TestWithParam<enterprise::Granularity> {};

TEST_P(GranularityEquivalence, TopDownVisitsSameSet) {
  const Csr g = small_kron(5);
  sim::Device dev(sim::k40());
  vertex_t source = 0;
  while (g.out_degree(source) == 0) ++source;

  // Reference expansion at Thread granularity.
  enterprise::StatusArray ref_status(g.num_vertices());
  std::vector<vertex_t> ref_parents(g.num_vertices(), graph::kInvalidVertex);
  ref_status.visit(source, 0);
  std::vector<vertex_t> queue{source};
  sim::KernelRecord ref_rec;
  enterprise::expand_top_down(g, ref_status, ref_parents, queue,
                              enterprise::Granularity::kThread, 1,
                              dev.memory(), ref_rec);

  enterprise::StatusArray status(g.num_vertices());
  std::vector<vertex_t> parents(g.num_vertices(), graph::kInvalidVertex);
  status.visit(source, 0);
  sim::KernelRecord rec;
  enterprise::expand_top_down(g, status, parents, queue, GetParam(), 1,
                              dev.memory(), rec);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(status.level(v), ref_status.level(v)) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, GranularityEquivalence,
                         ::testing::Values(enterprise::Granularity::kThread,
                                           enterprise::Granularity::kWarp,
                                           enterprise::Granularity::kCta,
                                           enterprise::Granularity::kGrid));

TEST(KernelEquivalence, BottomUpCacheNeverChangesVisitedSet) {
  const Csr g = small_kron(6);
  sim::Device dev(sim::k40());
  vertex_t source = 0;
  while (g.out_degree(source) < 4) ++source;

  // Visit two top-down levels, then run one bottom-up level with and
  // without a hub cache seeded from level-1 hubs.
  const auto setup = [&](enterprise::StatusArray& status,
                         std::vector<vertex_t>& parents) {
    status.visit(source, 0);
    parents[source] = source;
    std::vector<vertex_t> q{source};
    sim::KernelRecord rec;
    enterprise::expand_top_down(g, status, parents, q,
                                enterprise::Granularity::kThread, 1,
                                dev.memory(), rec);
  };
  enterprise::StatusArray a(g.num_vertices());
  std::vector<vertex_t> pa(g.num_vertices(), graph::kInvalidVertex);
  setup(a, pa);
  enterprise::StatusArray b(g.num_vertices());
  std::vector<vertex_t> pb(g.num_vertices(), graph::kInvalidVertex);
  setup(b, pb);

  std::vector<vertex_t> unvisited;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (!a.visited(v)) unvisited.push_back(v);
  }
  enterprise::HubCache cache(256);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (a.level(v) == 1 && g.out_degree(v) > 16) cache.insert(v);
  }
  sim::KernelRecord ra;
  sim::KernelRecord rb;
  const auto out_a = enterprise::expand_bottom_up(
      g, a, pa, unvisited, enterprise::Granularity::kThread, 2, nullptr,
      dev.memory(), ra);
  const auto out_b = enterprise::expand_bottom_up(
      g, b, pb, unvisited, enterprise::Granularity::kThread, 2, &cache,
      dev.memory(), rb);
  EXPECT_EQ(out_a.newly_visited, out_b.newly_visited);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(a.level(v), b.level(v)) << v;
  }
  // The cache must have removed some random status loads.
  EXPECT_LE(rb.mem.random_transactions, ra.mem.random_transactions);
}

TEST(KernelEquivalence, StatusArrayMatchesQueueExpansion) {
  const Csr g = small_kron(7);
  sim::Device dev(sim::k40());
  vertex_t source = 0;
  while (g.out_degree(source) == 0) ++source;

  enterprise::StatusArray a(g.num_vertices());
  std::vector<vertex_t> pa(g.num_vertices(), graph::kInvalidVertex);
  a.visit(source, 0);
  std::vector<vertex_t> q{source};
  sim::KernelRecord r1;
  enterprise::expand_top_down(g, a, pa, q, enterprise::Granularity::kCta, 1,
                              dev.memory(), r1);

  enterprise::StatusArray b(g.num_vertices());
  std::vector<vertex_t> pb(g.num_vertices(), graph::kInvalidVertex);
  b.visit(source, 0);
  sim::KernelRecord r2;
  enterprise::expand_status_top_down(g, b, pb, 1, dev.memory(), r2);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(a.level(v), b.level(v)) << v;
  }
  // The status-array variant launches a group per *vertex*, the queue
  // variant only per frontier: over-commitment shows in launched threads.
  EXPECT_GT(r2.launched_threads, r1.launched_threads);
}

// ---- cost-model monotonicity --------------------------------------------------------------

TEST(CostModel, TimeMonotoneInDramBytes) {
  const sim::DeviceSpec spec = sim::k40();
  const sim::KernelCostModel model(spec);
  double last = 0.0;
  for (std::uint64_t mb : {1u, 4u, 16u, 64u}) {
    sim::KernelRecord r;
    r.warp_cycles = 1000;
    r.launched_threads = 4096;
    r.active_threads = 4096;
    r.mem.dram_bytes = mb * (1ull << 20);
    const double t = model.price(r);
    EXPECT_GT(t, last);
    last = t;
  }
}

TEST(CostModel, CriticalPathDominatesMonsterItem) {
  const sim::DeviceSpec spec = sim::k40();
  const sim::KernelCostModel model(spec);
  sim::KernelRecord balanced;
  balanced.warp_cycles = 100000;
  balanced.launched_threads = 1 << 20;
  balanced.active_threads = 1 << 20;
  sim::KernelRecord monster = balanced;
  monster.critical_cycles = 50'000'000;  // one item's serial chain
  EXPECT_GT(model.price(monster), model.price(balanced) * 10.0);
}

TEST(CostModel, ScaledDeviceIsSlower) {
  sim::KernelRecord r;
  r.warp_cycles = 10'000'000;
  r.launched_threads = 1 << 16;
  r.active_threads = 1 << 16;
  r.mem.dram_bytes = 256ull << 20;
  sim::KernelRecord r2 = r;
  const sim::KernelCostModel full(sim::k40());
  const sim::DeviceSpec scaled_spec = sim::k40_sim();
  const sim::KernelCostModel scaled(scaled_spec);
  EXPECT_GT(scaled.price(r2), full.price(r) * 8.0);
  EXPECT_EQ(scaled_spec.num_smx, 1u);
}

// ---- suite degree character matches the paper's statistics ---------------------------------

TEST(SuiteCharacter, GowallaAndOrkutDegreeBreakpoints) {
  graph::SuiteOptions opt;
  opt.scale = 1.0 / 8.0;
  const auto go = graph::make_suite_graph("GO", opt);
  const auto go_deg = graph::degree_sequence(go.graph);
  // Paper Fig. 5: Gowalla 86.7% < 32; Orkut only 37.5% < 32.
  EXPECT_GT(fraction_below(go_deg, 32.0), 0.75);
  const auto orkut = graph::make_suite_graph("OR", opt);
  const auto or_deg = graph::degree_sequence(orkut.graph);
  EXPECT_LT(fraction_below(or_deg, 32.0), 0.65);
  EXPECT_GT(orkut.graph.average_degree(), 2.5 * go.graph.average_degree());
}

TEST(SuiteCharacter, HubConcentrationOnYoutubeLike) {
  graph::SuiteOptions opt;
  opt.scale = 1.0 / 8.0;
  const auto yt = graph::make_suite_graph("YT", opt);
  // Paper Fig. 6: a sub-0.1% hub set owns ~10% of YouTube's edges.
  const auto hubs = graph::select_hub_threshold(
      yt.graph, std::max<vertex_t>(4, yt.graph.num_vertices() / 2000));
  EXPECT_GT(hubs.hub_edge_share, 0.05);
}

TEST(SuiteCharacter, TwitterMostlySmallDegrees) {
  graph::SuiteOptions opt;
  opt.scale = 1.0 / 8.0;
  const auto tw = graph::make_suite_graph("TW", opt);
  const auto deg = graph::degree_sequence(tw.graph);
  // Paper §4.2: 96% of Twitter's vertices have fewer than 32 edges.
  EXPECT_GT(fraction_below(deg, 32.0), 0.85);
}

}  // namespace
}  // namespace ent
