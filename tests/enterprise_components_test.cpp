// Component tests for the Enterprise building blocks: status array, hub
// cache, classification, direction policy, and the three queue-generation
// workflows.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "baselines/cpu_bfs.hpp"
#include "enterprise/classify.hpp"
#include "enterprise/direction.hpp"
#include "enterprise/frontier_queue.hpp"
#include "enterprise/hub_cache.hpp"
#include "enterprise/kernels.hpp"
#include "enterprise/status_array.hpp"
#include "graph/builder.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "gpusim/device.hpp"
#include "util/bit_array.hpp"
#include "util/pool.hpp"

namespace ent::enterprise {
namespace {

using graph::vertex_t;

void expect_same_record(const sim::KernelRecord& a,
                        const sim::KernelRecord& b) {
  EXPECT_EQ(a.warp_cycles, b.warp_cycles);
  EXPECT_EQ(a.critical_cycles, b.critical_cycles);
  EXPECT_EQ(a.thread_cycles, b.thread_cycles);
  EXPECT_EQ(a.launched_threads, b.launched_threads);
  EXPECT_EQ(a.active_threads, b.active_threads);
  EXPECT_EQ(a.mem.load_transactions, b.mem.load_transactions);
  EXPECT_EQ(a.mem.store_transactions, b.mem.store_transactions);
  EXPECT_EQ(a.mem.dram_transactions, b.mem.dram_transactions);
  EXPECT_EQ(a.mem.dram_bytes, b.mem.dram_bytes);
  EXPECT_EQ(a.mem.requested_bytes, b.mem.requested_bytes);
  EXPECT_EQ(a.mem.random_transactions, b.mem.random_transactions);
  EXPECT_EQ(a.mem.shared_accesses, b.mem.shared_accesses);
}

// ---- status array ---------------------------------------------------------------

TEST(StatusArray, VisitAndQuery) {
  StatusArray sa(10);
  EXPECT_EQ(sa.size(), 10u);
  EXPECT_FALSE(sa.visited(3));
  EXPECT_EQ(sa.level(3), kUnvisited);
  sa.visit(3, 2);
  EXPECT_TRUE(sa.visited(3));
  EXPECT_EQ(sa.level(3), 2);
  EXPECT_EQ(sa.visited_count(), 1u);
}

// ---- hub cache ------------------------------------------------------------------

TEST(HubCache, InsertAndProbe) {
  HubCache cache(64);
  EXPECT_FALSE(cache.contains(5));
  cache.insert(5);
  EXPECT_TRUE(cache.contains(5));
  EXPECT_EQ(cache.occupancy(), 1u);
  EXPECT_EQ(cache.probes(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(HubCache, DirectMappedEviction) {
  HubCache cache(1);  // every insert collides
  cache.insert(1);
  EXPECT_FALSE(cache.insert(2));  // evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_EQ(cache.occupancy(), 1u);
}

TEST(HubCache, NoFalsePositives) {
  HubCache cache(128);
  for (vertex_t v = 0; v < 100; v += 2) cache.insert(v);
  for (vertex_t v = 1; v < 100; v += 2) {
    EXPECT_FALSE(cache.contains(v)) << v;  // full-id compare, never aliases
  }
}

TEST(HubCache, ClearResets) {
  HubCache cache(16);
  cache.insert(3);
  cache.clear();
  EXPECT_EQ(cache.occupancy(), 0u);
  EXPECT_EQ(cache.probes(), 0u);
  EXPECT_FALSE(cache.contains(3));
}

TEST(HubCache, FootprintMatchesPaperBudget) {
  // ~1000 entries fit the ~6 KB per-CTA budget of §4.3 (4 B ids).
  HubCache cache(1024);
  EXPECT_LE(cache.footprint_bytes(), 6u * 1024u);
}

// ---- classification -------------------------------------------------------------

TEST(Classify, DegreeThresholds) {
  EXPECT_EQ(classify_degree(0), Granularity::kThread);
  EXPECT_EQ(classify_degree(31), Granularity::kThread);
  EXPECT_EQ(classify_degree(32), Granularity::kWarp);
  EXPECT_EQ(classify_degree(255), Granularity::kWarp);
  EXPECT_EQ(classify_degree(256), Granularity::kCta);
  EXPECT_EQ(classify_degree(65535), Granularity::kCta);
  EXPECT_EQ(classify_degree(65536), Granularity::kGrid);
  EXPECT_EQ(classify_degree(2'500'000), Granularity::kGrid);  // KR2's monster
}

TEST(Classify, SplitsFrontiersByDegree) {
  // Vertex 0: degree 2 (thread), vertex 1: degree 40 (warp).
  std::vector<graph::Edge> edges;
  edges.push_back({0, 1});
  edges.push_back({0, 2});
  for (vertex_t i = 0; i < 40; ++i) edges.push_back({1, 2 + (i % 50)});
  const graph::Csr g = graph::build_csr(64, std::move(edges));

  sim::Device dev(sim::k40());
  sim::KernelRecord rec;
  const std::vector<vertex_t> frontier{0, 1};
  ClassifiedQueues q;
  classify_frontiers(g, frontier, dev.memory(), rec, q);
  EXPECT_EQ(q.of(Granularity::kThread),
            (std::vector<vertex_t>{0}));
  EXPECT_EQ(q.of(Granularity::kWarp), (std::vector<vertex_t>{1}));
  EXPECT_TRUE(q.of(Granularity::kCta).empty());
  EXPECT_EQ(q.total(), 2u);
  EXPECT_GT(rec.warp_cycles, 0u);
}

TEST(Classify, GranularityNames) {
  EXPECT_STREQ(to_string(Granularity::kThread), "Thread");
  EXPECT_STREQ(to_string(Granularity::kGrid), "Grid");
}

// ---- direction policy -----------------------------------------------------------

TEST(Direction, AlphaRatio) {
  EXPECT_DOUBLE_EQ(compute_alpha(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(compute_alpha(100, 0), 0.0);
}

TEST(Direction, GammaPercentage) {
  std::vector<std::uint8_t> flags{1, 0, 1, 0};
  const auto hubs_in = [&](const std::vector<vertex_t>& queue) {
    return static_cast<vertex_t>(std::count_if(
        queue.begin(), queue.end(), [&](vertex_t v) { return flags[v] != 0; }));
  };
  const std::vector<vertex_t> frontier{0, 1, 2};
  EXPECT_DOUBLE_EQ(compute_gamma(hubs_in(frontier), 2), 100.0);  // both hubs in
  const std::vector<vertex_t> partial{0, 1};
  EXPECT_DOUBLE_EQ(compute_gamma(hubs_in(partial), 2), 50.0);
  EXPECT_DOUBLE_EQ(compute_gamma(hubs_in(partial), 0), 0.0);
}

TEST(Direction, PolicySelectsIndicator) {
  DirectionPolicy gamma_policy;
  gamma_policy.use_gamma = true;
  gamma_policy.gamma_threshold_percent = 30.0;
  EXPECT_TRUE(should_switch_to_bottom_up(gamma_policy, 0.0, 35.0));
  EXPECT_FALSE(should_switch_to_bottom_up(gamma_policy, 100.0, 10.0));

  DirectionPolicy alpha_policy;
  alpha_policy.use_gamma = false;
  alpha_policy.alpha_threshold = 15.0;
  // Beamer semantics: switch once m_u/m_f has dropped below the threshold
  // (the frontier's edge mass rivals the unexplored mass)...
  EXPECT_TRUE(should_switch_to_bottom_up(alpha_policy, 10.0, 0.0));
  EXPECT_FALSE(should_switch_to_bottom_up(alpha_policy, 20.0, 99.0));
  // ...and only while the frontier is still growing.
  EXPECT_FALSE(should_switch_to_bottom_up(alpha_policy, 10.0, 0.0, false));
}

// ---- queue generation -------------------------------------------------------------

class QueueGenTest : public ::testing::Test {
 protected:
  QueueGenTest() : dev_(sim::k40()), gen_(dev_.memory(), 256) {}

  sim::Device dev_;
  FrontierQueueGenerator gen_;
};

TEST_F(QueueGenTest, TopDownCollectsExactlyTheLevel) {
  StatusArray sa(100);
  for (vertex_t v = 0; v < 100; v += 3) sa.visit(v, 1);
  for (vertex_t v = 1; v < 100; v += 3) sa.visit(v, 2);
  sim::KernelRecord rec;
  const auto queue = gen_.top_down(sa, 2, rec);
  EXPECT_EQ(queue.size(), 33u);
  for (vertex_t v : queue) EXPECT_EQ(sa.level(v), 2);
  EXPECT_GT(rec.mem.load_transactions, 0u);
}

TEST_F(QueueGenTest, TopDownRangeRestricts) {
  StatusArray sa(100);
  sa.visit(5, 1);
  sa.visit(55, 1);
  sim::KernelRecord rec;
  const auto queue = gen_.top_down(sa, 1, 0, 50, rec);
  EXPECT_EQ(queue, (std::vector<vertex_t>{5}));
}

TEST_F(QueueGenTest, TopDownBlockScanMatchesPlainScan) {
  // 5 full 256-entry blocks plus a 77-entry tail; matches sit in the first
  // block, the last full block and the tail, with decoys at other levels.
  const vertex_t n = 5 * 256 + 77;
  StatusArray sa(n);
  for (vertex_t v : {0u, 3u, 255u, 1024u, 1100u, 1279u, 1280u, n - 1}) {
    sa.visit(v, 4);
  }
  for (vertex_t v = 1; v < n; v += 97) {
    if (sa.level(v) != 4) sa.visit(v, 3);
  }
  const auto plain_scan = [&](vertex_t begin, vertex_t end) {
    std::vector<vertex_t> q;
    for (vertex_t v = begin; v < end; ++v) {
      if (sa.level(v) == 4) q.push_back(v);
    }
    return q;
  };
  sim::KernelRecord rec;
  EXPECT_EQ(gen_.top_down(sa, 4, rec), plain_scan(0, n));
  // A range whose blocks start off the 256 grid (one multi-GPU slice).
  sim::KernelRecord range_rec;
  EXPECT_EQ(gen_.top_down(sa, 4, 2, 1281, range_rec), plain_scan(2, 1281));

  // The expansion's discovery bitmap over the same eight vertices. n is not
  // a multiple of 64, so the last word is partial.
  BitArray discovered(n);
  for (vertex_t v : {0u, 3u, 255u, 1024u, 1100u, 1279u, 1280u, n - 1}) {
    discovered.set(v);
  }
  sim::KernelRecord harvest_rec;
  std::vector<vertex_t> harvested;
  gen_.harvest(discovered, harvested, harvest_rec);
  EXPECT_EQ(harvested, plain_scan(0, n));
  // The device still scans every status, so the charge is the scan's.
  expect_same_record(harvest_rec, rec);
  EXPECT_EQ(discovered.popcount(), 0u);  // the harvest clears its bits
}

TEST_F(QueueGenTest, SwitchQueueIsSortedUnvisited) {
  StatusArray sa(100);
  for (vertex_t v = 0; v < 100; v += 2) sa.visit(v, 0);
  sim::KernelRecord rec;
  const auto queue = gen_.direction_switch(sa, {}, rec);
  EXPECT_EQ(queue.size(), 50u);
  EXPECT_TRUE(std::is_sorted(queue.begin(), queue.end()));
  for (vertex_t v : queue) EXPECT_FALSE(sa.visited(v));
}

TEST_F(QueueGenTest, SwitchScanIsStridedAndSlower) {
  // §4.1: the chunked scan moves more transactions than the interleaved one
  // for the same array.
  StatusArray sa(100000);
  sim::KernelRecord interleaved;
  sim::KernelRecord chunked;
  gen_.top_down(sa, 0, interleaved);
  gen_.direction_switch(sa, {}, chunked);
  EXPECT_GT(chunked.mem.dram_bytes, interleaved.mem.dram_bytes);
}

TEST_F(QueueGenTest, SwitchRefillsHubCache) {
  StatusArray sa(100);
  sa.visit(7, 3);   // hub, just visited
  sa.visit(9, 3);   // not a hub
  sa.visit(11, 2);  // hub, but visited earlier
  std::vector<std::uint8_t> hubs(100, 0);
  hubs[7] = 1;
  hubs[11] = 1;
  HubCache cache(32);
  HubRefill refill{&cache, &hubs, 3};
  sim::KernelRecord rec;
  gen_.direction_switch(sa, refill, rec);
  EXPECT_TRUE(cache.contains(7));
  EXPECT_FALSE(cache.contains(9));
  EXPECT_FALSE(cache.contains(11));
}

TEST_F(QueueGenTest, BottomUpFilterRemovesVisited) {
  StatusArray sa(100);
  const std::vector<vertex_t> prev{1, 2, 3, 4, 5};
  sa.visit(2, 4);
  sa.visit(4, 4);
  sim::KernelRecord rec;
  const auto queue = gen_.bottom_up_filter(prev, sa, {}, rec);
  EXPECT_EQ(queue, (std::vector<vertex_t>{1, 3, 5}));
}

TEST_F(QueueGenTest, FilterRefillsCacheWithRemovedHubs) {
  StatusArray sa(100);
  const std::vector<vertex_t> prev{1, 2, 3};
  sa.visit(2, 5);
  std::vector<std::uint8_t> hubs(100, 0);
  hubs[2] = 1;
  HubCache cache(32);
  HubRefill refill{&cache, &hubs, 5};
  sim::KernelRecord rec;
  const auto queue = gen_.bottom_up_filter(prev, sa, refill, rec);
  EXPECT_EQ(queue, (std::vector<vertex_t>{1, 3}));
  EXPECT_TRUE(cache.contains(2));
}

TEST_F(QueueGenTest, FilterOnlyScansPreviousQueue) {
  // §4.1 bottom-up workflow: cost scales with the previous queue, not n.
  StatusArray sa(1 << 20);
  std::vector<vertex_t> small_prev{1, 2, 3};
  sim::KernelRecord filter_rec;
  gen_.bottom_up_filter(small_prev, sa, {}, filter_rec);
  sim::KernelRecord full_scan_rec;
  gen_.direction_switch(sa, {}, full_scan_rec);
  EXPECT_LT(filter_rec.mem.dram_bytes, full_scan_rec.mem.dram_bytes / 100);
}

// ---- pooled host loops: the same answer at every pool size --------------------

// One bottom-up level of a scale-16 Kronecker BFS: statuses and parents up to
// the level before the widest, the unvisited queue, and a small hub cache
// seeded with that level's hubs, so most inserts collide and their order
// shows. Each pooled kernel runs at pool sizes 1, 2, 4 and 7 and must
// reproduce the one-thread result exactly.
class PooledKernels : public ::testing::Test {
 protected:
  static constexpr unsigned kPoolSizes[] = {1, 2, 4, 7};

  PooledKernels() : dev_(sim::k40()), gen_(dev_.memory(), 2048) {
    graph::KroneckerParams p;
    p.scale = 16;
    p.edge_factor = 16;
    p.seed = 5;
    g_ = graph::generate_kronecker(p);
    vertex_t source = 0;
    while (g_.out_degree(source) < 8) ++source;
    const bfs::BfsResult tree = baselines::cpu_bfs(g_, source);
    std::vector<vertex_t> width(static_cast<std::size_t>(tree.depth) + 1, 0);
    for (const std::int32_t l : tree.levels) {
      if (l >= 0) ++width[static_cast<std::size_t>(l)];
    }
    // The level before the widest: the expansion then visits the most.
    level_ = static_cast<std::int32_t>(
                 std::max_element(width.begin(), width.end()) -
                 width.begin()) -
             1;
    status_ = StatusArray(g_.num_vertices());
    parents_.assign(g_.num_vertices(), graph::kInvalidVertex);
    for (vertex_t v = 0; v < g_.num_vertices(); ++v) {
      if (tree.levels[v] >= 0 && tree.levels[v] <= level_) {
        status_.visit(v, tree.levels[v]);
        parents_[v] = tree.parents[v];
      } else {
        queue_.push_back(v);
      }
    }
    hub_flags_ = graph::hub_flags(g_, 64);
  }

  HubCache seeded_cache() const {
    HubCache cache(64);
    for (vertex_t v = 0; v < g_.num_vertices(); ++v) {
      if (hub_flags_[v] != 0 && status_.level(v) == level_) cache.insert(v);
    }
    return cache;
  }

  // The ids a cache holds, which pins every slot of a direct-mapped table.
  std::vector<vertex_t> cached_ids(const HubCache& cache) const {
    HubCache probe = cache;
    std::vector<vertex_t> ids;
    for (vertex_t v = 0; v < g_.num_vertices(); ++v) {
      if (probe.contains(v)) ids.push_back(v);
    }
    return ids;
  }

  graph::Csr g_;
  sim::Device dev_;
  FrontierQueueGenerator gen_;
  std::int32_t level_ = 0;
  StatusArray status_{0};
  std::vector<vertex_t> parents_;
  std::vector<vertex_t> queue_;
  std::vector<std::uint8_t> hub_flags_;
};

TEST_F(PooledKernels, BottomUpExpansionMatchesAtEveryPoolSize) {
  ASSERT_GT(queue_.size(), 4096u);  // several blocks
  for (const Granularity gran : {Granularity::kThread, Granularity::kWarp,
                                 Granularity::kCta, Granularity::kGrid}) {
    for (const bool with_cache : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(gran) << (with_cache ? " + cache" : ""));
      struct Run {
        ExpandOutput out;
        sim::KernelRecord rec;
        std::vector<std::int32_t> levels;
        std::vector<vertex_t> parents;
        std::uint64_t probes = 0;
        std::uint64_t hits = 0;
      };
      std::vector<Run> runs;
      for (const unsigned threads : kPoolSizes) {
        util::ScopedHostPool pool(threads);
        StatusArray status = status_;
        std::vector<vertex_t> parents = parents_;
        HubCache cache = seeded_cache();
        Run run;
        run.out = expand_bottom_up(g_, status, parents, queue_, gran,
                                   level_ + 1, with_cache ? &cache : nullptr,
                                   dev_.memory(), run.rec);
        run.levels.assign(status.data().begin(), status.data().end());
        run.parents = std::move(parents);
        run.probes = cache.probes();
        run.hits = cache.hits();
        runs.push_back(std::move(run));
      }
      const Run& ref = runs.front();
      EXPECT_GT(ref.out.newly_visited, 0u);
      EXPECT_EQ(ref.hits > 0, with_cache);
      for (std::size_t i = 1; i < runs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << kPoolSizes[i] << " threads");
        EXPECT_EQ(runs[i].out.newly_visited, ref.out.newly_visited);
        EXPECT_EQ(runs[i].out.edges_inspected, ref.out.edges_inspected);
        expect_same_record(runs[i].rec, ref.rec);
        EXPECT_EQ(runs[i].levels, ref.levels);
        EXPECT_EQ(runs[i].parents, ref.parents);
        EXPECT_EQ(runs[i].probes, ref.probes);
        EXPECT_EQ(runs[i].hits, ref.hits);
      }
    }
  }
}

TEST_F(PooledKernels, ClassifyMatchesAtEveryPoolSize) {
  // The unvisited queue, and every vertex, so each class spans blocks.
  std::vector<vertex_t> all(g_.num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  for (const auto* frontier : {&queue_, &all}) {
    std::vector<ClassifiedQueues> queues;
    std::vector<sim::KernelRecord> recs;
    for (const unsigned threads : kPoolSizes) {
      util::ScopedHostPool pool(threads);
      sim::KernelRecord rec;
      classify_frontiers(g_, *frontier, dev_.memory(), rec,
                         queues.emplace_back());
      recs.push_back(rec);
    }
    EXPECT_EQ(queues.front().total(), frontier->size());
    for (std::size_t i = 1; i < queues.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << kPoolSizes[i] << " threads");
      EXPECT_EQ(queues[i].queues, queues.front().queues);
      expect_same_record(recs[i], recs.front());
    }
  }
}

TEST_F(PooledKernels, QueueGenerationMatchesAtEveryPoolSize) {
  // Expand the level once, so the filter sees this level's visits.
  StatusArray after = status_;
  std::vector<vertex_t> parents = parents_;
  sim::KernelRecord expand_rec;
  expand_bottom_up(g_, after, parents, queue_, Granularity::kThread,
                   level_ + 1, nullptr, dev_.memory(), expand_rec);

  struct Run {
    std::vector<vertex_t> queue;
    sim::KernelRecord rec;
    std::vector<vertex_t> cached;
  };
  const vertex_t n = g_.num_vertices();
  const auto runs_of = [&](auto&& generate) {
    std::vector<Run> runs;
    for (const unsigned threads : kPoolSizes) {
      util::ScopedHostPool pool(threads);
      HubCache cache(64);
      Run run;
      run.queue = generate(cache, run.rec);
      run.cached = cached_ids(cache);
      runs.push_back(std::move(run));
    }
    EXPECT_FALSE(runs.front().cached.empty());
    for (std::size_t i = 1; i < runs.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << kPoolSizes[i] << " threads");
      EXPECT_EQ(runs[i].queue, runs.front().queue);
      expect_same_record(runs[i].rec, runs.front().rec);
      EXPECT_EQ(runs[i].cached, runs.front().cached);
    }
  };
  {
    SCOPED_TRACE("direction switch");
    runs_of([&](HubCache& cache, sim::KernelRecord& rec) {
      return gen_.direction_switch(status_, {&cache, &hub_flags_, level_},
                                   rec);
    });
  }
  {
    SCOPED_TRACE("direction switch over one device's range");
    runs_of([&](HubCache& cache, sim::KernelRecord& rec) {
      return gen_.direction_switch(status_, {&cache, &hub_flags_, level_},
                                   n / 8 + 3, n - n / 8, rec);
    });
  }
  {
    SCOPED_TRACE("bottom-up filter");
    runs_of([&](HubCache& cache, sim::KernelRecord& rec) {
      return gen_.bottom_up_filter(queue_, after,
                                   {&cache, &hub_flags_, level_ + 1}, rec);
    });
  }
}

}  // namespace
}  // namespace ent::enterprise
