// bfs/checkpoint.hpp in isolation: store round-trips, per-level snapshot
// cadence, and replay equivalence — a run resumed from a mid-traversal
// snapshot must produce exactly the tree an uninterrupted run produces.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "bfs/checkpoint.hpp"
#include "bfs/validate.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "enterprise/multi_gpu_bfs.hpp"
#include "graph/generators.hpp"
#include "gpusim/fault.hpp"
#include "obs/metrics.hpp"

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

bfs::LevelCheckpoint sample_checkpoint() {
  bfs::LevelCheckpoint cp;
  cp.source = 3;
  cp.next_level = 2;
  cp.levels = {0, 1, 1, -1};
  cp.parents = {3, 0, 0, graph::kInvalidVertex};
  cp.frontier = {1, 2};
  cp.bottom_up = true;
  cp.switched = true;
  cp.sorted_frontier = false;
  cp.last_newly_visited = 2;
  cp.prev_frontier_size = 1;
  cp.visited_degree_sum = 7;
  bfs::LevelTrace t;
  t.level = 0;
  t.frontier_count = 1;
  cp.level_trace.push_back(t);
  return cp;
}

// Keeps updating until the stored snapshot reaches `freeze_at` levels, then
// holds it — models a run interrupted after that many completed levels.
class FreezeAtLevel final : public bfs::Checkpointer {
 public:
  explicit FreezeAtLevel(std::int32_t freeze_at) : freeze_at_(freeze_at) {}

  void save(bfs::LevelCheckpoint checkpoint) override {
    if (frozen_) return;
    checkpoint_ = std::move(checkpoint);
    if (checkpoint_->next_level >= freeze_at_) frozen_ = true;
  }
  const bfs::LevelCheckpoint* restore() const override {
    return checkpoint_ ? &*checkpoint_ : nullptr;
  }
  void clear() override { checkpoint_.reset(); }

  bool frozen() const { return frozen_; }

 private:
  std::int32_t freeze_at_;
  bool frozen_ = false;
  std::optional<bfs::LevelCheckpoint> checkpoint_;
};

// --- store behaviour ---------------------------------------------------------

TEST(LevelCheckpointStore, SaveRestoreRoundTripsEveryField) {
  bfs::LevelCheckpointStore store;
  EXPECT_EQ(store.restore(), nullptr);
  EXPECT_EQ(store.saves(), 0u);

  store.save(sample_checkpoint());
  ASSERT_NE(store.restore(), nullptr);
  const bfs::LevelCheckpoint& cp = *store.restore();
  const bfs::LevelCheckpoint want = sample_checkpoint();
  EXPECT_EQ(cp.source, want.source);
  EXPECT_EQ(cp.next_level, want.next_level);
  EXPECT_EQ(cp.levels, want.levels);
  EXPECT_EQ(cp.parents, want.parents);
  EXPECT_EQ(cp.frontier, want.frontier);
  EXPECT_EQ(cp.bottom_up, want.bottom_up);
  EXPECT_EQ(cp.switched, want.switched);
  EXPECT_EQ(cp.sorted_frontier, want.sorted_frontier);
  EXPECT_EQ(cp.last_newly_visited, want.last_newly_visited);
  EXPECT_EQ(cp.prev_frontier_size, want.prev_frontier_size);
  EXPECT_EQ(cp.visited_degree_sum, want.visited_degree_sum);
  ASSERT_EQ(cp.level_trace.size(), want.level_trace.size());
  EXPECT_EQ(cp.level_trace[0].frontier_count,
            want.level_trace[0].frontier_count);
  EXPECT_EQ(store.saves(), 1u);
}

TEST(LevelCheckpointStore, NewestSnapshotWinsAndClearResets) {
  bfs::LevelCheckpointStore store;
  store.save(sample_checkpoint());
  bfs::LevelCheckpoint newer = sample_checkpoint();
  newer.next_level = 5;
  store.save(std::move(newer));
  ASSERT_NE(store.restore(), nullptr);
  EXPECT_EQ(store.restore()->next_level, 5);
  EXPECT_EQ(store.saves(), 2u);

  store.clear();
  EXPECT_EQ(store.restore(), nullptr);
  EXPECT_EQ(store.saves(), 2u);  // clear drops state, not the save count
}

// Silent-corruption defense: every save stamps a payload checksum and every
// restore re-verifies it, so replaying from a snapshot that rotted in
// memory is a typed IntegrityFault, not a silently wrong tree.
TEST(LevelCheckpointStore, RestoreRejectsCorruptedPayload) {
  obs::MetricsRegistry metrics;
  bfs::LevelCheckpointStore store;
  store.set_metrics(&metrics);
  store.save(sample_checkpoint());
  EXPECT_NE(store.restore(), nullptr);  // clean payload verifies

  ASSERT_NE(store.peek(), nullptr);
  store.peek()->levels[0] ^= 1;  // one flipped bit in the level map
  EXPECT_THROW(store.restore(), sim::IntegrityFault);
  EXPECT_EQ(metrics.counter("integrity.checkpoint.failures").value(), 1u);
  EXPECT_GE(metrics.counter("integrity.detections").value(), 1u);

  // A fresh save restamps the checksum and restores cleanly again.
  store.save(sample_checkpoint());
  EXPECT_NE(store.restore(), nullptr);
  EXPECT_EQ(metrics.counter("integrity.checkpoint.failures").value(), 1u);
}

// --- snapshot cadence --------------------------------------------------------

TEST(EnterpriseCheckpoints, SnapshotsEveryCompletedLevel) {
  const Csr g = test_graph(21);
  const vertex_t source = connected_source(g);

  bfs::LevelCheckpointStore store;
  enterprise::EnterpriseOptions opt;
  opt.checkpointer = &store;
  enterprise::EnterpriseBfs bfs_sys(g, opt);
  const auto r = bfs_sys.run(source);

  // One snapshot per completed level, except a final level that visited
  // nothing (unreachable bottom-up remainder) which breaks out unsaved.
  EXPECT_GE(store.saves() + 1, r.level_trace.size());
  EXPECT_LE(store.saves(), r.level_trace.size());
  ASSERT_NE(store.restore(), nullptr);
  const bfs::LevelCheckpoint& final_cp = *store.restore();
  EXPECT_EQ(final_cp.source, source);
  // The last snapshot carries the completed tree (a skipped final save can
  // only follow a level that changed nothing).
  EXPECT_EQ(final_cp.levels, r.levels);
  EXPECT_EQ(final_cp.parents, r.parents);
}

// --- replay equivalence ------------------------------------------------------

TEST(EnterpriseCheckpoints, ReplayFromMidSnapshotMatchesUninterrupted) {
  const Csr g = test_graph(22);
  const vertex_t source = connected_source(g);

  enterprise::EnterpriseBfs clean(g);
  const auto want = clean.run(source);
  ASSERT_GT(want.depth, 3);  // needs room for a mid-run snapshot

  // First run records until two levels are complete, then "faults".
  FreezeAtLevel freezer(2);
  enterprise::EnterpriseOptions opt;
  opt.checkpointer = &freezer;
  enterprise::EnterpriseBfs first(g, opt);
  (void)first.run(source);
  ASSERT_TRUE(freezer.frozen());
  ASSERT_NE(freezer.restore(), nullptr);
  EXPECT_EQ(freezer.restore()->next_level, 2);

  // A fresh system resumes from the snapshot and must reproduce the exact
  // uninterrupted tree, including the per-level history of the levels it
  // never re-ran.
  enterprise::EnterpriseBfs resumed(g, opt);
  const auto got = resumed.run(source);
  EXPECT_EQ(got.levels, want.levels);
  EXPECT_EQ(got.parents, want.parents);
  EXPECT_EQ(got.depth, want.depth);
  EXPECT_EQ(got.vertices_visited, want.vertices_visited);
  EXPECT_EQ(got.level_trace.size(), want.level_trace.size());
  EXPECT_TRUE(bfs::validate_tree(g, g, got).ok);
}

TEST(EnterpriseCheckpoints, MismatchedSourceSnapshotIsIgnored) {
  const Csr g = test_graph(23);
  const vertex_t source = connected_source(g);
  const vertex_t other = connected_source(g) + 1;

  enterprise::EnterpriseBfs clean(g);
  const auto want = clean.run(source);

  // Stale snapshot from a different source must not leak into this run.
  FreezeAtLevel freezer(1);
  enterprise::EnterpriseOptions opt;
  opt.checkpointer = &freezer;
  enterprise::EnterpriseBfs seeded(g, opt);
  (void)seeded.run(other);
  ASSERT_NE(freezer.restore(), nullptr);
  ASSERT_NE(freezer.restore()->source, source);

  enterprise::EnterpriseBfs replayed(g, opt);
  const auto got = replayed.run(source);
  EXPECT_EQ(got.levels, want.levels);
  EXPECT_EQ(got.parents, want.parents);
}

TEST(MultiGpuCheckpoints, ReplayFromMidSnapshotMatchesUninterrupted) {
  const Csr g = test_graph(24);
  const vertex_t source = connected_source(g);

  enterprise::MultiGpuOptions clean_opt;
  clean_opt.num_gpus = 2;
  enterprise::MultiGpuEnterpriseBfs clean(g, {}, clean_opt);
  const auto want = clean.run(source);
  ASSERT_GT(want.depth, 2);

  FreezeAtLevel freezer(2);
  enterprise::EnterpriseOptions eopt;
  eopt.checkpointer = &freezer;
  enterprise::MultiGpuOptions opt;
  opt.num_gpus = 2;
  enterprise::MultiGpuEnterpriseBfs first(g, eopt, opt);
  (void)first.run(source);
  ASSERT_TRUE(freezer.frozen());

  enterprise::MultiGpuEnterpriseBfs resumed(g, eopt, opt);
  const auto got = resumed.run(source);
  EXPECT_EQ(got.levels, want.levels);
  EXPECT_EQ(got.parents, want.parents);
  EXPECT_EQ(got.vertices_visited, want.vertices_visited);
  EXPECT_TRUE(bfs::validate_tree(g, g, got).ok);
}

}  // namespace
}  // namespace ent
