// Per-level traversal checkpointing. A BFS driver that is handed a
// Checkpointer (through its options) snapshots the complete loop state after
// every finished level and, at run start, resumes from the stored snapshot
// when one matches the requested source — so a traversal interrupted by an
// injected fault (gpusim/fault.hpp) replays only the unfinished levels.
// Snapshots are host-side copies: taking one launches no simulated kernels
// and never moves the device clock.
//
// The state is deliberately engine-agnostic: levels/parents are the shared
// result arrays, `frontier` is the global frontier (a multi-GPU restore
// redistributes it by vertex ownership, which also makes checkpoints valid
// across a repartition after a device loss).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bfs/result.hpp"
#include "gpusim/fault.hpp"
#include "graph/digest.hpp"
#include "graph/types.hpp"
#include "obs/metrics.hpp"

namespace ent::bfs {

struct LevelCheckpoint {
  graph::vertex_t source = 0;
  std::int32_t next_level = 0;  // level of the vertices in `frontier`
  std::vector<std::int32_t> levels = {};
  std::vector<graph::vertex_t> parents = {};
  std::vector<graph::vertex_t> frontier = {};  // global frontier, any order
  bool bottom_up = false;
  bool switched = false;       // one-time direction switch already taken
  bool sorted_frontier = true; // bottom-up queue order (enterprise ablation)
  graph::vertex_t last_newly_visited = 0;
  std::uint64_t prev_frontier_size = 0;
  graph::edge_t visited_degree_sum = 0;
  // Traces of the levels completed so far, so a replayed run still reports
  // a full per-level history.
  std::vector<LevelTrace> level_trace = {};
  // FNV-1a digest over the recovery-critical payload, stamped by
  // LevelCheckpointStore::save and re-verified on restore: replaying from a
  // silently corrupted snapshot fails loudly with sim::IntegrityFault
  // instead of resuming from garbage. The timing traces are excluded — they
  // never feed back into traversal state.
  std::uint64_t checksum = 0;

  std::uint64_t compute_checksum() const {
    const auto chain = [](std::uint64_t h, std::span<const std::byte> bytes) {
      return graph::fnv1a64(bytes, h);
    };
    const std::uint64_t scalars[] = {
        static_cast<std::uint64_t>(source),
        static_cast<std::uint64_t>(next_level),
        static_cast<std::uint64_t>(bottom_up),
        static_cast<std::uint64_t>(switched),
        static_cast<std::uint64_t>(sorted_frontier),
        static_cast<std::uint64_t>(last_newly_visited),
        prev_frontier_size,
        static_cast<std::uint64_t>(visited_degree_sum),
    };
    std::uint64_t h = graph::fnv1a64(
        std::as_bytes(std::span<const std::uint64_t>(scalars)));
    h = chain(h, std::as_bytes(std::span<const std::int32_t>(levels)));
    h = chain(h, std::as_bytes(std::span<const graph::vertex_t>(parents)));
    h = chain(h, std::as_bytes(std::span<const graph::vertex_t>(frontier)));
    return h;
  }
};

class Checkpointer {
 public:
  virtual ~Checkpointer() = default;

  // Replaces the stored snapshot (only the newest is ever replayed).
  virtual void save(LevelCheckpoint checkpoint) = 0;

  // Latest snapshot, or null for a fresh start. Drivers must ignore
  // snapshots whose source does not match the run's source.
  virtual const LevelCheckpoint* restore() const = 0;

  virtual void clear() = 0;
};

// In-memory single-slot store — what ResilientEngine hands its inner
// engines. Every save stamps the payload checksum; every restore verifies
// it and throws sim::IntegrityFault (kind kCheckpoint) on a mismatch, so a
// replay can never silently resume from corrupted state.
class LevelCheckpointStore final : public Checkpointer {
 public:
  void save(LevelCheckpoint checkpoint) override {
    checkpoint.checksum = checkpoint.compute_checksum();
    checkpoint_ = std::move(checkpoint);
    ++saves_;
  }
  const LevelCheckpoint* restore() const override {
    if (!checkpoint_) return nullptr;
    if (checkpoint_->checksum != checkpoint_->compute_checksum()) {
      if (metrics_ != nullptr) {
        metrics_->counter("integrity.checkpoint.failures").increment();
        metrics_->counter("integrity.detections").increment();
      }
      throw sim::IntegrityFault(
          sim::IntegrityKind::kCheckpoint, "checkpoint",
          checkpoint_->next_level, 0.0,
          "payload checksum mismatch for source " +
              std::to_string(checkpoint_->source));
    }
    return &*checkpoint_;
  }
  void clear() override { checkpoint_.reset(); }

  // Optional observability tap for the checksum verdicts; must outlive the
  // store or be detached.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  // Mutable view of the stored snapshot — the fault seam checkpoint_test
  // uses to corrupt a payload byte without going through save(). Returns
  // nullptr when no snapshot is stored.
  LevelCheckpoint* peek() { return checkpoint_ ? &*checkpoint_ : nullptr; }

  std::uint64_t saves() const { return saves_; }

 private:
  std::optional<LevelCheckpoint> checkpoint_;
  std::uint64_t saves_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace ent::bfs
