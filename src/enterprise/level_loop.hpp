// The per-level plumbing of the Enterprise superstep drivers: single-GPU
// (§4.1-4.3), multi-GPU (§4.4) and the vertex-program engine keep their own
// `while` loops and call one LevelLoop at each level top, for each device's
// workload-balancing step (§4.2's classify-and-expand, `dispatch`), at each
// BFS level end and after the loop. The drivers differ only in the expand
// step they hand to `dispatch`. With nothing attached each check is a few
// predictable branches: no allocation, no strings. The loop lives for one
// run and owns dispatch's scratch for it: the four class queues, the
// Hyper-Q group's records and their frontier counts. Once those have grown
// to the run's widest level a dispatch allocates nothing, so a steady-state
// level allocates only for its LevelTrace: the kernel list, and each kernel
// name too long for the small-string buffer (`queue_gen(top-down)`), in the
// trace and in the device timeline. Nothing is kept between runs.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bfs/program.hpp"
#include "bfs/result.hpp"
#include "enterprise/classify.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "enterprise/kernels.hpp"
#include "enterprise/status_array.hpp"
#include "gpusim/fault.hpp"
#include "graph/digest.hpp"
#include "util/pool.hpp"
#include "util/random.hpp"

namespace ent::bfs {
struct LevelCheckpoint;
}  // namespace ent::bfs

namespace ent::obs {
class Counter;
}  // namespace ent::obs

namespace ent::enterprise {

// One device's state at a level top: the bytes a silent flip may strike
// (status array or program state), the queue, which each level regenerates
// in place, and for BFS drivers the status array the audit checks.
struct Shard {
  unsigned device = 0;  // physical id, for flip rules and events
  std::span<std::byte> state;
  std::vector<graph::vertex_t>* queue = nullptr;
  const StatusArray* status = nullptr;
};

// The kernel names of one dispatch step. A class kernel is `prefix` plus its
// granularity (`BU-Warp`, `Thread`); the WB-off kernel is `prefix`, `stem`
// and the granularity in parentheses (`BU-Expand(CTA)`, `Relax(CTA)`). The
// expansion kernels' spans carry `phase`.
struct KernelNames {
  const char* prefix = "";
  const char* stem = "Expand";
  const char* phase = "expand";
};

// What one dispatch step expanded, and its priced time on the device.
struct DispatchOutput : ExpandOutput {
  double ms = 0.0;
};

struct DriverTraits {
  std::uint64_t audit_salt = 0;  // each driver's own sampled-audit draws
  // Multi-GPU: audit failures name the device, sampled draws pick one first.
  bool partitioned = false;
  bfs::ProgramTraits shape = {};  // which guard limits apply; BFS: both
};

class LevelLoop {
 public:
  // One run from `source`. Samples the brownout taps once, so a ladder step
  // lands at a run boundary. The arguments must outlive the loop.
  LevelLoop(const graph::Csr& g, const graph::SegmentDigests& digests,
            const EnterpriseOptions& options, graph::vertex_t source,
            DriverTraits traits);

  // BFS run start: the stored level snapshot for this source, or null. Seeds
  // the audit tally from the state the run starts at.
  const bfs::LevelCheckpoint* resume();

  // Level top, in this order: advertise the level to the fault injector,
  // check the guard, open the silent-flip window over `shards`, scrub when
  // the level is due, then audit: the status audit for a BFS driver, the
  // program engine's own `audit` otherwise. `now_ms` is the driver's clock.
  void level_top(std::int32_t level, std::uint64_t frontier, double now_ms,
                 std::span<const Shard> shards, bool bottom_up) {
    if (open_level(level, frontier, now_ms, shards)) {
      audit_status(shards, bottom_up);
    }
  }
  template <std::invocable Audit>
  void level_top(std::int32_t level, std::uint64_t frontier, double now_ms,
                 std::span<const Shard> shards, Audit&& audit) {
    if (open_level(level, frontier, now_ms, shards)) audit();
  }

  // BFS level end, with `next_level` about to run: extends the audit tally
  // and saves the checkpoint a replay resumes from. `cp` holds the driver's
  // loop flags; the loop fills in the source, the arrays and the traces.
  void level_end(std::int32_t next_level, graph::vertex_t newly_visited,
                 std::span<const Shard> shards,
                 const std::vector<graph::vertex_t>& parents,
                 const std::vector<bfs::LevelTrace>& trace,
                 bfs::LevelCheckpoint&& cp);

  // Run end: a final scrub and audit, so corruption that lands on the last
  // level is still caught before the result is reported.
  void run_end(std::int32_t level, double now_ms,
               std::span<const Shard> shards, bool bottom_up) {
    if (check(level, now_ms, shards, scrubs_on_)) {
      audit_status(shards, bottom_up);
    }
  }
  template <std::invocable Audit>
  void run_end(std::int32_t level, double now_ms,
               std::span<const Shard> shards, Audit&& audit) {
    if (check(level, now_ms, shards, scrubs_on_)) audit();
  }

  // One device's workload-balancing step (§4.2). Classifies `queue` on `g`
  // into the four granularity queues and calls `expand(sub, gran, rec)`,
  // which charges `rec` and returns its ExpandOutput, for each non-empty
  // class; the classify kernel and the class kernels then run as one Hyper-Q
  // group. Classification happens alongside queue generation (each scan
  // thread routes a frontier into one of four bins by out-degree), so it
  // joins the group rather than paying a separate launch. The class queues
  // and the group's records are the loop's own buffers, reused at every
  // call. With WB off, one kernel expands the whole queue at
  // `fixed_granularity` (the paper's TS-only setup uses CTA, like the BL
  // baseline). With a `trace` the kernels are listed in it, stream their
  // spans and count the class sizes into enterprise.queue.<granularity>; a
  // null `trace` only prices them.
  template <std::invocable<std::span<const graph::vertex_t>, Granularity,
                           sim::KernelRecord&>
                Expand>
  DispatchOutput dispatch(sim::Device& dev, const graph::Csr& g,
                          std::span<const graph::vertex_t> queue,
                          const KernelNames& names, bfs::LevelTrace* trace,
                          Expand&& expand) {
    DispatchOutput total;
    const auto run = [&](std::span<const graph::vertex_t> sub,
                         Granularity gran, sim::KernelRecord& rec) {
      const ExpandOutput out = expand(sub, gran, rec);
      total.newly_visited += out.newly_visited;
      total.edges_inspected += out.edges_inspected;
    };
    if (!options_.workload_balancing) {
      const Granularity gran = options_.fixed_granularity;
      sim::KernelRecord rec;
      rec.name = std::string(names.prefix) + names.stem + "(" +
                 to_string(gran) + ")";
      run(queue, gran, rec);
      total.ms = trace != nullptr
                     ? launch(dev, std::move(rec), *trace, options_.sink,
                              names.phase, queue.size())
                     : dev.run_kernel(std::move(rec));
      return total;
    }
    recs_.clear();
    items_.clear();
    sim::KernelRecord& crec = recs_.emplace_back();
    crec.name = "classify";
    classify_frontiers(g, queue, dev.memory(), crec, classes_);
    items_.push_back(queue.size());
    for (Granularity gran : {Granularity::kThread, Granularity::kWarp,
                             Granularity::kCta, Granularity::kGrid}) {
      const std::vector<graph::vertex_t>& sub = classes_.of(gran);
      if (trace != nullptr) count_queue(gran, sub.size());
      if (sub.empty()) continue;
      sim::KernelRecord& rec = recs_.emplace_back();
      rec.name.assign(names.prefix).append(to_string(gran));
      run(sub, gran, rec);
      items_.push_back(sub.size());
    }
    total.ms = trace != nullptr
                   ? launch_group(dev, recs_, items_, *trace, options_.sink,
                                  names.phase)
                   : dev.run_concurrent(recs_);
    return total;
  }

  // Reports a failed check of a driver's own audit.
  [[noreturn]] void audit_failed(const std::string& component,
                                 std::string detail) const;
  SplitMix64& audit_rng() { return audit_rng_; }

  // Whether the fault plan carries flip rules. Only a full status scan
  // builds a top-down queue that holds a flipped status byte. A run with
  // flip rules runs its pooled loops inline, in block order: a flipped queue
  // can hold a vertex twice, and a flipped status can make a visited vertex
  // look queued, so concurrent blocks would race on it.
  bool flips_armed() const { return flips_armed_; }

  // The level bodies' counters: enterprise.hub_cache.{probes,hits}, and
  // dispatch's enterprise.queue.<granularity>. Each is looked up by name
  // once per run, at its first use, so a run that never gets there adds no
  // entry. No-ops without a registry.
  void count_hub_cache(std::uint64_t probes, std::uint64_t hits);

 private:
  void count_queue(Granularity gran, std::uint64_t frontiers);
  bool open_level(std::int32_t level, std::uint64_t frontier, double now_ms,
                  std::span<const Shard> shards);
  // Sets where checks report, scrubs when due, and counts the audit when
  // audits are on; returns whether they are.
  bool check(std::int32_t level, double now_ms, std::span<const Shard> shards,
             bool scrub_due);
  void scrub();
  // The registry's counter `name`, resolved into `slot` on first use. Map
  // nodes never move, so the pointer stays valid for the run.
  obs::Counter& counter(obs::Counter*& slot, const char* name);
  // The status audit over P >= 1 (status, queue) pairs.
  void audit_status(std::span<const Shard> shards, bool bottom_up);
  // The detection protocol: bump the named counter and
  // integrity.detections, emit the IntegrityEvent, then throw
  // sim::IntegrityFault. The counters land before the throw, so a run the
  // resilience layer recovers still reports the detection.
  [[noreturn]] void detect(sim::IntegrityKind kind, const char* counter,
                           const std::string& component, unsigned device,
                           std::string detail) const;

  const graph::Csr& g_;
  const graph::SegmentDigests& digests_;
  const EnterpriseOptions& options_;
  graph::vertex_t source_;
  DriverTraits traits_;
  bool flips_armed_;
  std::optional<util::InlineScope> in_order_;  // held while flips_armed_
  bool audits_on_;
  bool scrubs_on_;
  SplitMix64 audit_rng_;
  // tally_[l] = vertices first visited at level l by the traversal's own
  // counts; a flipped status byte breaks its agreement with the array.
  std::vector<graph::vertex_t> tally_;
  std::int32_t level_ = 0;  // where the current check reports
  double now_ms_ = 0.0;
  unsigned device_ = 0;
  obs::Counter* audit_checks_ = nullptr;
  obs::Counter* scrub_passes_ = nullptr;
  std::array<obs::Counter*, 4> queue_counters_{};  // by Granularity
  obs::Counter* hub_probes_ = nullptr;
  obs::Counter* hub_hits_ = nullptr;
  // dispatch's scratch: the class queues, the Hyper-Q group's records and,
  // parallel to them, the frontier count behind each kernel.
  ClassifiedQueues classes_;
  std::vector<sim::KernelRecord> recs_;
  std::vector<std::uint64_t> items_;
};

// Load-time segment digests for the scrub pass; empty when scrubbing is off.
graph::SegmentDigests scrub_digests(const graph::Csr& g,
                                    const bfs::IntegrityOptions& integrity);

}  // namespace ent::enterprise
