// The Enterprise BFS system (§4): direction-optimizing BFS on the simulated
// GPU combining streamlined thread scheduling (TS), workload balancing (WB),
// and the hub-vertex cache with gamma-based direction switching (HC). Each
// technique can be toggled independently to reproduce the Fig. 13 ablation:
//
//   TS only   queue-based scheduling, single CTA-granularity expansion
//   TS+WB     four classified queues expanded concurrently (Hyper-Q)
//   TS+WB+HC  full Enterprise
//
// With partition residency on (EnterpriseOptions::residency) the same loop
// models the paper's §7 future work, a graph larger than device memory: the
// adjacency is paged in over the host link before each level's expansion.
//
// The paper's baseline BL (status-array direction-optimizing BFS) lives in
// baselines/status_array_bfs.hpp.
#pragma once

#include <cstdint>
#include <memory>

#include "bfs/integrity.hpp"
#include "bfs/result.hpp"
#include "enterprise/classify.hpp"
#include "enterprise/direction.hpp"
#include "enterprise/frontier_queue.hpp"
#include "graph/csr.hpp"
#include "graph/digest.hpp"
#include "gpusim/device.hpp"
#include "gpusim/spec.hpp"

namespace ent::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace ent::obs

namespace ent::sim {
class FaultInjector;
}  // namespace ent::sim

namespace ent::bfs {
class Checkpointer;
class RunGuard;
}  // namespace ent::bfs

namespace ent::enterprise {

struct EnterpriseOptions {
  bool workload_balancing = true;   // WB: classify into 4 queues
  bool hub_cache = true;            // HC: shared-memory hub cache
  bool allow_direction_switch = true;
  DirectionPolicy direction;        // gamma (default) or alpha switching
  // Shared-memory hub-cache slots (§4.3: ~6 KB per CTA holds ~1,000 ids).
  graph::vertex_t hub_cache_capacity = 1024;
  // Hub definition: tau is picked so that about this many vertices qualify.
  // 0 = auto: n/1024 clamped to [16, hub_cache_capacity], which keeps the
  // hub set at the paper's ~0.1% of vertices even on scaled-down graphs.
  graph::vertex_t hub_target_count = 0;
  // Frontier-scan launch width; 0 = auto (4096 threads per SMX, which is
  // the paper's ~64K-thread scan on a full K40).
  unsigned scan_threads = 0;
  sim::DeviceSpec device = sim::k40();

  // --- ablation knobs (defaults are the paper's choices) -----------------
  // Granularity used for every frontier when workload_balancing is off
  // (the paper's TS-only configuration uses CTA, like the BL baseline).
  Granularity fixed_granularity = Granularity::kCta;
  // Use the chunked (sorted-queue) scan at the direction switch; false
  // falls back to the interleaved top-down scan layout (§4.1 ablation).
  bool chunked_switch_scan = true;
  // Generate bottom-up queues by filtering the previous queue; false
  // rescans the whole status array every bottom-up level (§4.1's +3%).
  bool bottom_up_filter = true;
  // If nonzero, switch bottom-up -> top-down when the visited frontier
  // shrinks below n / beta (the [10] heuristic the paper found "neither
  // necessary nor beneficial" on GPUs). 0 = stay bottom-up.
  double switch_back_beta = 0.0;

  // --- partition residency (§7 future work) -------------------------------
  // The adjacency lives in host memory as `partitions` equal-edge vertex
  // ranges, of which `resident` fit on the device, kept LRU. Before each
  // level's expansion the run pages in every partition its queue touches
  // over a PCIe link that the fault injector sees as this device. 0
  // partitions = the whole graph is resident. Requires an undirected graph
  // (a vertex range of out-edges holds its in-edges only when symmetric).
  // Like chunked_switch_scan, only EnterpriseBfs reads it.
  struct Residency {
    unsigned partitions = 0;
    unsigned resident = 2;
  } residency;

  // --- observability (obs/) ---------------------------------------------
  // When set, every run streams span/kernel/level events into `sink` and
  // publishes gamma-at-switch, per-class queue occupancies, and hub-cache
  // hit statistics into `metrics`. Both must outlive the system; null
  // disables the corresponding stream at zero cost.
  obs::TraceSink* sink = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  // --- resilience (gpusim/fault.hpp, bfs/checkpoint.hpp) ------------------
  // When set, every kernel launch is first offered to the injector (which
  // may raise a SimFault) and the current BFS level is advertised to it.
  sim::FaultInjector* fault_injector = nullptr;
  // Physical id reported for this system's device in fault events and
  // matched against device-scoped fault rules.
  unsigned device_ordinal = 0;
  // When set, the loop state is snapshotted after every completed level and
  // a matching snapshot is resumed from instead of restarting at `source`.
  bfs::Checkpointer* checkpointer = nullptr;
  // Cooperative cancellation token (bfs/guard.hpp): checked at the top of
  // every level with the simulated clock and frontier size; a tripped limit
  // throws bfs::GuardTripped out of run(). Normally attached by the
  // `guarded:` decorator rather than set directly.
  bfs::RunGuard* guard = nullptr;

  // --- integrity (bfs/integrity.hpp, graph/digest.hpp) --------------------
  // Per-level audits and periodic digest scrubs of the resident CSR; a
  // failed check throws sim::IntegrityFault. Defaults are fully off and
  // byte-identical zero-overhead.
  bfs::IntegrityOptions integrity;
};

// Frontier-scan launch width: `scan_threads` when set, else the auto width
// of 4096 threads per SMX of `device` (EnterpriseOptions::scan_threads).
inline unsigned scan_launch_width(unsigned scan_threads,
                                  const sim::DeviceSpec& device) {
  return scan_threads != 0 ? scan_threads : device.num_smx * 4096;
}

// The graph's hub set (§4.3) for `options`: tau is sized so the cache can
// hold the hub set, which stays at roughly the paper's share of the vertex
// count (EnterpriseOptions::hub_target_count). The graph builds it for the
// first caller and every engine on the graph borrows it (Csr::hubs).
const graph::HubView& select_hubs(const graph::Csr& g,
                                  const EnterpriseOptions& options);

// Paging traffic of one run with partition residency on; all zero when off.
struct ResidencyStats {
  std::uint64_t partition_faults = 0;  // partitions transferred
  std::uint64_t partition_hits = 0;    // touched partitions already resident
  std::uint64_t bytes_transferred = 0;
  double transfer_ms = 0.0;
};

class EnterpriseBfs {
 public:
  // Keeps a reference to `g` and borrows its in-edge and hub views.
  EnterpriseBfs(const graph::Csr& g, EnterpriseOptions options = {});
  ~EnterpriseBfs();

  EnterpriseBfs(const EnterpriseBfs&) = delete;
  EnterpriseBfs& operator=(const EnterpriseBfs&) = delete;

  bfs::BfsResult run(graph::vertex_t source);

  // Device state of the most recent run (counters, per-kernel timeline).
  const sim::Device& device() const;

  // The hub set borrowed from the graph (tau, T_h, flags).
  const graph::HubView& hubs() const { return *hubs_; }
  graph::edge_t hub_threshold() const { return hubs_->tau; }
  graph::vertex_t total_hubs() const { return hubs_->count; }

  const EnterpriseOptions& options() const { return options_; }

  // Paging traffic of the most recent run (EnterpriseOptions::residency).
  const ResidencyStats& residency_stats() const { return residency_stats_; }

 private:
  class Pager;  // partition residency's LRU, in enterprise_bfs.cpp

  const graph::Csr* graph_;
  const graph::Csr* in_edges_;  // g.in_edges(): == graph_ when undirected
  EnterpriseOptions options_;
  std::unique_ptr<sim::Device> device_;
  const graph::HubView* hubs_;  // g.hubs(): shared by every engine on g
  // Load-time segment digests, computed only when a scrub interval is set.
  graph::SegmentDigests digests_;
  std::unique_ptr<Pager> pager_;  // null when the whole graph is resident
  ResidencyStats residency_stats_;
};

}  // namespace ent::enterprise
