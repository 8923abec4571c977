// The Enterprise BFS system (§4): direction-optimizing BFS on the simulated
// GPU combining streamlined thread scheduling (TS), workload balancing (WB),
// and the hub-vertex cache with gamma-based direction switching (HC). Each
// technique can be toggled independently to reproduce the Fig. 13 ablation:
//
//   TS only   queue-based scheduling, single CTA-granularity expansion
//   TS+WB     four classified queues expanded concurrently (Hyper-Q)
//   TS+WB+HC  full Enterprise
//
// The paper's baseline BL (status-array direction-optimizing BFS) lives in
// baselines/status_array_bfs.hpp.
#pragma once

#include <memory>
#include <optional>

#include "bfs/integrity.hpp"
#include "bfs/result.hpp"
#include "enterprise/classify.hpp"
#include "enterprise/direction.hpp"
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

class EnterpriseBfs {
 public:
  // Keeps a reference to `g`; builds the in-edge CSR for directed graphs.
  EnterpriseBfs(const graph::Csr& g, EnterpriseOptions options = {});
  ~EnterpriseBfs();

  EnterpriseBfs(const EnterpriseBfs&) = delete;
  EnterpriseBfs& operator=(const EnterpriseBfs&) = delete;

  bfs::BfsResult run(graph::vertex_t source);

  // Device state of the most recent run (counters, per-kernel timeline).
  const sim::Device& device() const;

  // Hub statistics chosen at construction (tau, T_h).
  graph::edge_t hub_threshold() const { return hub_tau_; }
  graph::vertex_t total_hubs() const { return total_hubs_; }

  const EnterpriseOptions& options() const { return options_; }

 private:
  const graph::Csr* graph_;
  const graph::Csr* in_edges_;           // == graph_ when undirected
  std::optional<graph::Csr> in_storage_;  // owns reverse CSR when directed
  EnterpriseOptions options_;
  std::unique_ptr<sim::Device> device_;
  std::vector<std::uint8_t> hub_flags_;
  graph::edge_t hub_tau_ = 0;
  graph::vertex_t total_hubs_ = 0;
  // Load-time segment digests, computed only when a scrub interval is set.
  graph::SegmentDigests digests_;
};

}  // namespace ent::enterprise
