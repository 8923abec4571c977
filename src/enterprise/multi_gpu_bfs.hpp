// Multi-GPU Enterprise (§4.4): 1-D vertex partition; per level each GPU
// (1) expands its private frontier queue over the vertices it owns,
// (2) __ballot()-compresses its just-visited flags into one bit per vertex
//     and all-gathers them (~90% communication reduction vs byte statuses),
// (3) scans its private slice of the merged status to build the next
//     private queue.
//
// The traversal itself is exact (the shared host status array plays the
// role of the post-all-gather merged view); timing is bulk-synchronous:
// per level, max over devices of (expand + queue-gen) plus the all-gather.
// Bottom-up inspection reads in-edges of owned vertices, which a 1-D
// out-edge partition only provides for undirected graphs — the same
// Graph500/Kronecker setting the paper scales in Fig. 15.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "bfs/result.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "graph/partition.hpp"
#include "gpusim/multi_gpu.hpp"
#include "gpusim/straggler.hpp"

namespace ent::enterprise {

enum class PartitionPolicy {
  kEqualVertices,  // the paper's 1-D split (§4.4)
  kEqualEdges,     // split points on the CSR row-offset prefix (ablation)
};

struct MultiGpuOptions {
  unsigned num_gpus = 2;
  EnterpriseOptions per_device;  // technique toggles, device spec
  sim::InterconnectSpec interconnect;
  PartitionPolicy partition = PartitionPolicy::kEqualVertices;
  // Physical ids behind the num_gpus logical slots (empty = 0..num_gpus-1).
  // The resilience layer rebuilds the system without a blacklisted id, so
  // fault rules scoped by device keep matching the same physical GPU after
  // a repartition. Size must equal num_gpus when non-empty.
  std::vector<unsigned> device_ids;
  // Fail-slow straggler detection + mitigation ladder (gpusim/straggler.hpp).
  // Disabled by default: the level loop then books no extra kernels and
  // emits no extra events, so reports stay byte-identical.
  sim::StragglerOptions straggler;
};

struct MultiGpuRunStats {
  double total_ms = 0.0;
  double comm_ms = 0.0;       // total all-gather time
  std::uint64_t bytes_communicated = 0;
  std::uint64_t bytes_uncompressed = 0;  // what byte statuses would cost
};

class MultiGpuEnterpriseBfs {
 public:
  // Requires an undirected graph (see header comment).
  MultiGpuEnterpriseBfs(const graph::Csr& g, MultiGpuOptions options);

  bfs::BfsResult run(graph::vertex_t source);

  const MultiGpuRunStats& last_run_stats() const { return stats_; }
  const std::vector<graph::VertexRange>& partition() const { return ranges_; }
  const MultiGpuOptions& options() const { return options_; }

 private:
  const graph::Csr* graph_;
  MultiGpuOptions options_;
  sim::MultiGpuSystem system_;
  std::vector<graph::VertexRange> ranges_;
  const graph::HubView* hubs_;  // borrowed from the graph (select_hubs)
  MultiGpuRunStats stats_;
  // Load-time segment digests, computed only when a scrub interval is set
  // (per_device.integrity.scrub_interval).
  graph::SegmentDigests digests_;
  // Fail-slow machinery. The detector persists across run() calls so EWMAs
  // stay warm across sources; the per-physical-device rung counters make
  // the ladder escalate (speculation -> repartition -> demotion) instead of
  // retrying the first rung forever.
  sim::StragglerDetector detector_;
  std::map<unsigned, unsigned> spec_rounds_;       // keyed by physical id
  std::map<unsigned, unsigned> rebalance_rounds_;  // keyed by physical id
  // Partition index whose shard the next level re-executes speculatively
  // (-1 = none pending). Set when the detector flags a device, consumed at
  // the top of the following level.
  int speculate_next_ = -1;
};

}  // namespace ent::enterprise
