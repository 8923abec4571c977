// Streamed (out-of-core) Enterprise BFS — the §7 future-work direction:
// "integrate Enterprise with high-speed storage and networking devices and
// run on even larger graphs".
//
// The graph's adjacency lists live off-device (host memory / NVMe) in
// fixed vertex-range partitions; the device holds a bounded number of
// resident partitions managed LRU. Each level expands only partitions that
// contain frontiers, paying an interconnect transfer for every partition
// fault. The BFS itself is the regular Enterprise pipeline (classified
// queues, hub cache, gamma switching), so results are identical to the
// in-memory system; only the cost of partition faults is added.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <vector>

#include "bfs/result.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "graph/partition.hpp"
#include "gpusim/device.hpp"
#include "gpusim/multi_gpu.hpp"

namespace ent::enterprise {

struct StreamedOptions {
  EnterpriseOptions core;            // technique toggles + device spec
  unsigned num_partitions = 8;       // vertex-range partitions of the graph
  unsigned resident_partitions = 2;  // how many fit in device memory
  sim::InterconnectSpec link;        // host<->device transfer model
};

struct StreamedRunStats {
  std::uint64_t partition_faults = 0;   // partitions transferred
  std::uint64_t partition_hits = 0;     // frontier partitions already resident
  std::uint64_t bytes_transferred = 0;
  double transfer_ms = 0.0;
};

class StreamedBfs {
 public:
  // Requires an undirected graph (bottom-up inspects in-edges, which a
  // vertex-range partition of out-edges only provides when symmetric).
  StreamedBfs(const graph::Csr& g, StreamedOptions options);

  bfs::BfsResult run(graph::vertex_t source);

  const StreamedRunStats& last_run_stats() const { return stats_; }
  const sim::Device& device() const { return *device_; }
  const std::vector<graph::VertexRange>& partitions() const {
    return ranges_;
  }

 private:
  unsigned partition_of(graph::vertex_t v) const;
  // Ensures partition `p` is resident; returns the transfer time charged
  // (0 on a hit) and updates the LRU state.
  double touch_partition(unsigned p);

  const graph::Csr* graph_;
  StreamedOptions options_;
  std::unique_ptr<sim::Device> device_;
  sim::Interconnect link_;
  std::vector<graph::VertexRange> ranges_;
  std::vector<std::uint64_t> partition_bytes_;
  std::list<unsigned> lru_;  // front = most recent
  const graph::HubView* hubs_;  // borrowed from the graph (select_hubs)
  StreamedRunStats stats_;
};

}  // namespace ent::enterprise
