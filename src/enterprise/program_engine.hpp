// Vertex-program runner: the Enterprise superstep machinery generalized
// beyond BFS (bfs/program.hpp). Each superstep reuses the paper's three
// techniques on whatever program it is given:
//
//   TS  the selected frontier is marked in a status-style "active" array and
//       the dense queue is regenerated with the streamlined scan
//       (frontier_queue.hpp), paying the real queue-generation cost;
//   WB  the queue is degree-classified into Thread/Warp/CTA/Grid sub-queues
//       and the relax kernels run as one Hyper-Q concurrent group
//       (classify.hpp, §4.2);
//   HC  improved hub vertices are tracked through the shared-memory hub
//       cache instead of the global improved-flag array, suppressing the
//       redundant random writes the paper's cache exists to avoid (§4.3).
//
// Supersteps are bulk-synchronous: relax over the frontier's out-edges (and
// in-edges, for symmetric programs on directed graphs), an optional O(n)
// apply barrier, then the program selects the next frontier from this
// superstep's improved vertices and is asked for convergence. Direction
// switching does not apply — programs relax every edge of the frontier, so
// there is no bottom-up early-exit equivalent.
//
// With num_devices > 1 the run partitions the vertex space 1-D like
// multi_gpu_bfs.cpp: private per-device queue slices, per-level max-device
// step time, and a compressed improved-flag all-gather on the interconnect.
//
// The full hardening stack applies: cooperative RunGuard checks, fault
// injection (flip targets: the program's state bytes and the frontier),
// digest scrubs, and per-superstep audits that combine engine-level frontier
// checks with the program's own invariant set (VertexProgram::audit).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bfs/program.hpp"
#include "bfs/result.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "graph/csr.hpp"
#include "graph/digest.hpp"
#include "graph/partition.hpp"
#include "gpusim/multi_gpu.hpp"

namespace ent::enterprise {

class ProgramRunner {
 public:
  // `program` runs over `g`; both the graph and every pointer inside
  // `options` (sink, metrics, injector, guard) must outlive the runner.
  // `device_ids` names the physical ids behind the logical device slots
  // (empty = options.device_ordinal for one device, 0..P-1 otherwise).
  ProgramRunner(const graph::Csr& g,
                std::unique_ptr<bfs::VertexProgram> program,
                EnterpriseOptions options, unsigned num_devices = 1,
                sim::InterconnectSpec interconnect = {},
                std::vector<unsigned> device_ids = {});

  // Fully resets device clocks and program state on entry, so a resilient
  // replay after a mid-run fault starts from scratch.
  bfs::BfsResult run(graph::vertex_t source);

  const sim::Device& device() const { return system_.device(0); }
  const bfs::VertexProgram& program() const { return *program_; }
  unsigned num_devices() const { return system_.size(); }

 private:
  const graph::Csr* graph_;
  // The graph's in-edge view, borrowed only by symmetric programs on
  // directed graphs (cc's weakly-connected relaxations flow along in-edges
  // too); null otherwise.
  const graph::Csr* in_edges_ = nullptr;
  std::unique_ptr<bfs::VertexProgram> program_;
  EnterpriseOptions options_;
  std::vector<unsigned> device_ids_;
  sim::MultiGpuSystem system_;
  std::vector<graph::VertexRange> ranges_;
  const graph::HubView* hubs_;  // borrowed from the graph (select_hubs)
  // Load-time segment digests, computed only when scrubbing is armed.
  graph::SegmentDigests digests_;
};

}  // namespace ent::enterprise
