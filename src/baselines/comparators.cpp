#include "baselines/comparators.hpp"

#include <algorithm>

#include "enterprise/cost_constants.hpp"
#include "enterprise/kernels.hpp"
#include "enterprise/status_array.hpp"
#include "gpusim/device.hpp"
#include "util/assert.hpp"

namespace ent::baselines {

using graph::edge_t;
using graph::vertex_t;
using sim::AccessPattern;

ComparatorProfile b40c_like(const sim::DeviceSpec& device) {
  ComparatorProfile p;
  p.name = "B40C";
  p.kernels_per_level = 2;  // contract + expand, minimal overhead
  p.edge_balanced = true;
  p.filter_cycles_per_edge = 0;
  p.cull_rate = 0.35;  // warp + history culling in the contract phase
  p.device = device;
  return p;
}

ComparatorProfile gunrock_like(const sim::DeviceSpec& device) {
  ComparatorProfile p;
  p.name = "Gunrock";
  p.kernels_per_level = 5;  // advance + filter + frontier bookkeeping
  p.edge_balanced = true;
  p.filter_cycles_per_edge = 3;  // per-element filter/validation pass
  p.cull_rate = 0.10;            // idempotent ops cull some re-probes
  p.device = device;
  return p;
}

ComparatorProfile mapgraph_like(const sim::DeviceSpec& device) {
  ComparatorProfile p;
  p.name = "MapGraph";
  p.kernels_per_level = 8;  // dynamic scheduling / partitioning stages
  p.edge_balanced = false;  // fixed warp granularity
  p.filter_cycles_per_edge = 4;
  p.atomic_enqueue = true;
  p.device = device;
  return p;
}

ComparatorProfile graphbig_like(const sim::DeviceSpec& device) {
  ComparatorProfile p;
  p.name = "GraphBIG";
  p.kernels_per_level = 4;
  p.edge_balanced = false;
  p.thread_per_vertex_scan = true;
  p.status_bytes = 16;         // vertex property record
  p.status_coalesced = false;  // property-object layout: uncoalesced
  p.edge_property_bytes = 16;  // edge property objects, also uncoalesced
  p.device = device;
  return p;
}

bfs::BfsResult comparator_bfs(const graph::Csr& g, vertex_t source,
                              const ComparatorProfile& profile) {
  const vertex_t n = g.num_vertices();
  ENT_ASSERT(source < n);
  sim::Device device(profile.device);
  device.memory().set_working_set(g.footprint_bytes() +
                                  static_cast<std::uint64_t>(n) *
                                      profile.status_bytes);
  const sim::MemoryModel& mm = device.memory();

  enterprise::StatusArray status(n);
  std::vector<vertex_t> parents(n, graph::kInvalidVertex);
  status.visit(source, 0);
  parents[source] = source;

  bfs::BfsResult result;
  result.source = source;

  std::vector<vertex_t> frontier{source};
  std::int32_t level = 0;
  while (!frontier.empty()) {
    bfs::LevelTrace trace;
    trace.level = level;
    trace.direction = bfs::Direction::kTopDown;
    trace.frontier_count = static_cast<vertex_t>(frontier.size());
    const double level_start = device.elapsed_ms();

    // Traversal (identical work for every profile).
    std::vector<vertex_t> next;
    edge_t inspected = 0;
    std::uint64_t atomics = 0;
    std::uint64_t warp_cycles_imbalanced = 0;  // one warp per frontier
    for (vertex_t v : frontier) {
      const auto neighbors = g.neighbors(v);
      std::uint64_t work = enterprise::kExpandSetupCycles;
      for (vertex_t w : neighbors) {
        ++inspected;
        work += enterprise::kInspectCycles + profile.filter_cycles_per_edge;
        if (!status.visited(w)) {
          if (profile.atomic_enqueue) {
            ++atomics;
            work += enterprise::kAtomicCycles;
          }
          status.visit(w, level + 1);
          parents[w] = v;
          next.push_back(w);
        }
      }
      const std::uint64_t wpf =
          (work + profile.device.warp_size - 1) / profile.device.warp_size;
      warp_cycles_imbalanced +=
          enterprise::kExpandSetupCycles + std::max<std::uint64_t>(wpf, 1);
    }
    trace.edges_inspected = inspected;

    // Cost: expansion kernel.
    sim::KernelRecord rec;
    rec.name = profile.name + "-expand";
    const std::uint64_t total_work =
        inspected * (enterprise::kInspectCycles +
                     profile.filter_cycles_per_edge) +
        static_cast<std::uint64_t>(next.size()) * enterprise::kVisitCycles +
        atomics * enterprise::kAtomicCycles;
    if (profile.thread_per_vertex_scan) {
      // No queue: every level launches one thread per vertex; warps pay the
      // SIMT max over their 32 vertices' work.
      sim::WarpAccumulator acc(profile.device.warp_size);
      for (vertex_t v = 0; v < n; ++v) {
        const std::uint64_t work =
            status.level(v) == level
                ? enterprise::kScanCycles +
                      g.out_degree(v) * enterprise::kInspectCycles
                : enterprise::kScanCycles;
        acc.add_thread(work);
      }
      acc.finish();
      rec.warp_cycles = acc.warp_cycles();
      rec.thread_cycles = acc.thread_cycles();
      rec.launched_threads = acc.threads();
      rec.active_threads = acc.active_threads();
      // Per-vertex property record touched every level, uncoalesced.
      mm.record_load(rec.mem,
                     profile.status_coalesced ? AccessPattern::kSequential
                                              : AccessPattern::kRandom,
                     n, profile.status_bytes);
    } else if (profile.edge_balanced) {
      // Scan-gather: edges are repartitioned evenly over threads, so warp
      // cycles are total work / warp width with no divergence tail.
      rec.warp_cycles =
          total_work / profile.device.warp_size + frontier.size() / 8 + 1;
      rec.thread_cycles = total_work;
      rec.launched_threads = std::max<std::uint64_t>(
          std::min<std::uint64_t>(inspected, 1u << 20), 1);
      rec.active_threads = rec.launched_threads;
      mm.record_load(rec.mem, AccessPattern::kSequential, frontier.size(),
                     sizeof(vertex_t));
    } else {
      rec.warp_cycles = warp_cycles_imbalanced;
      rec.thread_cycles = total_work;
      rec.launched_threads =
          static_cast<std::uint64_t>(frontier.size()) *
          profile.device.warp_size;
      rec.active_threads = std::min<std::uint64_t>(rec.launched_threads,
                                                   inspected + 1);
      mm.record_load(rec.mem, AccessPattern::kSequential, frontier.size(),
                     sizeof(vertex_t));
    }
    // Common traffic: adjacency + status probes + visit writes.
    if (!profile.thread_per_vertex_scan) {
      mm.record_load(rec.mem, AccessPattern::kStrided, frontier.size(),
                     2 * sizeof(edge_t));
    }
    mm.record_load(rec.mem, AccessPattern::kSequential, inspected,
                   sizeof(vertex_t));
    const auto probes = static_cast<std::uint64_t>(
        static_cast<double>(inspected) * (1.0 - profile.cull_rate));
    mm.record_load(rec.mem, AccessPattern::kRandom, probes,
                   profile.status_bytes);
    mm.record_shared(rec.mem, inspected - probes);
    if (profile.edge_property_bytes > 0) {
      mm.record_load(rec.mem, AccessPattern::kRandom, inspected,
                     profile.edge_property_bytes);
    }
    mm.record_store(rec.mem, AccessPattern::kRandom, next.size(),
                    profile.status_bytes + sizeof(vertex_t));
    if (profile.atomic_enqueue) {
      mm.record_load(rec.mem, AccessPattern::kRandom, atomics, 4);
      mm.record_store(rec.mem, AccessPattern::kRandom, atomics, 4);
    }
    trace.expand_ms =
        enterprise::launch(device, std::move(rec), trace, nullptr, "", 0);

    // Remaining per-level pipeline stages (contract/filter/bookkeeping):
    // cheap kernels that mostly cost their launches plus a pass over the
    // discovered set.
    for (unsigned k = 1; k < profile.kernels_per_level; ++k) {
      sim::KernelRecord aux;
      aux.name = profile.name + "-stage" + std::to_string(k);
      const auto discovered = static_cast<std::uint64_t>(next.size());
      aux.warp_cycles = discovered / profile.device.warp_size + 1;
      aux.thread_cycles = discovered;
      aux.launched_threads = std::max<std::uint64_t>(discovered, 32);
      aux.active_threads = discovered;
      mm.record_load(aux.mem, AccessPattern::kSequential, discovered,
                     sizeof(vertex_t));
      mm.record_store(aux.mem, AccessPattern::kSequential, discovered,
                      sizeof(vertex_t));
      trace.expand_ms +=
          enterprise::launch(device, std::move(aux), trace, nullptr, "", 0);
    }

    trace.total_ms = device.elapsed_ms() - level_start;
    result.level_trace.push_back(std::move(trace));
    frontier.swap(next);
    ++level;
  }

  enterprise::finalize(result, g, std::move(status), std::move(parents));
  result.time_ms = device.elapsed_ms();
  return result;
}

}  // namespace ent::baselines
