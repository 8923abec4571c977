#include "baselines/atomic_queue_bfs.hpp"

#include <algorithm>

#include "bfs/telemetry.hpp"
#include "enterprise/cost_constants.hpp"
#include "enterprise/kernels.hpp"
#include "enterprise/status_array.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "util/assert.hpp"

namespace ent::baselines {

using enterprise::StatusArray;
using graph::edge_t;
using graph::vertex_t;

AtomicQueueBfs::AtomicQueueBfs(const graph::Csr& g,
                               AtomicQueueOptions options)
    : graph_(&g), options_(std::move(options)) {
  device_ = std::make_unique<sim::Device>(options_.device);
  device_->set_trace_sink(options_.sink);
}

bfs::BfsResult AtomicQueueBfs::run(vertex_t source) {
  const graph::Csr& g = *graph_;
  const vertex_t n = g.num_vertices();
  ENT_ASSERT(source < n);

  device_->reset();
  device_->memory().set_working_set(g.footprint_bytes() +
                                    static_cast<std::uint64_t>(n) * 5);

  StatusArray status(n);
  std::vector<vertex_t> parents(n, graph::kInvalidVertex);
  status.visit(source, 0);
  parents[source] = source;

  bfs::BfsResult result;
  result.source = source;

  std::vector<vertex_t> queue{source};
  std::int32_t level = 0;
  while (!queue.empty()) {
    bfs::LevelTrace trace;
    trace.level = level;
    trace.direction = bfs::Direction::kTopDown;
    trace.frontier_count = static_cast<vertex_t>(queue.size());
    const double level_start = device_->elapsed_ms();

    // Expansion with in-kernel atomic enqueue: traversal work matches the
    // regular top-down kernel, plus one atomicCAS per *inspected* neighbor
    // (the claim attempt) — the §2.1 Fig. 1(b) discipline. Contention on
    // shared queue-tail/claimed words serializes warps.
    sim::KernelRecord rec;
    rec.name = "atomic-expand";
    std::vector<vertex_t> next;
    edge_t inspected = 0;
    std::uint64_t atomics = 0;
    for (vertex_t v : queue) {
      edge_t d = 0;
      std::uint64_t work = enterprise::kExpandSetupCycles;
      for (vertex_t w : g.neighbors(v)) {
        ++d;
        work += enterprise::kInspectCycles;
        if (!status.visited(w)) {
          // atomicCAS claims w; exactly one claimant wins.
          ++atomics;
          work += enterprise::kAtomicCycles;
          status.visit(w, level + 1);
          parents[w] = v;
          next.push_back(w);
        }
      }
      inspected += d;
      enterprise::charge_group_work(rec, device_->spec(), kGranularity, work);
    }

    const auto& mm = device_->memory();
    mm.record_load(rec.mem, sim::AccessPattern::kSequential, queue.size(),
                   sizeof(vertex_t));
    mm.record_load(rec.mem, sim::AccessPattern::kStrided, queue.size(),
                   2 * sizeof(edge_t));
    mm.record_load(rec.mem, sim::AccessPattern::kStrided, inspected,
                   sizeof(vertex_t));
    mm.record_load(rec.mem, sim::AccessPattern::kRandom, inspected,
                   enterprise::kStatusBytes);
    // Each atomic is a serialized random read-modify-write plus the queue
    // append.
    mm.record_load(rec.mem, sim::AccessPattern::kRandom, atomics, 4);
    mm.record_store(rec.mem, sim::AccessPattern::kRandom, atomics,
                    4 + sizeof(vertex_t));

    trace.edges_inspected = inspected;
    trace.expand_ms = enterprise::launch(*device_, std::move(rec), trace,
                                         options_.sink, "expand", atomics);
    trace.total_ms = device_->elapsed_ms() - level_start;
    if (options_.sink != nullptr) {
      options_.sink->level(bfs::to_level_event(trace));
    }
    if (options_.metrics != nullptr) {
      options_.metrics->counter("atomic.cas_operations").add(atomics);
    }
    result.level_trace.push_back(std::move(trace));

    queue.swap(next);
    ++level;
  }

  enterprise::finalize(result, g, std::move(status), std::move(parents));
  result.time_ms = device_->elapsed_ms();
  return result;
}

}  // namespace ent::baselines
