#include "enterprise/streamed_bfs.hpp"

#include <algorithm>

#include "enterprise/cost_constants.hpp"
#include "enterprise/frontier_queue.hpp"
#include "enterprise/hub_cache.hpp"
#include "enterprise/kernels.hpp"
#include "enterprise/status_array.hpp"
#include "graph/degree.hpp"
#include "util/assert.hpp"

namespace ent::enterprise {

using graph::edge_t;
using graph::vertex_t;

StreamedBfs::StreamedBfs(const graph::Csr& g, StreamedOptions options)
    : graph_(&g),
      options_(std::move(options)),
      device_(std::make_unique<sim::Device>(options_.core.device)),
      link_(options_.link),
      ranges_(graph::partition_equal_edges(g, options_.num_partitions)) {
  ENT_ASSERT_MSG(!g.directed(),
                 "streamed BFS requires an undirected graph");
  ENT_ASSERT(options_.resident_partitions >= 1);
  // The host<->device link is a party-of-one interconnect; wiring the
  // injector means comm-timeout / device-pinned comm-drop rules reach the
  // partition transfers instead of silently bypassing them.
  if (options_.core.fault_injector != nullptr) {
    link_.set_fault_injector(options_.core.fault_injector, {0});
  }

  partition_bytes_.reserve(ranges_.size());
  for (const graph::VertexRange& r : ranges_) {
    const edge_t edges = g.row_offsets()[r.end] - g.row_offsets()[r.begin];
    partition_bytes_.push_back(edges * sizeof(vertex_t) +
                               static_cast<std::uint64_t>(r.size()) *
                                   sizeof(edge_t));
  }

  vertex_t target = options_.core.hub_target_count;
  if (target == 0) {
    target = std::clamp<vertex_t>(g.num_vertices() / 1024, 16,
                                  options_.core.hub_cache_capacity);
  }
  const graph::HubStats hubs = graph::select_hub_threshold(g, target);
  hub_tau_ = hubs.threshold;
  total_hubs_ = hubs.num_hubs;
  hub_flags_ = graph::hub_flags(g, hub_tau_);
}

unsigned StreamedBfs::partition_of(vertex_t v) const {
  // Ranges are contiguous and sorted: binary search the start offsets.
  unsigned lo = 0;
  unsigned hi = static_cast<unsigned>(ranges_.size()) - 1;
  while (lo < hi) {
    const unsigned mid = (lo + hi) / 2;
    if (v < ranges_[mid].end) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

double StreamedBfs::touch_partition(unsigned p) {
  const auto it = std::find(lru_.begin(), lru_.end(), p);
  if (it != lru_.end()) {
    lru_.erase(it);
    lru_.push_front(p);
    ++stats_.partition_hits;
    return 0.0;
  }
  if (lru_.size() >= options_.resident_partitions) lru_.pop_back();
  lru_.push_front(p);
  ++stats_.partition_faults;
  stats_.bytes_transferred += partition_bytes_[p];
  const double ms = link_.transfer_ms(
      partition_bytes_[p], device_->elapsed_ms() + stats_.transfer_ms);
  stats_.transfer_ms += ms;
  return ms;
}

bfs::BfsResult StreamedBfs::run(vertex_t source) {
  const graph::Csr& g = *graph_;
  const vertex_t n = g.num_vertices();
  ENT_ASSERT(source < n);

  device_->reset();
  lru_.clear();
  stats_ = {};
  // The device never holds the whole graph: only the resident partitions
  // plus status/queue state count toward the random working set.
  std::uint64_t resident_budget = 0;
  for (std::uint64_t b : partition_bytes_) {
    resident_budget = std::max(resident_budget, b);
  }
  device_->memory().set_working_set(
      resident_budget * options_.resident_partitions +
      static_cast<std::uint64_t>(n) * (kStatusBytes + sizeof(vertex_t)));

  StatusArray status(n);
  std::vector<vertex_t> parents(n, graph::kInvalidVertex);
  status.visit(source, 0);
  parents[source] = source;

  FrontierQueueGenerator gen(
      device_->memory(),
      scan_launch_width(options_.core.scan_threads, options_.core.device));
  HubCache cache(options_.core.hub_cache_capacity);

  bfs::BfsResult result;
  result.source = source;

  std::vector<vertex_t> queue{source};
  std::vector<std::vector<vertex_t>> per_partition(ranges_.size());
  bool bottom_up = false;
  bool switched = false;
  std::int32_t level = 0;
  edge_t visited_degree_sum = g.out_degree(source);
  const edge_t total_edges = g.num_edges();

  while (!queue.empty()) {
    bfs::LevelTrace trace;
    trace.level = level;
    const double level_start = device_->elapsed_ms() + stats_.transfer_ms;

    if (!bottom_up) {
      edge_t m_f = 0;
      for (vertex_t v : queue) m_f += g.out_degree(v);
      trace.alpha = compute_alpha(total_edges - visited_degree_sum, m_f);
      trace.gamma = compute_gamma(queue, hub_flags_, total_hubs_);
      if (options_.core.allow_direction_switch && !switched && level > 0 &&
          should_switch_to_bottom_up(options_.core.direction, trace.alpha,
                                     trace.gamma)) {
        bottom_up = true;
        switched = true;
        sim::KernelRecord qrec;
        qrec.name = "queue_gen(switch)";
        HubRefill refill;
        if (options_.core.hub_cache) {
          refill.cache = &cache;
          refill.hub_flags = &hub_flags_;
          refill.just_visited_level = level;
        }
        queue = gen.direction_switch(status, refill, qrec);
        trace.queue_gen_ms += device_->run_kernel(std::move(qrec));
        if (queue.empty()) break;
      }
    }
    trace.direction =
        bottom_up ? bfs::Direction::kBottomUp : bfs::Direction::kTopDown;
    const std::int32_t next_level = level + 1;

    // Group the frontier by owning partition; only those partitions fault
    // in. Sorted queues group contiguously, so this mirrors a real
    // partition-at-a-time streaming schedule.
    for (auto& bucket : per_partition) bucket.clear();
    for (vertex_t v : queue) per_partition[partition_of(v)].push_back(v);

    vertex_t newly_visited = 0;
    HubCache* probe =
        (bottom_up && options_.core.hub_cache) ? &cache : nullptr;
    for (unsigned p = 0; p < ranges_.size(); ++p) {
      if (per_partition[p].empty()) continue;
      trace.comm_ms += touch_partition(p);

      sim::KernelRecord rec;
      rec.name = std::string(bottom_up ? "BU-" : "") + "partition" +
                 std::to_string(p);
      const ExpandOutput out =
          bottom_up
              ? expand_bottom_up(g, status, parents, per_partition[p],
                                 Granularity::kThread, next_level, probe,
                                 device_->memory(), rec)
              : expand_top_down(g, status, parents, per_partition[p],
                                Granularity::kCta, next_level,
                                device_->memory(), rec);
      newly_visited += out.newly_visited;
      trace.edges_inspected += out.edges_inspected;
      trace.expand_ms += device_->run_kernel(std::move(rec));
    }
    trace.frontier_count = static_cast<vertex_t>(queue.size());

    if (!bottom_up) {
      sim::KernelRecord qrec;
      qrec.name = "queue_gen(top-down)";
      queue = gen.top_down(status, next_level, qrec);
      for (vertex_t v : queue) visited_degree_sum += g.out_degree(v);
      trace.queue_gen_ms += device_->run_kernel(std::move(qrec));
    } else {
      if (newly_visited == 0) {
        trace.total_ms =
            device_->elapsed_ms() + stats_.transfer_ms - level_start;
        result.level_trace.push_back(std::move(trace));
        break;
      }
      sim::KernelRecord qrec;
      qrec.name = "queue_gen(filter)";
      HubRefill refill;
      if (options_.core.hub_cache) {
        refill.cache = &cache;
        refill.hub_flags = &hub_flags_;
        refill.just_visited_level = next_level;
      }
      queue = gen.bottom_up_filter(queue, status, refill, qrec);
      trace.queue_gen_ms += device_->run_kernel(std::move(qrec));
    }

    trace.total_ms =
        device_->elapsed_ms() + stats_.transfer_ms - level_start;
    result.level_trace.push_back(std::move(trace));
    level = next_level;
  }

  result.depth = 0;
  result.vertices_visited = 0;
  for (vertex_t v = 0; v < n; ++v) {
    if (status.visited(v)) {
      ++result.vertices_visited;
      result.depth = std::max(result.depth, status.level(v));
    }
  }
  result.levels = std::move(status).take();
  result.parents = std::move(parents);
  result.edges_traversed = bfs::count_traversed_edges(g, result.levels);
  result.time_ms = device_->elapsed_ms() + stats_.transfer_ms;
  return result;
}

}  // namespace ent::enterprise
