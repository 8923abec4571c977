#include "enterprise/enterprise_bfs.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <span>

#include "bfs/checkpoint.hpp"
#include "bfs/telemetry.hpp"
#include "enterprise/cost_constants.hpp"
#include "enterprise/frontier_queue.hpp"
#include "enterprise/hub_cache.hpp"
#include "enterprise/kernels.hpp"
#include "enterprise/level_loop.hpp"
#include "enterprise/status_array.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "util/assert.hpp"
#include "util/bit_array.hpp"

namespace ent::enterprise {

using graph::edge_t;
using graph::vertex_t;

const graph::HubView& select_hubs(const graph::Csr& g,
                                  const EnterpriseOptions& options) {
  // 0 = auto: n/1024 clamped to [16, hub_cache_capacity].
  vertex_t target = options.hub_target_count;
  if (target == 0) {
    target = std::clamp<vertex_t>(g.num_vertices() / 1024, 16,
                                  options.hub_cache_capacity);
  }
  return g.hubs(target);
}

EnterpriseBfs::EnterpriseBfs(const graph::Csr& g, EnterpriseOptions options)
    : graph_(&g),
      in_edges_(&g.in_edges()),
      options_(std::move(options)),
      hubs_(&select_hubs(g, options_)),
      digests_(scrub_digests(g, options_.integrity)) {
  device_ = std::make_unique<sim::Device>(options_.device);
  device_->set_trace_sink(options_.sink);
  device_->set_device_id(options_.device_ordinal);
  device_->set_fault_injector(options_.fault_injector);
}

EnterpriseBfs::~EnterpriseBfs() = default;

const sim::Device& EnterpriseBfs::device() const { return *device_; }

bfs::BfsResult EnterpriseBfs::run(vertex_t source) {
  const graph::Csr& g = *graph_;
  const vertex_t n = g.num_vertices();
  ENT_ASSERT(source < n);

  device_->reset();
  device_->memory().set_working_set(
      g.footprint_bytes() + static_cast<std::uint64_t>(n) * kStatusBytes +
      static_cast<std::uint64_t>(n) * sizeof(vertex_t));

  StatusArray status(n);
  std::vector<vertex_t> parents(n, graph::kInvalidVertex);
  status.visit(source, 0);
  parents[source] = source;

  FrontierQueueGenerator gen(
      device_->memory(),
      scan_launch_width(options_.scan_threads, options_.device));
  HubCache cache(options_.hub_cache_capacity);

  bfs::BfsResult result;
  result.source = source;

  std::vector<vertex_t> queue{source};
  bool bottom_up = false;
  bool switched = false;
  // Order of the bottom-up queue: sorted with the chunked switch scan,
  // scattered under the interleaved-scan ablation.
  QueueOrder bu_order = QueueOrder::kSorted;
  std::int32_t level = 0;  // level of the frontiers being expanded
  vertex_t last_newly_visited = 1;
  std::size_t prev_queue_size = 0;
  edge_t visited_degree_sum = g.out_degree(source);
  const edge_t total_edges = g.num_edges();

  // Resume from a level snapshot when the resilience layer replays this
  // source (bfs/checkpoint.hpp). The snapshot replaces the fresh-start state
  // above; the device clock stays at zero — the caller accounts for the time
  // already spent on the faulted attempt. The hub cache restarts cold, which
  // only costs simulated time (probes fall through to the status array).
  LevelLoop loop(g, digests_, options_, source,
                 {.audit_salt = 0x9e3779b97f4a7c15ull});
  if (const bfs::LevelCheckpoint* cp = loop.resume()) {
    status = StatusArray(cp->levels);
    parents = cp->parents;
    queue = cp->frontier;
    bottom_up = cp->bottom_up;
    switched = cp->switched;
    bu_order =
        cp->sorted_frontier ? QueueOrder::kSorted : QueueOrder::kScattered;
    level = cp->next_level;
    last_newly_visited = cp->last_newly_visited;
    prev_queue_size = static_cast<std::size_t>(cp->prev_frontier_size);
    visited_degree_sum = cp->visited_degree_sum;
    result.level_trace = cp->level_trace;
  }
  const Shard shard{options_.device_ordinal, status.raw_bytes(), &queue,
                    &status};
  // The top-down expansion marks each vertex it discovers here, and the next
  // queue is harvested from the bits instead of rescanning all n statuses.
  // A status flip can plant a level the expansion never wrote, so a run with
  // flip rules keeps the scan. A fault thrown mid-level drops the bits with
  // the run.
  BitArray discovered_bits(loop.flips_armed() ? 0 : n);
  BitArray* const discovered = loop.flips_armed() ? nullptr : &discovered_bits;

  const auto sum_out_degrees = [&](std::span<const vertex_t> q) {
    edge_t sum = 0;
    // The bounds guard never fires on valid data; it keeps an injected
    // frontier flip from indexing past the degree table before the audit
    // pass flags it.
    for (vertex_t v : q) {
      if (v < n) sum += g.out_degree(v);
    }
    return sum;
  };

  obs::TraceSink* const sink = options_.sink;
  obs::MetricsRegistry* const metrics = options_.metrics;
  std::uint64_t hub_probes_seen = cache.probes();
  std::uint64_t hub_hits_seen = cache.hits();

  while (!queue.empty()) {
    loop.level_top(level, queue.size(), device_->elapsed_ms(), {&shard, 1},
                   bottom_up);
    bfs::LevelTrace trace;
    trace.level = level;
    const double level_start_ms = device_->elapsed_ms();

    if (!bottom_up) {
      const edge_t m_f = sum_out_degrees(queue);
      trace.alpha = compute_alpha(total_edges - visited_degree_sum, m_f);
      trace.gamma = compute_gamma(queue, hubs_->flags, hubs_->count);
      if (options_.allow_direction_switch && !switched && level > 0 &&
          should_switch_to_bottom_up(options_.direction, trace.alpha,
                                     trace.gamma,
                                     queue.size() > prev_queue_size)) {
        // One-time switch at the explosion level: regenerate the queue as
        // the unvisited set with the chunked (direction-switching) scan,
        // seeding the hub cache with the hubs just visited.
        bottom_up = true;
        switched = true;
        sim::KernelRecord qrec;
        qrec.name = "queue_gen(switch)";
        const HubRefill refill{options_.hub_cache ? &cache : nullptr,
                               &hubs_->flags, level};
        const ScanLayout layout = options_.chunked_switch_scan
                                      ? ScanLayout::kChunked
                                      : ScanLayout::kInterleaved;
        bu_order = options_.chunked_switch_scan ? QueueOrder::kSorted
                                                : QueueOrder::kScattered;
        queue = gen.direction_switch(status, refill, qrec, layout);
        trace.queue_gen_ms += launch(*device_, std::move(qrec), trace, sink,
                                     "switch", queue.size(),
                                     "top-down->bottom-up");
        if (metrics != nullptr) {
          metrics->gauge("enterprise.gamma_at_switch").set(trace.gamma);
          metrics->gauge("enterprise.switch_level")
              .set(static_cast<double>(level));
        }
        if (queue.empty()) break;
      }
    } else if (options_.switch_back_beta > 0.0 &&
               static_cast<double>(last_newly_visited) <
                   static_cast<double>(n) / options_.switch_back_beta) {
      // Ablated [10]-style switch-back: resume top-down once the visited
      // frontier is small. Enterprise proper never does this (§2.1: "neither
      // necessary nor beneficial").
      bottom_up = false;
      sim::KernelRecord qrec;
      qrec.name = "queue_gen(switch-back)";
      queue = gen.top_down(status, level, qrec);
      trace.queue_gen_ms +=
          launch(*device_, std::move(qrec), trace, nullptr, "", 0);
      if (queue.empty()) break;
    }
    trace.direction =
        bottom_up ? bfs::Direction::kBottomUp : bfs::Direction::kTopDown;
    const std::int32_t next_level = level + 1;

    vertex_t newly_visited = 0;
    const graph::Csr& expand_graph = bottom_up ? *in_edges_ : g;
    HubCache* probe_cache =
        (bottom_up && options_.hub_cache) ? &cache : nullptr;
    const QueueOrder order = bottom_up ? bu_order : QueueOrder::kScattered;

    if (options_.workload_balancing) {
      // Classification happens alongside queue generation (§4.2: each scan
      // thread routes discovered frontiers into one of four bins by
      // out-degree), so its work joins the level's concurrent group rather
      // than paying a separate launch.
      sim::KernelRecord crec;
      crec.name = "classify";
      const ClassifiedQueues classified = classify_frontiers(
          expand_graph, queue, device_->memory(), crec);

      std::vector<sim::KernelRecord> recs;
      recs.push_back(std::move(crec));
      // Parallel to `recs`: frontier count behind each kernel, for the span
      // stream and the per-class occupancy counters.
      std::vector<std::uint64_t> rec_items{queue.size()};
      for (Granularity gran : {Granularity::kThread, Granularity::kWarp,
                               Granularity::kCta, Granularity::kGrid}) {
        const auto& sub = classified.of(gran);
        loop.count_queue(gran, sub.size());
        if (sub.empty()) continue;
        sim::KernelRecord rec;
        rec.name = std::string(bottom_up ? "BU-" : "") + to_string(gran);
        const ExpandOutput out =
            bottom_up
                ? expand_bottom_up(expand_graph, status, parents, sub, gran,
                                   next_level, probe_cache, device_->memory(),
                                   rec, order)
                : expand_top_down(expand_graph, status, parents, sub, gran,
                                  next_level, device_->memory(), rec, order,
                                  discovered);
        newly_visited += out.newly_visited;
        trace.edges_inspected += out.edges_inspected;
        recs.push_back(std::move(rec));
        rec_items.push_back(sub.size());
      }
      trace.expand_ms += launch_group(*device_, std::move(recs), rec_items,
                                      trace, sink, "expand");
    } else {
      // Fixed-granularity configuration: one kernel for every frontier (the
      // paper's TS-only setup uses CTA, mirroring the BL baseline; Thread
      // and Warp are kept for the classification ablation).
      const Granularity gran = options_.fixed_granularity;
      sim::KernelRecord rec;
      rec.name = std::string(bottom_up ? "BU-Expand(" : "Expand(") +
                 to_string(gran) + ")";
      ExpandOutput out =
          bottom_up ? expand_bottom_up(expand_graph, status, parents, queue,
                                       gran, next_level, probe_cache,
                                       device_->memory(), rec, order)
                    : expand_top_down(expand_graph, status, parents, queue,
                                      gran, next_level, device_->memory(),
                                      rec, order, discovered);
      newly_visited += out.newly_visited;
      trace.edges_inspected += out.edges_inspected;
      trace.expand_ms += launch(*device_, std::move(rec), trace, sink,
                                "expand", queue.size());
    }
    trace.frontier_count = static_cast<vertex_t>(queue.size());

    // Hub-cache telemetry: probe/hit deltas from this level's bottom-up
    // inspection (§4.3's HC effect, the Fig. 12 series).
    if (bottom_up && options_.hub_cache &&
        cache.probes() != hub_probes_seen) {
      const std::uint64_t probes = cache.probes() - hub_probes_seen;
      const std::uint64_t hits = cache.hits() - hub_hits_seen;
      hub_probes_seen = cache.probes();
      hub_hits_seen = cache.hits();
      emit_span(sink, level, "hub_cache", "hit", device_->elapsed_ms(), 0.0,
                hits);
      emit_span(sink, level, "hub_cache", "miss", device_->elapsed_ms(), 0.0,
                probes - hits);
      loop.count_hub_cache(probes, hits);
    }

    // Next level's queue.
    if (!bottom_up) {
      sim::KernelRecord qrec;
      qrec.name = "queue_gen(top-down)";
      queue = discovered != nullptr ? gen.harvest(*discovered, qrec)
                                    : gen.top_down(status, next_level, qrec);
      visited_degree_sum += sum_out_degrees(queue);
      trace.queue_gen_ms += launch(*device_, std::move(qrec), trace, sink,
                                   "queue_gen", queue.size());
    } else {
      if (newly_visited == 0) {
        // Remaining queued vertices are unreachable from the source.
        trace.total_ms = device_->elapsed_ms() - level_start_ms;
        if (sink != nullptr) sink->level(bfs::to_level_event(trace));
        result.level_trace.push_back(std::move(trace));
        break;
      }
      sim::KernelRecord qrec;
      const HubRefill refill{options_.hub_cache ? &cache : nullptr,
                             &hubs_->flags, next_level};
      if (options_.bottom_up_filter) {
        qrec.name = "queue_gen(filter)";
        queue = gen.bottom_up_filter(queue, status, refill, qrec);
      } else {
        // Ablation: rescan the whole status array every bottom-up level
        // instead of exploiting the subset property.
        qrec.name = "queue_gen(rescan)";
        queue = gen.direction_switch(status, refill, qrec);
        bu_order = QueueOrder::kSorted;
      }
      trace.queue_gen_ms += launch(*device_, std::move(qrec), trace, sink,
                                   "queue_gen", queue.size());
    }

    last_newly_visited = newly_visited;
    prev_queue_size = trace.frontier_count;
    trace.total_ms = device_->elapsed_ms() - level_start_ms;
    if (sink != nullptr) sink->level(bfs::to_level_event(trace));
    result.level_trace.push_back(std::move(trace));
    level = next_level;
    loop.level_end(level, newly_visited, {&shard, 1}, parents,
                   result.level_trace,
                   {.bottom_up = bottom_up,
                    .switched = switched,
                    .sorted_frontier = bu_order == QueueOrder::kSorted,
                    .last_newly_visited = last_newly_visited,
                    .prev_frontier_size = prev_queue_size,
                    .visited_degree_sum = visited_degree_sum});
  }

  loop.run_end(level, device_->elapsed_ms(), {&shard, 1}, bottom_up);
  finalize(result, g, std::move(status), std::move(parents));
  result.time_ms = device_->elapsed_ms();

  if (metrics != nullptr) {
    metrics->counter("enterprise.levels").add(result.level_trace.size());
    const std::uint64_t probes = cache.probes();
    if (probes != 0) {
      metrics->gauge("enterprise.hub_cache.hit_rate")
          .set(static_cast<double>(cache.hits()) /
               static_cast<double>(probes));
    }
  }
  return result;
}

}  // namespace ent::enterprise
