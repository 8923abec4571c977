#include "enterprise/enterprise_bfs.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <span>

#include "bfs/checkpoint.hpp"
#include "bfs/guard.hpp"
#include "bfs/telemetry.hpp"
#include "enterprise/cost_constants.hpp"
#include "enterprise/frontier_queue.hpp"
#include "enterprise/hub_cache.hpp"
#include "enterprise/kernels.hpp"
#include "enterprise/status_array.hpp"
#include "gpusim/fault.hpp"
#include "graph/degree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "util/assert.hpp"
#include "util/random.hpp"

namespace ent::enterprise {

using graph::edge_t;
using graph::vertex_t;

EnterpriseBfs::EnterpriseBfs(const graph::Csr& g, EnterpriseOptions options)
    : graph_(&g), options_(std::move(options)) {
  if (g.directed()) {
    in_storage_.emplace(g.reversed());
    in_edges_ = &*in_storage_;
  } else {
    in_edges_ = graph_;
  }
  device_ = std::make_unique<sim::Device>(options_.device);
  device_->set_trace_sink(options_.sink);
  device_->set_device_id(options_.device_ordinal);
  device_->set_fault_injector(options_.fault_injector);

  // Hub definition (§4.3): tau sized so the cache can hold the hub set,
  // with the set kept at roughly the paper's share of the vertex count.
  graph::vertex_t target = options_.hub_target_count;
  if (target == 0) {
    target = std::clamp<graph::vertex_t>(g.num_vertices() / 1024, 16,
                                         options_.hub_cache_capacity);
  }
  const graph::HubStats hubs = graph::select_hub_threshold(g, target);
  hub_tau_ = hubs.threshold;
  total_hubs_ = hubs.num_hubs;
  hub_flags_ = graph::hub_flags(g, hub_tau_);

  // Load-time digests for the scrub pass; host-side hashing, no simulated
  // kernels, and skipped entirely when scrubbing is off.
  if (options_.integrity.scrub_interval != 0) {
    digests_ = graph::SegmentDigests::compute(g);
  }
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
  if (options_.checkpointer != nullptr) {
    if (const bfs::LevelCheckpoint* cp = options_.checkpointer->restore();
        cp != nullptr && cp->source == source) {
      status = StatusArray(cp->levels);
      parents = cp->parents;
      queue = cp->frontier;
      bottom_up = cp->bottom_up;
      switched = cp->switched;
      bu_order = cp->sorted_frontier ? QueueOrder::kSorted
                                     : QueueOrder::kScattered;
      level = cp->next_level;
      last_newly_visited = cp->last_newly_visited;
      prev_queue_size = static_cast<std::size_t>(cp->prev_frontier_size);
      visited_degree_sum = cp->visited_degree_sum;
      result.level_trace = cp->level_trace;
    }
  }

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
  const auto emit_span = [&](int lvl, const char* phase,
                             std::string detail, double start_ms,
                             double duration_ms, std::uint64_t value) {
    if (sink == nullptr) return;
    obs::SpanEvent e;
    e.level = lvl;
    e.phase = phase;
    e.detail = std::move(detail);
    e.start_ms = start_ms;
    e.duration_ms = duration_ms;
    e.value = value;
    sink->span(e);
  };
  std::uint64_t hub_probes_seen = cache.probes();
  std::uint64_t hub_hits_seen = cache.hits();

  // ---- integrity (bfs/integrity.hpp) -------------------------------------
  // Silent-flip injection, digest scrubbing, and per-level audits. Every
  // path below is gated on its knob; with everything off no counter is
  // created and no extra work runs, so reports stay byte-identical.
  sim::FaultInjector* const injector = options_.fault_injector;
  const bool flips_armed =
      injector != nullptr && injector->plan().has_flip_rules();
  const bfs::IntegrityOptions& integ = options_.integrity;
  // Brownout sample (serve/overload.hpp): suspension taps are read once per
  // run, so a mid-storm ladder step takes effect at the next request
  // boundary and never splits one traversal's audit accounting.
  const bool audits_on = integ.audits_active();
  const bool scrubs_on = integ.scrubs_active();
  // audit_counts[l] = vertices first visited at level l according to the
  // traversal's own newly-visited tallies. Rebuilding it from the status
  // array here covers both a fresh start (just the source at level 0) and a
  // checkpoint restore. The audit compares it against a fresh histogram of
  // the status array — a flipped status byte breaks the agreement.
  std::vector<vertex_t> audit_counts;
  if (audits_on) {
    audit_counts.assign(static_cast<std::size_t>(level) + 1, 0);
    for (vertex_t v = 0; v < n; ++v) {
      const std::int32_t s = status.level(v);
      if (s >= 0 && s <= level) ++audit_counts[static_cast<std::size_t>(s)];
    }
  }
  SplitMix64 audit_rng(integ.audit_seed ^ static_cast<std::uint64_t>(source) ^
                       0x9e3779b97f4a7c15ull);

  // Bumps the detection counters *before* throwing, so a detection still
  // lands in the report when a resilience layer recovers the run.
  const auto integrity_detect =
      [&](sim::IntegrityKind kind, const char* counter,
          const std::string& component, std::int32_t lvl,
          std::string detail) {
        if (metrics != nullptr) {
          metrics->counter(counter).increment();
          metrics->counter("integrity.detections").increment();
        }
        if (sink != nullptr) {
          obs::IntegrityEvent e;
          e.kind = kind == sim::IntegrityKind::kDigest ? "scrub" : "audit";
          e.verdict =
              kind == sim::IntegrityKind::kDigest ? "mismatch" : "failed";
          e.component = component;
          e.detail = detail;
          e.level = lvl;
          e.device = options_.device_ordinal;
          e.at_ms = device_->elapsed_ms();
          sink->integrity(e);
        }
        throw sim::IntegrityFault(kind, component, lvl, device_->elapsed_ms(),
                                  std::move(detail));
      };

  // Re-verify the load-time CSR digests (host-side hashing, no simulated
  // kernels — mirrors a DMA'd scrubber that does not occupy SMXs).
  const auto scrub = [&](std::int32_t lvl) {
    if (metrics != nullptr) {
      metrics->counter("integrity.scrub.passes").increment();
    }
    if (const auto mm = digests_.verify(g)) {
      integrity_detect(sim::IntegrityKind::kDigest,
                       "integrity.scrub.mismatches", mm->segment, lvl,
                       "block " + std::to_string(mm->block) + " expected " +
                           std::to_string(mm->expected) + " got " +
                           std::to_string(mm->actual));
    }
  };

  // Level audit: status monotonicity, frontier-count conservation, and
  // status/queue agreement. kFull proves the invariants exhaustively;
  // kSampled spot-checks `sample_size` random entries of each array.
  const auto audit_level = [&](std::int32_t lvl) {
    if (metrics != nullptr) {
      metrics->counter("integrity.audit.checks").increment();
    }
    const auto fail = [&](const char* component, std::string detail) {
      integrity_detect(sim::IntegrityKind::kAudit, "integrity.audit.failures",
                       component, lvl, std::move(detail));
    };
    if (integ.audit == bfs::AuditMode::kFull) {
      // Monotonicity + conservation: every status value is kUnvisited or in
      // [0, lvl], and each level's population matches the tally recorded
      // when that level was expanded.
      std::vector<vertex_t> hist(static_cast<std::size_t>(lvl) + 1, 0);
      vertex_t unvisited = 0;
      for (vertex_t v = 0; v < n; ++v) {
        const std::int32_t s = status.level(v);
        if (s == kUnvisited) {
          ++unvisited;
        } else if (s < 0 || s > lvl) {
          fail("status", "vertex " + std::to_string(v) + " has level " +
                             std::to_string(s) + " outside [-1, " +
                             std::to_string(lvl) + "]");
        } else {
          ++hist[static_cast<std::size_t>(s)];
        }
      }
      for (std::int32_t l = 0; l <= lvl; ++l) {
        const auto idx = static_cast<std::size_t>(l);
        if (hist[idx] != audit_counts[idx]) {
          fail("status", "level " + std::to_string(l) + " holds " +
                             std::to_string(hist[idx]) +
                             " vertices, tally recorded " +
                             std::to_string(audit_counts[idx]));
        }
      }
      // Frontier conservation: a top-down queue is exactly the level-lvl
      // vertex set; a bottom-up queue is exactly the unvisited set.
      const vertex_t expect =
          bottom_up ? unvisited : hist[static_cast<std::size_t>(lvl)];
      if (queue.size() != static_cast<std::size_t>(expect)) {
        fail("frontier", "queue holds " + std::to_string(queue.size()) +
                             " entries, status array implies " +
                             std::to_string(expect));
      }
      // Per-entry agreement. Out-of-range entries are corruption by
      // definition; duplicates catch in-range flips that collide with
      // another frontier vertex (on power-of-two vertex counts a high-bit
      // flip can stay in range, so the modulus alone proves nothing).
      std::vector<std::uint8_t> seen(n, 0);
      for (const vertex_t q : queue) {
        if (q >= n) {
          fail("frontier",
               "queue entry " + std::to_string(q) + " out of range");
        }
        if (seen[q] != 0) {
          fail("frontier", "duplicate queue entry " + std::to_string(q));
        }
        seen[q] = 1;
        if (!bottom_up && status.level(q) != lvl) {
          fail("frontier", "queue entry " + std::to_string(q) +
                               " has status level " +
                               std::to_string(status.level(q)) +
                               ", expected " + std::to_string(lvl));
        }
        if (bottom_up && status.visited(q)) {
          fail("frontier", "bottom-up queue entry " + std::to_string(q) +
                               " is already visited at level " +
                               std::to_string(status.level(q)));
        }
      }
    } else {
      // Sampled: random status entries for monotonicity, random queue
      // entries for range + status agreement.
      for (std::uint32_t i = 0; i < integ.sample_size; ++i) {
        const auto v = static_cast<vertex_t>(audit_rng.next_below(n));
        const std::int32_t s = status.level(v);
        if (s != kUnvisited && (s < 0 || s > lvl)) {
          fail("status", "vertex " + std::to_string(v) + " has level " +
                             std::to_string(s) + " outside [-1, " +
                             std::to_string(lvl) + "]");
        }
      }
      if (!queue.empty()) {
        for (std::uint32_t i = 0; i < integ.sample_size; ++i) {
          const vertex_t q = queue[audit_rng.next_below(queue.size())];
          if (q >= n) {
            fail("frontier",
                 "queue entry " + std::to_string(q) + " out of range");
          }
          if (!bottom_up && status.level(q) != lvl) {
            fail("frontier", "queue entry " + std::to_string(q) +
                                 " has status level " +
                                 std::to_string(status.level(q)) +
                                 ", expected " + std::to_string(lvl));
          }
          if (bottom_up && status.visited(q)) {
            fail("frontier", "bottom-up queue entry " + std::to_string(q) +
                                 " is already visited");
          }
        }
      }
    }
  };
  // ------------------------------------------------------------------------

  while (!queue.empty()) {
    if (options_.fault_injector != nullptr) {
      options_.fault_injector->set_level(level);
    }
    // Cooperative guard check (bfs/guard.hpp): host-side comparisons only,
    // no simulated kernels — a guard that never trips changes nothing.
    if (options_.guard != nullptr) {
      options_.guard->check_level(level, queue.size(), device_->elapsed_ms());
    }
    // Silent-flip window: hand the injector the spans resident this level
    // and let any armed flip rules strike *before* the scrub/audit below —
    // corruption is caught at the same level top it lands on, ahead of the
    // kernels that would consume it.
    if (flips_armed) {
      injector->register_flip_target(sim::FlipTarget::kStatus,
                                     options_.device_ordinal,
                                     status.raw_bytes());
      injector->register_flip_target(
          sim::FlipTarget::kFrontier, options_.device_ordinal,
          std::as_writable_bytes(std::span<vertex_t>(queue)));
      injector->flip_pass(level, device_->elapsed_ms());
    }
    if (scrubs_on &&
        level % static_cast<std::int32_t>(integ.scrub_interval) == 0) {
      scrub(level);
    }
    if (audits_on) audit_level(level);
    bfs::LevelTrace trace;
    trace.level = level;
    const double level_start_ms = device_->elapsed_ms();

    if (!bottom_up) {
      const edge_t m_f = sum_out_degrees(queue);
      trace.alpha = compute_alpha(total_edges - visited_degree_sum, m_f);
      trace.gamma = compute_gamma(queue, hub_flags_, total_hubs_);
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
        HubRefill refill;
        if (options_.hub_cache) {
          refill.cache = &cache;
          refill.hub_flags = &hub_flags_;
          refill.just_visited_level = level;
        }
        const ScanLayout layout = options_.chunked_switch_scan
                                      ? ScanLayout::kChunked
                                      : ScanLayout::kInterleaved;
        bu_order = options_.chunked_switch_scan ? QueueOrder::kSorted
                                                : QueueOrder::kScattered;
        queue = gen.direction_switch(status, refill, qrec, layout);
        const std::string qname = qrec.name;
        const double switch_start_ms = device_->elapsed_ms();
        const double qms = device_->run_kernel(std::move(qrec));
        trace.queue_gen_ms += qms;
        trace.kernels.push_back({qname, qms});
        emit_span(level, "switch", "top-down->bottom-up", switch_start_ms,
                  qms, queue.size());
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
      const std::string qname = qrec.name;
      const double qms = device_->run_kernel(std::move(qrec));
      trace.queue_gen_ms += qms;
      trace.kernels.push_back({qname, qms});
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
        if (metrics != nullptr) {
          metrics
              ->counter(std::string("enterprise.queue.") +
                        to_string(gran))
              .add(sub.size());
        }
        if (sub.empty()) continue;
        sim::KernelRecord rec;
        rec.name = std::string(bottom_up ? "BU-" : "") + to_string(gran);
        const ExpandOutput out =
            bottom_up
                ? expand_bottom_up(expand_graph, status, parents, sub, gran,
                                   next_level, probe_cache, device_->memory(),
                                   rec, order)
                : expand_top_down(expand_graph, status, parents, sub, gran,
                                  next_level, device_->memory(), rec, order);
        newly_visited += out.newly_visited;
        trace.edges_inspected += out.edges_inspected;
        recs.push_back(std::move(rec));
        rec_items.push_back(sub.size());
      }
      if (!recs.empty()) {
        const std::size_t count = recs.size();
        const double group_start_ms = device_->elapsed_ms();
        trace.expand_ms += device_->run_concurrent(std::move(recs));
        // Standalone per-kernel times (for the Fig. 8 timeline) are on the
        // device timeline tail after the concurrent launch.
        const auto timeline = device_->timeline();
        for (std::size_t i = timeline.size() - count; i < timeline.size();
             ++i) {
          trace.kernels.push_back({timeline[i].name, timeline[i].time_ms});
          const std::size_t member = i - (timeline.size() - count);
          emit_span(level, member == 0 ? "classify" : "expand",
                    timeline[i].name, group_start_ms, timeline[i].time_ms,
                    rec_items[member]);
        }
      }
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
                                      rec, order);
      newly_visited += out.newly_visited;
      trace.edges_inspected += out.edges_inspected;
      const std::string rname = rec.name;
      const double expand_start_ms = device_->elapsed_ms();
      const double rms = device_->run_kernel(std::move(rec));
      trace.expand_ms += rms;
      trace.kernels.push_back({rname, rms});
      emit_span(level, "expand", rname, expand_start_ms, rms, queue.size());
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
      emit_span(level, "hub_cache", "hit", device_->elapsed_ms(), 0.0, hits);
      emit_span(level, "hub_cache", "miss", device_->elapsed_ms(), 0.0,
                probes - hits);
      if (metrics != nullptr) {
        metrics->counter("enterprise.hub_cache.probes").add(probes);
        metrics->counter("enterprise.hub_cache.hits").add(hits);
      }
    }

    // Next level's queue.
    if (!bottom_up) {
      sim::KernelRecord qrec;
      qrec.name = "queue_gen(top-down)";
      queue = gen.top_down(status, next_level, qrec);
      visited_degree_sum += sum_out_degrees(queue);
      const std::string qname = qrec.name;
      const double qgen_start_ms = device_->elapsed_ms();
      const double qms = device_->run_kernel(std::move(qrec));
      trace.queue_gen_ms += qms;
      trace.kernels.push_back({qname, qms});
      emit_span(level, "queue_gen", qname, qgen_start_ms, qms, queue.size());
    } else {
      if (newly_visited == 0) {
        // Remaining queued vertices are unreachable from the source.
        trace.total_ms = device_->elapsed_ms() - level_start_ms;
        if (sink != nullptr) sink->level(bfs::to_level_event(trace));
        result.level_trace.push_back(std::move(trace));
        break;
      }
      sim::KernelRecord qrec;
      HubRefill refill;
      if (options_.hub_cache) {
        refill.cache = &cache;
        refill.hub_flags = &hub_flags_;
        refill.just_visited_level = next_level;
      }
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
      const std::string qname = qrec.name;
      const double qgen_start_ms = device_->elapsed_ms();
      const double qms = device_->run_kernel(std::move(qrec));
      trace.queue_gen_ms += qms;
      trace.kernels.push_back({qname, qms});
      emit_span(level, "queue_gen", qname, qgen_start_ms, qms, queue.size());
    }

    last_newly_visited = newly_visited;
    if (audits_on) {
      audit_counts.push_back(newly_visited);
    }
    prev_queue_size = trace.frontier_count;
    trace.total_ms = device_->elapsed_ms() - level_start_ms;
    if (sink != nullptr) sink->level(bfs::to_level_event(trace));
    result.level_trace.push_back(std::move(trace));
    level = next_level;

    if (options_.checkpointer != nullptr) {
      bfs::LevelCheckpoint cp;
      cp.source = source;
      cp.next_level = level;
      cp.levels.assign(status.data().begin(), status.data().end());
      cp.parents = parents;
      cp.frontier = queue;
      cp.bottom_up = bottom_up;
      cp.switched = switched;
      cp.sorted_frontier = bu_order == QueueOrder::kSorted;
      cp.last_newly_visited = last_newly_visited;
      cp.prev_frontier_size = prev_queue_size;
      cp.visited_degree_sum = visited_degree_sum;
      cp.level_trace = result.level_trace;
      options_.checkpointer->save(std::move(cp));
    }
  }

  // Final integrity sweep: corruption that lands on the last level is still
  // caught before the result is reported.
  if (scrubs_on) scrub(level);
  if (audits_on) audit_level(level);

  // Finalize.
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
