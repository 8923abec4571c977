#include "enterprise/multi_gpu_bfs.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

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

MultiGpuEnterpriseBfs::MultiGpuEnterpriseBfs(const graph::Csr& g,
                                             MultiGpuOptions options)
    : graph_(&g),
      options_(std::move(options)),
      system_(options_.per_device.device, options_.num_gpus,
              options_.interconnect),
      ranges_(options_.partition == PartitionPolicy::kEqualVertices
                  ? graph::partition_equal_vertices(g.num_vertices(),
                                                    options_.num_gpus)
                  : graph::partition_equal_edges(g, options_.num_gpus)),
      hubs_(&select_hubs(g, options_.per_device)),
      digests_(scrub_digests(g, options_.per_device.integrity)),
      detector_(options_.straggler) {
  ENT_ASSERT_MSG(!g.directed(),
                 "multi-GPU Enterprise requires an undirected graph");
  // Normalize the physical-id map so fault rules and blacklists always talk
  // about stable ids, whatever subset of GPUs this system was built on.
  if (options_.device_ids.empty()) {
    options_.device_ids.resize(options_.num_gpus);
    for (unsigned p = 0; p < options_.num_gpus; ++p) {
      options_.device_ids[p] = p;
    }
  }
  ENT_ASSERT_MSG(options_.device_ids.size() == options_.num_gpus,
                 "device_ids must name one physical id per GPU");
  // Kernel events from every member device flow to the shared sink; every
  // device and the interconnect share one fault injector.
  for (unsigned p = 0; p < system_.size(); ++p) {
    system_.device(p).set_trace_sink(options_.per_device.sink);
    system_.device(p).set_device_id(options_.device_ids[p]);
    system_.device(p).set_fault_injector(options_.per_device.fault_injector);
  }
  system_.interconnect().set_fault_injector(options_.per_device.fault_injector,
                                            options_.device_ids);
  system_.interconnect().set_sink(options_.per_device.sink);
  system_.interconnect().set_metrics(options_.per_device.metrics);
}

bfs::BfsResult MultiGpuEnterpriseBfs::run(vertex_t source) {
  const graph::Csr& g = *graph_;
  const vertex_t n = g.num_vertices();
  const unsigned P = system_.size();
  ENT_ASSERT(source < n);

  system_.reset();
  stats_ = {};
  for (unsigned p = 0; p < P; ++p) {
    system_.device(p).memory().set_working_set(
        g.footprint_bytes() / P + static_cast<std::uint64_t>(n));
  }

  // Private per-device status arrays (§4.4): every device tracks the whole
  // vertex space but only learns about remote visits through the per-level
  // compressed all-gather below. Parents are a host-side result artifact
  // collected from whichever device discovered the vertex.
  std::vector<StatusArray> statuses(P, StatusArray(n));
  std::vector<vertex_t> parents(n, graph::kInvalidVertex);
  for (unsigned p = 0; p < P; ++p) statuses[p].visit(source, 0);
  parents[source] = source;

  const EnterpriseOptions& eopt = options_.per_device;
  std::vector<HubCache> caches(P, HubCache(eopt.hub_cache_capacity));

  const auto owner_of = [&](vertex_t v) {
    for (unsigned p = 0; p < P; ++p) {
      if (ranges_[p].contains(v)) return p;
    }
    return P - 1;
  };
  // Private per-device queues (the union is the global frontier).
  std::vector<std::vector<vertex_t>> queues(P);
  queues[owner_of(source)].push_back(source);

  bfs::BfsResult result;
  result.source = source;

  bool bottom_up = false;
  bool switched = false;
  std::int32_t level = 0;
  edge_t visited_degree_sum = g.out_degree(source);
  const edge_t total_edges = g.num_edges();
  // Bits of the compressed just-visited array each device broadcasts.
  const std::uint64_t bits_each = (n + P - 1) / P;
  const std::uint64_t bytes_each = (bits_each + 7) / 8;
  // Each device scans only its slice.
  const unsigned scan_threads =
      scan_launch_width(eopt.scan_threads, eopt.device) / P + 1;

  const auto global_queue_size = [&] {
    std::size_t total = 0;
    for (const auto& q : queues) total += q.size();
    return total;
  };

  // One step of the fail-slow ladder, streamed to the sink (callers check it
  // is attached, so no detail string is built otherwise).
  const auto straggler_event = [&](const char* action, unsigned device,
                                   double ewma_ms, double median_ms,
                                   double slowdown, std::string detail) {
    obs::StragglerEvent e;
    e.action = action;
    e.device = device;
    e.level = level;
    e.ewma_ms = ewma_ms;
    e.median_ms = median_ms;
    e.slowdown = slowdown;
    e.at_ms = system_.elapsed_ms();
    e.detail = std::move(detail);
    eopt.sink->straggler(e);
  };

  // Rung 2 of the fail-slow ladder: shrink the straggler's vertex range
  // proportionally to its measured slowdown (a 4x-slow device keeps 1/4 of
  // an equal share), rebuild contiguous ranges, and re-bucket the private
  // queues by the new ownership. The detector restarts afterwards — every
  // shard's per-level baseline just changed.
  const auto rebalance_partition = [&](unsigned idx,
                                       const sim::StragglerVerdict& v) {
    std::vector<double> weights(P, 1.0);
    weights[idx] = 1.0 / std::max(1.0, v.slowdown);
    double total_w = 0.0;
    for (double w : weights) total_w += w;
    std::vector<graph::VertexRange> fresh(P);
    vertex_t pos = 0;
    double acc = 0.0;
    for (unsigned p = 0; p < P; ++p) {
      acc += weights[p];
      vertex_t end = p + 1 == P
                         ? n
                         : static_cast<vertex_t>(
                               static_cast<double>(n) * acc / total_w);
      end = std::clamp(end, pos, n);
      fresh[p] = {pos, end};
      pos = end;
    }
    std::uint64_t overlap = 0;
    for (unsigned p = 0; p < P; ++p) {
      const vertex_t b = std::max(fresh[p].begin, ranges_[p].begin);
      const vertex_t e = std::min(fresh[p].end, ranges_[p].end);
      if (e > b) overlap += e - b;
    }
    const std::uint64_t moved = static_cast<std::uint64_t>(n) - overlap;
    ranges_ = std::move(fresh);
    std::vector<std::vector<vertex_t>> rebucketed(P);
    for (const auto& q : queues) {
      for (vertex_t u : q) rebucketed[owner_of(u)].push_back(u);
    }
    // Move into the existing queue objects: the level loop's shards point at
    // them.
    for (unsigned p = 0; p < P; ++p) queues[p] = std::move(rebucketed[p]);
    detector_.reset();
    if (eopt.metrics != nullptr) {
      eopt.metrics->counter("straggler.rebalances").increment();
      eopt.metrics->counter("straggler.vertices_moved").add(moved);
    }
    if (eopt.sink != nullptr) {
      const vertex_t kept = ranges_[idx].end - ranges_[idx].begin;
      straggler_event("rebalance", options_.device_ids[idx], v.ewma_ms,
                      v.median_ms, v.slowdown,
                      "shard shrunk to " + std::to_string(kept) +
                          " vertices, " + std::to_string(moved) + " moved");
    }
  };

  // Resume from a level snapshot (bfs/checkpoint.hpp). The checkpointed
  // global frontier is redistributed by current vertex ownership, so the
  // snapshot stays valid after a blacklist-and-repartition rebuilt this
  // system on fewer devices.
  LevelLoop loop(g, digests_, eopt, source,
                 {.audit_salt = 0x6d756c7469677075ull, .partitioned = true});
  if (const bfs::LevelCheckpoint* cp = loop.resume()) {
    for (unsigned p = 0; p < P; ++p) statuses[p] = StatusArray(cp->levels);
    parents = cp->parents;
    for (auto& q : queues) q.clear();
    for (vertex_t v : cp->frontier) queues[owner_of(v)].push_back(v);
    bottom_up = cp->bottom_up;
    switched = cp->switched;
    level = cp->next_level;
    visited_degree_sum = cp->visited_degree_sum;
    result.level_trace = cp->level_trace;
  }
  // The private status arrays are identical at every level top (the
  // all-gather ORs each level's discoveries into all of them), so the audit
  // checks each against the same tally; the private queues partition the
  // global frontier.
  std::vector<Shard> shards;
  for (unsigned p = 0; p < P; ++p) {
    shards.push_back({options_.device_ids[p], statuses[p].raw_bytes(),
                      &queues[p], &statuses[p]});
  }
  // Exchange counters, resolved at the run's first exchange so the level
  // loop does no name lookups.
  obs::Counter* exchange_bytes = nullptr;
  obs::Counter* exchange_bytes_uncompressed = nullptr;
  std::vector<obs::Counter*> gpu_exchange_bytes;

  while (global_queue_size() > 0) {
    // Guard, flips and checks see the global frontier and the system clock.
    loop.level_top(level, global_queue_size(), system_.elapsed_ms(), shards,
                   bottom_up);
    bfs::LevelTrace trace;
    trace.level = level;
    const std::int32_t next_level = level + 1;

    // Direction decision on the global frontier view.
    if (!bottom_up && eopt.allow_direction_switch && !switched && level > 0) {
      edge_t m_f = 0;
      vertex_t hub_in_queue = 0;
      for (const auto& q : queues) {
        // Bounds guard: never fires on valid data, keeps an injected
        // frontier flip from indexing past the degree/hub tables before the
        // audit pass flags it.
        for (vertex_t v : q) {
          if (v >= n) continue;
          m_f += g.out_degree(v);
          if (hubs_->flags[v] != 0) ++hub_in_queue;
        }
      }
      trace.alpha = compute_alpha(total_edges - visited_degree_sum, m_f);
      trace.gamma = hubs_->count == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(hub_in_queue) /
                              static_cast<double>(hubs_->count);
      if (should_switch_to_bottom_up(eopt.direction, trace.alpha,
                                     trace.gamma)) {
        bottom_up = true;
        switched = true;
        double max_scan = 0.0;
        for (unsigned p = 0; p < P; ++p) {
          FrontierQueueGenerator gen(system_.device(p).memory(),
                                     scan_threads);
          sim::KernelRecord rec;
          rec.name = "queue_gen(switch)";
          queues[p] = gen.direction_switch(
              statuses[p],
              {eopt.hub_cache ? &caches[p] : nullptr, &hubs_->flags, level},
              ranges_[p].begin, ranges_[p].end, rec);
          max_scan = std::max(max_scan, system_.device(p).run_kernel(rec));
        }
        trace.queue_gen_ms += max_scan;
        system_.advance_step(max_scan, 0.0);
        if (global_queue_size() == 0) break;
      }
    }
    trace.direction =
        bottom_up ? bfs::Direction::kBottomUp : bfs::Direction::kTopDown;

    // Expand one frontier shard on one device: the same computation the
    // paper's per-GPU pass does, parameterized so the speculation rung can
    // replay the straggler's shard on a healthy device against copies of
    // the straggler's private state.
    struct ShardOutcome {
      double ms = 0.0;
      vertex_t newly_visited = 0;
      edge_t edges_inspected = 0;
    };
    const auto expand_shard = [&](const std::vector<vertex_t>& frontier,
                                  sim::Device& dev, StatusArray& status,
                                  std::vector<vertex_t>& par,
                                  HubCache* probe) -> ShardOutcome {
      ShardOutcome out;
      if (eopt.workload_balancing) {
        sim::KernelRecord crec;
        crec.name = "classify";
        const ClassifiedQueues classified =
            classify_frontiers(g, frontier, dev.memory(), crec);
        std::vector<sim::KernelRecord> recs;
        recs.push_back(std::move(crec));
        for (Granularity gran : {Granularity::kThread, Granularity::kWarp,
                                 Granularity::kCta, Granularity::kGrid}) {
          const auto& sub = classified.of(gran);
          if (sub.empty()) continue;
          sim::KernelRecord rec;
          rec.name = to_string(gran);
          const ExpandOutput o =
              bottom_up ? expand_bottom_up(g, status, par, sub, gran,
                                           next_level, probe, dev.memory(),
                                           rec)
                        : expand_top_down(g, status, par, sub, gran,
                                          next_level, dev.memory(), rec);
          out.newly_visited += o.newly_visited;
          out.edges_inspected += o.edges_inspected;
          recs.push_back(std::move(rec));
        }
        out.ms = dev.run_concurrent(std::move(recs));
      } else {
        sim::KernelRecord rec;
        rec.name = "Expand(CTA)";
        const ExpandOutput o =
            bottom_up ? expand_bottom_up(g, status, par, frontier,
                                         Granularity::kCta, next_level, probe,
                                         dev.memory(), rec)
                      : expand_top_down(g, status, par, frontier,
                                        Granularity::kCta, next_level,
                                        dev.memory(), rec);
        out.newly_visited += o.newly_visited;
        out.edges_inspected += o.edges_inspected;
        out.ms = dev.run_kernel(rec);
      }
      return out;
    };

    // Speculation rung: the detector flagged spec_p last level, so snapshot
    // its private pre-state now — the shadow run below must start from the
    // exact bytes the straggler starts from.
    const int spec_p = std::exchange(speculate_next_, -1);
    const bool speculating = spec_p >= 0 &&
                             static_cast<unsigned>(spec_p) < P &&
                             !queues[static_cast<unsigned>(spec_p)].empty();
    std::optional<StatusArray> spec_status;
    std::vector<vertex_t> spec_parents;
    std::optional<HubCache> spec_cache;
    if (speculating) {
      spec_status = statuses[static_cast<unsigned>(spec_p)];
      spec_parents = parents;
      spec_cache = caches[static_cast<unsigned>(spec_p)];
    }

    // (1) Private expansion.
    vertex_t newly_visited = 0;
    std::vector<double> expand_ms(P, 0.0);
    for (unsigned p = 0; p < P; ++p) {
      if (queues[p].empty()) continue;
      HubCache* probe = (bottom_up && eopt.hub_cache) ? &caches[p] : nullptr;
      const ShardOutcome out = expand_shard(queues[p], system_.device(p),
                                            statuses[p], parents, probe);
      newly_visited += out.newly_visited;
      trace.edges_inspected += out.edges_inspected;
      expand_ms[p] = out.ms;
    }
    double max_expand = std::ranges::max(expand_ms);

    // Speculative re-execution of the straggler's shard on the least-loaded
    // healthy device: first finisher wins, the loser's result is discarded.
    // Both runs start from identical private state and the expansion is
    // deterministic, so the results must be byte-identical — asserted.
    if (speculating) {
      const auto sp = static_cast<unsigned>(spec_p);
      unsigned helper = P;
      for (unsigned p = 0; p < P; ++p) {
        if (p == sp) continue;
        if (helper == P || expand_ms[p] < expand_ms[helper]) helper = p;
      }
      if (helper < P) {
        HubCache* probe =
            (bottom_up && eopt.hub_cache) ? &*spec_cache : nullptr;
        const ShardOutcome shadow =
            expand_shard(queues[sp], system_.device(helper), *spec_status,
                         spec_parents, probe);
        ENT_ASSERT_MSG(
            std::ranges::equal(spec_status->data(), statuses[sp].data()),
            "speculative re-execution diverged from the straggler's shard");
        // The helper runs the shadow after its own shard; the straggler's
        // result lands at whichever chain finishes first.
        const double straggler_ms = expand_ms[sp];
        const double helper_chain = expand_ms[helper] + shadow.ms;
        const bool won = helper_chain < straggler_ms;
        const double wasted = won ? straggler_ms : shadow.ms;
        if (eopt.metrics != nullptr) {
          eopt.metrics->counter("straggler.speculations").increment();
          eopt.metrics
              ->counter(won ? "straggler.speculations_won"
                            : "straggler.speculations_lost")
              .increment();
          obs::Gauge& wasted_gauge =
              eopt.metrics->gauge("straggler.wasted_spec_ms");
          wasted_gauge.set(wasted_gauge.value() + wasted);
        }
        if (eopt.sink != nullptr) {
          straggler_event(
              won ? "speculate-won" : "speculate-lost",
              options_.device_ids[sp], straggler_ms, helper_chain,
              helper_chain > 0.0 ? straggler_ms / helper_chain : 0.0,
              "helper gpu" + std::to_string(options_.device_ids[helper]) +
                  " chain " + std::to_string(helper_chain) + " ms vs " +
                  std::to_string(straggler_ms) + " ms");
        }
        max_expand = std::min(straggler_ms, helper_chain);
        for (unsigned p = 0; p < P; ++p) {
          if (p != sp) max_expand = std::max(max_expand, expand_ms[p]);
        }
      }
    }
    trace.frontier_count = static_cast<vertex_t>(global_queue_size());
    trace.expand_ms = max_expand;

    if (bottom_up && newly_visited == 0) {
      system_.advance_step(max_expand, 0.0);
      trace.total_ms = max_expand;
      if (eopt.sink != nullptr) eopt.sink->level(bfs::to_level_event(trace));
      result.level_trace.push_back(std::move(trace));
      break;
    }

    // (2) Compressed status all-gather: each device __ballot()-compresses
    // its just-visited flags into one bit per vertex; the merged (OR) view
    // is applied back to every private status array.
    BitArray merged(n);
    for (unsigned p = 0; p < P; ++p) {
      BitArray just_visited(n);
      for (vertex_t v = 0; v < n; ++v) {
        if (statuses[p].level(v) == next_level) just_visited.set(v);
      }
      merged.merge_or(just_visited);
    }
    for (unsigned p = 0; p < P; ++p) {
      const auto words = merged.words();
      for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t bits = words[w];
        while (bits != 0) {
          const auto v = static_cast<vertex_t>(
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
          bits &= bits - 1;
          if (v < n && !statuses[p].visited(v)) {
            statuses[p].visit(v, next_level);
          }
        }
      }
    }
    newly_visited = static_cast<vertex_t>(merged.popcount());
    // The collective's pattern follows the interconnect topology: the
    // butterfly runs the log-step combining exchange, everything else the
    // all-gather chain. On the default ring both the cost and the booked
    // volume reduce to the historical closed forms exactly.
    const sim::Interconnect& ic = system_.interconnect();
    const bool butterfly =
        ic.spec().topology.kind == sim::TopologyKind::kButterfly;
    const double comm_ms =
        butterfly ? ic.exchange_ms(bytes_each, P, system_.elapsed_ms())
                  : ic.allgather_ms(bytes_each, P, system_.elapsed_ms());
    trace.comm_ms = comm_ms;
    stats_.comm_ms += comm_ms;
    const std::uint64_t level_exchange_bytes =
        ic.collective_volume(bytes_each, P);
    stats_.bytes_communicated += level_exchange_bytes;
    stats_.bytes_uncompressed += level_exchange_bytes * 8;  // byte statuses
    emit_span(eopt.sink, level, "comm", "status-allgather",
              system_.elapsed_ms(), comm_ms, level_exchange_bytes);
    if (eopt.metrics != nullptr) {
      if (exchange_bytes == nullptr) {
        exchange_bytes = &eopt.metrics->counter("multi_gpu.exchange_bytes");
        exchange_bytes_uncompressed =
            &eopt.metrics->counter("multi_gpu.exchange_bytes_uncompressed");
        for (unsigned p = 0; p < P; ++p) {
          gpu_exchange_bytes.push_back(&eopt.metrics->counter(
              "multi_gpu.gpu" + std::to_string(p) + ".exchange_bytes"));
        }
      }
      exchange_bytes->add(level_exchange_bytes);
      exchange_bytes_uncompressed->add(level_exchange_bytes * 8);
      // Per-GPU share of the collective (each device's slice of the total
      // volume; on the ring that is the historical broadcast-to-P-1-peers
      // figure).
      for (obs::Counter* gpu : gpu_exchange_bytes) {
        gpu->add(level_exchange_bytes / P);
      }
    }

    // (3) Private queue generation over each device's slice.
    double max_qgen = 0.0;
    std::vector<double> qgen_ms(P, 0.0);
    for (unsigned p = 0; p < P; ++p) {
      sim::Device& dev = system_.device(p);
      FrontierQueueGenerator gen(dev.memory(), scan_threads);
      sim::KernelRecord rec;
      if (!bottom_up) {
        rec.name = "queue_gen(top-down)";
        queues[p] = gen.top_down(statuses[p], next_level, ranges_[p].begin,
                                 ranges_[p].end, rec);
        for (vertex_t v : queues[p]) {
          if (v < n) visited_degree_sum += g.out_degree(v);
        }
      } else {
        rec.name = "queue_gen(filter)";
        queues[p] = gen.bottom_up_filter(
            queues[p], statuses[p],
            {eopt.hub_cache ? &caches[p] : nullptr, &hubs_->flags,
             next_level},
            rec);
      }
      qgen_ms[p] = dev.run_kernel(rec);
      max_qgen = std::max(max_qgen, qgen_ms[p]);
    }
    trace.queue_gen_ms += max_qgen;

    system_.advance_step(max_expand + max_qgen, comm_ms);
    trace.total_ms = max_expand + max_qgen + comm_ms;
    if (eopt.sink != nullptr) eopt.sink->level(bfs::to_level_event(trace));
    result.level_trace.push_back(std::move(trace));

    // Fail-slow detection at the level boundary: feed every device's level
    // time to the detector, then escalate the mitigation ladder for the
    // worst confirmed straggler — speculation, then proportional
    // repartition, then demotion through the resilience layer. With both
    // rungs disabled the detector only observes and reports (the
    // no-mitigation baseline the bench and CI smoke measure against).
    if (options_.straggler.enabled) {
      for (unsigned p = 0; p < P; ++p) {
        detector_.observe(options_.device_ids[p], expand_ms[p] + qgen_ms[p]);
      }
      if (const auto verdict = detector_.judge()) {
        const unsigned phys = verdict->device;
        int idx = -1;
        for (unsigned p = 0; p < P; ++p) {
          if (options_.device_ids[p] == phys) {
            idx = static_cast<int>(p);
            break;
          }
        }
        if (eopt.metrics != nullptr) {
          eopt.metrics->counter("straggler.detections").increment();
        }
        if (eopt.sink != nullptr) {
          straggler_event("flagged", phys, verdict->ewma_ms,
                          verdict->median_ms, verdict->slowdown, "");
        }
        if (idx >= 0) {
          unsigned& specs = spec_rounds_[phys];
          if (options_.straggler.speculation &&
              specs < options_.straggler.speculation_limit) {
            ++specs;
            speculate_next_ = idx;
          } else if (options_.straggler.rebalance &&
                     rebalance_rounds_[phys] <
                         options_.straggler.rebalance_limit) {
            ++rebalance_rounds_[phys];
            rebalance_partition(static_cast<unsigned>(idx), *verdict);
          } else if (options_.straggler.speculation ||
                     options_.straggler.rebalance) {
            if (eopt.metrics != nullptr) {
              eopt.metrics->counter("straggler.demotions").increment();
            }
            if (eopt.sink != nullptr) {
              straggler_event("demote", phys, verdict->ewma_ms,
                              verdict->median_ms, verdict->slowdown,
                              "mitigation ladder exhausted");
            }
            throw sim::FailSlowDemoted(phys, verdict->slowdown,
                                       system_.elapsed_ms());
          }
        }
      }
    }
    level = next_level;
    loop.level_end(level, newly_visited, shards, parents, result.level_trace,
                   {.bottom_up = bottom_up,
                    .switched = switched,
                    .visited_degree_sum = visited_degree_sum});
  }

  loop.run_end(level, system_.elapsed_ms(), shards, bottom_up);
  // All private arrays agree after the final all-gather; report device 0's.
  finalize(result, g, std::move(statuses[0]), std::move(parents));
  result.time_ms = system_.elapsed_ms();
  stats_.total_ms = result.time_ms;
  if (eopt.metrics != nullptr) {
    eopt.metrics->gauge("multi_gpu.comm_ms").set(stats_.comm_ms);
    eopt.metrics->gauge("multi_gpu.compression_ratio")
        .set(stats_.bytes_communicated > 0
                 ? static_cast<double>(stats_.bytes_uncompressed) /
                       static_cast<double>(stats_.bytes_communicated)
                 : 0.0);
  }
  return result;
}

}  // namespace ent::enterprise
