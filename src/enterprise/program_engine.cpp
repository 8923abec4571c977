#include "enterprise/program_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <utility>

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

namespace {

// Accounted element size of one per-vertex program-state slot; the widest
// resident state (sssp/pagerank doubles) — cc's narrower labels are charged
// at the same width to keep program comparisons structural.
constexpr unsigned kStateBytes = 8;
// Per-element cost of the O(n) apply barrier (load, combine, store).
constexpr std::uint64_t kApplyCycles = kPrefixSumCycles;

}  // namespace

ProgramRunner::ProgramRunner(const graph::Csr& g,
                             std::unique_ptr<bfs::VertexProgram> program,
                             EnterpriseOptions options, unsigned num_devices,
                             sim::InterconnectSpec interconnect,
                             std::vector<unsigned> device_ids)
    : graph_(&g),
      program_(std::move(program)),
      options_(std::move(options)),
      device_ids_(std::move(device_ids)),
      system_(options_.device, num_devices, interconnect),
      ranges_(graph::partition_equal_vertices(g.num_vertices(), num_devices)) {
  ENT_ASSERT_MSG(program_ != nullptr, "ProgramRunner needs a program");
  // In-edge view for symmetric relaxations (cc on directed graphs); on
  // undirected graphs the out-edges already carry both directions.
  if (program_->traits().symmetric && g.directed()) {
    in_storage_.emplace(g.reversed());
    in_edges_ = &*in_storage_;
  }

  if (device_ids_.empty()) {
    device_ids_.resize(num_devices);
    for (unsigned p = 0; p < num_devices; ++p) {
      device_ids_[p] = num_devices == 1 ? options_.device_ordinal : p;
    }
  }
  ENT_ASSERT_MSG(device_ids_.size() == num_devices,
                 "device_ids must name one physical id per device");
  for (unsigned p = 0; p < system_.size(); ++p) {
    system_.device(p).set_trace_sink(options_.sink);
    system_.device(p).set_device_id(device_ids_[p]);
    system_.device(p).set_fault_injector(options_.fault_injector);
  }
  if (num_devices > 1) {
    system_.interconnect().set_fault_injector(options_.fault_injector,
                                              device_ids_);
  }

  // Hub definition, as in enterprise_bfs.cpp (§4.3).
  graph::vertex_t target = options_.hub_target_count;
  if (target == 0) {
    target = std::clamp<graph::vertex_t>(g.num_vertices() / 1024, 16,
                                         options_.hub_cache_capacity);
  }
  const graph::HubStats hubs = graph::select_hub_threshold(g, target);
  hub_tau_ = hubs.threshold;
  total_hubs_ = hubs.num_hubs;
  hub_flags_ = graph::hub_flags(g, hub_tau_);

  if (options_.integrity.scrub_interval != 0) {
    digests_ = graph::SegmentDigests::compute(g);
  }
}

bfs::BfsResult ProgramRunner::run(vertex_t source) {
  const graph::Csr& g = *graph_;
  const vertex_t n = g.num_vertices();
  const unsigned P = system_.size();
  ENT_ASSERT(source < n);

  system_.reset();
  const std::uint64_t state_bytes = program_->state_footprint_bytes();
  for (unsigned p = 0; p < P; ++p) {
    system_.device(p).memory().set_working_set(
        g.footprint_bytes() / P + state_bytes +
        static_cast<std::uint64_t>(n));  // improved flags, 1 B per vertex
  }

  // Fresh program state and initial frontier (resilient replays re-enter
  // here, so nothing survives from a faulted attempt).
  std::vector<vertex_t> frontier;
  program_->init(source, frontier);

  // "Active" array in the status-array role: the superstep at which a vertex
  // was last selected. The TS scan regenerates the dense queue from it.
  StatusArray active(n);
  std::vector<std::uint8_t> improved_seen(n, 0);
  std::vector<std::int32_t> first_touch(n, -1);
  for (const vertex_t v : frontier) first_touch[v] = 0;

  const unsigned scan_threads_total =
      scan_launch_width(options_.scan_threads, options_.device);
  const unsigned scan_threads =
      P == 1 ? scan_threads_total : scan_threads_total / P + 1;

  std::vector<HubCache> caches(P, HubCache(options_.hub_cache_capacity));
  const bool use_hub = options_.hub_cache && total_hubs_ > 0;

  bfs::BfsResult result;
  result.source = source;

  obs::TraceSink* const sink = options_.sink;
  obs::MetricsRegistry* const metrics = options_.metrics;
  const auto emit_span = [&](int step, const char* phase, std::string detail,
                             double start_ms, double duration_ms,
                             std::uint64_t value) {
    if (sink == nullptr) return;
    obs::SpanEvent e;
    e.level = step;
    e.phase = phase;
    e.detail = std::move(detail);
    e.start_ms = start_ms;
    e.duration_ms = duration_ms;
    e.value = value;
    sink->span(e);
  };

  // ---- integrity (bfs/integrity.hpp) -------------------------------------
  // Engine-level frontier checks plus the program's own invariant set; the
  // counter and event idiom matches enterprise_bfs.cpp so collect_integrity
  // assembles the same report section.
  sim::FaultInjector* const injector = options_.fault_injector;
  const bool flips_armed =
      injector != nullptr && injector->plan().has_flip_rules();
  const bfs::IntegrityOptions& integ = options_.integrity;
  // Brownout sample (serve/overload.hpp): taps read once per run so a
  // ladder step lands at a request boundary, not mid-traversal.
  const bool audits_on = integ.audits_active();
  const bool scrubs_on = integ.scrubs_active();
  SplitMix64 audit_rng(integ.audit_seed ^ static_cast<std::uint64_t>(source) ^
                       0x70726f6772616dull);  // "program"

  const auto integrity_detect =
      [&](sim::IntegrityKind kind, const char* counter,
          const std::string& component, std::int32_t step,
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
          e.level = step;
          e.device = device_ids_[0];
          e.at_ms = system_.elapsed_ms();
          sink->integrity(e);
        }
        throw sim::IntegrityFault(kind, component, step, system_.elapsed_ms(),
                                  std::move(detail));
      };

  const auto scrub = [&](std::int32_t step) {
    if (metrics != nullptr) {
      metrics->counter("integrity.scrub.passes").increment();
    }
    if (const auto mm = digests_.verify(g)) {
      integrity_detect(sim::IntegrityKind::kDigest,
                       "integrity.scrub.mismatches", mm->segment, step,
                       "block " + std::to_string(mm->block) + " expected " +
                           std::to_string(mm->expected) + " got " +
                           std::to_string(mm->actual));
    }
  };

  const auto audit_superstep = [&](std::int32_t step) {
    if (metrics != nullptr) {
      metrics->counter("integrity.audit.checks").increment();
    }
    const auto fail = [&](const char* component, std::string detail) {
      integrity_detect(sim::IntegrityKind::kAudit, "integrity.audit.failures",
                       component, step, std::move(detail));
    };
    // Frontier invariant: select_frontier emits strictly ascending in-range
    // vertex ids, so any injected flip breaks range or order (a flip that
    // kept both would have to land exactly between its neighbors).
    const auto check_entry = [&](std::size_t i) {
      const vertex_t v = frontier[i];
      if (v >= n) {
        fail("frontier",
             "frontier entry " + std::to_string(v) + " out of range");
      }
      if (i > 0 && frontier[i - 1] >= v) {
        fail("frontier", "frontier not strictly ascending at entry " +
                             std::to_string(i));
      }
    };
    if (integ.audit == bfs::AuditMode::kFull) {
      for (std::size_t i = 0; i < frontier.size(); ++i) check_entry(i);
    } else if (!frontier.empty()) {
      for (std::uint32_t i = 0; i < integ.sample_size; ++i) {
        check_entry(
            static_cast<std::size_t>(audit_rng.next_below(frontier.size())));
      }
    }
    // The program's own invariant set (sssp monotone relaxations, cc
    // decrease-only labels, pagerank mass conservation).
    if (std::string err =
            program_->audit(integ.audit, integ.sample_size, audit_rng);
        !err.empty()) {
      fail("program", std::move(err));
    }
  };
  // ------------------------------------------------------------------------

  // Relax one classified sub-queue at `gran`, charging the same SIMT and
  // memory streams the BFS expansion kernels charge (kernels.cpp), plus a
  // random program-state load per inspected edge and a random store per
  // improvement. Hub improvements go through the shared-memory cache;
  // non-hubs pay the global improved-flag traffic.
  std::vector<vertex_t> improved;
  std::int32_t superstep = 0;
  const auto relax_queue = [&](std::span<const vertex_t> sub, Granularity gran,
                               HubCache& cache, const sim::MemoryModel& mm,
                               sim::KernelRecord& rec) -> edge_t {
    std::uint64_t adj_long = 0, adj_short = 0;
    std::uint64_t state_loads = 0, state_stores = 0;
    std::uint64_t flag_loads = 0, flag_stores = 0, cache_probes = 0;
    edge_t inspected_total = 0;
    sim::WarpAccumulator acc(mm.spec().warp_size);
    const auto chain = [&](std::uint64_t work) {
      const std::uint64_t iters = work / kInspectCycles + 1;
      return iters * (1 + mm.spec().global_latency_cycles / 8);
    };
    for (const vertex_t u : sub) {
      // Bounds guard against injected frontier flips; never fires on valid
      // data (see expand_top_down).
      if (u >= n) continue;
      std::uint64_t work = 0;
      edge_t inspected_u = 0;
      const graph::Csr* views[2] = {&g, in_edges_};
      for (const graph::Csr* view : views) {
        if (view == nullptr) continue;
        const auto neighbors = view->neighbors(u);
        const auto degree = static_cast<edge_t>(neighbors.size());
        if (degree >= 32) {
          adj_long += degree;
        } else {
          adj_short += degree;
        }
        for (const vertex_t v : neighbors) {
          if (v >= n) continue;  // injected adjacency flip
          ++inspected_u;
          ++state_loads;
          work += kInspectCycles;
          if (!program_->relax(u, v)) continue;
          ++state_stores;
          work += kVisitCycles;
          const auto mark = [&] {
            if (improved_seen[v] != 0) return;
            improved_seen[v] = 1;
            improved.push_back(v);
            if (first_touch[v] < 0) first_touch[v] = superstep + 1;
          };
          if (use_hub && hub_flags_[v] != 0) {
            // §4.3 adapted: a cache hit proves this hub was already marked
            // improved this superstep — skip the redundant global write.
            ++cache_probes;
            work += kCacheProbeCycles;
            if (!cache.contains(v)) {
              cache.insert(v);
              ++flag_stores;
              mark();
            }
          } else {
            ++flag_loads;
            if (improved_seen[v] == 0) ++flag_stores;
            mark();
          }
        }
      }
      inspected_total += inspected_u;
      if (gran == Granularity::kThread) {
        acc.add_thread(kExpandSetupCycles + work);
        rec.critical_cycles = std::max(rec.critical_cycles, chain(work));
      } else {
        charge_group_work(rec, mm.spec(), gran, work);
      }
    }
    acc.finish();
    rec.warp_cycles += acc.warp_cycles();
    rec.thread_cycles += acc.thread_cycles();
    rec.launched_threads += acc.threads();
    rec.active_threads += acc.active_threads();

    using sim::AccessPattern;
    mm.record_load(rec.mem, AccessPattern::kSequential, sub.size(),
                   sizeof(vertex_t));
    mm.record_load(rec.mem, AccessPattern::kStrided, sub.size(),
                   2 * sizeof(edge_t));
    mm.record_load(rec.mem, AccessPattern::kSequential, adj_long,
                   sizeof(vertex_t));
    mm.record_load(rec.mem, AccessPattern::kStrided, adj_short,
                   sizeof(vertex_t));
    mm.record_load(rec.mem, AccessPattern::kRandom, state_loads, kStateBytes);
    mm.record_store(rec.mem, AccessPattern::kRandom, state_stores,
                    kStateBytes);
    mm.record_load(rec.mem, AccessPattern::kRandom, flag_loads, 1);
    mm.record_store(rec.mem, AccessPattern::kRandom, flag_stores, 1);
    mm.record_shared(rec.mem, cache_probes);
    return inspected_total;
  };

  edge_t total_inspected = 0;
  bool converged = false;
  const std::uint64_t bitmap_bytes_each =
      (static_cast<std::uint64_t>(n) / P + 7) / 8 + 1;

  while (!frontier.empty() && !converged) {
    if (injector != nullptr) injector->set_level(superstep);
    if (options_.guard != nullptr) {
      // Limits are routed through the program's traits: an unbounded-depth
      // fixpoint (pagerank) masks the level count so max_levels cannot
      // trip, an all-vertices frontier (cc, pagerank) masks the frontier
      // size. Deadline and cancellation always apply.
      const bfs::ProgramTraits traits = program_->traits();
      options_.guard->check_level(
          traits.bounded_depth ? superstep : 0,
          traits.bounded_frontier ? frontier.size() : 0,
          system_.elapsed_ms());
    }
    // Silent-flip window ahead of the checks meant to catch it: the
    // program's resident state plays the kStatus role, the selected
    // frontier the kFrontier role.
    if (flips_armed) {
      for (unsigned p = 0; p < P; ++p) {
        injector->register_flip_target(sim::FlipTarget::kStatus,
                                       device_ids_[p],
                                       program_->raw_state_bytes());
        injector->register_flip_target(
            sim::FlipTarget::kFrontier, device_ids_[p],
            std::as_writable_bytes(std::span<vertex_t>(frontier)));
      }
      injector->flip_pass(superstep, system_.elapsed_ms());
    }
    if (scrubs_on &&
        superstep % static_cast<std::int32_t>(integ.scrub_interval) == 0) {
      scrub(superstep);
    }
    if (audits_on) audit_superstep(superstep);

    bfs::LevelTrace trace;
    trace.level = superstep;
    trace.direction = bfs::Direction::kTopDown;
    trace.frontier_count = static_cast<vertex_t>(frontier.size());
    const double step_start_ms = system_.elapsed_ms();

    // (1) TS queue generation: mark the selected frontier in the active
    // array and rescan it into per-device dense queues. The marking stores
    // are charged into the scan kernel.
    for (const vertex_t v : frontier) {
      if (v < n) active.visit(v, superstep);
    }
    std::vector<std::vector<vertex_t>> queues(P);
    double max_qgen = 0.0;
    for (unsigned p = 0; p < P; ++p) {
      sim::Device& dev = system_.device(p);
      FrontierQueueGenerator gen(dev.memory(), scan_threads);
      sim::KernelRecord qrec;
      qrec.name = "queue_gen(program)";
      dev.memory().record_store(qrec.mem, sim::AccessPattern::kRandom,
                                frontier.size() / P + 1, kStatusBytes);
      queues[p] = P == 1 ? gen.top_down(active, superstep, qrec)
                         : gen.top_down(active, superstep, ranges_[p].begin,
                                        ranges_[p].end, qrec);
      const std::string qname = qrec.name;
      const double qstart = dev.elapsed_ms();
      const double qms = dev.run_kernel(std::move(qrec));
      trace.kernels.push_back({qname, qms});
      emit_span(superstep, "queue_gen", qname, qstart, qms, queues[p].size());
      max_qgen = std::max(max_qgen, qms);
    }
    trace.queue_gen_ms = max_qgen;

    // (2) WB relax: classify each device's slice and run the granularity
    // kernels as one Hyper-Q group.
    improved.clear();
    for (unsigned p = 0; p < P; ++p) caches[p].clear();
    double max_expand = 0.0;
    for (unsigned p = 0; p < P; ++p) {
      if (queues[p].empty()) continue;
      sim::Device& dev = system_.device(p);
      double device_ms = 0.0;
      if (options_.workload_balancing) {
        sim::KernelRecord crec;
        crec.name = "classify";
        const ClassifiedQueues classified =
            classify_frontiers(g, queues[p], dev.memory(), crec);
        std::vector<sim::KernelRecord> recs;
        recs.push_back(std::move(crec));
        std::vector<std::uint64_t> rec_items{queues[p].size()};
        for (Granularity gran : {Granularity::kThread, Granularity::kWarp,
                                 Granularity::kCta, Granularity::kGrid}) {
          const auto& sub = classified.of(gran);
          if (metrics != nullptr) {
            metrics
                ->counter(std::string("enterprise.queue.") + to_string(gran))
                .add(sub.size());
          }
          if (sub.empty()) continue;
          sim::KernelRecord rec;
          rec.name = to_string(gran);
          trace.edges_inspected +=
              relax_queue(sub, gran, caches[p], dev.memory(), rec);
          recs.push_back(std::move(rec));
          rec_items.push_back(sub.size());
        }
        const std::size_t count = recs.size();
        const double group_start = dev.elapsed_ms();
        device_ms += dev.run_concurrent(std::move(recs));
        const auto timeline = dev.timeline();
        for (std::size_t i = timeline.size() - count; i < timeline.size();
             ++i) {
          trace.kernels.push_back({timeline[i].name, timeline[i].time_ms});
          const std::size_t member = i - (timeline.size() - count);
          emit_span(superstep, member == 0 ? "classify" : "relax",
                    timeline[i].name, group_start, timeline[i].time_ms,
                    rec_items[member]);
        }
      } else {
        const Granularity gran = options_.fixed_granularity;
        sim::KernelRecord rec;
        rec.name = std::string("Relax(") + to_string(gran) + ")";
        trace.edges_inspected +=
            relax_queue(queues[p], gran, caches[p], dev.memory(), rec);
        const std::string rname = rec.name;
        const double rstart = dev.elapsed_ms();
        const double rms = dev.run_kernel(std::move(rec));
        device_ms += rms;
        trace.kernels.push_back({rname, rms});
        emit_span(superstep, "relax", rname, rstart, rms, queues[p].size());
      }
      max_expand = std::max(max_expand, device_ms);
    }
    trace.expand_ms = max_expand;
    total_inspected += trace.edges_inspected;

    if (use_hub && metrics != nullptr) {
      std::uint64_t probes = 0, hits = 0;
      for (const HubCache& c : caches) {
        probes += c.probes();
        hits += c.hits();
      }
      if (probes != 0) {
        metrics->counter("enterprise.hub_cache.probes").add(probes);
        metrics->counter("enterprise.hub_cache.hits").add(hits);
      }
    }

    // (3) Multi-device sync: the improved flags all-gather as one bit per
    // vertex, the same __ballot() compression the BFS all-gather uses.
    double comm_ms = 0.0;
    if (P > 1) {
      comm_ms = system_.interconnect().allgather_ms(bitmap_bytes_each, P,
                                                    system_.elapsed_ms());
      trace.comm_ms = comm_ms;
      emit_span(superstep, "comm", "improved-allgather",
                system_.elapsed_ms(), comm_ms,
                bitmap_bytes_each * (P - 1) * P);
    }

    // (4) Apply barrier: deferred per-vertex updates (pagerank's rank swap)
    // cost one O(n) streaming kernel on every device.
    double max_apply = 0.0;
    if (program_->apply(superstep)) {
      for (unsigned p = 0; p < P; ++p) {
        sim::Device& dev = system_.device(p);
        sim::KernelRecord arec;
        arec.name = "apply";
        const std::uint64_t warps =
            static_cast<std::uint64_t>(n) / dev.spec().warp_size + 1;
        arec.warp_cycles = warps * kApplyCycles;
        arec.thread_cycles = static_cast<std::uint64_t>(n) * kApplyCycles;
        arec.launched_threads = n;
        arec.active_threads = n;
        dev.memory().record_load(arec.mem, sim::AccessPattern::kSequential, n,
                                 kStateBytes);
        dev.memory().record_store(arec.mem, sim::AccessPattern::kSequential,
                                  n, kStateBytes);
        const double astart = dev.elapsed_ms();
        const double ams = dev.run_kernel(std::move(arec));
        trace.kernels.push_back({"apply", ams});
        emit_span(superstep, "apply", "apply", astart, ams, n);
        max_apply = std::max(max_apply, ams);
      }
    }

    // (5) Next frontier: the program selects from this superstep's improved
    // set (sorted for determinism), then votes on convergence.
    std::sort(improved.begin(), improved.end());
    for (const vertex_t v : improved) improved_seen[v] = 0;
    std::vector<vertex_t> next;
    program_->select_frontier(improved, next);
    converged = program_->converged(superstep, next.size());
    frontier = std::move(next);

    system_.advance_step(max_qgen + max_expand + max_apply, comm_ms);
    trace.total_ms = system_.elapsed_ms() - step_start_ms;
    if (sink != nullptr) sink->level(bfs::to_level_event(trace));
    result.level_trace.push_back(std::move(trace));
    ++superstep;
  }

  // Final integrity sweep: corruption landing on the last superstep is
  // still caught before the result is reported.
  if (scrubs_on) scrub(superstep);
  if (audits_on) audit_superstep(superstep);

  result.levels = std::move(first_touch);
  result.depth = superstep;
  result.edges_traversed = total_inspected;
  result.time_ms = system_.elapsed_ms();
  program_->finalize(result);

  if (metrics != nullptr) {
    metrics->counter("program.supersteps").add(result.level_trace.size());
  }
  return result;
}

}  // namespace ent::enterprise
