#include "enterprise/kernels.hpp"

#include <algorithm>

#include "enterprise/cost_constants.hpp"
#include "obs/trace_sink.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"

namespace ent::enterprise {
namespace {

using graph::edge_t;
using graph::vertex_t;
using sim::AccessPattern;

// Aggregated memory streams of one expansion kernel, recorded in bulk at the
// end of the launch (per-access recording would dominate host runtime).
struct MemTally {
  std::uint64_t queue_loads = 0;        // frontier ids read from the queue
  std::uint64_t offset_loads = 0;       // row-offset pairs
  std::uint64_t adjacency_short = 0;    // column entries of sub-warp lists
  std::uint64_t adjacency_long = 0;     // column entries of >=32-long lists
  std::uint64_t status_probes = 0;      // neighbor status reads (random)
  std::uint64_t visits = 0;             // status+parent writes (random)
  std::uint64_t cache_probes = 0;       // shared-memory accesses

  void add_adjacency(std::uint64_t loads, std::uint64_t degree) {
    if (degree >= 32) {
      adjacency_long += loads;
    } else {
      adjacency_short += loads;
    }
  }

  void add(const MemTally& t) {
    queue_loads += t.queue_loads;
    offset_loads += t.offset_loads;
    adjacency_short += t.adjacency_short;
    adjacency_long += t.adjacency_long;
    status_probes += t.status_probes;
    visits += t.visits;
    cache_probes += t.cache_probes;
  }
};

// Queue entries per block of the pooled bottom-up expansion. Whole warps, so
// each block's Thread-granularity warps close at its end, where the serial
// launch's do.
constexpr std::size_t kBottomUpBlock = 1024;

// One block's share of a bottom-up launch. Merged in block order, the shares
// give the serial launch's record field for field.
struct BottomUpPart {
  ExpandOutput out;
  MemTally tally;
  sim::KernelRecord charges;  // SIMT issue and critical-path charges
  std::uint64_t cache_hits = 0;
};

void record_tally(const MemTally& t, Granularity gran, QueueOrder order,
                  const sim::MemoryModel& mm, sim::KernelRecord& rec) {
  (void)gran;
  // Queue and row-offset reads are warp-contiguous.
  mm.record_load(rec.mem, AccessPattern::kSequential, t.queue_loads,
                 sizeof(vertex_t));
  mm.record_load(rec.mem, AccessPattern::kStrided, t.offset_loads,
                 2 * sizeof(edge_t));
  // Adjacency lists: lists of >= 32 columns fill whole lines regardless of
  // which granularity walks them; sub-warp lists are sector-granular and
  // scattered — unless the queue is sorted, in which case consecutive
  // frontiers' short lists are adjacent in memory and coalesce (§4.1's
  // sorted-queue payoff at the direction switch).
  mm.record_load(rec.mem, AccessPattern::kSequential, t.adjacency_long,
                 sizeof(vertex_t));
  mm.record_load(rec.mem,
                 order == QueueOrder::kSorted ? AccessPattern::kSequential
                                              : AccessPattern::kStrided,
                 t.adjacency_short, sizeof(vertex_t));
  // Neighbor ids are arbitrary: status probes and visit writes are random.
  mm.record_load(rec.mem, AccessPattern::kRandom, t.status_probes,
                 kStatusBytes);
  mm.record_store(rec.mem, AccessPattern::kRandom, t.visits,
                  kStatusBytes + sizeof(vertex_t));
  mm.record_shared(rec.mem, t.cache_probes);
}

// Serial completion chain of one work item: iterations of lockstep width
// `threads`, each waiting out its (partially overlapped) memory round trip.
std::uint64_t chain_cycles(const sim::DeviceSpec& s, std::uint64_t work,
                           std::uint64_t threads) {
  const std::uint64_t iterations = (work + threads - 1) / threads;
  return iterations * (1 + s.global_latency_cycles / 8);
}

}  // namespace

std::uint64_t threads_for(Granularity gran, const sim::DeviceSpec& spec) {
  switch (gran) {
    case Granularity::kThread:
      return 1;
    case Granularity::kWarp:
      return spec.warp_size;
    case Granularity::kCta:
      return kCtaSize;
    case Granularity::kGrid:
      return static_cast<std::uint64_t>(kGridCtas) * kCtaSize;
  }
  return 1;
}

void charge_group_work(sim::KernelRecord& record, const sim::DeviceSpec& spec,
                       Granularity gran, std::uint64_t work_cycles) {
  ENT_ASSERT_MSG(gran != Granularity::kThread,
                 "thread-granularity work goes through WarpAccumulator");
  const std::uint64_t threads = threads_for(gran, spec);
  const std::uint64_t warps = threads / spec.warp_size;
  // Lockstep sharing: every warp of the group iterates ceil(work/threads)
  // times and pays the setup preamble. Warps with no work still burn their
  // issue slots on the preamble — the CTA-for-degree-1 waste of §3.
  const std::uint64_t iterations = (work_cycles + threads - 1) / threads;
  record.warp_cycles += warps * (kExpandSetupCycles + iterations);
  record.critical_cycles = std::max(
      record.critical_cycles, chain_cycles(spec, work_cycles, threads));
  record.thread_cycles += work_cycles;
  record.launched_threads += threads;
  // Lanes concurrently busy: one lane per ~8 cycles of per-item work (a
  // neighbor inspection occupies its lane for kInspect + status +
  // bookkeeping cycles). A 256-thread CTA parked on a degree-8 frontier
  // keeps ~8 lanes busy, not 48 — which is why fixed-CTA expansion hides so
  // little memory latency and workload balancing pays off (§4.2).
  record.active_threads +=
      std::min<std::uint64_t>(work_cycles / 8 + 1, threads);
}

ExpandOutput expand_top_down(const graph::Csr& g, StatusArray& status,
                             std::vector<vertex_t>& parents,
                             std::span<const vertex_t> queue,
                             Granularity gran, std::int32_t next_level,
                             const sim::MemoryModel& mm,
                             sim::KernelRecord& record, QueueOrder order,
                             BitArray* discovered) {
  ExpandOutput out;
  MemTally tally;
  tally.queue_loads = queue.size();
  tally.offset_loads = queue.size();

  sim::WarpAccumulator thread_acc(mm.spec().warp_size);
  const vertex_t n = g.num_vertices();
  for (vertex_t v : queue) {
    // Bounds guards (here and on `w` below) never fire on valid CSR data;
    // they keep injected silent flips in the frontier queue or adjacency
    // from reading out of bounds before an integrity audit flags them.
    if (v >= n) continue;
    edge_t visited_here = 0;
    const auto neighbors = g.neighbors(v);
    for (vertex_t w : neighbors) {
      if (w >= n) continue;
      if (!status.visited(w)) {
        status.visit(w, next_level);
        if (discovered != nullptr) discovered->set(w);
        parents[w] = v;
        ++visited_here;
      }
    }
    const auto inspected = static_cast<edge_t>(neighbors.size());
    out.edges_inspected += inspected;
    out.newly_visited += static_cast<vertex_t>(visited_here);
    tally.add_adjacency(inspected, inspected);
    tally.status_probes += inspected;
    tally.visits += visited_here;

    const std::uint64_t work = inspected * kInspectCycles +
                               visited_here * kVisitCycles;
    if (gran == Granularity::kThread) {
      thread_acc.add_thread(kExpandSetupCycles + work);
      record.critical_cycles = std::max(record.critical_cycles,
                                        chain_cycles(mm.spec(), work, 1));
    } else {
      charge_group_work(record, mm.spec(), gran, work);
    }
  }
  thread_acc.charge(record);
  record_tally(tally, gran, order, mm, record);
  return out;
}

ExpandOutput expand_bottom_up(const graph::Csr& in_edges, StatusArray& status,
                              std::vector<vertex_t>& parents,
                              std::span<const vertex_t> queue,
                              Granularity gran, std::int32_t next_level,
                              HubCache* cache, const sim::MemoryModel& mm,
                              sim::KernelRecord& record, QueueOrder order) {
  const vertex_t n = in_edges.num_vertices();
  const unsigned warp_size = mm.spec().warp_size;
  ENT_ASSERT(kBottomUpBlock % warp_size == 0);
  // The blocks may run at once. The result does not depend on their order:
  // the hub cache is only read here, a vertex adopts only a parent below
  // `next_level` (never one adopted in this launch), and each queue entry
  // writes only its own status and parent.
  const auto expand_block = [&](std::size_t begin, std::size_t end,
                                BottomUpPart& part) {
    ExpandOutput out;
    MemTally tally;
    sim::KernelRecord charges;
    std::uint64_t cache_hits = 0;
    sim::WarpAccumulator thread_acc(warp_size);
    for (std::size_t q = begin; q < end; ++q) {
      const vertex_t v = queue[q];
      // Bounds guard against injected frontier flips; never fires on valid
      // data (see expand_top_down).
      if (v >= n) continue;
      // §4.3 inspection order, at fetch granularity: each chunk of neighbor
      // ids is loaded once, checked against the shared-memory hub cache
      // first (a hit adopts the hub and skips every global status read for
      // this chunk and all later ones), and only then probed in global
      // status with early exit.
      constexpr edge_t kChunk = 8;  // ids per 32 B adjacency sector
      const auto neighbors = in_edges.neighbors(v);
      const auto degree = static_cast<edge_t>(neighbors.size());
      edge_t adjacency_loads = 0;
      std::uint64_t cache_probes = 0;
      std::uint64_t status_loads = 0;
      bool adopted = false;
      for (edge_t base = 0; base < degree && !adopted; base += kChunk) {
        const edge_t chunk_end = std::min(base + kChunk, degree);
        adjacency_loads += chunk_end - base;
        if (cache != nullptr) {
          for (edge_t i = base; i < chunk_end && !adopted; ++i) {
            ++cache_probes;
            if (cache->holds(neighbors[i])) {
              // Cache holds only vertices visited at the preceding level, so
              // this neighbor is a valid parent; no status read is needed.
              status.visit(v, next_level);
              parents[v] = neighbors[i];
              adopted = true;
              ++cache_hits;
            }
          }
          if (adopted) break;
        }
        for (edge_t i = base; i < chunk_end && !adopted; ++i) {
          ++status_loads;
          if (neighbors[i] >= n) continue;  // injected adjacency flip
          const std::int32_t lu = status.level(neighbors[i]);
          if (lu != kUnvisited && lu < next_level) {
            status.visit(v, next_level);
            parents[v] = neighbors[i];
            adopted = true;
          }
        }
      }
      out.edges_inspected += adjacency_loads;
      if (adopted) ++out.newly_visited;
      tally.add_adjacency(adjacency_loads, degree);
      tally.status_probes += status_loads;
      tally.cache_probes += cache_probes;
      if (adopted) ++tally.visits;

      const std::uint64_t work = adjacency_loads * kInspectCycles +
                                 status_loads * kInspectCycles +
                                 cache_probes * kCacheProbeCycles +
                                 (adopted ? kVisitCycles : 0);
      if (gran == Granularity::kThread) {
        thread_acc.add_thread(kExpandSetupCycles + work);
        charges.critical_cycles = std::max(
            charges.critical_cycles, chain_cycles(mm.spec(), work, 1));
      } else {
        charge_group_work(charges, mm.spec(), gran, work);
      }
    }
    thread_acc.charge(charges);
    part = {out, tally, std::move(charges), cache_hits};
  };

  // An out-of-range entry takes no lane, which would shift the warps of
  // every later block; a queue holding one (only an injected flip puts one
  // there) runs as one block.
  std::size_t block = kBottomUpBlock;
  if (gran == Granularity::kThread && queue.size() > block &&
      std::any_of(queue.begin(), queue.end(),
                  [n](vertex_t v) { return v >= n; })) {
    block = queue.size();
  }
  BottomUpPart first;
  std::vector<BottomUpPart> rest;
  util::host_pool().for_each_part(queue.size(), block, first, rest,
                                  expand_block);

  ExpandOutput out = first.out;
  MemTally tally = first.tally;
  record.add(first.charges);
  std::uint64_t cache_hits = first.cache_hits;
  for (const BottomUpPart& part : rest) {
    out.newly_visited += part.out.newly_visited;
    out.edges_inspected += part.out.edges_inspected;
    tally.add(part.tally);
    record.add(part.charges);
    cache_hits += part.cache_hits;
  }
  if (cache != nullptr) cache->count_probes(tally.cache_probes, cache_hits);
  tally.queue_loads = queue.size();
  tally.offset_loads = queue.size();
  // Once for the whole launch: transaction counts round up on every call.
  record_tally(tally, gran, order, mm, record);
  return out;
}

StatusExpandOutput expand_status_top_down(const graph::Csr& g,
                                          StatusArray& status,
                                          std::vector<vertex_t>& parents,
                                          std::int32_t next_level,
                                          const sim::MemoryModel& mm,
                                          sim::KernelRecord& record) {
  StatusExpandOutput out;
  MemTally tally;
  const vertex_t n = g.num_vertices();
  const std::int32_t frontier_level = next_level - 1;

  for (vertex_t v = 0; v < n; ++v) {
    const bool is_frontier = status.level(v) == frontier_level;
    edge_t inspected = 0;
    edge_t visited_here = 0;
    if (is_frontier) {
      for (vertex_t w : g.neighbors(v)) {
        ++inspected;
        if (w >= n) continue;  // injected adjacency flip
        if (!status.visited(w)) {
          status.visit(w, next_level);
          parents[w] = v;
          ++visited_here;
          out.visited_out_degrees += g.out_degree(w);
        }
      }
    }
    out.edges_inspected += inspected;
    out.newly_visited += static_cast<vertex_t>(visited_here);
    tally.add_adjacency(inspected, inspected);
    tally.status_probes += inspected;
    tally.visits += visited_here;

    const std::uint64_t work =
        inspected * kInspectCycles + visited_here * kVisitCycles;
    // Every vertex — frontier or not — occupies a whole CTA: the
    // over-commitment of Challenge #1.
    charge_group_work(record, mm.spec(), Granularity::kCta,
                      kScanCycles + work);
  }

  // Status reads of the scan itself: one uncoalesced sector per CTA.
  mm.record_load(record.mem, AccessPattern::kRandom, n, kStatusBytes);
  record_tally(tally, Granularity::kCta, QueueOrder::kSorted, mm, record);
  return out;
}

StatusExpandOutput expand_status_bottom_up(const graph::Csr& g,
                                           const graph::Csr& in_edges,
                                           StatusArray& status,
                                           std::vector<vertex_t>& parents,
                                           std::int32_t next_level,
                                           const sim::MemoryModel& mm,
                                           sim::KernelRecord& record) {
  StatusExpandOutput out;
  MemTally tally;
  const vertex_t n = in_edges.num_vertices();

  for (vertex_t v = 0; v < n; ++v) {
    edge_t probes = 0;
    bool adopted = false;
    if (!status.visited(v)) {
      for (vertex_t u : in_edges.neighbors(v)) {
        ++probes;
        if (u >= n) continue;  // injected adjacency flip
        const std::int32_t lu = status.level(u);
        if (lu != kUnvisited && lu < next_level) {
          status.visit(v, next_level);
          parents[v] = u;
          adopted = true;
          out.visited_out_degrees += g.out_degree(v);
          break;
        }
      }
    }
    out.edges_inspected += probes;
    if (adopted) ++out.newly_visited;
    tally.add_adjacency(probes, probes);
    tally.status_probes += probes;
    if (adopted) ++tally.visits;

    const std::uint64_t work =
        probes * kInspectCycles + (adopted ? kVisitCycles : 0);
    charge_group_work(record, mm.spec(), Granularity::kCta,
                      kScanCycles + work);
  }

  mm.record_load(record.mem, AccessPattern::kRandom, n, kStatusBytes);
  record_tally(tally, Granularity::kCta, QueueOrder::kSorted, mm, record);
  return out;
}

void emit_span(obs::TraceSink* sink, int level, const char* phase,
               std::string_view detail, double start_ms, double duration_ms,
               std::uint64_t value) {
  if (sink == nullptr) return;
  obs::SpanEvent e;
  e.level = level;
  e.phase = phase;
  e.detail = detail;
  e.start_ms = start_ms;
  e.duration_ms = duration_ms;
  e.value = value;
  sink->span(e);
}

double launch(sim::Device& dev, sim::KernelRecord rec, bfs::LevelTrace& trace,
              obs::TraceSink* sink, const char* phase, std::uint64_t items,
              std::string_view detail) {
  std::string name = rec.name;
  const double start_ms = dev.elapsed_ms();
  const double ms = dev.run_kernel(std::move(rec));
  emit_span(sink, trace.level, phase, detail.empty() ? name : detail,
            start_ms, ms, items);
  trace.kernels.push_back({std::move(name), ms});
  return ms;
}

double launch_group(sim::Device& dev, std::span<sim::KernelRecord> recs,
                    std::span<const std::uint64_t> items,
                    bfs::LevelTrace& trace, obs::TraceSink* sink,
                    const char* phase) {
  const double start_ms = dev.elapsed_ms();
  const double ms = dev.run_concurrent(recs);
  // The members' standalone times are the device timeline's tail.
  const auto members = dev.timeline().last(items.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    trace.kernels.push_back({members[i].name, members[i].time_ms});
    emit_span(sink, trace.level, i == 0 ? "classify" : phase, members[i].name,
              start_ms, members[i].time_ms, items[i]);
  }
  return ms;
}

}  // namespace ent::enterprise
