// Expansion/inspection kernels.
//
// Queue-based kernels (Enterprise §4.1-§4.3): expand a frontier queue at a
// chosen parallel granularity (Thread / Warp / CTA / Grid). Status-array
// kernels (§2.1's second approach, used by the paper's baseline BL): launch
// one CTA per *vertex*, with non-frontier CTAs idling — the over-commitment
// Challenge #1 describes.
//
// Every kernel performs the real traversal on the host graph while charging
// SIMT issue cycles and memory streams to a sim::KernelRecord; launch()
// prices the record into a level trace.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "bfs/result.hpp"
#include "enterprise/classify.hpp"
#include "enterprise/hub_cache.hpp"
#include "enterprise/status_array.hpp"
#include "graph/csr.hpp"
#include "gpusim/device.hpp"
#include "gpusim/kernel_cost.hpp"
#include "gpusim/memory_model.hpp"
#include "util/bit_array.hpp"

namespace ent::obs {
class TraceSink;
}  // namespace ent::obs

namespace ent::enterprise {

struct ExpandOutput {
  graph::vertex_t newly_visited = 0;
  graph::edge_t edges_inspected = 0;
};

// Whether the queue being expanded is sorted by vertex id. A sorted queue
// (produced by the direction-switch and bottom-up workflows) makes
// consecutive frontiers' adjacency lists adjacent in memory, so Thread-
// granularity list walks coalesce; a scattered queue (top-down interleaved
// bins) leaves them sector-granular. This is the §4.1 "frontiers may appear
// in order in the queue, which leads to sequential memory access at the
// next level" effect.
enum class QueueOrder { kScattered, kSorted };

// --- queue-based (Enterprise) ------------------------------------------------

// Top-down: inspect every out-neighbor of each queued frontier; unvisited
// neighbors are marked `next_level` with the frontier as parent. Last writer
// wins, as in the status-array discipline (§2.1: no atomics needed). When
// `discovered` is given, each newly marked vertex also sets its bit there,
// for FrontierQueueGenerator::harvest.
ExpandOutput expand_top_down(const graph::Csr& g, StatusArray& status,
                             std::vector<graph::vertex_t>& parents,
                             std::span<const graph::vertex_t> queue,
                             Granularity gran, std::int32_t next_level,
                             const sim::MemoryModel& mm,
                             sim::KernelRecord& record,
                             QueueOrder order = QueueOrder::kScattered,
                             BitArray* discovered = nullptr);

// Bottom-up: `queue` holds unvisited vertices; each scans its in-neighbors
// (`in_edges`; pass the graph itself when undirected) until one is visited,
// adopting it as parent. When `cache` is non-null the neighbor id is probed
// in the shared-memory hub cache first, and a hit terminates the inspection
// without touching the neighbor's status in global memory (§4.3).
ExpandOutput expand_bottom_up(const graph::Csr& in_edges, StatusArray& status,
                              std::vector<graph::vertex_t>& parents,
                              std::span<const graph::vertex_t> queue,
                              Granularity gran, std::int32_t next_level,
                              HubCache* cache, const sim::MemoryModel& mm,
                              sim::KernelRecord& record,
                              QueueOrder order = QueueOrder::kSorted);

// --- status-array based (baseline) -------------------------------------------

// A status-array launch's output, with the out-degree sum of the vertices it
// visited: the next frontier's m_f, with no second walk over the statuses.
struct StatusExpandOutput : ExpandOutput {
  graph::edge_t visited_out_degrees = 0;
};

// One CTA per vertex; only CTAs whose vertex has status == next_level - 1
// expand. Each CTA issues one uncoalesced status read and burns 8 warps of
// issue slots per vertex, which is what the paper's baseline pays for fast
// per-frontier expansion.
StatusExpandOutput expand_status_top_down(
    const graph::Csr& g, StatusArray& status,
    std::vector<graph::vertex_t>& parents, std::int32_t next_level,
    const sim::MemoryModel& mm, sim::KernelRecord& record);

// One CTA per vertex; unvisited vertices scan in-neighbors (`in_edges`)
// with early exit, the rest idle. Visited vertices count their out-degree
// in `g`, which differs from `in_edges` on a directed graph.
StatusExpandOutput expand_status_bottom_up(
    const graph::Csr& g, const graph::Csr& in_edges, StatusArray& status,
    std::vector<graph::vertex_t>& parents, std::int32_t next_level,
    const sim::MemoryModel& mm, sim::KernelRecord& record);

// --- shared helpers -----------------------------------------------------------

// Charges `work_cycles` of serial per-frontier work executed at granularity
// `gran` to `record`. Thread-granularity work must instead go through the
// caller's WarpAccumulator (threads pack 32 frontiers per warp); this helper
// asserts on kThread.
void charge_group_work(sim::KernelRecord& record, const sim::DeviceSpec& spec,
                       Granularity gran, std::uint64_t work_cycles);

// Number of threads a granularity employs per frontier.
std::uint64_t threads_for(Granularity gran, const sim::DeviceSpec& spec);

// --- launches -----------------------------------------------------------------

// Streams one span event; does nothing without a sink.
void emit_span(obs::TraceSink* sink, int level, const char* phase,
               std::string_view detail, double start_ms, double duration_ms,
               std::uint64_t value);

// Prices `rec` on `dev`, lists it in the level's kernels and streams its span
// (detail: the kernel name unless given). Returns the priced time.
double launch(sim::Device& dev, sim::KernelRecord rec, bfs::LevelTrace& trace,
              obs::TraceSink* sink, const char* phase, std::uint64_t items,
              std::string_view detail = {});

// The same for a Hyper-Q group whose first member is the classify kernel;
// `items[i]` is member i's frontier count. Each member keeps its standalone
// time (the Fig. 8 timeline). The records move into the device timeline.
double launch_group(sim::Device& dev, std::span<sim::KernelRecord> recs,
                    std::span<const std::uint64_t> items,
                    bfs::LevelTrace& trace, obs::TraceSink* sink,
                    const char* phase);

}  // namespace ent::enterprise
