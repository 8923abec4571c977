// Streamlined frontier-queue generation (§4.1): scan the status array into
// per-thread bins, prefix-sum the bin sizes, and scatter bins into a dense
// queue — no atomics, no duplicates. Three workflows optimize the memory
// access pattern per BFS phase:
//
//   top-down          interleaved scan (thread t reads t, t+T, t+2T, ...):
//                     warp-coalesced status reads, queue order follows bin
//                     concatenation (out of order across the vertex space);
//   direction-switch  chunked scan (thread t reads one contiguous block):
//                     strided status reads — ~2.4x slower to scan — but the
//                     resulting queue is sorted, making the *next* level's
//                     adjacency loads sequential (net win at the explosion
//                     level, §4.1);
//   bottom-up         the current unvisited set is always a subset of the
//                     previous queue, so filter the previous queue instead
//                     of rescanning the whole array.
//
// The switch and filter workflows optionally refill the hub cache with
// just-visited high-out-degree vertices as they stream past (§4.3: the
// cache is rebuilt during frontier queue generation).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "enterprise/hub_cache.hpp"
#include "enterprise/status_array.hpp"
#include "gpusim/kernel_cost.hpp"
#include "gpusim/memory_model.hpp"

namespace ent::enterprise {

// Scan layout for the direction-switch workflow: chunked is the paper's
// choice (strided reads, sorted queue); interleaved is the top-down layout
// (coalesced reads, scattered queue) kept for the §4.1 ablation.
enum class ScanLayout { kChunked, kInterleaved };

struct HubRefill {
  HubCache* cache = nullptr;
  const std::vector<std::uint8_t>* hub_flags = nullptr;  // by vertex id
  std::int32_t just_visited_level = 0;  // cache vertices at this level
};

class FrontierQueueGenerator {
 public:
  FrontierQueueGenerator(const sim::MemoryModel& mm, unsigned scan_threads);

  // Queue of vertices with status == level in ascending id order, charged as
  // the interleaved scan. The range overload scans only [begin, end) — one
  // GPU's private slice in the multi-GPU system (§4.4).
  std::vector<graph::vertex_t> top_down(const StatusArray& status,
                                        std::int32_t level,
                                        sim::KernelRecord& record) const;
  std::vector<graph::vertex_t> top_down(const StatusArray& status,
                                        std::int32_t level,
                                        graph::vertex_t begin,
                                        graph::vertex_t end,
                                        sim::KernelRecord& record) const;

  // Queue of unvisited vertices, ascending order (chunked scan). Refills
  // the hub cache with hubs at refill.just_visited_level when provided.
  std::vector<graph::vertex_t> direction_switch(
      const StatusArray& status, const HubRefill& refill,
      sim::KernelRecord& record,
      ScanLayout layout = ScanLayout::kChunked) const;
  std::vector<graph::vertex_t> direction_switch(
      const StatusArray& status, const HubRefill& refill,
      graph::vertex_t begin, graph::vertex_t end, sim::KernelRecord& record,
      ScanLayout layout = ScanLayout::kChunked) const;

  // Previous bottom-up queue minus vertices visited meanwhile; preserves
  // order (so a sorted queue stays sorted). Removed vertices that are hubs
  // go into the cache — they were visited this level and are next level's
  // likely parents.
  std::vector<graph::vertex_t> bottom_up_filter(
      std::span<const graph::vertex_t> previous, const StatusArray& status,
      const HubRefill& refill, sim::KernelRecord& record) const;

  unsigned scan_threads() const { return scan_threads_; }

 private:
  // Charges the balanced scan work + bin scatter + prefix sum + queue copy.
  void charge_scan(sim::KernelRecord& record, std::uint64_t elements_scanned,
                   std::uint64_t frontiers_found,
                   sim::AccessPattern status_pattern) const;

  const sim::MemoryModel* mm_;
  unsigned scan_threads_;
};

}  // namespace ent::enterprise
