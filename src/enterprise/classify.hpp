// Frontier classification for GPU workload balancing (§4.2): frontiers are
// routed to four queues by out-degree and each queue is expanded by a
// matching parallel granularity.
//   SmallQueue   (< 32 edges)        -> one Thread per frontier
//   MiddleQueue  [32, 256)           -> one Warp
//   LargeQueue   [256, 65536)        -> one CTA
//   ExtremeQueue (>= 65536)          -> the whole Grid
#pragma once

#include <array>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "gpusim/kernel_cost.hpp"
#include "gpusim/memory_model.hpp"

namespace ent::enterprise {

enum class Granularity { kThread = 0, kWarp = 1, kCta = 2, kGrid = 3 };

const char* to_string(Granularity g);

// The paper's default thresholds.
struct ClassifyThresholds {
  graph::edge_t warp = 32;       // degree >= warp  -> at least a Warp
  graph::edge_t cta = 256;       // degree >= cta   -> at least a CTA
  graph::edge_t grid = 65536;    // degree >= grid  -> the Grid
};

Granularity classify_degree(graph::edge_t degree,
                            const ClassifyThresholds& t = {});

struct ClassifiedQueues {
  std::array<std::vector<graph::vertex_t>, 4> queues;  // index by Granularity

  std::vector<graph::vertex_t>& of(Granularity g) {
    return queues[static_cast<std::size_t>(g)];
  }
  const std::vector<graph::vertex_t>& of(Granularity g) const {
    return queues[static_cast<std::size_t>(g)];
  }
  std::size_t total() const;
};

// Splits `frontier` into the four queues of `out`, whose storage is reused.
// The degree lookups this performs on the GPU happen during bin scatter, so
// the cost (sequential row-offset loads + queue stores) is charged to
// `record`.
void classify_frontiers(const graph::Csr& g,
                        std::span<const graph::vertex_t> frontier,
                        const sim::MemoryModel& mm, sim::KernelRecord& record,
                        ClassifiedQueues& out,
                        const ClassifyThresholds& t = {});

}  // namespace ent::enterprise
