#include "enterprise/classify.hpp"

#include "enterprise/cost_constants.hpp"

namespace ent::enterprise {

const char* to_string(Granularity g) {
  switch (g) {
    case Granularity::kThread:
      return "Thread";
    case Granularity::kWarp:
      return "Warp";
    case Granularity::kCta:
      return "CTA";
    case Granularity::kGrid:
      return "Grid";
  }
  return "?";
}

Granularity classify_degree(graph::edge_t degree,
                            const ClassifyThresholds& t) {
  if (degree >= t.grid) return Granularity::kGrid;
  if (degree >= t.cta) return Granularity::kCta;
  if (degree >= t.warp) return Granularity::kWarp;
  return Granularity::kThread;
}

std::size_t ClassifiedQueues::total() const {
  std::size_t sum = 0;
  for (const auto& q : queues) sum += q.size();
  return sum;
}

ClassifiedQueues classify_frontiers(const graph::Csr& g,
                                    std::span<const graph::vertex_t> frontier,
                                    const sim::MemoryModel& mm,
                                    sim::KernelRecord& record,
                                    const ClassifyThresholds& t) {
  ClassifiedQueues out;
  const graph::vertex_t n = g.num_vertices();
  for (graph::vertex_t v : frontier) {
    // An injected flip can push a queue entry out of range; classify it as
    // degree-0 instead of reading past the offset table (the expansion
    // kernels carry the same guard, and the integrity audit flags it).
    const graph::edge_t degree = v < n ? g.out_degree(v) : 0;
    out.of(classify_degree(degree, t)).push_back(v);
  }
  // Cost: one balanced pass over the frontier — load vertex id + two row
  // offsets (degree), store into one of four bins.
  sim::WarpAccumulator acc(mm.spec().warp_size);
  acc.add_threads(frontier.size(), kScanCycles + kBinWriteCycles);
  acc.charge(record);
  mm.record_load(record.mem, sim::AccessPattern::kSequential, frontier.size(),
                 sizeof(graph::vertex_t));
  mm.record_load(record.mem, sim::AccessPattern::kStrided, frontier.size(),
                 sizeof(graph::edge_t) * 2);  // row offsets of each frontier
  mm.record_store(record.mem, sim::AccessPattern::kSequential, frontier.size(),
                  sizeof(graph::vertex_t));
  return out;
}

}  // namespace ent::enterprise
