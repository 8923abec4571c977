#include "enterprise/classify.hpp"

#include <algorithm>
#include <memory>

#include "enterprise/cost_constants.hpp"
#include "util/pool.hpp"

namespace ent::enterprise {
namespace {

// Frontier entries per block of the pooled classification.
constexpr std::size_t kClassifyBlock = 16384;

}  // namespace

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

void classify_frontiers(const graph::Csr& g,
                        std::span<const graph::vertex_t> frontier,
                        const sim::MemoryModel& mm, sim::KernelRecord& record,
                        ClassifiedQueues& out, const ClassifyThresholds& t) {
  using graph::vertex_t;
  const vertex_t n = g.num_vertices();
  const graph::edge_t* const rows = g.row_offsets().data();
  // An injected flip can push a queue entry out of range; classify it as
  // degree-0 instead of reading past the offset table (the expansion
  // kernels carry the same guard, and the integrity audit flags it).
  const auto class_of = [n, rows, t](vertex_t v) {
    return static_cast<std::size_t>(
        classify_degree(v < n ? rows[v + 1] - rows[v] : 0, t));
  };
  // Each block sorts its entries into the four classes, stably; each class
  // then concatenates the blocks' shares in block order, so it keeps the
  // frontier's order. Block 0 writes straight into the classes. A later
  // block writes class c into its own scratch region c, as long as the
  // block itself.
  for (auto& q : out.queues) q.clear();
  const std::size_t count = frontier.size();
  const std::size_t head = std::min(count, kClassifyBlock);
  const std::size_t tail = count - head;
  const auto scratch = tail == 0 ? nullptr
                                 : std::make_unique_for_overwrite<vertex_t[]>(
                                       4 * tail);
  std::vector<std::array<std::size_t, 4>> sizes(
      (tail + kClassifyBlock - 1) / kClassifyBlock);
  util::host_pool().for_each_block(
      count, kClassifyBlock, [&](std::size_t begin, std::size_t end) {
        // Locals, so the stores below cannot force the captures to reload.
        const auto classify = class_of;
        const vertex_t* const ids = frontier.data();
        if (begin == 0) {
          for (std::size_t i = 0; i < end; ++i) {
            out.queues[classify(ids[i])].push_back(ids[i]);
          }
          return;
        }
        const std::size_t len = end - begin;
        vertex_t* const region = scratch.get() + 4 * (begin - head);
        std::array<std::size_t, 4> size{};
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t c = classify(ids[i]);
          region[c * len + size[c]++] = ids[i];
        }
        sizes[begin / kClassifyBlock - 1] = size;
      });
  for (std::size_t c = 0; c < 4; ++c) {
    std::size_t total = out.queues[c].size();
    for (const auto& size : sizes) total += size[c];
    out.queues[c].reserve(total);
    for (std::size_t b = 0; b < sizes.size(); ++b) {
      const std::size_t begin = head + b * kClassifyBlock;
      const std::size_t len = std::min(count, begin + kClassifyBlock) - begin;
      const vertex_t* const share =
          scratch.get() + 4 * (begin - head) + c * len;
      out.queues[c].insert(out.queues[c].end(), share, share + sizes[b][c]);
    }
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
}

}  // namespace ent::enterprise
