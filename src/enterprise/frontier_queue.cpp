#include "enterprise/frontier_queue.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "enterprise/cost_constants.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"

namespace ent::enterprise {

using graph::vertex_t;
using sim::AccessPattern;

namespace {

// Items per block of the pooled status scans.
constexpr std::size_t kScanBlock = 16384;

// The unvisited vertices among item(0) .. item(count - 1), in item order.
// Visited ones at refill.just_visited_level that are hubs go into the cache,
// in item order too, since the direct-mapped cache keeps the last writer;
// `cache_inserts` counts them. Out-of-range items are dropped: never on valid
// data, they keep an injected silent flip in a queue from reading past the
// status array (the integrity audit catches the flip itself).
//
// Block 0 writes straight into the queue and the cache. A later block writes
// into scratch as long as itself, kept vertices from the front and hubs from
// the back; after the loop its kept vertices are appended and its hubs
// inserted, in block order.
template <class Item>
std::vector<vertex_t> unvisited(std::size_t count, Item item,
                                const StatusArray& status,
                                const HubRefill& refill,
                                std::uint64_t& cache_inserts) {
  ENT_ASSERT(refill.cache == nullptr || refill.hub_flags != nullptr);
  const vertex_t n = status.size();
  // No status changes during queue generation, so plain reads are safe.
  const std::int32_t* const levels = status.data().data();
  const bool refilling = refill.cache != nullptr;
  const std::int32_t hub_level = refill.just_visited_level;
  const std::uint8_t* const hub_flags =
      refilling ? refill.hub_flags->data() : nullptr;
  // Captures by value: the keep and hub stores cannot force them to reload.
  const auto sort_block = [item, n, levels, refilling, hub_level, hub_flags](
                              std::size_t begin, std::size_t end, auto&& keep,
                              auto&& hub) {
    for (std::size_t i = begin; i < end; ++i) {
      const vertex_t v = item(i);
      if (v >= n) continue;
      const std::int32_t level = levels[v];
      if (level == kUnvisited) {
        keep(v);
      } else if (refilling && level == hub_level && hub_flags[v] != 0) {
        // v left the unvisited set at that level; if it is a hub it is a
        // likely parent for the next level's frontiers.
        hub(v);
      }
    }
  };
  std::vector<vertex_t> queue;
  const std::size_t head = std::min(count, kScanBlock);
  queue.reserve(head);
  const std::size_t tail = count - head;
  const auto scratch =
      tail == 0 ? nullptr : std::make_unique_for_overwrite<vertex_t[]>(tail);
  struct Share {
    std::size_t kept = 0;
    std::size_t hubs = 0;
  };
  std::vector<Share> shares((tail + kScanBlock - 1) / kScanBlock);
  util::host_pool().for_each_block(
      count, kScanBlock, [&](std::size_t begin, std::size_t end) {
        if (begin == 0) {
          sort_block(
              begin, end, [&](vertex_t v) { queue.push_back(v); },
              [&](vertex_t v) {
                refill.cache->insert(v);
                ++cache_inserts;
              });
          return;
        }
        vertex_t* const first = scratch.get() + (begin - head);
        vertex_t* const last = first + (end - begin);
        Share share;
        sort_block(
            begin, end, [&](vertex_t v) { first[share.kept++] = v; },
            [&](vertex_t v) { *(last - 1 - share.hubs++) = v; });
        shares[begin / kScanBlock - 1] = share;
      });
  std::size_t total = queue.size();
  for (const Share& share : shares) total += share.kept;
  queue.reserve(total);
  for (std::size_t b = 0; b < shares.size(); ++b) {
    const std::size_t begin = b * kScanBlock;
    vertex_t* const first = scratch.get() + begin;
    queue.insert(queue.end(), first, first + shares[b].kept);
    vertex_t* const last = first + (std::min(tail, begin + kScanBlock) - begin);
    for (std::size_t h = 1; h <= shares[b].hubs; ++h) {
      refill.cache->insert(*(last - h));
    }
    cache_inserts += shares[b].hubs;
  }
  return queue;
}

}  // namespace

FrontierQueueGenerator::FrontierQueueGenerator(const sim::MemoryModel& mm,
                                               unsigned scan_threads)
    : mm_(&mm), scan_threads_(scan_threads) {
  ENT_ASSERT(scan_threads >= 1);
}

void FrontierQueueGenerator::charge_scan(sim::KernelRecord& record,
                                         std::uint64_t elements_scanned,
                                         std::uint64_t frontiers_found,
                                         AccessPattern status_pattern) const {
  const std::uint64_t threads = scan_threads_;
  // Balanced scan: every thread covers ceil(elements/threads) statuses and
  // appends its share of frontiers to a private bin — no synchronization.
  const std::uint64_t per_thread =
      threads == 0 ? 0 : (elements_scanned + threads - 1) / threads;
  const std::uint64_t bin_share =
      threads == 0 ? 0 : (frontiers_found + threads - 1) / threads;
  sim::WarpAccumulator acc(mm_->spec().warp_size);
  const std::uint64_t launched = std::min<std::uint64_t>(
      threads, std::max<std::uint64_t>(elements_scanned, 1));
  acc.add_threads(launched,
                  per_thread * kScanCycles + bin_share * kBinWriteCycles);
  acc.charge(record);

  // Prefix sum over bin counts + parallel bin copy into the dense queue.
  record.warp_cycles += launched * kPrefixSumCycles / mm_->spec().warp_size + 1;
  record.thread_cycles += launched * kPrefixSumCycles;

  // Memory: the status scan, bin writes, prefix-sum traffic, and the final
  // gather of bins into the queue.
  mm_->record_load(record.mem, status_pattern, elements_scanned, kStatusBytes);
  mm_->record_store(record.mem, AccessPattern::kSequential, frontiers_found,
                    sizeof(vertex_t));
  mm_->record_load(record.mem, AccessPattern::kSequential, launched,
                   sizeof(std::uint64_t));
  mm_->record_store(record.mem, AccessPattern::kSequential, launched,
                    sizeof(std::uint64_t));
  mm_->record_load(record.mem, AccessPattern::kSequential, frontiers_found,
                   sizeof(vertex_t));
  mm_->record_store(record.mem, AccessPattern::kSequential, frontiers_found,
                    sizeof(vertex_t));
}

std::vector<vertex_t> FrontierQueueGenerator::top_down(
    const StatusArray& status, std::int32_t level,
    sim::KernelRecord& record) const {
  return top_down(status, level, 0, status.size(), record);
}

std::vector<vertex_t> FrontierQueueGenerator::top_down(
    const StatusArray& status, std::int32_t level, vertex_t begin,
    vertex_t end, sim::KernelRecord& record) const {
  // Host scan: count matches per fixed block (a constant-trip loop the
  // compiler vectorizes), then gather only the blocks that hold one. Every
  // status is still read each level, so an injected status flip shows up in
  // the queue exactly as the device scan would see it; the queue comes out
  // ascending.
  ENT_ASSERT(begin <= end && end <= status.size());
  constexpr vertex_t kBlock = 256;
  const std::int32_t* const levels = status.data().data();
  std::vector<vertex_t> queue;
  const auto gather = [&](vertex_t from, vertex_t to) {
    for (vertex_t v = from; v < to; ++v) {
      if (levels[v] == level) queue.push_back(v);
    }
  };
  vertex_t block = begin;
  for (; end - block >= kBlock; block += kBlock) {
    const std::int32_t* const chunk = levels + block;
    std::uint32_t matches = 0;
    for (std::size_t i = 0; i < kBlock; ++i) {
      matches += chunk[i] == level ? 1u : 0u;
    }
    if (matches != 0) gather(block, block + kBlock);
  }
  gather(block, end);  // the tail shorter than one block
  // Interleaved scan: thread t covers {t, t+T, ...}, so consecutive threads
  // read consecutive statuses — fully coalesced. The concatenated bins put
  // the queue out of vertex order; the cost model tags downstream adjacency
  // loads by queue order, so physical reordering here is unnecessary.
  charge_scan(record, end - begin, queue.size(), AccessPattern::kSequential);
  return queue;
}

void FrontierQueueGenerator::harvest(BitArray& discovered,
                                     std::vector<vertex_t>& queue,
                                     sim::KernelRecord& record) const {
  queue.clear();
  const std::span<std::uint64_t> words = discovered.words();
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::uint64_t word = words[i];
    if (word == 0) continue;
    words[i] = 0;
    const auto base = static_cast<vertex_t>(i * 64);
    for (; word != 0; word &= word - 1) {
      queue.push_back(base + static_cast<vertex_t>(std::countr_zero(word)));
    }
  }
  // The device still scans every status: the charge is top_down's.
  charge_scan(record, discovered.size(), queue.size(),
              AccessPattern::kSequential);
}

std::vector<vertex_t> FrontierQueueGenerator::direction_switch(
    const StatusArray& status, const HubRefill& refill,
    sim::KernelRecord& record, ScanLayout layout) const {
  return direction_switch(status, refill, 0, status.size(), record, layout);
}

std::vector<vertex_t> FrontierQueueGenerator::direction_switch(
    const StatusArray& status, const HubRefill& refill, vertex_t begin,
    vertex_t end, sim::KernelRecord& record, ScanLayout layout) const {
  ENT_ASSERT(begin <= end && end <= status.size());
  std::uint64_t cache_inserts = 0;
  std::vector<vertex_t> queue = unvisited(
      end - begin,
      [begin](std::size_t i) { return begin + static_cast<vertex_t>(i); },
      status, refill, cache_inserts);
  // Chunked scan: thread t reads one contiguous block, so a warp touches 32
  // scattered lines per instruction — strided, ~2.4x the scan time — but
  // each bin (and hence the queue) comes out sorted. The interleaved layout
  // reads coalesced yet leaves the queue scattered.
  charge_scan(record, end - begin, queue.size(),
              layout == ScanLayout::kChunked ? AccessPattern::kStrided
                                             : AccessPattern::kSequential);
  mm_->record_shared(record.mem, cache_inserts);
  record.thread_cycles += cache_inserts * kCacheProbeCycles;
  return queue;
}

std::vector<vertex_t> FrontierQueueGenerator::bottom_up_filter(
    std::span<const vertex_t> previous, const StatusArray& status,
    const HubRefill& refill, sim::KernelRecord& record) const {
  std::uint64_t cache_inserts = 0;
  std::vector<vertex_t> queue = unvisited(
      previous.size(), [previous](std::size_t i) { return previous[i]; },
      status, refill, cache_inserts);
  // Only the (fast-shrinking) previous queue is rescanned, not the whole
  // status array; the queue entries are sorted but sparse, so the status
  // gather is sector-granular.
  charge_scan(record, previous.size(), queue.size(), AccessPattern::kStrided);
  mm_->record_shared(record.mem, cache_inserts);
  record.thread_cycles += cache_inserts * kCacheProbeCycles;
  return queue;
}

}  // namespace ent::enterprise
