#include "enterprise/frontier_queue.hpp"

#include <bit>

#include "enterprise/cost_constants.hpp"
#include "util/assert.hpp"

namespace ent::enterprise {

using graph::vertex_t;
using sim::AccessPattern;

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

std::vector<vertex_t> FrontierQueueGenerator::harvest(
    BitArray& discovered, sim::KernelRecord& record) const {
  std::vector<vertex_t> queue;
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
  return queue;
}

std::vector<vertex_t> FrontierQueueGenerator::direction_switch(
    const StatusArray& status, const HubRefill& refill,
    sim::KernelRecord& record, ScanLayout layout) const {
  return direction_switch(status, refill, 0, status.size(), record, layout);
}

std::vector<vertex_t> FrontierQueueGenerator::direction_switch(
    const StatusArray& status, const HubRefill& refill, vertex_t begin,
    vertex_t end, sim::KernelRecord& record, ScanLayout layout) const {
  ENT_ASSERT(refill.cache == nullptr || refill.hub_flags != nullptr);
  std::vector<vertex_t> queue;
  std::uint64_t cache_inserts = 0;
  for (vertex_t v = begin; v < end; ++v) {
    if (!status.visited(v)) {
      queue.push_back(v);
    } else if (refill.cache != nullptr &&
               status.level(v) == refill.just_visited_level &&
               (*refill.hub_flags)[v] != 0) {
      refill.cache->insert(v);
      ++cache_inserts;
    }
  }
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
  ENT_ASSERT(refill.cache == nullptr || refill.hub_flags != nullptr);
  std::vector<vertex_t> queue;
  queue.reserve(previous.size());
  std::uint64_t cache_inserts = 0;
  const vertex_t n = status.size();
  for (vertex_t v : previous) {
    // Bounds guard: never fires on a valid queue, keeps an injected silent
    // flip in `previous` from reading past the status array. The corrupted
    // entry is dropped here; the integrity audit catches the flip itself.
    if (v >= n) continue;
    if (!status.visited(v)) {
      queue.push_back(v);
    } else if (refill.cache != nullptr &&
               status.level(v) == refill.just_visited_level &&
               (*refill.hub_flags)[v] != 0) {
      // v left the unvisited set this level; if it is a hub it is a likely
      // parent for next level's frontiers.
      refill.cache->insert(v);
      ++cache_inserts;
    }
  }
  // Only the (fast-shrinking) previous queue is rescanned, not the whole
  // status array; the queue entries are sorted but sparse, so the status
  // gather is sector-granular.
  charge_scan(record, previous.size(), queue.size(), AccessPattern::kStrided);
  mm_->record_shared(record.mem, cache_inserts);
  record.thread_cycles += cache_inserts * kCacheProbeCycles;
  return queue;
}

}  // namespace ent::enterprise
