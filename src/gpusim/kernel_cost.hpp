// Kernel cost model.
//
// Kernels execute their real algorithm on the host while recording
// (a) per-warp SIMT cycles — each warp costs the *maximum* of its threads'
// work, which is exactly the divergence/imbalance effect §3 Challenge #2
// describes — and (b) aggregate memory streams (memory_model.hpp). The cost
// model then prices a launch:
//
//   issue time    = warp_cycles / (num_smx x warp_schedulers)
//   bandwidth time= dram_bytes / peak bandwidth
//   latency time  = random transactions x global latency / in-flight warps
//                   (few resident warps => latency cannot be hidden; this is
//                   what penalizes under-occupied launches such as the
//                   status-array baseline at sparse levels)
//   kernel time   = max(of the three) + launch overhead
//
// Hyper-Q (§2.2): a level's kernels launched as one ConcurrentGroup share
// the device, so the group costs max over the same three aggregate terms —
// not the sum of per-kernel times — reproducing the "significant
// overlapping" of Thread/Warp/CTA kernels in Fig. 8.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gpusim/memory_model.hpp"
#include "gpusim/spec.hpp"

namespace ent::sim {

struct KernelRecord {
  std::string name;
  // Sum over warps of max-thread-work cycles (SIMT issue slots consumed).
  std::uint64_t warp_cycles = 0;
  // Longest single work item's serial completion chain (iterations x
  // per-iteration latency). A kernel cannot finish before its largest
  // frontier does — the §4.2 ExtremeQueue motivation: a CTA on a 2.5M-edge
  // vertex needs >10,000 iterations and "may greatly prolong the traversal
  // of the whole level".
  std::uint64_t critical_cycles = 0;
  // Sum over threads of useful work cycles (instructions executed).
  std::uint64_t thread_cycles = 0;
  // Threads launched (incl. idle ones) and threads that did useful work.
  std::uint64_t launched_threads = 0;
  std::uint64_t active_threads = 0;
  MemoryCounters mem;

  // Filled by the cost model.
  double time_ms = 0.0;

  void add(const KernelRecord& other);
};

// Groups per-thread work into warps of warp_size and charges the SIMT
// maximum per warp. Feed thread work in launch order.
class WarpAccumulator {
 public:
  explicit WarpAccumulator(unsigned warp_size) : warp_size_(warp_size) {}

  void add_thread(std::uint64_t work_cycles);
  // Same totals as `count` add_thread(work_cycles) calls, in O(1): a uniform
  // launch costs host time per distinct work item, not per thread.
  void add_threads(std::uint64_t count, std::uint64_t work_cycles);
  // Flushes a partial warp (idle lanes cost nothing extra beyond the max).
  void finish();

  std::uint64_t warp_cycles() const { return warp_cycles_; }
  std::uint64_t thread_cycles() const { return thread_cycles_; }
  std::uint64_t threads() const { return threads_; }
  std::uint64_t active_threads() const { return active_threads_; }
  std::uint64_t num_warps() const { return warps_; }

 private:
  unsigned warp_size_;
  unsigned lane_ = 0;
  std::uint64_t current_max_ = 0;
  std::uint64_t warp_cycles_ = 0;
  std::uint64_t thread_cycles_ = 0;
  std::uint64_t threads_ = 0;
  std::uint64_t active_threads_ = 0;
  std::uint64_t warps_ = 0;
};

class KernelCostModel {
 public:
  // The spec is copied: a model constructed from a temporary spec stays
  // valid.
  explicit KernelCostModel(DeviceSpec spec) : spec_(std::move(spec)) {}

  // Price one kernel running alone; fills record.time_ms and returns it.
  double price(KernelRecord& record) const;

  // Price a Hyper-Q concurrent group. Each member also gets its standalone
  // time_ms (used by the Fig. 8 timeline); the returned group time reflects
  // the overlap.
  double price_concurrent(std::span<KernelRecord> records) const;

  const DeviceSpec& spec() const { return spec_; }

 private:
  struct Terms {
    double issue_ms = 0.0;
    double bandwidth_ms = 0.0;
    double latency_ms = 0.0;
    double critical_ms = 0.0;
  };
  Terms terms(const KernelRecord& record) const;

  DeviceSpec spec_;
};

}  // namespace ent::sim
