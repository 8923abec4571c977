#include "gpusim/kernel_cost.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace ent::sim {

void KernelRecord::add(const KernelRecord& other) {
  warp_cycles += other.warp_cycles;
  critical_cycles = std::max(critical_cycles, other.critical_cycles);
  thread_cycles += other.thread_cycles;
  launched_threads += other.launched_threads;
  active_threads += other.active_threads;
  mem.add(other.mem);
  time_ms += other.time_ms;
}

void WarpAccumulator::add_threads(std::uint64_t count,
                                  std::uint64_t work_cycles) {
  if (count == 0) return;
  thread_cycles_ += count * work_cycles;
  threads_ += count;
  if (work_cycles > 0) active_threads_ += count;
  // Top up the open warp; it closes only if the launch reaches its end.
  const std::uint64_t fill =
      std::min<std::uint64_t>(count, warp_size_ - lane_);
  current_max_ = std::max(current_max_, work_cycles);
  lane_ += static_cast<unsigned>(fill);
  if (lane_ == warp_size_) finish();
  // The rest forms whole warps of equal cost plus an open partial warp.
  const std::uint64_t rest = count - fill;
  warp_cycles_ += rest / warp_size_ * work_cycles;
  warps_ += rest / warp_size_;
  if (rest % warp_size_ != 0) {
    lane_ = static_cast<unsigned>(rest % warp_size_);
    current_max_ = work_cycles;
  }
}

void WarpAccumulator::finish() {
  if (lane_ == 0) return;
  warp_cycles_ += current_max_;
  ++warps_;
  lane_ = 0;
  current_max_ = 0;
}

void WarpAccumulator::charge(KernelRecord& record) {
  finish();
  record.warp_cycles += warp_cycles_;
  record.thread_cycles += thread_cycles_;
  record.launched_threads += threads_;
  record.active_threads += active_threads_;
}

KernelCostModel::Terms KernelCostModel::terms(
    const KernelRecord& record) const {
  Terms t;
  const DeviceSpec& s = spec_;

  // Issue-throughput bound: every warp's SIMT-max cycles must be issued;
  // the device issues num_smx x warp_schedulers warp-instructions per cycle.
  const double issue_slots_per_cycle =
      static_cast<double>(s.num_smx) * s.warp_schedulers;
  const double issue_cycles =
      static_cast<double>(record.warp_cycles) / issue_slots_per_cycle;
  t.issue_ms = issue_cycles / (s.core_clock_ghz * 1e6);

  // Bandwidth bound.
  t.bandwidth_ms =
      static_cast<double>(record.mem.dram_bytes) / (s.mem_bandwidth_gbs * 1e6);

  // Latency bound: random-sector loads must wait the full global latency;
  // warps with outstanding requests overlap those waits. Latency-hiding
  // capacity is the resident-warp count derated by the fraction of threads
  // actually issuing work — a CTA parked on a degree-2 frontier keeps one
  // lane busy and 255 idle, so over-committed launches (status-array
  // baseline, fixed-CTA expansion) hide far less latency than their launch
  // size suggests. This is the §3 "31% of threads would idle" effect.
  // Requests in flight = threads simultaneously resident AND active: each
  // active lane keeps one outstanding load (its neighbor-walk loads are
  // dependent), idle lanes keep none. Over-committed launches (status-array
  // baseline, fixed-CTA expansion) are mostly idle lanes, so their few
  // active threads expose nearly the full latency per request.
  const double resident_threads = static_cast<double>(std::min<std::uint64_t>(
      record.launched_threads,
      static_cast<std::uint64_t>(s.max_resident_warps()) * s.warp_size));
  const double activity =
      record.launched_threads > 0
          ? static_cast<double>(record.active_threads) /
                static_cast<double>(record.launched_threads)
          : 1.0;
  const double inflight = std::max(1.0, resident_threads * activity);
  const double latency_cycles =
      static_cast<double>(record.mem.random_transactions) *
      s.global_latency_cycles / inflight;
  t.latency_ms = latency_cycles / (s.core_clock_ghz * 1e6);

  t.critical_ms = static_cast<double>(record.critical_cycles) /
                  (s.core_clock_ghz * 1e6);
  return t;
}

double KernelCostModel::price(KernelRecord& record) const {
  const Terms t = terms(record);
  record.time_ms =
      std::max({t.issue_ms, t.bandwidth_ms, t.latency_ms, t.critical_ms}) +
      spec_.launch_overhead_us * 1e-3;
  return record.time_ms;
}

double KernelCostModel::price_concurrent(
    std::span<KernelRecord> records) const {
  if (records.empty()) return 0.0;
  Terms group;
  for (KernelRecord& r : records) {
    price(r);  // standalone time for timeline reporting
    const Terms t = terms(r);
    group.issue_ms += t.issue_ms;
    group.bandwidth_ms += t.bandwidth_ms;
    // Latency exposure and per-item chains from different kernels overlap:
    // concurrent kernels add resident warps. The largest stands.
    group.latency_ms = std::max(group.latency_ms, t.latency_ms);
    group.critical_ms = std::max(group.critical_ms, t.critical_ms);
  }
  // Kernels contend for the same issue slots and DRAM, so throughput terms
  // add; they overlap otherwise. One launch overhead per kernel is paid, but
  // Hyper-Q pipelines the submissions, so only the max counts.
  return std::max({group.issue_ms, group.bandwidth_ms, group.latency_ms,
                   group.critical_ms}) +
         spec_.launch_overhead_us * 1e-3;
}

}  // namespace ent::sim
