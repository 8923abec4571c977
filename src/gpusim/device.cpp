#include "gpusim/device.hpp"

#include "gpusim/fault.hpp"
#include "obs/trace_sink.hpp"

namespace ent::sim {

Device::Device(DeviceSpec spec)
    : spec_(std::move(spec)), memory_(spec_), cost_(spec_) {}

double Device::run_kernel(KernelRecord record) {
  if (injector_ != nullptr) {
    injector_->on_kernel(device_id_, record.name, elapsed_ms_);
  }
  double t = cost_.price(record);
  if (injector_ != nullptr && injector_->has_slow_rules()) {
    // Fail-slow rules stretch the priced time — no exception, the fault is
    // invisible except through timing. The record keeps the stretched time
    // so timelines and the straggler detector see what the level saw.
    t += injector_->slow_penalty_ms(device_id_, record.name, t, elapsed_ms_);
    record.time_ms = t;
  }
  elapsed_ms_ += t;
  if (sink_ != nullptr) {
    sink_->kernel({record.name, t, elapsed_ms_, /*concurrent=*/false,
                   static_cast<int>(device_id_)});
  }
  timeline_.push_back(std::move(record));
  return t;
}

double Device::run_concurrent(std::span<KernelRecord> records) {
  if (injector_ != nullptr) {
    // Each group member is a launch; a fault on any member aborts the whole
    // Hyper-Q group before anything is priced or retired.
    for (const KernelRecord& r : records) {
      injector_->on_kernel(device_id_, r.name, elapsed_ms_);
    }
  }
  double t = cost_.price_concurrent(records);
  if (!records.empty() && injector_ != nullptr &&
      injector_->has_slow_rules()) {
    // One penalty for the whole Hyper-Q window, proportional to the group
    // time: the slow device runs everything it overlaps slower. Member
    // records keep their standalone relative times but stretch by the same
    // ratio so the timeline still sums consistently.
    const double penalty = injector_->slow_penalty_ms(
        device_id_, records.front().name, t, elapsed_ms_);
    if (penalty > 0.0 && t > 0.0) {
      const double scale = (t + penalty) / t;
      for (KernelRecord& r : records) r.time_ms *= scale;
    }
    t += penalty;
  }
  elapsed_ms_ += t;
  for (KernelRecord& r : records) {
    if (sink_ != nullptr) {
      // Members report their standalone time (Fig. 8 timeline); the group
      // retires together, so they share the end-of-group clock.
      sink_->kernel({r.name, r.time_ms, elapsed_ms_, /*concurrent=*/true,
                     static_cast<int>(device_id_)});
    }
    timeline_.push_back(std::move(r));
  }
  return t;
}

void Device::reset() {
  elapsed_ms_ = 0.0;
  timeline_.clear();
}

}  // namespace ent::sim
