// Device facade: owns the spec, the memory model, the cost model, and the
// run timeline (every kernel priced, in launch order). BFS drivers talk to
// this object only.
#pragma once

#include <span>
#include <vector>

#include "gpusim/counters.hpp"
#include "gpusim/kernel_cost.hpp"
#include "gpusim/memory_model.hpp"
#include "gpusim/spec.hpp"

namespace ent::obs {
class TraceSink;
}  // namespace ent::obs

namespace ent::sim {

class FaultInjector;

class Device {
 public:
  explicit Device(DeviceSpec spec);

  const DeviceSpec& spec() const { return spec_; }
  MemoryModel& memory() { return memory_; }
  const MemoryModel& memory() const { return memory_; }
  const KernelCostModel& cost() const { return cost_; }

  // Price and retire one kernel; advances the device clock. Returns the
  // kernel time in ms.
  double run_kernel(KernelRecord record);

  // Price and retire a Hyper-Q concurrent group; the clock advances by the
  // overlapped group time while each member keeps its standalone time for
  // timeline reporting. Returns the group time in ms. The records are moved
  // into the timeline, so the caller can reuse their storage.
  double run_concurrent(std::span<KernelRecord> records);

  // Simulated time since construction/reset.
  double elapsed_ms() const { return elapsed_ms_; }

  // Clears the clock and timeline; the working-set registration and the
  // attached trace sink persist.
  void reset();

  // Observability tap: every retired kernel is mirrored to `sink` as an
  // obs::KernelEvent (null detaches). The sink must outlive the device or
  // be detached first; the device's own timeline is unaffected.
  void set_trace_sink(obs::TraceSink* sink) { sink_ = sink; }
  obs::TraceSink* trace_sink() const { return sink_; }

  // Fault injection tap (gpusim/fault.hpp): when attached, every launch is
  // offered to the injector before pricing and may raise a typed SimFault;
  // a faulted launch never reaches the timeline or the clock. The id names
  // this device to the injector's rules and blacklist.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }
  void set_device_id(unsigned id) { device_id_ = id; }
  unsigned device_id() const { return device_id_; }

  std::span<const KernelRecord> timeline() const { return timeline_; }

  HardwareCounters counters() const {
    return derive_counters(spec_, timeline_, elapsed_ms_);
  }

 private:
  DeviceSpec spec_;
  MemoryModel memory_;
  KernelCostModel cost_;
  std::vector<KernelRecord> timeline_;
  double elapsed_ms_ = 0.0;
  obs::TraceSink* sink_ = nullptr;
  FaultInjector* injector_ = nullptr;
  unsigned device_id_ = 0;
};

}  // namespace ent::sim
