// BL — the paper's baseline (§5.1): "direction-optimizing BFS with the
// status array approach... we use CTA to work on each vertex in the status
// array, which is much faster than assigning a thread or warp." Every level
// launches one CTA per *vertex*; non-frontier CTAs idle after their status
// check (Challenge #1's over-commitment). Direction switching uses the
// classic alpha/beta heuristics [10].
#pragma once

#include <memory>

#include "bfs/result.hpp"
#include "enterprise/classify.hpp"
#include "graph/csr.hpp"
#include "gpusim/device.hpp"
#include "gpusim/spec.hpp"

namespace ent::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace ent::obs

namespace ent::sim {
class FaultInjector;
}  // namespace ent::sim

namespace ent::baselines {

struct StatusArrayOptions {
  // Granularity assigned to each status-array entry. The paper's BL uses
  // CTA; the GraphBIG-like comparator uses Thread.
  enterprise::Granularity granularity = enterprise::Granularity::kCta;
  bool allow_direction_switch = true;
  double alpha = 15.0;   // top-down -> bottom-up threshold [10]
  double beta = 18.0;    // bottom-up -> top-down: n / n_f > beta switches back
  sim::DeviceSpec device = sim::k40();
  // Observability taps (obs/); null disables. Must outlive the system.
  obs::TraceSink* sink = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Fault-injection tap (gpusim/fault.hpp) and the physical id this
  // system's device reports in fault events; null disables.
  sim::FaultInjector* fault_injector = nullptr;
  unsigned device_ordinal = 0;
};

class StatusArrayBfs {
 public:
  StatusArrayBfs(const graph::Csr& g, StatusArrayOptions options = {});
  ~StatusArrayBfs();

  StatusArrayBfs(const StatusArrayBfs&) = delete;
  StatusArrayBfs& operator=(const StatusArrayBfs&) = delete;

  bfs::BfsResult run(graph::vertex_t source);

  const sim::Device& device() const { return *device_; }
  const StatusArrayOptions& options() const { return options_; }

 private:
  const graph::Csr* graph_;
  const graph::Csr* in_edges_;  // g.in_edges()
  StatusArrayOptions options_;
  std::unique_ptr<sim::Device> device_;
};

}  // namespace ent::baselines
