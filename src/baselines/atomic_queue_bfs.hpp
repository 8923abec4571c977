// Atomic-operation-based frontier queue BFS (§2.1's first approach,
// Fig. 1(b)): top-down only; discovered vertices are enqueued with
// atomicCAS so the queue never holds duplicates. The atomics serialize
// contending threads — the overhead Enterprise's two-step queue generation
// eliminates.
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

namespace ent::baselines {

struct AtomicQueueOptions {
  sim::DeviceSpec device = sim::k40();
  // Observability taps (obs/); null disables. Must outlive the system.
  obs::TraceSink* sink = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

class AtomicQueueBfs {
 public:
  // Each frontier's adjacency list is walked by one warp.
  static constexpr enterprise::Granularity kGranularity =
      enterprise::Granularity::kWarp;

  AtomicQueueBfs(const graph::Csr& g, AtomicQueueOptions options = {});

  bfs::BfsResult run(graph::vertex_t source);

  const sim::Device& device() const { return *device_; }
  const AtomicQueueOptions& options() const { return options_; }

 private:
  const graph::Csr* graph_;
  AtomicQueueOptions options_;
  std::unique_ptr<sim::Device> device_;
};

}  // namespace ent::baselines
