// Umbrella header: the library's public API in one include.
//
//   #include "enterprise.hpp"
//
//   auto g   = ent::graph::generate_kronecker({.scale = 20, .edge_factor = 16});
//   auto bfs = ent::enterprise::EnterpriseBfs(g);
//   auto r   = bfs.run(source);
//
// Individual headers remain includable for finer-grained dependencies.
#pragma once

#include "algorithms/analytics.hpp"
#include "baselines/atomic_queue_bfs.hpp"
#include "baselines/comparators.hpp"
#include "baselines/cpu_bfs.hpp"
#include "baselines/cpu_parallel_bfs.hpp"
#include "baselines/status_array_bfs.hpp"
#include "bfs/engine.hpp"
#include "bfs/result.hpp"
#include "bfs/runner.hpp"
#include "bfs/telemetry.hpp"
#include "bfs/trace_io.hpp"
#include "bfs/validate.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "enterprise/multi_gpu_bfs.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "graph/suite.hpp"
#include "graph/transform.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpusim/spec.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace_sink.hpp"
