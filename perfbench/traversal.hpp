// Direct engine traversals through bfs::Engine::run (perfbench/README.md).
#pragma once

#include <functional>
#include <vector>

#include "bfs/engine.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

// Per-source samples of the untraced loop. Each source is traversed once per
// pass; a source's time is its fastest repeat, which filters out pauses
// caused by other tenants of the host (README, "Noise").
struct EngineSamples {
  std::vector<double> best_run_ms;     // Engine::run host wall time
  std::vector<double> best_answer_ms;  // run + validate_tree
  std::vector<double> edges;           // edges_traversed
  std::vector<double> teps;            // simulated TEPS
};

// Untraced: one warm-up run, then whole passes of run + validate_tree over
// the sources for about `seconds`, calling `between_passes` after each.
// Repeats of a source must reproduce the simulated result exactly.
EngineSamples time_engine(ent::bfs::Engine& engine, const ent::graph::Csr& g,
                          const ent::graph::Csr& reverse,
                          const std::vector<ent::graph::vertex_t>& sources,
                          double seconds, Report& report,
                          const std::function<void()>& between_passes = {});

// Folds a later loop over the same sources into `into`: each source keeps
// its fastest repeat of either loop.
void merge_fastest(EngineSamples& into, const EngineSamples& later);

// bfs_ms_p50, bfs_ms_tail, host_mteps and sim_gteps.
void report_engine_e2e(const EngineSamples& samples, Report& report);

// Traced: every call into a layer in its own span, each tree checked by
// validate_tree and against cpu_bfs; sets the enterprise, gpusim, bfs and
// baselines per-layer metrics. `registry` is the one attached to `engine`.
void trace_engine(ent::bfs::Engine& engine,
                  const ent::obs::MetricsRegistry& registry,
                  const ent::graph::Csr& g, const ent::graph::Csr& reverse,
                  const std::vector<ent::graph::vertex_t>& sources,
                  double seconds, Tracer& tracer, Report& report);

// Alternates an untraced engine with the traced one (metrics attached, run
// inside a span) and reports obs.trace_overhead_frac.
void measure_overhead(ent::bfs::Engine& plain, ent::bfs::Engine& traced,
                      const std::vector<ent::graph::vertex_t>& sources,
                      double seconds, Tracer& tracer, Report& report);

}  // namespace perfbench
