// Shared vocabulary of the repo benchmark (perfbench/README.md): run
// options, the metric report, the in-memory span tracer, sample statistics
// and the input helpers every workload uses. The benchmark drives the
// library only through its public headers; nothing here reaches into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "serve/service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;            // tiny inputs for the self-check
  std::string work_dir;     // where prep files and the span dump go
  std::string commit = "unknown";
};

// --- results -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  // Set when the measurement itself is unusable (the open-loop generator
  // fell behind); the run then reports correct=false.
  std::string invalid;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  // One checked operation; `ok` false counts it as failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 8) errors.push_back(what);
    }
  }
};

// --- tracing -----------------------------------------------------------------

// In-memory span recorder. A span is named "<layer>.<call>" where <layer> is
// one of the repo's modules (graph, enterprise, gpusim, bfs, baselines,
// serve, obs) or "bench" for the benchmark's own work. Spans nest on one
// thread; they are only written out once, after the run.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
  };

  int begin(std::string name);
  void end(int id);

  // Self time (span minus its children) summed per layer over the subtree
  // of `root`; "bench" spans go to "unattributed".
  std::map<std::string, double> self_ms_by_layer(int root) const;
  void write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer makes it a no-op, so untraced runs pay one branch.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// --- statistics --------------------------------------------------------------

// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
// Lowest over fixed windows of `window_ms` (keyed by `at_ms`) of each
// window's q-quantile: the statistic of the least disturbed stretch.
double best_window_quantile(const std::vector<double>& values,
                         const std::vector<double>& at_ms, double window_ms,
                         double q);
// The tail percentile every tail metric reports (README: "Tails").
inline constexpr double kTailQuantile = 0.90;

// --- inputs ------------------------------------------------------------------

// `count` distinct seeded sources from the strongly connected component of
// the highest-degree vertex, so every traversal covers the same giant
// component. `reverse` is the in-edge CSR (the graph itself if undirected).
std::vector<ent::graph::vertex_t> sample_sources(const ent::graph::Csr& g,
                                                 const ent::graph::Csr& reverse,
                                                 std::uint64_t seed,
                                                 unsigned count);

double peak_rss_mb();

// Provenance line for the graph a workload measures.
void print_graph(const char* what, const ent::graph::Csr& g);

// --- serving -----------------------------------------------------------------

// One pass of load against a running BfsService. The open-loop phase sends
// Poisson arrivals at `rate_per_s` for `open_seconds` from this thread and
// applies `updates` (in at_ms order) between arrivals; the saturation phase
// then submits `saturation_requests` in `saturation_bursts` bursts whose
// arrivals are all due at once, applying burst_updates[k] mid-burst k.
struct ServeLoad {
  double rate_per_s = 0.0;
  double open_seconds = 0.0;
  unsigned saturation_requests = 0;
  unsigned saturation_bursts = 1;
  std::vector<ent::graph::UpdateBatch> updates;
  std::vector<ent::graph::UpdateBatch> burst_updates;
};

struct ServeMeasurement {
  std::vector<double> latency_ms;     // open loop: due time -> outcome
  std::vector<double> due_ms;         // open loop: due time of each latency
  std::vector<double> gen_lag_ms;     // submit time - due time
  std::vector<double> queue_wait_ms;  // measured phase's admitted requests
  std::vector<double> service_ms;     // total_ms - queue_wait_ms
  std::vector<double> promote_ms;     // BfsService::apply_updates wall time
  std::size_t max_queue_depth = 0;    // sampled at each open-loop submit
  std::vector<double> burst_goodput_rps;  // validated completions/s, by burst
  std::uint64_t rejected = 0;
};

ServeMeasurement drive_service(ent::serve::BfsService& service,
                               const std::vector<ent::graph::vertex_t>& sources,
                               const ServeLoad& load, std::uint64_t seed,
                               Tracer* tracer, Report& report);

// Shared serve-layer checks after shutdown (accounting, drain ledgers) and
// the per-layer serve metrics of a traced run.
void finish_service(ent::serve::BfsService& service,
                    const ServeMeasurement& m, Report& report);
void report_serve_layer(const ent::serve::BfsService& service,
                        const ServeMeasurement& m, Report& report);

ent::serve::ServiceOptions service_options(unsigned workers);

// --- workloads ---------------------------------------------------------------

Report run_batch_workload(const Options& options);  // kron-hub, road-deep
Report run_serve_live(const Options& options);

}  // namespace perfbench
