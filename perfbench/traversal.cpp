// Direct engine traversals: the untraced end-to-end loop, the traced
// per-layer loop, and the tracing-overhead comparison.
#include "traversal.hpp"

#include <algorithm>
#include <thread>
#include <tuple>

#include "baselines/cpu_bfs.hpp"
#include "baselines/cpu_parallel_bfs.hpp"
#include "bfs/validate.hpp"

namespace perfbench {

using ent::bfs::BfsResult;
using ent::graph::Csr;
using ent::graph::vertex_t;

namespace {

// What a repeat of the same source must reproduce bit for bit: the
// simulated clock and every count the model derives.
using Fingerprint = std::tuple<double, ent::graph::edge_t, int, std::size_t,
                               ent::graph::vertex_t>;

Fingerprint fingerprint(const BfsResult& r) {
  return {r.time_ms, r.edges_traversed, r.depth, r.level_trace.size(),
          r.vertices_visited};
}

constexpr int kMinPasses = 2;  // so every source has a repeat to check

// The traced loop runs at least one full pass over the sources, so its
// deterministic aggregates cover the same set on every commit.
bool keep_going(std::size_t done, std::size_t num_sources,
                Clock::time_point start, double seconds) {
  return done < num_sources || ms_since(start) < seconds * 1000.0;
}

}  // namespace

EngineSamples time_engine(ent::bfs::Engine& engine, const Csr& g,
                          const Csr& reverse,
                          const std::vector<vertex_t>& sources,
                          double seconds, Report& report,
                          const std::function<void()>& between_passes) {
  EngineSamples out;
  const std::size_t n = sources.size();
  out.best_run_ms.assign(n, 1e300);
  out.best_answer_ms.assign(n, 1e300);
  out.edges.assign(n, 0.0);
  engine.run(sources.front());  // warm-up: lazy set-up finishes untimed
  std::vector<Fingerprint> first(n);
  const auto start = Clock::now();
  double pass_ms = 0.0;
  // Whole passes only, so every source has the same number of repeats; a
  // pass starts only if it is expected to end within `seconds`.
  for (int pass = 0;
       pass < kMinPasses || ms_since(start) + pass_ms <= seconds * 1000.0;
       ++pass) {
    const auto pass_start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      const BfsResult r = engine.run(sources[i]);
      const double run_ms = ms_since(t0);
      const auto verdict = ent::bfs::validate_tree(g, reverse, r);
      const double answer_ms = ms_since(t0);
      report.check(verdict.ok, "validate_tree: " + verdict.error);
      out.best_run_ms[i] = std::min(out.best_run_ms[i], run_ms);
      out.best_answer_ms[i] = std::min(out.best_answer_ms[i], answer_ms);
      if (pass == 0) {
        first[i] = fingerprint(r);
        out.edges[i] = static_cast<double>(r.edges_traversed);
        out.teps.push_back(r.teps());
      } else {
        report.check(first[i] == fingerprint(r),
                     "simulated result changed on a repeat of source " +
                         std::to_string(sources[i]));
      }
    }
    pass_ms = ms_since(pass_start);
    if (between_passes) between_passes();
  }
  return out;
}

void merge_fastest(EngineSamples& into, const EngineSamples& later) {
  for (std::size_t i = 0; i < into.best_run_ms.size(); ++i) {
    into.best_run_ms[i] = std::min(into.best_run_ms[i], later.best_run_ms[i]);
    into.best_answer_ms[i] =
        std::min(into.best_answer_ms[i], later.best_answer_ms[i]);
  }
}

void report_engine_e2e(const EngineSamples& s, Report& report) {
  report.set("bfs_ms_p50", median(s.best_run_ms), "ms");
  report.set("bfs_ms_tail", quantile(s.best_run_ms, kTailQuantile), "ms");
  double edges = 0.0, run_s = 0.0;
  for (std::size_t i = 0; i < s.edges.size(); ++i) {
    edges += s.edges[i];
    run_s += s.best_run_ms[i] / 1000.0;
  }
  report.set("host_mteps", edges / run_s / 1e6, "MTEPS");
  // Graph 500 aggregates TEPS with the harmonic mean.
  double inverse = 0.0;
  for (const double teps : s.teps) inverse += 1.0 / teps;
  report.set("sim_gteps", static_cast<double>(s.teps.size()) / inverse / 1e9,
             "GTEPS");
}

void trace_engine(ent::bfs::Engine& engine,
                  const ent::obs::MetricsRegistry& registry, const Csr& g,
                  const Csr& reverse, const std::vector<vertex_t>& sources,
                  double seconds, Tracer& tracer, Report& report) {
  {
    Scope span(&tracer, "enterprise.run");
    engine.run(sources.front());  // warm-up
  }
  std::vector<double> run_ms, validate_ms, cpu_ms, par_ms, sim_ms;
  double levels = 0, bottom_up = 0, inspected = 0, queue_gen = 0, expand = 0,
         gld = 0, kernels = 0;
  ent::baselines::CpuParallelOptions par_options;
  par_options.num_threads = std::thread::hardware_concurrency();
  const auto start = Clock::now();
  std::size_t i = 0;
  for (; keep_going(i, sources.size(), start, seconds); ++i) {
    const vertex_t s = sources[i % sources.size()];
    BfsResult r;
    {
      Scope span(&tracer, "enterprise.run");
      const auto t0 = Clock::now();
      r = engine.run(s);
      run_ms.push_back(ms_since(t0));
    }
    {
      Scope span(&tracer, "gpusim.counters");
      const auto counters = engine.counters();
      gld += counters ? static_cast<double>(counters->gld_transactions) : 0.0;
      kernels += engine.device() != nullptr
                     ? static_cast<double>(engine.device()->timeline().size())
                     : 0.0;
    }
    sim_ms.push_back(r.time_ms);
    levels += static_cast<double>(r.level_trace.size());
    for (const auto& level : r.level_trace) {
      bottom_up += level.direction == ent::bfs::Direction::kBottomUp ? 1 : 0;
      inspected += static_cast<double>(level.edges_inspected);
      queue_gen += level.queue_gen_ms;
      expand += level.expand_ms;
    }
    {
      Scope span(&tracer, "bfs.validate_tree");
      const auto t0 = Clock::now();
      const auto verdict = ent::bfs::validate_tree(g, reverse, r);
      validate_ms.push_back(ms_since(t0));
      report.check(verdict.ok, "validate_tree: " + verdict.error);
    }
    BfsResult ref;
    {
      Scope span(&tracer, "baselines.cpu_bfs");
      const auto t0 = Clock::now();
      ref = ent::baselines::cpu_bfs(g, s);
      cpu_ms.push_back(ms_since(t0));
    }
    {
      Scope span(&tracer, "bfs.validate_levels");
      const auto verdict = ent::bfs::validate_levels(r.levels, ref.levels);
      report.check(verdict.ok, "levels differ from cpu_bfs: " + verdict.error);
    }
    if (i < 8) {  // the parallel reference is costly; a few sources suffice
      BfsResult par;
      {
        Scope span(&tracer, "baselines.cpu_parallel_bfs");
        const auto t0 = Clock::now();
        par = ent::baselines::cpu_parallel_bfs(g, s, par_options);
        par_ms.push_back(ms_since(t0));
      }
      Scope span(&tracer, "bfs.validate_levels");
      const auto verdict = ent::bfs::validate_levels(par.levels, ref.levels);
      report.check(verdict.ok,
                   "cpu_parallel_bfs levels differ: " + verdict.error);
    }
  }
  double probes = 0, hits = 0;
  {
    Scope span(&tracer, "obs.metrics_read");
    const auto& counters = registry.counters();
    if (auto it = counters.find("enterprise.hub_cache.probes");
        it != counters.end()) {
      probes = static_cast<double>(it->second.value());
    }
    if (auto it = counters.find("enterprise.hub_cache.hits");
        it != counters.end()) {
      hits = static_cast<double>(it->second.value());
    }
  }
  const double n = static_cast<double>(i);
  double total_run_ms = 0.0;
  for (const double ms : run_ms) total_run_ms += ms;
  report.set("engine.levels", levels / n, "count");
  report.set("engine.bottom_up_levels", bottom_up / n, "count");
  report.set("engine.edges_inspected", inspected / n, "count");
  report.set("engine.ns_per_edge", total_run_ms * 1e6 / inspected, "ns");
  report.set("engine.us_per_level", total_run_ms * 1e3 / levels, "us");
  report.set("enterprise.hub_cache.probes", probes / (n + 1), "count");
  report.set("enterprise.hub_cache.hit_rate", probes > 0 ? hits / probes : 0.0,
             "fraction");
  report.set("sim.time_ms_p50", median(sim_ms), "ms");
  report.set("sim.queue_gen_ms", queue_gen / n, "ms");
  report.set("sim.expand_ms", expand / n, "ms");
  report.set("sim.gld_transactions", gld / n, "count");
  report.set("sim.kernels", kernels / n, "count");
  report.set("validate.ms_p50", median(validate_ms), "ms");
  report.set("cpu.ms_p50", median(cpu_ms), "ms");
  report.set("engine_over_cpu", median(run_ms) / median(cpu_ms), "ratio");
  report.set("cpu_parallel.ms_p50", median(par_ms), "ms");
  report.set("cpu_parallel.speedup", median(cpu_ms) / median(par_ms), "ratio");
}

void measure_overhead(ent::bfs::Engine& plain, ent::bfs::Engine& traced,
                      const std::vector<vertex_t>& sources, double seconds,
                      Tracer& tracer, Report& report) {
  plain.run(sources.front());  // warm-up
  std::vector<double> plain_ms, traced_ms;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < sources.size() || ms_since(start) < seconds * 1e3;
       ++i) {
    const vertex_t s = sources[i % sources.size()];
    auto t0 = Clock::now();
    plain.run(s);
    plain_ms.push_back(ms_since(t0));
    Scope span(&tracer, "enterprise.run");
    t0 = Clock::now();
    traced.run(s);
    traced_ms.push_back(ms_since(t0));
  }
  report.set("obs.trace_overhead_frac",
             median(traced_ms) / median(plain_ms) - 1.0, "fraction");
}

}  // namespace perfbench
