// The three workloads (perfbench/README.md, "Workloads"): kron-hub and
// road-deep traverse one in-memory graph on the enterprise engine;
// serve-live ingests a digraph from a file and serves it through
// serve::BfsService while edge updates land.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bfs/engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/snapshot.hpp"
#include "graph/suite.hpp"
#include "graph/validate.hpp"
#include "traversal.hpp"

namespace perfbench {

using ent::graph::Csr;
using ent::graph::vertex_t;

namespace {

// Input sizes. Full size is what BENCHMARK.json measures; toy size is the
// self-check's.
struct Sizes {
  int kron_scale;
  double road_scale;  // make_suite_graph("ROAD") scale: 1.0 = 256 x 256
  double tw_scale;    // make_suite_graph("TW") scale: 0.5 = 131k vertices
  unsigned sources;
  unsigned setups;    // setup_s is the median over at least this many
                      // set-ups and at least one second of them
  double rate_per_s;  // serve-live open-loop arrival rate
  double update_interval_ms;
  unsigned ops_per_batch;
  unsigned probe_requests;  // traced serve probe on the batch workloads
};

Sizes sizes(bool toy) {
  if (toy) return {10, 1.0 / 32, 1.0 / 128, 8, 2, 40.0, 250.0, 8, 12};
  return {18, 1.0, 0.5, 100, 3, 45.0, 2000.0, 32, 36};
}

constexpr unsigned kWorkers = 3;  // plus one submitter thread
// serve-live statistics come from the best of this many open-loop windows
// and saturation bursts, so a slow stretch of the host must cover them all
// to move a result.
constexpr unsigned kServeWindows = 5;

ent::graph::EdgeList edge_list(const Csr& g) {
  ent::graph::EdgeList list;
  list.num_vertices = g.num_vertices();
  list.edges.reserve(g.num_edges());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    for (const vertex_t u : g.neighbors(v)) list.edges.push_back({v, u});
  }
  return list;
}

std::vector<ent::graph::UpdateBatch> update_batches(const Csr& g,
                                                    const Sizes& z,
                                                    unsigned batches,
                                                    std::uint64_t seed) {
  ent::graph::RandomUpdateParams p;
  p.batches = batches;
  p.ops_per_batch = z.ops_per_batch;
  p.start_ms = z.update_interval_ms / 2;
  p.interval_ms = z.update_interval_ms;
  p.seed = seed ^ 0x0bdaull;
  return ent::graph::UpdateTrace::random(p, g).batches;
}

void warm_up(ent::serve::BfsService& service,
             const std::vector<vertex_t>& sources, Tracer* tracer,
             Report& report) {
  Scope span(tracer, "serve.warmup");
  std::vector<std::future<ent::serve::ServeOutcome>> pending;
  for (unsigned i = 0; i < 2 * kWorkers; ++i) {
    ent::serve::ServeRequest r;
    r.source = sources[i % sources.size()];
    pending.push_back(service.submit(r));
  }
  for (auto& f : pending) {
    const auto o = f.get();
    report.check(o.ok(), "serve: warm-up request failed: " + o.detail);
  }
}

void report_self_times(const Tracer& tracer, int root, Report& report) {
  for (const auto& [layer, ms] : tracer.self_ms_by_layer(root)) {
    report.set("self_ms." + layer, ms, "ms");
  }
}

bool more_setups(const std::vector<double>& setup_s, const Sizes& z) {
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < z.setups || (total < 1.0 && setup_s.size() < 100);
}

template <typename F>
auto timed(Tracer* tracer, const char* name, double* ms, F&& f) {
  Scope span(tracer, name);
  const auto t0 = Clock::now();
  auto out = f();
  *ms = ms_since(t0);
  return out;
}

}  // namespace

Report run_batch_workload(const Options& o) {
  Report report;
  const Sizes z = sizes(o.toy);
  const bool kron = o.workload == "kron-hub";
  const auto generate = [&] {
    if (kron) {
      return ent::graph::generate_kronecker({z.kron_scale, 16, o.seed});
    }
    ent::graph::SuiteOptions suite;
    suite.scale = z.road_scale;
    suite.seed = o.seed;
    return ent::graph::make_suite_graph("ROAD", suite).graph;
  };

  if (!o.trace) {
    std::vector<double> setup_s;
    struct Ready {
      std::unique_ptr<Csr> g;
      std::unique_ptr<ent::bfs::Engine> engine;
    };
    const auto set_up = [&] {
      Ready r;
      const auto t0 = Clock::now();
      r.g = std::make_unique<Csr>(generate());
      ent::graph::validate_csr(*r.g, o.workload);
      r.engine = ent::bfs::make_engine("enterprise", *r.g);
      setup_s.push_back(ms_since(t0) / 1000.0);
      return r;
    };
    Ready live;
    while (more_setups(setup_s, z)) {
      live.engine.reset();  // the engine borrows the graph
      live.g.reset();
      live = set_up();
    }
    // A cheap set-up is also sampled between passes, so its median spans
    // the slow and fast stretches of the host over the whole run.
    const bool cheap = median(setup_s) < 0.05;
    const auto sample_setup = [&] {
      const auto t0 = Clock::now();
      while (cheap && ms_since(t0) < 250.0) set_up();
    };
    const Csr& g = *live.g;
    print_graph(o.workload.c_str(), g);
    const auto sources = sample_sources(g, g, o.seed, z.sources);
    const EngineSamples s = time_engine(*live.engine, g, g, sources,
                                        o.seconds, report, sample_setup);
    report_engine_e2e(s, report);
    // In a closed loop a request is one checked answer: run + validate.
    report.set("serve_p50_ms", median(s.best_answer_ms), "ms");
    report.set("serve_tail_ms", quantile(s.best_answer_ms, kTailQuantile),
               "ms");
    double answer_s = 0.0;
    for (const double ms : s.best_answer_ms) answer_s += ms / 1000.0;
    report.set("serve_goodput_rps",
               static_cast<double>(s.best_answer_ms.size()) / answer_s,
               "req/s");
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  Tracer tracer;
  const int root = tracer.begin("bench.workload");
  double ms = 0.0;
  auto g = timed(&tracer, "graph.generate", &ms,
                 [&] { return std::make_unique<Csr>(generate()); });
  report.set("graph.generate_ms", ms, "ms");
  print_graph(o.workload.c_str(), *g);
  timed(&tracer, "graph.validate", &ms, [&] {
    ent::graph::validate_csr(*g, o.workload);
    return 0;
  });
  report.set("graph.validate_ms", ms, "ms");
  ent::obs::MetricsRegistry registry;
  ent::bfs::EngineConfig config;
  config.metrics = &registry;
  auto engine = timed(&tracer, "enterprise.construct", &ms, [&] {
    return ent::bfs::make_engine("enterprise", *g, config);
  });
  report.set("engine.construct_ms", ms, "ms");

  // Unit costs of graph-layer calls this workload's path does not make:
  // one reverse, and one binary edge-list round trip of the same graph.
  timed(&tracer, "graph.reverse", &ms, [&] { return g->reversed(); });
  report.set("graph.reverse_ms", ms, "ms");
  const std::string path = o.work_dir + "/" + o.workload + ".bin";
  {
    Scope span(&tracer, "bench.prep");
    ent::graph::write_edge_list_binary_file(path, edge_list(*g));
  }
  auto list = timed(&tracer, "graph.read", &ms, [&] {
    return ent::graph::read_edge_list_binary_file(path);
  });
  report.set("graph.read_ms", ms, "ms");
  std::remove(path.c_str());
  ent::graph::BuildOptions build;
  build.directed = g->directed();
  const auto rebuilt = timed(&tracer, "graph.build", &ms, [&] {
    return ent::graph::build_csr(list.num_vertices, std::move(list.edges),
                                 build);
  });
  report.set("graph.build_ms", ms, "ms");
  report.check(rebuilt.num_edges() == g->num_edges(),
               "binary round trip changed the edge count");

  std::vector<vertex_t> sources;
  {
    Scope span(&tracer, "bench.inputs");
    sources = sample_sources(*g, *g, o.seed, z.sources);
  }
  trace_engine(*engine, registry, *g, *g, sources, 0.5 * o.seconds, tracer,
               report);

  // Serve probe: a saturation burst over the same graph with one update
  // batch landing mid-burst.
  {
    std::unique_ptr<ent::serve::BfsService> service;
    {
      Scope span(&tracer, "serve.start");
      service = std::make_unique<ent::serve::BfsService>(
          *g, service_options(kWorkers));
    }
    warm_up(*service, sources, &tracer, report);
    ServeLoad load;
    load.saturation_requests = z.probe_requests;
    {
      Scope span(&tracer, "bench.inputs");
      load.burst_updates = update_batches(*g, z, 1, o.seed);
    }
    const auto m =
        drive_service(*service, sources, load, o.seed, &tracer, report);
    {
      Scope span(&tracer, "serve.shutdown");
      finish_service(*service, m, report);
    }
    report_serve_layer(*service, m, report);
  }
  tracer.end(root);
  report_self_times(tracer, root, report);

  const auto plain = ent::bfs::make_engine("enterprise", *g);
  measure_overhead(*plain, *engine, sources, 0.15 * o.seconds, tracer, report);
  tracer.write_json(o.work_dir + "/spans-" + o.workload + ".json");
  return report;
}

Report run_serve_live(const Options& o) {
  Report report;
  const Sizes z = sizes(o.toy);
  const unsigned nproc = std::thread::hardware_concurrency();
  if (kWorkers + 1 > nproc) {
    report.invalid = "thread budget: 3 workers + 1 submitter exceed nproc=" +
                     std::to_string(nproc);
    return report;
  }
  Tracer tracer;
  Tracer* tr = o.trace ? &tracer : nullptr;
  const int root = tr ? tracer.begin("bench.workload") : -1;
  double ms = 0.0;

  // Untimed prep: write the TW stand-in once as a binary edge list.
  const std::string path =
      o.work_dir + "/tw-" + std::to_string(o.seed) + ".bin";
  {
    auto g0 = timed(tr, "graph.generate", &ms, [&] {
      ent::graph::SuiteOptions suite;
      suite.scale = z.tw_scale;
      suite.seed = o.seed;
      return ent::graph::make_suite_graph("TW", suite).graph;
    });
    report.set("graph.generate_ms", ms, "ms");
    Scope span(tr, "bench.prep");
    ent::graph::write_edge_list_binary_file(path, edge_list(g0));
  }

  // Set-up: file -> CSR -> validated -> service with 3 warm-able workers.
  std::vector<double> setup_s;
  std::unique_ptr<Csr> g;
  std::unique_ptr<ent::serve::BfsService> service;
  while (setup_s.empty() || (!o.trace && more_setups(setup_s, z))) {
    service.reset();
    g.reset();
    const auto t0 = Clock::now();
    auto list = timed(tr, "graph.read", &ms, [&] {
      return ent::graph::read_edge_list_binary_file(path);
    });
    report.set("graph.read_ms", ms, "ms");
    ent::graph::BuildOptions build;
    build.directed = true;
    g = timed(tr, "graph.build", &ms, [&] {
      return std::make_unique<Csr>(ent::graph::build_csr(
          list.num_vertices, std::move(list.edges), build));
    });
    report.set("graph.build_ms", ms, "ms");
    timed(tr, "graph.validate", &ms, [&] {
      ent::graph::validate_csr(*g, path);
      return 0;
    });
    report.set("graph.validate_ms", ms, "ms");
    Scope span(tr, "serve.start");
    service = std::make_unique<ent::serve::BfsService>(
        *g, service_options(kWorkers));
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  std::remove(path.c_str());
  print_graph(o.workload.c_str(), *g);

  // Inputs derived from the seed and the ingested graph.
  const Csr reverse =
      timed(tr, "graph.reverse", &ms, [&] { return g->reversed(); });
  report.set("graph.reverse_ms", ms, "ms");
  const double open_seconds = (o.trace ? 0.35 : 0.5) * o.seconds;
  std::vector<vertex_t> sources;
  ServeLoad load;
  {
    Scope span(tr, "bench.inputs");
    sources = sample_sources(*g, reverse, o.seed, z.sources);
    load.rate_per_s = z.rate_per_s;
    load.open_seconds = open_seconds;
    load.saturation_requests =
        static_cast<unsigned>((o.trace ? 6 : 12) * o.seconds);
    load.saturation_bursts = kServeWindows;
    // One seeded trace: the open-loop batches, then one per burst.
    load.updates = update_batches(
        *g, z,
        static_cast<unsigned>(open_seconds * 1000 / z.update_interval_ms) +
            kServeWindows,
        o.seed);
    load.burst_updates.assign(load.updates.end() - kServeWindows,
                              load.updates.end());
    load.updates.resize(load.updates.size() - kServeWindows);
  }

  // Direct traversals of the ingested digraph, beside the idle service.
  ent::obs::MetricsRegistry registry;
  ent::bfs::EngineConfig config;
  if (o.trace) config.metrics = &registry;
  auto engine = timed(tr, "enterprise.construct", &ms, [&] {
    return ent::bfs::make_engine("enterprise", *g, config);
  });
  report.set("engine.construct_ms", ms, "ms");
  // Untraced, the direct passes run half before and half after the service
  // phases, so each source's fastest repeat spans the whole run.
  EngineSamples direct;
  if (o.trace) {
    trace_engine(*engine, registry, *g, reverse, sources, 0.25 * o.seconds,
                 tracer, report);
  } else {
    direct = time_engine(*engine, *g, reverse, sources, 0.15 * o.seconds,
                         report);
  }

  warm_up(*service, sources, tr, report);
  const auto m = drive_service(*service, sources, load, o.seed, tr, report);
  {
    Scope span(tr, "serve.shutdown");
    finish_service(*service, m, report);
  }
  // The open loop is only a measurement while the generator kept to its
  // schedule; a late generator would be measuring itself.
  const double lag_p50 = median(m.gen_lag_ms);
  if (lag_p50 > 1.0) {
    report.invalid = "open-loop generator fell behind: median submit lag " +
                     std::to_string(lag_p50) + " ms";
  }
  if (o.trace) {
    report_serve_layer(*service, m, report);
    tracer.end(root);
    report_self_times(tracer, root, report);
    const auto plain = ent::bfs::make_engine("enterprise", *g);
    measure_overhead(*plain, *engine, sources, 0.15 * o.seconds, tracer,
                     report);
    tracer.write_json(o.work_dir + "/spans-serve-live.json");
    return report;
  }
  merge_fastest(direct, time_engine(*engine, *g, reverse, sources,
                                    0.15 * o.seconds, report));
  report_engine_e2e(direct, report);
  const double window_ms = open_seconds * 1000.0 / kServeWindows;
  report.set("serve_p50_ms",
             best_window_quantile(m.latency_ms, m.due_ms, window_ms, 0.5),
             "ms");
  report.set("serve_tail_ms",
             best_window_quantile(m.latency_ms, m.due_ms, window_ms,
                                  kTailQuantile),
             "ms");
  report.set("serve_goodput_rps",
             *std::max_element(m.burst_goodput_rps.begin(),
                               m.burst_goodput_rps.end()),
             "req/s");
  report.set("setup_s", median(setup_s), "s");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  return report;
}

}  // namespace perfbench
