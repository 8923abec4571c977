#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <random>
#include <thread>

#include "baselines/cpu_bfs.hpp"

namespace perfbench {

using ent::graph::Csr;
using ent::graph::vertex_t;

// --- Tracer ------------------------------------------------------------------

int Tracer::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_ms = std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
                   .count();
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - epoch_).count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::self_ms_by_layer(int root) const {
  std::map<std::string, double> out;
  for (const char* layer : {"graph", "enterprise", "gpusim", "bfs",
                            "baselines", "serve", "obs"}) {
    out[layer] = 0.0;
  }
  out["unattributed"] = 0.0;
  // Spans are recorded in start order, so a span's ancestors precede it.
  std::vector<bool> in_subtree(spans_.size(), false);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    in_subtree[i] = static_cast<int>(i) == root ||
                    (p >= 0 && in_subtree[static_cast<std::size_t>(p)]);
    if (in_subtree[i] && static_cast<int>(i) != root && p >= 0) {
      child_ms[static_cast<std::size_t>(p)] +=
          spans_[i].end_ms - spans_[i].start_ms;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!in_subtree[i]) continue;
    const std::string& name = spans_[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    const double self = spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
    auto it = out.find(layer);
    (it != out.end() && layer != "unattributed" ? it->second
                                                : out["unattributed"]) += self;
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ms\": " << s.start_ms << ", \"end_ms\": " << s.end_ms
        << ", \"parent\": " << s.parent << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// --- statistics --------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double best_window_quantile(const std::vector<double>& values,
                            const std::vector<double>& at_ms,
                            double window_ms, double q) {
  std::map<long, std::vector<double>> windows;
  for (std::size_t i = 0; i < values.size(); ++i) {
    windows[static_cast<long>(at_ms[i] / window_ms)].push_back(values[i]);
  }
  double best = 0.0;
  for (const auto& [w, v] : windows) {
    const double x = quantile(v, q);
    if (w == windows.begin()->first || x < best) best = x;
  }
  return best;
}

// --- inputs ------------------------------------------------------------------

std::vector<vertex_t> sample_sources(const Csr& g, const Csr& reverse,
                                     std::uint64_t seed, unsigned count) {
  vertex_t hub = 0;
  for (vertex_t v = 1; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(hub)) hub = v;
  }
  const auto forward = ent::baselines::cpu_bfs(g, hub).levels;
  const auto backward = g.directed()
                            ? ent::baselines::cpu_bfs(reverse, hub).levels
                            : forward;
  std::vector<vertex_t> component;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (forward[v] >= 0 && backward[v] >= 0 && g.out_degree(v) > 0) {
      component.push_back(v);
    }
  }
  std::mt19937_64 rng(seed ^ 0x50c3ull);
  std::shuffle(component.begin(), component.end(), rng);
  component.resize(std::min<std::size_t>(count, component.size()));
  return component;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_graph(const char* what, const Csr& g) {
  std::cout << "graph " << what << " n=" << g.num_vertices()
            << " m=" << g.num_edges()
            << " directed=" << (g.directed() ? 1 : 0) << std::endl;
}

// --- serving -----------------------------------------------------------------

ent::serve::ServiceOptions service_options(unsigned workers) {
  ent::serve::ServiceOptions o;
  o.engine = "enterprise";
  o.workers = workers;
  // Unbounded in practice: the open-loop phase must never be refused.
  o.queue_capacity = std::size_t{1} << 24;
  o.validate_trees = true;
  return o;
}

namespace {

struct Sent {
  double due_ms = 0.0;
  double lag_ms = 0.0;  // submit time - due time
  std::future<ent::serve::ServeOutcome> outcome;
};

// Waits for one outcome and keeps only its timings, so a long phase never
// holds more than the in-flight trees. Validation failures arrive as
// kFailed outcomes.
void consume(Sent& s, ServeMeasurement& m, bool open_loop, Report& report) {
  const ent::serve::ServeOutcome o = s.outcome.get();
  if (o.kind == ent::serve::OutcomeKind::kRejected) ++m.rejected;
  report.check(o.ok() && o.result.has_value(),
               std::string("serve: request ") + to_string(o.kind) + " " +
                   o.detail);
  if (!o.ok()) return;
  m.queue_wait_ms.push_back(o.queue_wait_ms);
  m.service_ms.push_back(o.total_ms - o.queue_wait_ms);
  if (open_loop) {
    m.latency_ms.push_back(s.lag_ms + o.total_ms);
    m.due_ms.push_back(s.due_ms);
  }
}

bool ready(const Sent& s) {
  return s.outcome.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

}  // namespace

ServeMeasurement drive_service(ent::serve::BfsService& service,
                               const std::vector<vertex_t>& sources,
                               const ServeLoad& load, std::uint64_t seed,
                               Tracer* tracer, Report& report) {
  ServeMeasurement m;
  std::mt19937_64 rng(seed ^ 0xa771ull);
  std::uniform_int_distribution<std::size_t> pick(0, sources.size() - 1);
  const auto apply = [&](const ent::graph::UpdateBatch& batch) {
    Scope span(tracer, "serve.apply_updates");
    const auto t0 = Clock::now();
    try {
      service.apply_updates(batch);
      report.check(true, "");
    } catch (const std::exception& e) {
      report.check(false, std::string("serve: update rejected: ") + e.what());
    }
    m.promote_ms.push_back(ms_since(t0));
  };
  const auto submit = [&] {
    ent::serve::ServeRequest request;
    request.source = sources[pick(rng)];
    return service.submit(request);
  };

  if (load.open_seconds > 0.0) {
    // Open loop: the whole arrival schedule is drawn before the first send.
    std::exponential_distribution<double> gap(load.rate_per_s / 1000.0);
    std::vector<double> due;
    for (double t = gap(rng); t < load.open_seconds * 1000.0; t += gap(rng)) {
      due.push_back(t);
    }
    std::deque<Sent> pending;
    std::size_t next_update = 0;
    Scope span(tracer, "bench.open_loop");  // mostly waiting for due times
    const auto t0 = Clock::now();
    for (const double d : due) {
      while (next_update < load.updates.size() &&
             load.updates[next_update].at_ms <= d) {
        apply(load.updates[next_update++]);
      }
      while (!pending.empty() && ready(pending.front())) {
        consume(pending.front(), m, /*open_loop=*/true, report);
        pending.pop_front();
      }
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(d)));
      Sent s;
      s.due_ms = d;
      s.lag_ms = ms_since(t0) - d;
      s.outcome = submit();
      m.gen_lag_ms.push_back(s.lag_ms);
      m.max_queue_depth = std::max(m.max_queue_depth, service.queue_depth());
      pending.push_back(std::move(s));
    }
    for (auto& s : pending) consume(s, m, /*open_loop=*/true, report);
  }

  // Saturation: bursts with every arrival due at once; each burst drains
  // before the next starts.
  const unsigned per_burst =
      load.saturation_requests / std::max(1u, load.saturation_bursts);
  for (unsigned burst = 0; burst < load.saturation_bursts && per_burst > 0;
       ++burst) {
    Scope span(tracer, "serve.saturation");
    std::vector<Sent> sent(per_burst);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < sent.size(); ++i) {
      sent[i].lag_ms = ms_since(t0);
      sent[i].outcome = submit();
      if (i == sent.size() / 2 && burst < load.burst_updates.size()) {
        apply(load.burst_updates[burst]);  // a write lands mid-burst
      }
    }
    const std::size_t ok_before = m.service_ms.size();
    for (auto& s : sent) {
      // A pure saturation probe reports its submit lag as the generator lag.
      if (load.open_seconds <= 0.0) m.gen_lag_ms.push_back(s.lag_ms);
      consume(s, m, /*open_loop=*/false, report);
    }
    m.burst_goodput_rps.push_back(
        static_cast<double>(m.service_ms.size() - ok_before) /
        (ms_since(t0) / 1000.0));
  }
  return m;
}

void finish_service(ent::serve::BfsService& service, const ServeMeasurement& m,
                    Report& report) {
  service.shutdown(ent::serve::DrainMode::kGraceful);
  const auto stats = service.stats();
  report.check(stats.accounting_ok(), "serve: accounting invariant broken");
  report.check(stats.validation_failures == 0,
               "serve: validate_tree rejected a served tree");
  report.check(service.snapshot_stats().ledgers_exact(true),
               "serve: drain ledger not exact");
  report.check(m.rejected == 0, "serve: unbounded queue rejected a request");
}

void report_serve_layer(const ent::serve::BfsService& service,
                        const ServeMeasurement& m, Report& report) {
  report.set("serve.queue_wait_ms_p50", median(m.queue_wait_ms), "ms");
  report.set("serve.queue_wait_ms_tail",
             quantile(m.queue_wait_ms, kTailQuantile), "ms");
  report.set("serve.service_ms_p50", median(m.service_ms), "ms");
  report.set("serve.gen_lag_ms_tail", quantile(m.gen_lag_ms, kTailQuantile),
             "ms");
  report.set("serve.max_queue_depth",
             static_cast<double>(m.max_queue_depth > 0
                                     ? m.max_queue_depth
                                     : service.stats().max_queue_depth),
             "count");
  report.set("snapshot.promote_ms", median(m.promote_ms), "ms");
  std::vector<double> drains;
  for (const auto& gen : service.snapshot_stats().generations) {
    if (gen.drained()) drains.push_back(gen.drain_ms());
  }
  report.set("snapshot.drain_ms_p95", quantile(drains, 0.95), "ms");
}

}  // namespace perfbench
