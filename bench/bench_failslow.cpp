// Fail-slow tolerance figure: one device in a multi-GPU traversal runs at a
// `slow@0=<factor>` multiplier while every other device is healthy, and the
// level-synchronous loop pays the straggler tax at every level. The sweep
// crosses slowdown factor x device count and compares three configurations:
//   none       detector observing only (the --no-speculation --no-rebalance
//              baseline; time-to-completion equals mitigation fully off)
//   speculate  rung 1 only: the straggler's shard re-executed on the least
//              loaded healthy device, first finisher wins
//   rebalance  rung 2 only: the slow device's vertex range shrunk in
//              proportion to its measured slowdown
// Wasted speculative work (the loser's kernel time) is reported alongside,
// since speculation buys latency with redundant execution.
#include <iostream>
#include <optional>
#include <string>

#include "common.hpp"
#include "enterprise/multi_gpu_bfs.hpp"
#include "gpusim/fault.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"

using namespace ent;

namespace {

struct Outcome {
  double ms_per_run = 0.0;      // mean simulated time-to-completion
  double wasted_spec_ms = 0.0;  // losing speculative executions
  std::uint64_t detections = 0;
  std::uint64_t rebalances = 0;
};

enum class Mitigation { kNone, kSpeculate, kRebalance };

Outcome run_config(const graph::Csr& g, unsigned gpus, double factor,
                   Mitigation mode, const bench::BenchOptions& opt) {
  const std::string spec =
      "slow@0=" + fmt_double(factor, 1) + ";seed=" + std::to_string(opt.seed);
  std::string err;
  const auto plan = sim::FaultPlan::parse(spec, &err);
  if (!plan.has_value()) {
    std::cerr << "bad fail-slow plan '" << spec << "': " << err << "\n";
    std::exit(1);
  }
  sim::FaultInjector injector(*plan);
  obs::MetricsRegistry metrics;
  injector.set_metrics(&metrics);

  enterprise::EnterpriseOptions eopt = bench::enterprise_options(opt);
  eopt.fault_injector = &injector;
  eopt.metrics = &metrics;
  enterprise::MultiGpuOptions mopt;
  mopt.num_gpus = gpus;
  mopt.straggler.enabled = true;
  mopt.straggler.speculation = mode == Mitigation::kSpeculate;
  mopt.straggler.rebalance = mode == Mitigation::kRebalance;
  // A persistently slow device exhausts any finite rung budget and the
  // ladder would demote it out of the bench; give the active rung room.
  mopt.straggler.speculation_limit = 1u << 20;
  mopt.straggler.rebalance_limit = 1u << 20;

  enterprise::MultiGpuEnterpriseBfs sys(g, eopt, mopt);
  Outcome out;
  const auto sources = bfs::sample_sources(g, opt.sources, opt.seed);
  for (graph::vertex_t s : sources) {
    sys.run(s);
    out.ms_per_run += sys.last_run_stats().total_ms;
  }
  out.ms_per_run /= static_cast<double>(sources.size());
  out.wasted_spec_ms = metrics.gauge("straggler.wasted_spec_ms").value();
  out.detections = metrics.counter("straggler.detections").value();
  out.rebalances = metrics.counter("straggler.rebalances").value();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header("Fail-slow",
                      "Straggler mitigation under a slow-device storm", opt);

  graph::KroneckerParams p;
  p.scale = 14;
  p.edge_factor = 8;
  p.seed = opt.seed ^ 0x51f;
  const graph::Csr g = graph::generate_kronecker(p);
  std::cout << "kron scale " << p.scale << ", " << g.num_vertices()
            << " vertices, " << g.num_edges() << " directed edges; device 0 "
            << "slowed, all levels, unlimited fires\n\n";

  Table table({"factor", "GPUs", "none ms", "spec ms", "spec x",
               "wasted ms", "rebal ms", "rebal x", "rebalances"});
  for (const double factor : {2.0, 4.0, 8.0}) {
    for (const unsigned gpus : {2u, 4u, 8u}) {
      const Outcome none =
          run_config(g, gpus, factor, Mitigation::kNone, opt);
      const Outcome spec =
          run_config(g, gpus, factor, Mitigation::kSpeculate, opt);
      const Outcome rebal =
          run_config(g, gpus, factor, Mitigation::kRebalance, opt);
      table.add_row({fmt_double(factor, 1), std::to_string(gpus),
                     fmt_double(none.ms_per_run, 3),
                     fmt_double(spec.ms_per_run, 3),
                     fmt_times(none.ms_per_run / spec.ms_per_run),
                     fmt_double(spec.wasted_spec_ms, 3),
                     fmt_double(rebal.ms_per_run, 3),
                     fmt_times(none.ms_per_run / rebal.ms_per_run),
                     std::to_string(rebal.rebalances)});
    }
  }
  table.print(std::cout);

  std::cout << "\nSpeculation caps the straggler's level at the helper's "
               "own-shard-plus-shadow chain, so its win grows with the "
               "slowdown factor but shrinks with device count (the helper "
               "still runs two shards serially). Rebalancing shrinks the "
               "slow shard until its level time rejoins the median — no "
               "redundant work, but it pays a few unmitigated levels per "
               "repartition while the detector re-warms.\n";
  return 0;
}
