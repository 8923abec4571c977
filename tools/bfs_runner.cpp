// bfs_runner — run any registered BFS engine over a graph file (or a
// generated Kronecker / suite stand-in graph) and report TEPS, percentile
// summaries, traces, counters, and machine-readable JSON run reports.
//
//   bfs_runner --graph=kron18.bin --system=enterprise --sources=16
//   bfs_runner --scale=16 --system=bl --device=k40 --trace
//   bfs_runner --graph=social.txt --system=enterprise --no-hub-cache
//              --gamma=40 --counters
//   bfs_runner --system=enterprise --scale=14 --json-out=r.json
//   bfs_runner --engine=resilient:enterprise --scale=14
//              --fault-plan="transient@level=2;device-lost@device=1"
//
// Systems: everything in bfs::engine_names() — enterprise (default),
// multi-gpu, bl, atomic, beamer, cpu, cpu-parallel, b40c, gunrock,
// mapgraph, graphbig — plus the resilient:<inner> and guarded:<inner>
// decorators (docs/resilience.md).
#include <fstream>
#include <iostream>
#include <sstream>

#include "bfs/engine.hpp"
#include "bfs/guard.hpp"
#include "bfs/guarded.hpp"
#include "bfs/integrity.hpp"
#include "bfs/program.hpp"
#include "bfs/resilient.hpp"
#include "bfs/spec.hpp"
#include "bfs/runner.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/multi_gpu.hpp"
#include "gpusim/topology.hpp"
#include "bfs/trace_io.hpp"
#include "bfs/validate.hpp"
#include "graph/errors.hpp"
#include "graph/suite.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace_sink.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace ent;

namespace {

sim::DeviceSpec device_from(const Args& args) {
  const std::string name = args.get("device", "k40");
  sim::DeviceSpec spec = name == "k20"     ? sim::k20()
                         : name == "c2070" ? sim::c2070()
                                           : sim::k40();
  const double scale = args.get_double("device-scale", 1.0);
  return scale != 1.0 ? sim::scaled_down(spec, scale) : spec;
}

bfs::EngineConfig config_from(const Args& args, obs::TraceSink* sink,
                              obs::MetricsRegistry* metrics) {
  bfs::EngineConfig config;
  config.device = device_from(args);
  config.enterprise.workload_balancing = !args.get_bool("no-wb", false);
  config.enterprise.hub_cache = !args.get_bool("no-hub-cache", false);
  config.enterprise.allow_direction_switch = !args.get_bool("no-switch", false);
  config.enterprise.direction.gamma_threshold_percent =
      args.get_double("gamma", 30.0);
  config.enterprise.direction.use_gamma = !args.get_bool("alpha-policy", false);
  config.multi_gpu.num_gpus =
      static_cast<unsigned>(args.get_int("gpus", 2));
  config.multi_gpu.per_device = config.enterprise;
  // Fail-slow straggler detection: --straggler-k arms the detector (the
  // value is the EWMA-vs-surviving-median threshold); the rung toggles
  // leave detection on but turn individual mitigations off.
  if (args.has("straggler-k")) {
    config.multi_gpu.straggler.enabled = true;
    config.multi_gpu.straggler.k = args.get_double("straggler-k", 3.0);
  }
  config.multi_gpu.straggler.speculation =
      !args.get_bool("no-speculation", false);
  config.multi_gpu.straggler.rebalance =
      !args.get_bool("no-rebalance", false);
  config.sink = sink;
  config.metrics = metrics;
  config.resilience.max_retries = static_cast<int>(
      args.get_int("max-retries", config.resilience.max_retries));
  const std::string fallbacks = args.get("fallbacks", "");
  if (!fallbacks.empty()) {
    std::istringstream in(fallbacks);
    std::string name;
    while (std::getline(in, name, ',')) {
      if (!name.empty()) config.resilience.fallbacks.push_back(name);
    }
  }
  config.guards.deadline_ms = args.get_double("deadline-ms", 0.0);
  config.guards.max_levels =
      static_cast<std::uint64_t>(args.get_int("max-levels", 0));
  config.guards.max_frontier =
      static_cast<std::uint64_t>(args.get_int("max-frontier", 0));
  config.guards.memory_budget_bytes = static_cast<std::uint64_t>(
      args.get_double("memory-budget-mb", 0.0) * 1024.0 * 1024.0);
  return config;
}

std::string guard_limits_summary(const bfs::GuardLimits& l) {
  std::ostringstream out;
  const char* sep = "";
  if (l.deadline_ms > 0.0) {
    out << sep << "deadline=" << l.deadline_ms << "ms";
    sep = ",";
  }
  if (l.max_levels != 0) {
    out << sep << "max-levels=" << l.max_levels;
    sep = ",";
  }
  if (l.max_frontier != 0) {
    out << sep << "max-frontier=" << l.max_frontier;
    sep = ",";
  }
  if (l.memory_budget_bytes != 0) {
    out << sep << "budget=" << l.memory_budget_bytes << "B";
  }
  return out.str();
}

void print_trace(const bfs::BfsResult& r) {
  Table t({"level", "dir", "frontier", "inspected", "qgen ms", "expand ms",
           "gamma", "alpha"});
  for (const auto& lt : r.level_trace) {
    t.add_row({std::to_string(lt.level), bfs::to_string(lt.direction),
               std::to_string(lt.frontier_count),
               std::to_string(lt.edges_inspected),
               fmt_double(lt.queue_gen_ms, 4), fmt_double(lt.expand_ms, 4),
               fmt_double(lt.gamma, 1), fmt_double(lt.alpha, 1)});
  }
  t.print(std::cout);
}

void print_counters(const sim::HardwareCounters& c) {
  Table t({"counter", "value"});
  t.add_row({"gld_transactions", fmt_si(static_cast<double>(c.gld_transactions))});
  t.add_row({"gst_transactions", fmt_si(static_cast<double>(c.gst_transactions))});
  t.add_row({"ldst_fu_utilization", fmt_percent(c.ldst_fu_utilization)});
  t.add_row({"stall_data_request", fmt_percent(c.stall_data_request)});
  t.add_row({"IPC", fmt_double(c.ipc, 2)});
  t.add_row({"power", fmt_double(c.power_w, 1) + " W"});
  t.add_row({"DRAM bandwidth", fmt_double(c.dram_bandwidth_gbs, 1) + " GB/s"});
  t.print(std::cout);
}

void print_help() {
  std::cout
      << "usage: bfs_runner [--graph=<path>|--suite=<abbr>|"
         "--scale=N --edge-factor=M]\n"
         "  --engine=<name> (alias --system)   one of:";
  for (const auto& name : bfs::engine_names()) std::cout << " " << name;
  std::cout
      << "\n"
         "                    or resilient:<name> for fault-tolerant "
         "execution,\n"
         "                    or guarded:<name> for deadline/budget guards,\n"
         "                    or a full spec "
         "[guarded:][resilient:]<base>[/<program>]\n"
         "                    [?key=value&...] (docs/engines.md)\n"
         "  --program=<name>  run a vertex program (";
  for (const auto& name : bfs::program_names()) std::cout << name << " ";
  std::cout
      << "or bfs) on the\n"
         "                    chosen engine: rewrites the spec via "
         "with_program,\n"
         "                    e.g. --engine=enterprise --program=sssp\n"
         "  --sources=N --seed=N --device=k40|k20|c2070 --device-scale=F\n"
         "  [--no-wb] [--no-hub-cache] [--no-switch] [--gamma=30]\n"
         "  [--alpha-policy] [--gpus=N] [--trace] [--counters] [--validate]\n"
         "  [--topology=ring|butterfly|fat-tree|full]  multi-GPU "
         "interconnect\n"
         "                    link graph (docs/ARCHITECTURE.md); default "
         "ring\n"
         "  [--no-reroute] [--no-degraded-ring]  disable rungs of the link\n"
         "                    resilience ladder (docs/resilience.md)\n"
         "  [--fault-plan=<spec>]  inject simulator faults, e.g.\n"
         "                    \"transient@level=2;device-lost@device=1;"
         "seed=9\"\n"
         "                    or link rules \"link@0-1:down;"
         "link@1-2:flaky=0.5\"\n"
         "                    or fail-slow rules \"slow@1=4;"
         "stall@2,stall_ms=5\"\n"
         "                    (docs/resilience.md has the full "
         "mini-language)\n"
         "  [--straggler-k=F]  arm the fail-slow straggler detector: flag a\n"
         "                    device whose EWMA level time exceeds F x the\n"
         "                    surviving-median (docs/resilience.md)\n"
         "  [--no-speculation] [--no-rebalance]  disable rungs of the\n"
         "                    fail-slow mitigation ladder (detection still\n"
         "                    observes and reports)\n"
         "  [--max-retries=3] [--fallbacks=bl,cpu-parallel]  resilience "
         "policy\n"
         "  [--deadline-ms=F] [--max-levels=N] [--max-frontier=N]\n"
         "  [--memory-budget-mb=F]  run guards; any of these implies\n"
         "                    guarded:<engine> (docs/resilience.md,\n"
         "                    \"Guards & admission\")\n"
         "  [--audit=off|sampled|full]  per-level traversal audits "
         "(frontier\n"
         "                    conservation, level monotonicity, "
         "status/queue\n"
         "                    agreement); default off = zero overhead\n"
         "  [--scrub-interval=N]  re-verify CSR segment digests every N\n"
         "                    levels (and post-run); 0 = off\n"
         "  [--json-out=<path>]  write a schema-v"
      << obs::kReportSchemaVersion
      << " RunReport (see docs/observability.md)\n"
         "  [--csv=<prefix>]  write <prefix>_levels.csv / _runs.csv /\n"
         "                    _kernels.csv for plotting\n"
         "exit codes: 0 ok, 1 usage/config error, 3 unrecovered fault,\n"
         "            4 rejected input or tripped guard,\n"
         "            5 undetected silent corruption (flips injected, zero\n"
         "            detections — raise --audit/--scrub-interval)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.has("help")) {
    print_help();
    return 0;
  }

  // Ingestion is a trust boundary: a malformed graph file is an input
  // problem (exit 4 with the loader's file/offset diagnostic), not a crash.
  std::optional<graph::LoadedGraph> maybe_loaded;
  try {
    maybe_loaded.emplace(graph::load_or_generate(args));
  } catch (const graph::GraphError& e) {
    std::cerr << "ingestion error: " << e.what() << "\n";
    return 4;
  }
  graph::LoadedGraph& loaded = *maybe_loaded;
  const graph::Csr& g = loaded.graph;
  std::cerr << g.num_vertices() << " vertices, " << g.num_edges()
            << " directed edges\n";
  const auto num_sources =
      static_cast<unsigned>(args.get_int("sources", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  std::string system =
      args.has("engine") ? args.get("engine", "enterprise")
                         : args.get("system", "enterprise");
  const std::string program_arg = args.get("program", "");
  if (!program_arg.empty()) {
    bfs::SpecError spec_error;
    const auto spec = bfs::EngineSpec::parse(system, &spec_error);
    if (!spec) {
      std::cerr << "bad engine spec '" << system
                << "': " << spec_error.message << "\n";
      return 1;
    }
    if (program_arg != "bfs" && !bfs::is_program_name(program_arg)) {
      std::cerr << "bad --program '" << program_arg << "'; known: bfs";
      for (const auto& name : bfs::program_names()) std::cerr << " " << name;
      std::cerr << "\n";
      return 1;
    }
    system = spec->with_program(program_arg).to_string();
  }
  const std::string json_out = args.get("json-out", "");

  obs::JsonTraceSink json_sink;
  obs::MetricsRegistry metrics;
  // The sink buffers every span/kernel/level event of every run; only pay
  // for that when a report was requested.
  obs::TraceSink* sink = json_out.empty() ? nullptr : &json_sink;
  bfs::EngineConfig config = config_from(args, sink, &metrics);

  const std::string topology_name = args.get("topology", "ring");
  const auto topology_kind = sim::topology_from_string(topology_name);
  if (!topology_kind) {
    std::cerr << "bad --topology '" << topology_name
              << "': expected ring, butterfly, fat-tree, or full\n";
    return 1;
  }
  config.multi_gpu.interconnect.topology.kind = *topology_kind;
  config.multi_gpu.interconnect.policy.reroute =
      !args.get_bool("no-reroute", false);
  config.multi_gpu.interconnect.policy.degraded_ring =
      !args.get_bool("no-degraded-ring", false);

  const std::string audit_name = args.get("audit", "off");
  const auto audit_mode = bfs::audit_mode_from_string(audit_name);
  if (!audit_mode) {
    std::cerr << "bad --audit '" << audit_name
              << "': expected off, sampled, or full\n";
    return 1;
  }
  config.integrity.audit = *audit_mode;
  config.integrity.scrub_interval =
      static_cast<std::uint32_t>(args.get_int("scrub-interval", 0));
  config.multi_gpu.per_device.integrity = config.integrity;

  std::optional<sim::FaultInjector> injector;
  const std::string fault_spec = args.get("fault-plan", "");
  if (!fault_spec.empty()) {
    std::string error;
    const auto plan = sim::FaultPlan::parse(fault_spec, &error);
    if (!plan) {
      std::cerr << "bad --fault-plan: " << error << "\n";
      return 1;
    }
    injector.emplace(*plan);
    injector->set_sink(sink);
    injector->set_metrics(&metrics);
    config.fault_injector = &*injector;
    // The drivers register their own resident status/frontier spans; the
    // adjacency segment lives here with the loaded graph, so arm it here.
    if (injector->plan().has_flip_rules()) {
      injector->register_flip_target(sim::FlipTarget::kAdjacency,
                                     config.device_ordinal,
                                     loaded.graph.raw_adjacency_bytes());
    }
    std::cerr << "fault plan: " << plan->summary() << "\n";
    // Round-tripped REPRO banner: the echoed summary re-parses to the same
    // plan (seed included), so a storm run can be replayed from its log.
    std::cerr << "REPRO: bfs_runner --engine=" << system << " --seed=" << seed
              << " --sources=" << num_sources << " --fault-plan=\""
              << plan->summary() << "\" | graph " << loaded.name << "\n";
  }
  if (config.multi_gpu.straggler.enabled) {
    std::cerr << "straggler detector: " << config.multi_gpu.straggler.summary()
              << "\n";
  }

  // Any configured guard limit implies the guarded: decorator.
  if (config.guards.any() && system.rfind("guarded:", 0) != 0) {
    system = "guarded:" + system;
  }

  const auto engine = bfs::make_engine(system, g, config);
  if (engine == nullptr) {
    const auto spec = bfs::EngineSpec::parse(system);
    if (spec && spec->base == "multi-gpu" && !spec->has_program() &&
        g.directed()) {
      std::cerr << "engine '" << system << "' needs an undirected graph; "
                << loaded.name << " is directed\n";
      return 1;
    }
    std::cerr << "unknown system '" << system << "'; known:";
    for (const auto& name : bfs::engine_names()) std::cerr << " " << name;
    std::cerr << "\n";
    return 1;
  }

  bfs::RunSummary summary;
  try {
    summary = bfs::run_sources(g, *engine, num_sources, seed);
  } catch (const bfs::ResilienceExhausted& e) {
    const bfs::ResilienceStats& s = e.stats();
    std::cerr << "FAILED (resilience exhausted): " << e.what() << "\n"
              << "  faults seen " << s.faults_seen << ", retries "
              << s.retries << " (" << s.replays << " from checkpoint), "
              << "fallbacks " << s.fallbacks << ", devices blacklisted "
              << s.devices_blacklisted << "\n";
    return 3;
  } catch (const bfs::GuardTripped& e) {
    std::cerr << e.what() << "\n";  // what() carries the "guard tripped:" prefix
    return 4;
  } catch (const sim::IntegrityFault& e) {
    std::cerr << "FAILED (unrecovered integrity fault): " << e.what()
              << "\n  rerun with --engine=resilient:" << system
              << " to scrub and replay instead of aborting\n";
    return 3;
  } catch (const sim::SimFault& e) {
    std::cerr << "FAILED (unrecovered simulator fault): " << e.what()
              << "\n  rerun with --engine=resilient:" << system
              << " to retry/fall back instead of aborting\n";
    return 3;
  }

  unsigned validated = 0;
  const bool do_validate = args.get_bool("validate", false);
  if (do_validate) {
    // Route by workload: programs get their own invariant set (triangle
    // inequality, label agreement, residual); plain BFS keeps Graph500-style
    // tree validation.
    std::string validate_program;
    std::vector<std::pair<std::string, std::string>> validate_params;
    if (const auto spec = bfs::EngineSpec::parse(system)) {
      validate_program = spec->program;
      validate_params = spec->params;
      if (validate_program.empty() && bfs::is_program_name(spec->base)) {
        validate_program = spec->base;  // bare alias, e.g. --system=sssp
      }
    }
    if (!validate_program.empty()) {
      bfs::ProgramParams params;
      params.entries = std::move(validate_params);
      std::string error;
      const auto program =
          bfs::make_program(validate_program, g, params, &error);
      if (program == nullptr) {
        std::cerr << "cannot build validator for '" << validate_program
                  << "': " << error << "\n";
      } else {
        for (const auto& r : summary.runs) {
          if (program->validate(g, r).ok) ++validated;
        }
      }
    } else {
      for (const auto& r : summary.runs) {
        if (bfs::validate_tree(g, g.in_edges(), r).ok) ++validated;
      }
    }
  }

  Table t({"metric", "value"});
  t.add_row({"system", engine->name() + " on " + config.device.name});
  t.add_row({"options", engine->options_summary()});
  t.add_row({"runs", std::to_string(summary.runs.size())});
  t.add_row({"mean TEPS", fmt_si(summary.mean_teps)});
  t.add_row({"harmonic TEPS", fmt_si(summary.harmonic_teps)});
  t.add_row({"p50 TEPS", fmt_si(summary.p50_teps)});
  t.add_row({"p95 TEPS", fmt_si(summary.p95_teps)});
  t.add_row({"mean time", fmt_double(summary.mean_time_ms, 3) + " ms"});
  t.add_row({"p50 time", fmt_double(summary.p50_time_ms, 3) + " ms"});
  t.add_row({"p95 time", fmt_double(summary.p95_time_ms, 3) + " ms"});
  t.add_row({"mean depth", fmt_double(summary.mean_depth, 1)});
  if (do_validate) t.add_row({"validated", std::to_string(validated)});
  const auto integ = bfs::collect_integrity(metrics, config.integrity);
  const auto* resilient =
      dynamic_cast<const bfs::ResilientEngine*>(engine.get());
  if (integ) {
    t.add_row({"integrity",
               "audit=" + integ->audit_mode + " scrub-interval=" +
                   std::to_string(integ->scrub_interval)});
    t.add_row({"flips injected", std::to_string(integ->flips_injected)});
    t.add_row({"flips detected",
               std::to_string(integ->flips_detected) + " (" +
                   std::to_string(integ->flips_missed) + " missed)"});
    t.add_row({"scrub passes", std::to_string(integ->scrub_passes) + " (" +
                                   std::to_string(integ->scrub_mismatches) +
                                   " mismatches)"});
  }
  if (injector) {
    t.add_row({"faults injected", std::to_string(injector->faults_injected())});
    if (resilient != nullptr) {
      const bfs::ResilienceStats& s = resilient->session_stats();
      t.add_row({"retries", std::to_string(s.retries) + " (" +
                               std::to_string(s.replays) + " replayed)"});
      t.add_row({"fallbacks", std::to_string(s.fallbacks) + " (" +
                                  std::to_string(s.degraded_runs) +
                                  " degraded runs)"});
      t.add_row({"blacklisted", std::to_string(s.devices_blacklisted) + " (" +
                                    std::to_string(s.repartitions) +
                                    " repartitions)"});
      t.add_row({"backoff", fmt_double(s.backoff_ms, 3) + " ms"});
    }
  }
  const auto* guarded = dynamic_cast<const bfs::GuardedEngine*>(engine.get());
  if (guarded != nullptr) {
    t.add_row({"guard limits", guard_limits_summary(guarded->limits())});
    const bfs::GuardStats& gs = guarded->session_stats();
    if (gs.trips > 0) {
      t.add_row({"guard trips",
                 std::to_string(gs.trips) + " (last: " + gs.last_trip + ")"});
    }
    if (guarded->degraded()) {
      t.add_row({"degraded to", guarded->active_engine() + " via " +
                                    guarded->degradation()});
      t.add_row({"admitted",
                 fmt_si(static_cast<double>(guarded->admitted_bytes())) +
                     "B of " +
                     fmt_si(static_cast<double>(
                         guarded->limits().memory_budget_bytes)) +
                     "B budget"});
    }
  }
  t.print(std::cout);

  if (args.get_bool("trace", false) && !summary.runs.empty()) {
    std::cout << "\ntrace of the last run (source "
              << summary.runs.back().source << "):\n";
    print_trace(summary.runs.back());
  }
  const auto counters = engine->counters();
  if (args.get_bool("counters", false) && counters) {
    std::cout << "\nhardware counters of the last run:\n";
    print_counters(*counters);
  }

  const std::string csv_prefix = args.get("csv", "");
  if (!csv_prefix.empty() && !summary.runs.empty()) {
    {
      std::ofstream f(csv_prefix + "_levels.csv");
      bfs::write_level_trace_csv(f, summary.runs.back());
    }
    {
      std::ofstream f(csv_prefix + "_runs.csv");
      bfs::write_runs_csv(f, summary.runs);
    }
    {
      std::ofstream f(csv_prefix + "_kernels.csv");
      bfs::write_kernels_csv(f, summary.runs.back());
    }
    if (counters) {
      std::ofstream f(csv_prefix + "_counters.csv");
      bfs::write_counters_csv(f, engine->name(), *counters);
    }
    std::cerr << "wrote " << csv_prefix << "_{levels,runs,kernels"
              << (counters ? ",counters" : "") << "}.csv\n";
  }

  if (!json_out.empty()) {
    obs::RunReport report;
    report.system = engine->name();
    if (!summary.runs.empty()) report.program = summary.runs.back().program;
    report.device = engine->device() != nullptr ? config.device.name : "";
    report.options_summary = engine->options_summary();
    report.graph.name = loaded.name;
    report.graph.vertices = static_cast<std::uint64_t>(g.num_vertices());
    report.graph.edges = static_cast<std::uint64_t>(g.num_edges());
    report.graph.directed = g.directed();
    report.seed = seed;
    report.requested_sources = num_sources;
    report.summary = summary;
    report.levels = engine->trace();
    report.hardware_counters = counters;
    if (injector) {
      obs::ResilienceSection rs;
      rs.fault_plan = injector->plan().summary();
      rs.faults_injected = injector->faults_injected();
      if (resilient != nullptr) {
        const bfs::ResilienceStats& s = resilient->session_stats();
        rs.retries = s.retries;
        rs.replays = s.replays;
        rs.fallbacks = s.fallbacks;
        rs.devices_blacklisted = s.devices_blacklisted;
        rs.repartitions = s.repartitions;
        rs.degraded_runs = s.degraded_runs;
        rs.validation_failures = s.validation_failures;
        rs.backoff_ms = s.backoff_ms;
      }
      report.resilience = rs;
    }
    report.integrity = integ;
    // Cluster section: attached only when the run actually took the
    // topology-aware collective path (non-ring fabric or link rules
    // armed), mirroring the interconnect's own zero-overhead gate so
    // default-ring reports stay byte-identical.
    const bool link_rules_armed =
        injector && injector->plan().has_link_rules();
    if (*topology_kind != sim::TopologyKind::kRing || link_rules_armed) {
      obs::ClusterSection cs;
      cs.topology = sim::to_string(*topology_kind);
      const unsigned parties = std::max(1u, config.multi_gpu.num_gpus);
      cs.parties = parties;
      cs.links_total =
          sim::build_topology(config.multi_gpu.interconnect.topology, parties,
                              config.multi_gpu.interconnect.latency_us,
                              config.multi_gpu.interconnect.bandwidth_gbs)
              .links.size();
      if (injector) {
        cs.links_failed = injector->links_failed();
        cs.links_degraded = injector->links_degraded();
      }
      cs.collectives = metrics.counter("comm.collectives").value();
      cs.comm_volume_bytes = metrics.counter("comm.volume_bytes").value();
      cs.comm_time_ms = metrics.gauge("comm.time_ms").value();
      cs.link_faults = metrics.counter("comm.link_faults").value();
      cs.comm_retries = metrics.counter("comm.retries").value();
      cs.reroutes = metrics.counter("comm.reroutes").value();
      cs.detour_ms = metrics.gauge("comm.detour_ms").value();
      cs.degraded_rings = metrics.counter("comm.degraded_rings").value();
      cs.partitions = metrics.counter("comm.partitions").value();
      report.cluster = cs;
    }
    // Fail-slow section: attached only when slow/stall rules were armed or
    // the straggler detector was enabled — the same zero-overhead gate the
    // level loop honors, so fail-stop-only reports stay byte-identical.
    const bool slow_rules_armed =
        injector && injector->plan().has_slow_rules();
    if (slow_rules_armed || config.multi_gpu.straggler.enabled) {
      obs::FailSlowSection fs;
      fs.detector = config.multi_gpu.straggler.enabled;
      fs.k = config.multi_gpu.straggler.k;
      if (injector) {
        fs.slow_faults = injector->slow_faults();
        fs.slow_applications = injector->slow_applications();
        fs.slow_ms_injected = injector->slow_ms_injected();
      }
      fs.detections = metrics.counter("straggler.detections").value();
      fs.speculations = metrics.counter("straggler.speculations").value();
      fs.speculations_won =
          metrics.counter("straggler.speculations_won").value();
      fs.speculations_lost =
          metrics.counter("straggler.speculations_lost").value();
      fs.wasted_speculation_ms =
          metrics.gauge("straggler.wasted_spec_ms").value();
      fs.rebalances = metrics.counter("straggler.rebalances").value();
      fs.vertices_moved = metrics.counter("straggler.vertices_moved").value();
      fs.demotions = metrics.counter("straggler.demotions").value();
      report.fail_slow = fs;
    }
    if (guarded != nullptr) {
      // Mirror the decorator's zero-overhead contract: the section appears
      // only when the guard layer actually did something.
      const bfs::GuardStats& s = guarded->session_stats();
      if (s.trips > 0 || s.degrade_steps > 0 || guarded->degraded()) {
        obs::GuardSection gsec;
        gsec.limits = guard_limits_summary(guarded->limits());
        gsec.trips = s.trips;
        gsec.degrade_steps = s.degrade_steps;
        gsec.degraded_runs = s.degraded_runs;
        gsec.admitted_bytes = guarded->admitted_bytes();
        gsec.budget_bytes = guarded->limits().memory_budget_bytes;
        gsec.degraded = guarded->degraded();
        gsec.degradation = guarded->degradation();
        gsec.last_trip = s.last_trip;
        report.guards = gsec;
      }
    }
    report.metrics = metrics.to_json();
    report.events = json_sink.events();

    const obs::Json j = report.to_json();
    const auto errors = obs::validate_report(j);
    if (!errors.empty()) {
      std::cerr << "internal error: report fails its own schema:\n";
      for (const auto& e : errors) std::cerr << "  " << e << "\n";
      return 1;
    }
    std::ofstream f(json_out);
    if (!f) {
      std::cerr << "cannot open " << json_out << " for writing\n";
      return 1;
    }
    j.dump(f, 2);
    f << "\n";
    std::cerr << "wrote " << json_out << "\n";
  }
  // Silent corruption landed and nothing noticed: the scariest outcome a
  // run can have, surfaced as its own exit code AFTER the report (so the
  // evidence is on disk) for CI to trip on.
  if (integ && integ->flips_injected > 0 && integ->detections == 0) {
    std::cerr << "UNDETECTED CORRUPTION: " << integ->flips_injected
              << " silent flip(s) injected, zero integrity detections;"
              << " enable --audit / --scrub-interval\n";
    return 5;
  }
  return 0;
}
