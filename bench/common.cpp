#include "common.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "bfs/engine.hpp"
#include "bfs/spec.hpp"

namespace ent::bench {

BenchOptions parse_options(int argc, char** argv) {
  const Args args(argc, argv);
  BenchOptions opt;
  opt.suite_scale = args.get_double("scale", opt.suite_scale);
  opt.sources = static_cast<unsigned>(args.get_int("sources", opt.sources));
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  opt.device_scale = args.get_double("device-scale", opt.device_scale);
  opt.json_out = args.get("json-out", "");
  return opt;
}

void print_header(const std::string& id, const std::string& title,
                  const BenchOptions& opt) {
  std::cout << "== " << id << ": " << title << " ==\n"
            << "   device " << opt.device().name << " (K40 resources / "
            << fmt_double(opt.device_scale, 0)
            << "; graphs are scaled stand-ins, see EXPERIMENTS.md)"
            << " | suite scale " << fmt_double(opt.suite_scale, 3)
            << " | sources/graph " << opt.sources << "\n\n";
}

graph::SuiteEntry load_graph(const std::string& abbr,
                             const BenchOptions& opt) {
  std::fprintf(stderr, "[gen] %s...\n", abbr.c_str());
  return graph::make_suite_graph(abbr, opt.suite());
}

enterprise::EnterpriseOptions enterprise_options(const BenchOptions& opt) {
  enterprise::EnterpriseOptions eopt;
  eopt.device = opt.device();
  return eopt;
}

bfs::RunSummary run_enterprise(const graph::Csr& g,
                               const enterprise::EnterpriseOptions& eopt,
                               const BenchOptions& opt) {
  return run_spec("enterprise", g, eopt, opt);
}

bfs::RunSummary run_spec(const std::string& spec, const graph::Csr& g,
                         const enterprise::EnterpriseOptions& eopt,
                         const BenchOptions& opt) {
  bfs::EngineConfig config;
  config.device = eopt.device;
  config.enterprise = eopt;
  const auto engine = bfs::make_engine(spec, g, config);
  if (engine == nullptr) {
    throw std::invalid_argument("bench: make_engine rejected spec '" + spec +
                                "'");
  }
  return bfs::run_sources(g, *engine, opt.sources, opt.seed);
}

ReportWriter::ReportWriter(const BenchOptions& opt) : path_(opt.json_out) {}

void ReportWriter::add(const std::string& system,
                       const graph::SuiteEntry& entry,
                       const bfs::RunSummary& summary,
                       const BenchOptions& opt,
                       const std::string& options_summary) {
  if (!active()) return;
  obs::RunReport report;
  report.system = system;
  if (const auto spec = bfs::EngineSpec::parse(system);
      spec && spec->has_program()) {
    report.program = spec->program;
  }
  report.device = opt.device().name;
  report.options_summary = options_summary;
  report.graph.name = entry.abbr;
  report.graph.vertices = static_cast<std::uint64_t>(entry.graph.num_vertices());
  report.graph.edges = static_cast<std::uint64_t>(entry.graph.num_edges());
  report.graph.directed = entry.graph.directed();
  report.seed = opt.seed;
  report.requested_sources = opt.sources;
  report.summary = summary;
  if (!summary.runs.empty()) {
    report.levels = summary.runs.back().level_trace;
  }
  reports_.push_back(report.to_json());
}

bool ReportWriter::write() const {
  if (!active()) return true;
  std::ofstream f(path_);
  if (!f) {
    std::cerr << "cannot open " << path_ << " for writing\n";
    return false;
  }
  reports_.dump(f, 2);
  f << "\n";
  std::cerr << "wrote " << reports_.items().size() << " reports to " << path_
            << "\n";
  return true;
}

}  // namespace ent::bench
