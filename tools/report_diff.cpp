// report_diff — compare two RunReports (bfs_runner or bfs_serve --json-out)
// and flag performance regressions. When both reports carry an optional
// section (resilience, guards, integrity, cluster, fail_slow, service), its
// counters are compared too, each under the diff rule of its field table:
// a recovery or failure counter moving off a zero baseline is a
// regression. When only one report carries a section, its rows print n/a.
//
//   report_diff baseline.json candidate.json [--tolerance=0.05]
//
// Exit codes: 0 no regression, 1 regression beyond tolerance, 2 bad usage
// or unparseable/invalid report.
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/run_report.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace ent;

namespace {

std::optional<obs::RunReport> read_report(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << f.rdbuf();
  auto report = obs::RunReport::parse(buffer.str());
  if (!report) std::cerr << path << ": not a valid RunReport\n";
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.has("help") || args.positional().size() != 2) {
    std::cout << "usage: report_diff <baseline.json> <candidate.json> "
                 "[--tolerance=0.05]\n";
    return args.has("help") ? 0 : 2;
  }

  const auto baseline = read_report(args.positional()[0]);
  const auto candidate = read_report(args.positional()[1]);
  if (!baseline || !candidate) return 2;

  if (baseline->system != candidate->system ||
      baseline->graph.name != candidate->graph.name) {
    std::cerr << "note: comparing " << baseline->system << " on "
              << baseline->graph.name << " vs " << candidate->system << " on "
              << candidate->graph.name << "\n";
  }

  obs::ReportDiffOptions options;
  options.tolerance = args.get_double("tolerance", 0.05);
  const auto deltas = obs::diff_reports(*baseline, *candidate, options);

  Table t({"metric", "baseline", "candidate", "ratio", ""});
  for (const auto& d : deltas) {
    if (d.not_applicable) {
      // One side lacks the metric's optional section (e.g. a baseline
      // written before it existed): nothing to compare, never a regression.
      t.add_row({d.metric, "n/a", "n/a", "n/a", "n/a"});
      continue;
    }
    t.add_row({d.metric, fmt_si(d.baseline), fmt_si(d.candidate),
               fmt_double(d.ratio, 3), d.regression ? "REGRESSION" : "ok"});
  }
  t.print(std::cout);

  if (obs::has_regression(deltas)) {
    std::cerr << "regression beyond tolerance "
              << fmt_percent(options.tolerance) << "\n";
    return 1;
  }
  return 0;
}
