// Cross-workload figure — the vertex-program engine API exercised end to
// end. For every Table 1 graph, the same Enterprise machinery (TS queue
// generation, WB degree-classified dispatch, HC hub cache) runs all four
// built-in workloads — BFS, SSSP (delta-stepping), CC (label propagation),
// PageRank (push with epsilon) — and reports traversal rate, mean time, and
// superstep depth per workload. Each program run is validated against its
// own invariant set (bfs/program.hpp validate()); the "valid" column counts
// sources that passed. There is no paper reference row: the paper is
// BFS-only, and this figure is the evidence the generalized engine carries
// its techniques beyond it.
#include <iostream>
#include <memory>

#include "bfs/program.hpp"
#include "bfs/spec.hpp"
#include "bfs/validate.hpp"
#include "common.hpp"
#include "util/stats.hpp"

using namespace ent;

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header("Workloads", "vertex programs on the Enterprise engine",
                      opt);
  bench::ReportWriter reports(opt);

  const std::vector<std::string> specs = {
      "enterprise", "enterprise/sssp?delta=4", "enterprise/cc",
      "enterprise/pagerank?epsilon=1e-6"};

  Table table({"Graph", "workload", "MTEPS", "mean ms", "mean depth",
               "valid"});
  for (const std::string& abbr : graph::table1_abbreviations()) {
    const graph::SuiteEntry entry = bench::load_graph(abbr, opt);
    const graph::Csr& g = entry.graph;

    for (const std::string& spec_text : specs) {
      const auto spec = bfs::EngineSpec::parse(spec_text);
      const bfs::RunSummary summary = bench::run_spec(
          spec_text, g, bench::enterprise_options(opt), opt);

      // Validate every source with the workload's own invariant set.
      unsigned valid = 0;
      if (spec->has_program()) {
        bfs::ProgramParams params;
        params.entries = spec->params;
        const auto program = bfs::make_program(spec->program, g, params);
        for (const auto& r : summary.runs) {
          if (program != nullptr && program->validate(g, r).ok) ++valid;
        }
      } else {
        for (const auto& r : summary.runs) {
          if (bfs::validate_tree(g, g.in_edges(), r).ok) ++valid;
        }
      }

      reports.add(spec_text, entry, summary, opt,
                  spec->has_program() ? "program=" + spec->program
                                      : "wb=on hc=on");
      const std::string workload =
          spec->has_program() ? spec->program : std::string("bfs");
      table.add_row({abbr, workload,
                     fmt_double(summary.mean_teps / 1e6, 1),
                     fmt_double(summary.mean_time_ms, 3),
                     fmt_double(summary.mean_depth, 1),
                     std::to_string(valid) + "/" +
                         std::to_string(summary.runs.size())});
    }
  }
  table.print(std::cout);
  std::cout << "\nAll four workloads share the TS/WB/HC superstep loop; "
               "per-workload\nrates differ with relaxation cost and "
               "superstep count (pagerank touches\nevery vertex per "
               "superstep, sssp re-relaxes across delta buckets).\n";
  return reports.write() ? 0 : 1;
}
