// §7 future-work extension bench: streamed (out-of-core) Enterprise BFS,
// EnterpriseBfs with partition residency on. Sweeps the device-resident
// partition budget to show the cost of paging the graph over the host link,
// and the locality benefit the hybrid traversal retains (top-down levels
// touch few partitions; the bottom-up phase sweeps them once in order).
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "graph/generators.hpp"
#include "util/stats.hpp"

using namespace ent;

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header("Extension", "Streamed (out-of-core) Enterprise BFS",
                      opt);

  graph::KroneckerParams p;
  p.scale = std::max(
      10, 16 + static_cast<int>(std::lround(std::log2(opt.suite_scale))));
  p.edge_factor = 16;
  p.seed = opt.seed ^ 0x00c;
  const graph::Csr g = graph::generate_kronecker(p);
  std::cout << "Kron-" << p.scale << "-" << p.edge_factor << ": "
            << g.num_vertices() << " vertices, " << g.num_edges()
            << " directed edges, 16 partitions\n\n";

  const auto sources = bfs::sample_sources(g, opt.sources, opt.seed);
  Table table({"resident", "graph share", "GTEPS", "vs in-memory", "faults",
               "hits", "MB moved", "transfer ms"});
  // The first row runs with residency off, the whole graph in device memory,
  // and is the base of "vs in-memory": a fully resident streamed run still
  // pays each partition's cold fault.
  double in_memory_teps = 0.0;
  for (unsigned resident : {0u, 16u, 8u, 4u, 2u, 1u}) {
    enterprise::EnterpriseOptions eopt;
    eopt.device = opt.device();
    if (resident > 0) eopt.residency = {.partitions = 16, .resident = resident};
    enterprise::EnterpriseBfs sys(g, eopt);

    double teps_sum = 0.0;
    std::uint64_t faults = 0;
    std::uint64_t hits = 0;
    std::uint64_t bytes = 0;
    double transfer = 0.0;
    for (graph::vertex_t s : sources) {
      teps_sum += sys.run(s).teps();
      const enterprise::ResidencyStats& stats = sys.residency_stats();
      faults += stats.partition_faults;
      hits += stats.partition_hits;
      bytes += stats.bytes_transferred;
      transfer += stats.transfer_ms;
    }
    const double teps = teps_sum / static_cast<double>(sources.size());
    if (resident == 0) in_memory_teps = teps;
    const auto runs = static_cast<double>(sources.size());
    table.add_row({resident == 0 ? "off" : std::to_string(resident),
                   fmt_percent(resident == 0 ? 1.0 : resident / 16.0),
                   fmt_double(teps / 1e9, 3),
                   fmt_percent(teps / in_memory_teps),
                   fmt_double(static_cast<double>(faults) / runs, 1),
                   fmt_double(static_cast<double>(hits) / runs, 1),
                   fmt_double(static_cast<double>(bytes) / runs / 1e6, 1),
                   fmt_double(transfer / runs, 3)});
  }
  table.print(std::cout);
  std::cout << "\nWith the full graph resident each partition faults at "
               "most once; shrinking device memory trades TEPS for PCIe "
               "traffic — the regime the paper's §7 storage integration "
               "targets.\n";
  return 0;
}
