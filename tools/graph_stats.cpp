// graph_stats — degree/hub/structure analytics for a graph file or
// generated graph: the Fig. 5/6 views plus the hub-threshold sizing the
// Enterprise cache uses.
//
//   graph_stats --graph=social.bin
//   graph_stats --scale=18 --edge-factor=16 --cdf
//   graph_stats --graph=snap.txt --digests   # per-segment integrity digests
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <span>
#include <sstream>

#include "algorithms/analytics.hpp"
#include "graph/degree.hpp"
#include "graph/digest.hpp"
#include "graph/suite.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ent;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: graph_stats [--graph=<path>|--suite=<abbr>|"
                 "--scale=N --edge-factor=M] [--cdf] [--components] "
                 "[--diameter]\n"
                 "  --digests            print per-segment FNV-1a64 block "
                 "digests\n"
                 "                       (graph/digest.hpp) — byte-for-byte "
                 "comparison\n"
                 "                       of two graph snapshots\n"
                 "  --digest-block-bytes=N   digest block size (default "
                 "4096)\n";
    return 0;
  }

  const graph::LoadedGraph loaded = graph::load_or_generate(args);
  const graph::Csr& g = loaded.graph;

  const auto degrees = graph::degree_sequence(g);
  const Summary s = summarize(degrees);
  Table t({"metric", "value"});
  t.add_row({"vertices", fmt_si(g.num_vertices())});
  t.add_row({"directed edges", fmt_si(static_cast<double>(g.num_edges()))});
  t.add_row({"avg out-degree", fmt_double(s.mean, 2)});
  t.add_row({"degree stddev", fmt_double(s.stddev, 2)});
  t.add_row({"max out-degree", fmt_si(s.max)});
  t.add_row({"zero-degree vertices",
             fmt_percent(fraction_below(degrees, 1.0))});
  t.add_row({"< 32 edges (Thread queue)",
             fmt_percent(fraction_below(degrees, 32.0))});
  t.add_row({"< 256 edges (Warp queue ceiling)",
             fmt_percent(fraction_below(degrees, 256.0))});
  const graph::HubStats hubs = graph::select_hub_threshold(
      g, static_cast<graph::vertex_t>(args.get_int("hub-target", 1024)));
  t.add_row({"hub threshold tau", std::to_string(hubs.threshold)});
  t.add_row({"hub vertices", fmt_si(hubs.num_hubs)});
  t.add_row({"hub edge share", fmt_percent(hubs.hub_edge_share)});
  t.print(std::cout);

  if (args.get_bool("cdf", false)) {
    std::cout << "\nedge-mass CDF (vertices ascending by degree):\n";
    Table cdf({"vertex fraction", "edge share"});
    for (const auto& pt : mass_cdf(degrees, 11)) {
      cdf.add_row({fmt_percent(pt.fraction_of_items),
                   fmt_percent(pt.cumulative_share)});
    }
    cdf.print(std::cout);
  }
  if (args.get_bool("components", false) && !g.directed()) {
    const auto cc =
        algorithms::connected_components(g, *bfs::make_engine("cpu", g));
    std::cout << "\ncomponents: " << cc.num_components << ", giant holds "
              << fmt_percent(static_cast<double>(cc.giant_size) /
                             g.num_vertices())
              << " of vertices\n";
  }
  if (args.get_bool("digests", false)) {
    const auto block_bytes = static_cast<std::size_t>(args.get_int(
        "digest-block-bytes",
        static_cast<std::int64_t>(graph::SegmentDigests::kDefaultBlockBytes)));
    const auto digests = graph::SegmentDigests::compute(g, block_bytes);
    std::cout << "\nper-segment FNV-1a64 digests (block "
              << digests.block_bytes() << " bytes):\n";
    Table dt({"segment", "block", "digest"});
    const auto add_segment = [&dt](const char* segment,
                                   std::span<const std::uint64_t> blocks) {
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        std::ostringstream hex;
        hex << "0x" << std::hex << std::setfill('0') << std::setw(16)
            << blocks[i];
        dt.add_row({segment, std::to_string(i), hex.str()});
      }
    };
    add_segment("row_offsets", digests.row_offset_digests());
    add_segment("adjacency", digests.adjacency_digests());
    dt.print(std::cout);
  }
  if (args.get_bool("diameter", false)) {
    const auto d =
        algorithms::pseudo_diameter(g, 0, *bfs::make_engine("cpu", g));
    std::cout << "\npseudo-diameter >= " << d.lower_bound << " (between "
              << d.endpoint_a << " and " << d.endpoint_b << ", "
              << d.sweeps << " sweeps)\n";
  }
  return 0;
}
