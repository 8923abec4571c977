// graphgen — generate a graph from any built-in family and write it as an
// edge list.
//
//   graphgen --family=kron --scale=18 --edge-factor=16 --out=kron18.bin
//   graphgen --family=social --vertices=1000000 --avg-degree=20
//            --out=social.txt --format=text
//   graphgen --family=road --width=512 --height=512 --out=road.bin
//
// Families: kron rmat social road mesh comb er. Formats: binary (default,
// "ENTG" container) or text (SNAP-style "src dst" lines). Exits 4 with the
// error's message when a family parameter is out of range or the output
// cannot be written.
#include <fstream>
#include <iostream>

#include "graph/errors.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/suite.hpp"
#include "util/args.hpp"

using namespace ent;

namespace {

graph::Csr generate(const Args& args) {
  const std::string family = args.get("family", "kron");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (family == "kron") {
    graph::KroneckerParams p;
    p.scale = static_cast<int>(args.get_int("scale", 16));
    p.edge_factor = static_cast<int>(args.get_int("edge-factor", 16));
    p.seed = seed;
    return graph::generate_kronecker(p);
  }
  if (family == "rmat") {
    graph::RmatParams p;
    p.scale = static_cast<int>(args.get_int("scale", 16));
    p.edge_factor = static_cast<int>(args.get_int("edge-factor", 16));
    p.a = args.get_double("a", 0.45);
    p.b = args.get_double("b", 0.15);
    p.c = args.get_double("c", 0.15);
    p.seed = seed;
    return graph::generate_rmat(p);
  }
  if (family == "social") {
    graph::SocialProfile p;
    p.num_vertices =
        static_cast<graph::vertex_t>(args.get_int("vertices", 1 << 17));
    p.average_degree = args.get_double("avg-degree", 16.0);
    p.exponent = args.get_double("exponent", 2.2);
    p.max_degree =
        static_cast<graph::edge_t>(args.get_int("max-degree", 1 << 14));
    p.directed = args.get_bool("directed", false);
    p.seed = seed;
    return graph::generate_social(p);
  }
  if (family == "road") {
    return graph::generate_road_grid(
        static_cast<graph::vertex_t>(args.get_int("width", 512)),
        static_cast<graph::vertex_t>(args.get_int("height", 512)), seed);
  }
  if (family == "mesh") {
    return graph::generate_mesh(
        static_cast<graph::vertex_t>(args.get_int("vertices", 1 << 16)),
        static_cast<unsigned>(args.get_int("k", 64)), seed);
  }
  if (family == "comb") {
    return graph::generate_comb(
        static_cast<graph::vertex_t>(args.get_int("spine", 1024)),
        static_cast<graph::vertex_t>(args.get_int("tooth", 127)), seed);
  }
  if (family == "er") {
    return graph::generate_erdos_renyi(
        static_cast<graph::vertex_t>(args.get_int("vertices", 1 << 16)),
        static_cast<graph::edge_t>(args.get_int("edges", 1 << 20)),
        args.get_bool("directed", false), seed);
  }
  if (family == "suite") {
    graph::SuiteOptions opt;
    opt.scale = args.get_double("suite-scale", 1.0);
    opt.seed = seed;
    return graph::make_suite_graph(args.get("abbr", "KR0"), opt).graph;
  }
  std::cerr << "unknown family '" << family
            << "' (kron rmat social road mesh comb er suite)\n";
  std::exit(1);
}

int run(const Args& args) {
  const graph::Csr g = generate(args);
  std::cerr << "generated " << g.num_vertices() << " vertices, "
            << g.num_edges() << " directed edges (avg degree "
            << g.average_degree() << ", max " << g.max_degree() << ")\n";

  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::cerr << "no --out given; nothing written\n";
    return 0;
  }
  graph::EdgeList list;
  list.num_vertices = g.num_vertices();
  list.edges.reserve(g.num_edges());
  for (graph::vertex_t v = 0; v < g.num_vertices(); ++v) {
    for (graph::vertex_t w : g.neighbors(v)) list.edges.push_back({v, w});
  }
  if (args.get("format", "binary") == "text") {
    std::ofstream f(out);
    graph::write_edge_list_text(f, list);
  } else {
    graph::write_edge_list_binary_file(out, list);
  }
  std::cerr << "wrote " << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: graphgen --family=<kron|rmat|social|road|mesh|comb|"
                 "er|suite> [family params] --out=<path> [--format=binary|"
                 "text]\n";
    return 0;
  }
  // Bad family parameters and unwritable outputs are input problems: exit 4
  // with the typed error's message, as bfs_runner does, not an abort.
  try {
    return run(args);
  } catch (const graph::GraphError& e) {
    std::cerr << "graphgen: " << e.what() << "\n";
    return 4;
  }
}
