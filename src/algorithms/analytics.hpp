// BFS-based graph analytics (§1: BFS "serves as a building block for many
// analytics workloads, e.g., single source shortest path, betweenness
// centrality and closeness centrality"; §7 lists SSSP, diameter detection,
// connected components and betweenness centrality as algorithms Enterprise
// supports). Every routine here drives any registered BFS engine
// (bfs::make_engine: "enterprise", a baseline, or the "cpu" reference) built
// over the same graph `g` it is handed.
#pragma once

#include <cstdint>
#include <vector>

#include "bfs/engine.hpp"
#include "bfs/result.hpp"
#include "graph/csr.hpp"

namespace ent::algorithms {

// --- single-source shortest paths (unweighted) -------------------------------

struct SsspResult {
  std::vector<std::int32_t> distance;       // -1 = unreachable
  std::vector<graph::vertex_t> parent;      // kInvalidVertex = unreachable
  graph::vertex_t reached = 0;
  double ecc = 0.0;                         // eccentricity of the source
};

SsspResult sssp(bfs::Engine& engine, graph::vertex_t source);

// Reconstructs one shortest path source -> target from an SsspResult;
// empty when unreachable.
std::vector<graph::vertex_t> shortest_path(const SsspResult& r,
                                           graph::vertex_t source,
                                           graph::vertex_t target);

// --- connected components ------------------------------------------------------

struct ComponentsResult {
  std::vector<graph::vertex_t> component;  // component id per vertex
  graph::vertex_t num_components = 0;
  graph::vertex_t giant_size = 0;          // largest component's vertex count
};

// Repeated BFS over undirected graphs (aborts on directed input — weakly
// connected components would need the union graph).
ComponentsResult connected_components(const graph::Csr& g,
                                      bfs::Engine& engine);

// --- diameter ---------------------------------------------------------------------

struct DiameterResult {
  std::int32_t lower_bound = 0;   // best eccentricity found
  graph::vertex_t endpoint_a = 0;
  graph::vertex_t endpoint_b = 0;
  unsigned sweeps = 0;
};

// Pseudo-diameter by iterated double sweep: BFS from a start vertex, hop to
// the farthest vertex found, repeat until the eccentricity stops growing
// (classic lower-bound technique; exact on trees).
DiameterResult pseudo_diameter(const graph::Csr& g, graph::vertex_t start,
                               bfs::Engine& engine,
                               unsigned max_sweeps = 8);

// --- centralities --------------------------------------------------------------------

// Brandes' betweenness centrality on the unweighted graph, exact when
// `sample_sources` == 0 (all sources) or approximated from a pseudo-random
// sample otherwise. Uses the BFS engine for the forward phase, then the
// standard dependency accumulation over the BFS DAG.
std::vector<double> betweenness_centrality(const graph::Csr& g,
                                           bfs::Engine& engine,
                                           graph::vertex_t sample_sources,
                                           std::uint64_t seed = 1);

// Closeness centrality of `sources` (harmonic variant: sum of 1/d over
// reachable vertices, which is robust to disconnected graphs).
std::vector<double> harmonic_closeness(
    const graph::Csr& g, const std::vector<graph::vertex_t>& sources,
    bfs::Engine& engine);

// --- reachability ---------------------------------------------------------------------

// Number of vertices within `hops` of `source` (inclusive of the source).
graph::vertex_t k_hop_reachability(const graph::Csr& g,
                                   graph::vertex_t source, std::int32_t hops,
                                   bfs::Engine& engine);

}  // namespace ent::algorithms
