// Host (CPU) direction-optimizing BFS after Beamer, Asanović, Patterson
// [10]: frontier queue for top-down, status array for bottom-up, switching
// on the alpha/beta edge-count heuristics. Used as a second correctness
// reference and to produce the per-level alpha series of Fig. 10.
#pragma once

#include "bfs/result.hpp"
#include "graph/csr.hpp"

namespace ent::baselines {

struct BeamerOptions {
  double alpha = 15.0;
  double beta = 18.0;
};

// `in_edges` is the in-edge CSR, g.in_edges() (`g` itself when undirected).
// time_ms is host wall time; level_trace carries frontier sizes,
// directions, and alpha.
bfs::BfsResult beamer_hybrid_bfs(const graph::Csr& g,
                                 const graph::Csr& in_edges,
                                 graph::vertex_t source,
                                 const BeamerOptions& options = {});

}  // namespace ent::baselines
