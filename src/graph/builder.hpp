// Edge-list -> CSR builder.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace ent::graph {

struct BuildOptions {
  // Treat every input edge as two directed edges (the paper counts each
  // undirected edge twice). A self-loop stays one edge.
  bool symmetrize = false;
  // Whether the resulting Csr reports itself directed.
  bool directed = true;
  // Allocation-bomb guard: the CSR row-offset array is num_vertices+1
  // 8-byte entries, allocated before any edge is inspected, so a corrupt
  // header claiming ~2^32 vertices would commit tens of GB on the word of
  // a 4-byte field. Vertex counts above this cap throw the typed
  // GraphFormatError every other malformed input throws. The default
  // (256 Mi vertices, a 2 GiB offset array) is far above anything the
  // simulator can traverse; raise it deliberately for bigger inputs.
  vertex_t max_vertices = 1u << 28;
};

// Builds a CSR over vertices [0, num_vertices). Every adjacency list comes
// out sorted ascending, and duplicate edges and self-loops are kept, as §5
// of the paper does: the CSR depends only on the multiset of edges. Edges
// referencing vertices outside the range throw graph::GraphFormatError
// (graph/errors.hpp) naming the lowest offending edge index and its
// endpoints. Runs on util::host_pool().
Csr build_csr(vertex_t num_vertices, std::vector<Edge> edges,
              const BuildOptions& options = {});

}  // namespace ent::graph
