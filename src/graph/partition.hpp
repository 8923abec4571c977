// 1-D vertex partitioning for multi-GPU Enterprise (§4.4): "each GPU is
// responsible for an equal number of vertices from the graph, and thus a
// similar number of edges". We provide both the paper's equal-vertex split
// and an equal-edge split, used by the partitioning ablation and by
// EnterpriseBfs's partition residency (§7).
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace ent::graph {

struct VertexRange {
  vertex_t begin = 0;
  vertex_t end = 0;  // exclusive

  vertex_t size() const { return end - begin; }
  bool contains(vertex_t v) const { return v >= begin && v < end; }
};

// Contiguous ranges of near-equal vertex counts.
std::vector<VertexRange> partition_equal_vertices(vertex_t num_vertices,
                                                  unsigned parts);

// Contiguous ranges chosen so that each part owns a near-equal number of
// out-edges (split points found on the CSR row-offset prefix).
std::vector<VertexRange> partition_equal_edges(const Csr& g, unsigned parts);

// Sanity check: ranges are contiguous, disjoint, and cover [0, n).
bool covers_all(const std::vector<VertexRange>& ranges, vertex_t num_vertices);

}  // namespace ent::graph
