#include "graph/partition.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ent::graph {

std::vector<VertexRange> partition_equal_vertices(vertex_t num_vertices,
                                                  unsigned parts) {
  ENT_ASSERT(parts >= 1);
  std::vector<VertexRange> ranges;
  ranges.reserve(parts);
  const vertex_t base = num_vertices / parts;
  const vertex_t extra = num_vertices % parts;
  vertex_t cursor = 0;
  for (unsigned p = 0; p < parts; ++p) {
    const vertex_t size = base + (p < extra ? 1 : 0);
    ranges.push_back({cursor, cursor + size});
    cursor += size;
  }
  return ranges;
}

std::vector<VertexRange> partition_equal_edges(const Csr& g, unsigned parts) {
  ENT_ASSERT(parts >= 1);
  const auto offsets = g.row_offsets();
  const edge_t total = g.num_edges();
  std::vector<VertexRange> ranges;
  ranges.reserve(parts);
  vertex_t cursor = 0;
  for (unsigned p = 0; p < parts; ++p) {
    const edge_t target = total * (p + 1) / parts;
    // First vertex whose cumulative edge count reaches the target.
    auto it = std::lower_bound(offsets.begin() + cursor + 1, offsets.end(),
                               target);
    auto end = static_cast<vertex_t>(std::distance(offsets.begin(), it));
    end = std::min<vertex_t>(end, g.num_vertices());
    if (p + 1 == parts) end = g.num_vertices();
    end = std::max(end, cursor);  // never go backwards on empty tails
    ranges.push_back({cursor, end});
    cursor = end;
  }
  return ranges;
}

bool covers_all(const std::vector<VertexRange>& ranges,
                vertex_t num_vertices) {
  vertex_t cursor = 0;
  for (const VertexRange& r : ranges) {
    if (r.begin != cursor || r.end < r.begin) return false;
    cursor = r.end;
  }
  return cursor == num_vertices;
}

}  // namespace ent::graph
