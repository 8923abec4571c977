#include "enterprise/status_array.hpp"

#include <algorithm>

namespace ent::enterprise {

graph::vertex_t StatusArray::visited_count() const {
  graph::vertex_t count = 0;
  for (std::int32_t l : levels_) {
    if (l != kUnvisited) ++count;
  }
  return count;
}

void finalize(bfs::BfsResult& result, const graph::Csr& g,
              StatusArray&& status, std::vector<graph::vertex_t>&& parents) {
  // Tally in locals: stores through `result` could alias the graph as far as
  // the compiler knows, which would keep this O(n) loop in memory.
  graph::vertex_t visited = 0;
  std::int32_t depth = 0;
  for (const std::int32_t level : status.data()) {
    if (level != kUnvisited) {
      ++visited;
      depth = std::max(depth, level);
    }
  }
  result.depth = depth;
  result.vertices_visited = visited;
  result.levels = std::move(status).take();
  result.parents = std::move(parents);
  result.edges_traversed = bfs::count_traversed_edges(g, result.levels);
}

}  // namespace ent::enterprise
