#include "graph/builder.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "graph/errors.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"

namespace ent::graph {
namespace {

// Rows sorted per pool chunk: fixed, and small enough that a Kronecker hub's
// long row does not hold up the rest of its chunk's thread.
constexpr std::size_t kSortRows = 1024;

}  // namespace

Csr build_csr(vertex_t num_vertices, std::vector<Edge> edges,
              const BuildOptions& options) {
  if (num_vertices > options.max_vertices) {
    // Checked before the counts and offsets allocations below, the only
    // num_vertices-proportional ones a corrupt header can trigger.
    throw GraphFormatError(
        {"<memory>", 0, 0},
        "vertex count " + std::to_string(num_vertices) +
            " exceeds BuildOptions.max_vertices=" +
            std::to_string(options.max_vertices) +
            " (likely corrupt header; raise the cap for genuine inputs)");
  }
  util::HostPool& pool = util::host_pool();
  const std::size_t n = num_vertices;
  const std::size_t m = edges.size();
  const bool symmetrize = options.symmetrize;

  // One contiguous edge range per pool thread, each counting into its own
  // n-entry array. A range of fewer than n edges would spend more on its
  // array than on its edges, so short edge lists use fewer ranges.
  const std::size_t ranges = std::clamp<std::size_t>(
      m / std::max<std::size_t>(n, 1), 1, pool.size());
  const std::size_t per_range = (m + ranges - 1) / ranges;
  // A range adds at most one to a vertex's count per edge.
  ENT_ASSERT(per_range <= std::numeric_limits<std::uint32_t>::max());
  const auto range = [&](std::size_t r) {
    return std::pair{std::min(m, r * per_range),
                     std::min(m, (r + 1) * per_range)};
  };

  // Pass 1: check endpoints and count each range's out-degrees. Under
  // symmetrize a non-loop edge (u, v) also counts for v.
  std::vector<std::uint32_t> counts(ranges * n, 0);
  pool.for_each(ranges, [&](std::size_t r) {
    std::uint32_t* count = counts.data() + r * n;
    const auto [begin, end] = range(r);
    for (std::size_t i = begin; i < end; ++i) {
      const Edge e = edges[i];
      if (e.src >= num_vertices || e.dst >= num_vertices) {
        // Typed (not aborting): loaded edge lists reach here unchecked, and
        // a corrupt file must surface as a catchable ingestion error. Each
        // range stops at its first offender and the pool rethrows the lowest
        // range's, so the lowest edge index is reported. The "<memory>"
        // location is rebound to the file path by load_csr_file.
        throw GraphFormatError(
            {"<memory>", i, 0},
            "edge " + std::to_string(i) + " endpoint out of range: (" +
                std::to_string(e.src) + ", " + std::to_string(e.dst) +
                ") with num_vertices=" + std::to_string(num_vertices));
      }
      ++count[e.src];
      if (symmetrize && e.src != e.dst) ++count[e.dst];
    }
  });

  // Row offsets; each range's count becomes its cursor, the position of its
  // first edge in the row relative to the row's start.
  std::vector<edge_t> offsets(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    edge_t row = 0;
    for (std::size_t r = 0; r < ranges; ++r) {
      std::uint32_t& count = counts[r * n + v];
      const std::uint32_t range_count = count;
      count = static_cast<std::uint32_t>(row);
      row += range_count;
    }
    ENT_ASSERT(row <= std::numeric_limits<std::uint32_t>::max());
    offsets[v + 1] = offsets[v] + row;
  }

  // Pass 2: scatter, both directions under symmetrize. Ranges write disjoint
  // slots of every row.
  std::vector<vertex_t> cols(offsets[n]);
  pool.for_each(ranges, [&](std::size_t r) {
    std::uint32_t* cursor = counts.data() + r * n;
    const auto [begin, end] = range(r);
    for (std::size_t i = begin; i < end; ++i) {
      const Edge e = edges[i];
      cols[offsets[e.src] + cursor[e.src]++] = e.dst;
      if (symmetrize && e.src != e.dst) {
        cols[offsets[e.dst] + cursor[e.dst]++] = e.src;
      }
    }
  });

  // Sorted rows make the CSR independent of the range split and the order
  // the scatter wrote each row in.
  pool.for_each_block(n, kSortRows, [&](std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      std::sort(cols.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                cols.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
    }
  });
  return Csr(num_vertices, std::move(offsets), std::move(cols),
             options.directed);
}

}  // namespace ent::graph
