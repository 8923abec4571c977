#include "graph/builder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "graph/errors.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"

namespace ent::graph {
namespace {

// Rows sorted per pool chunk: fixed, and small enough that a Kronecker hub's
// long row does not hold up the rest of its chunk's thread.
constexpr std::size_t kSortRows = 1024;

// Rows of at least this many entries are radix sorted; shorter ones keep
// std::sort.
constexpr std::size_t kRadixRow = 256;

// Least-significant-digit radix sort of row[0, len) by 8-bit digits, `passes`
// of them, through scratch[0, len). Each pass is a stable counting scatter,
// so after the pass over the top digit the row is sorted; an odd pass count
// leaves the result in the scratch, which is copied back.
void radix_sort_row(vertex_t* row, vertex_t* scratch, std::size_t len,
                    int passes) {
  vertex_t* from = row;
  vertex_t* to = scratch;
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = 8 * pass;
    std::array<std::uint32_t, 256> bucket{};
    for (std::size_t i = 0; i < len; ++i) ++bucket[(from[i] >> shift) & 0xff];
    std::uint32_t start = 0;
    for (std::uint32_t& b : bucket) start += std::exchange(b, start);
    for (std::size_t i = 0; i < len; ++i) {
      to[bucket[(from[i] >> shift) & 0xff]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != row) std::copy(from, from + len, row);
}

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

  // The edge list and the cursors are dead: release them before the sort's
  // scratch, so the scratch does not raise the build's peak memory.
  std::vector<Edge>().swap(edges);
  std::vector<std::uint32_t>().swap(counts);

  // Sorted rows make the CSR independent of the range split and the order
  // the scatter wrote each row in. A long row that arrives sorted is left
  // alone; a long unsorted one is radix sorted through its own slots of one
  // scratch array, which is never written (so never paged in) when no row
  // needs it.
  const auto label_bits = static_cast<int>(std::bit_width(n > 0 ? n - 1 : 0));
  const int passes = (label_bits + 7) / 8;
  const auto scratch = std::make_unique_for_overwrite<vertex_t[]>(cols.size());
  pool.for_each_block(n, kSortRows, [&](std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      vertex_t* row = cols.data() + offsets[v];
      const std::size_t len = offsets[v + 1] - offsets[v];
      if (len < kRadixRow) {
        std::sort(row, row + len);
      } else if (!std::is_sorted(row, row + len)) {
        radix_sort_row(row, scratch.get() + offsets[v], len, passes);
      }
    }
  });
  return Csr(num_vertices, std::move(offsets), std::move(cols),
             options.directed);
}

}  // namespace ent::graph
