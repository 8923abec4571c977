#include "graph/builder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "graph/errors.hpp"
#include "util/pool.hpp"

namespace ent::graph {
namespace {

// Rows sorted per pool chunk: fixed, and small enough that a Kronecker hub's
// long row does not hold up the rest of its chunk's thread.
constexpr std::size_t kSortRows = 1024;

// Rows of at least this many entries are radix sorted; shorter ones keep
// std::sort.
constexpr std::size_t kRadixRow = 256;

// Parts for a scatter of m entries into n rows: one per pool thread, but
// never one of fewer than n entries, whose n-entry count would cost more
// than its entries.
std::size_t scatter_parts(std::size_t n, std::size_t m) {
  return std::clamp<std::size_t>(m / std::max<std::size_t>(n, 1), 1,
                                 util::host_pool().size());
}

// count_and_scatter (below) with cursors of type Cursor.
template <class Cursor, class Visit>
void count_and_scatter_with(std::size_t n, std::size_t parts, Visit& visit,
                            std::vector<edge_t>& offsets,
                            std::vector<vertex_t>& cols) {
  util::HostPool& pool = util::host_pool();
  std::vector<Cursor> cursors(parts * n, 0);
  pool.for_each(parts, [&](std::size_t p) {
    Cursor* count = cursors.data() + p * n;
    visit(p, [count](vertex_t row, vertex_t) { ++count[row]; });
  });

  // Row offsets; each part's count becomes its cursor, the position of its
  // first entry in the row.
  offsets.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    edge_t at = offsets[v];
    for (std::size_t p = 0; p < parts; ++p) {
      Cursor& cursor = cursors[p * n + v];
      const Cursor count = cursor;
      cursor = static_cast<Cursor>(at);
      at += count;
    }
    offsets[v + 1] = at;
  }

  // Parts write disjoint slots of every row.
  cols.resize(offsets[n]);
  pool.for_each(parts, [&](std::size_t p) {
    Cursor* cursor = cursors.data() + p * n;
    vertex_t* out = cols.data();
    visit(p, [cursor, out](vertex_t row, vertex_t value) {
      out[cursor[row]++] = value;
    });
  });
}

// The one counting scatter, of build_csr and Csr::reversed(): fills
// `offsets` (n + 1 entries) and `cols` from `parts` parts of at most
// `max_entries` entries in all, on util::host_pool(). visit(p, emit) calls emit(row, value) for
// each entry of part p, in the same order on both of its calls (count, then
// scatter). Within a row, part p's values follow part p-1's, each part's in
// its visiting order, so the arrays do not depend on the pool size. An
// exception from the counting visits propagates, the lowest part's first,
// before anything is scattered. The only scratch is one n-entry count per
// part, which becomes its cursor: 32-bit unless `max_entries` needs 64.
template <class Visit>
void count_and_scatter(std::size_t n, std::size_t parts,
                       std::size_t max_entries, Visit&& visit,
                       std::vector<edge_t>& offsets,
                       std::vector<vertex_t>& cols) {
  if (max_entries <= std::numeric_limits<std::uint32_t>::max()) {
    count_and_scatter_with<std::uint32_t>(n, parts, visit, offsets, cols);
  } else {
    count_and_scatter_with<std::uint64_t>(n, parts, visit, offsets, cols);
  }
}

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
  const std::size_t n = num_vertices;
  const std::size_t m = edges.size();
  const bool symmetrize = options.symmetrize;

  // One contiguous edge range per part. Each range checks its endpoints and
  // emits its edges, both directions of a non-loop edge under symmetrize.
  const std::size_t ranges = scatter_parts(n, m);
  const std::size_t per_range = (m + ranges - 1) / ranges;
  std::vector<edge_t> offsets;
  std::vector<vertex_t> cols;
  count_and_scatter(
      n, ranges, symmetrize ? 2 * m : m,
      [&](std::size_t r, auto&& emit) {
        const std::size_t end = std::min(m, (r + 1) * per_range);
        for (std::size_t i = std::min(m, r * per_range); i < end; ++i) {
          const Edge e = edges[i];
          if (e.src >= num_vertices || e.dst >= num_vertices) {
            // Typed (not aborting): loaded edge lists reach here unchecked,
            // and a corrupt file must surface as a catchable ingestion
            // error. Each range stops at its first offender while counting
            // and the pool rethrows the lowest range's, so the lowest edge
            // index is reported. The "<memory>" location is rebound to the
            // file path by load_csr_file.
            throw GraphFormatError(
                {"<memory>", i, 0},
                "edge " + std::to_string(i) + " endpoint out of range: (" +
                    std::to_string(e.src) + ", " + std::to_string(e.dst) +
                    ") with num_vertices=" + std::to_string(num_vertices));
          }
          emit(e.src, e.dst);
          if (symmetrize && e.src != e.dst) emit(e.dst, e.src);
        }
      },
      offsets, cols);

  // The edge list is dead: release it before the sort's scratch, so the
  // scratch does not raise the build's peak memory.
  std::vector<Edge>().swap(edges);

  // Sorted rows make the CSR independent of the range split and the order
  // the scatter wrote each row in. A long row that arrives sorted is left
  // alone; a long unsorted one is radix sorted through its own slots of one
  // scratch array, which is never written (so never paged in) when no row
  // needs it.
  const auto label_bits = static_cast<int>(std::bit_width(n > 0 ? n - 1 : 0));
  const int passes = (label_bits + 7) / 8;
  const auto scratch = std::make_unique_for_overwrite<vertex_t[]>(cols.size());
  util::host_pool().for_each_block(n, kSortRows, [&](std::size_t begin,
                                                      std::size_t end) {
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

// Csr::reversed() lives here, beside build_csr, because both run the one
// count_and_scatter above.
Csr Csr::reversed() const {
  // Contiguous source ranges of about equal edge counts, each walking its
  // edges in order, so every in-row lists its sources in ascending order
  // whatever the split. A range has at least kMinReverseEdges: a smaller
  // one costs the pool's round trips and shared rows more than it saves.
  constexpr std::size_t kMinReverseEdges = std::size_t{1} << 18;
  const std::size_t n = num_vertices_;
  const std::size_t m = num_edges();
  const std::size_t parts =
      std::min(scatter_parts(n, m),
               std::max<std::size_t>(m / kMinReverseEdges, 1));
  std::vector<std::size_t> first(parts + 1, n);
  first[0] = 0;
  for (std::size_t p = 1; p < parts; ++p) {
    first[p] = static_cast<std::size_t>(
        std::lower_bound(row_offsets_.begin(), row_offsets_.end() - 1,
                         m / parts * p) -
        row_offsets_.begin());
  }
  std::vector<edge_t> in_offsets;
  std::vector<vertex_t> in_cols;
  count_and_scatter(
      n, parts, m,
      [&](std::size_t p, auto&& emit) {
        if (first[p] == first[p + 1]) return;  // a default Csr has no offsets
        const edge_t* offsets = row_offsets_.data();
        const vertex_t* cols = col_indices_.data();
        std::size_t src = first[p];
        for (edge_t e = offsets[src]; e < offsets[first[p + 1]]; ++e) {
          while (offsets[src + 1] <= e) ++src;
          emit(cols[e], static_cast<vertex_t>(src));
        }
      },
      in_offsets, in_cols);
  return Csr(num_vertices_, std::move(in_offsets), std::move(in_cols),
             directed_);
}

}  // namespace ent::graph
