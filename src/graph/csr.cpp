#include "graph/csr.hpp"

#include <algorithm>

#include "graph/validate.hpp"
#include "util/assert.hpp"

namespace ent::graph {

Csr::Csr(vertex_t num_vertices, std::vector<edge_t> row_offsets,
         std::vector<vertex_t> col_indices, bool directed)
    : num_vertices_(num_vertices),
      directed_(directed),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)) {
  check_invariants();
  if (directed_) in_edges_ = std::make_unique<InEdges>();
}

Csr Csr::reversed() const {
  std::vector<edge_t> in_offsets(static_cast<std::size_t>(num_vertices_) + 1, 0);
  // Count in-degrees (into slot v+1 so the prefix pass lands offsets).
  for (vertex_t dst : col_indices_) ++in_offsets[static_cast<std::size_t>(dst) + 1];
  for (std::size_t v = 0; v < num_vertices_; ++v) in_offsets[v + 1] += in_offsets[v];

  std::vector<vertex_t> in_cols(col_indices_.size());
  std::vector<edge_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
  for (vertex_t src = 0; src < num_vertices_; ++src) {
    for (vertex_t dst : neighbors(src)) {
      in_cols[cursor[dst]++] = src;
    }
  }
  return Csr(num_vertices_, std::move(in_offsets), std::move(in_cols),
             directed_);
}

const Csr& Csr::in_edges() const {
  if (in_edges_ == nullptr) return *this;
  std::call_once(in_edges_->built, [this] {
    in_edges_->csr = std::make_unique<const Csr>(reversed());
  });
  return *in_edges_->csr;
}

double Csr::average_degree() const {
  if (num_vertices_ == 0) return 0.0;
  return static_cast<double>(num_edges()) / static_cast<double>(num_vertices_);
}

edge_t Csr::max_degree() const {
  edge_t best = 0;
  for (vertex_t v = 0; v < num_vertices_; ++v)
    best = std::max(best, out_degree(v));
  return best;
}

void Csr::check_invariants() const {
  // Internal construction keeps abort semantics (a violation here is a bug
  // in a builder or generator); the ingestion boundary uses the same checks
  // through graph::validate_csr, which throws typed errors instead.
  if (const auto violation = find_csr_violation(*this)) {
    assert_fail("csr structural invariants", __FILE__, __LINE__,
                violation->invariant.c_str());
  }
}

std::size_t Csr::footprint_bytes() const {
  return row_offsets_.size() * sizeof(edge_t) +
         col_indices_.size() * sizeof(vertex_t);
}

}  // namespace ent::graph
