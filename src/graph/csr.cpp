#include "graph/csr.hpp"

#include <algorithm>

#include "graph/degree.hpp"
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
}

const Csr& Csr::in_edges() const {
  if (!directed_) return *this;
  std::call_once(derived_->in_edges_built, [this] {
    derived_->in_edges = std::make_unique<const Csr>(reversed());
  });
  return *derived_->in_edges;
}

const HubView& Csr::hubs(vertex_t target_hubs) const {
  HubEntry* entry = nullptr;
  {
    std::lock_guard lock(derived_->hubs_mutex);
    for (const auto& e : derived_->hubs) {
      if (e->target == target_hubs) entry = e.get();
    }
    if (entry == nullptr) {
      auto& added = derived_->hubs.emplace_back(
          std::make_unique<HubEntry>(target_hubs));
      entry = added.get();
    }
  }
  std::call_once(entry->built, [this, entry] {
    const HubStats stats = select_hub_threshold(*this, entry->target);
    entry->view = {stats.threshold, stats.num_hubs,
                   hub_flags(*this, stats.threshold)};
  });
  return entry->view;
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
