// Compressed Sparse Row graph. §5 of the paper: "All the graphs are
// represented by compressed sparse row (CSR) format... We do not perform
// pre-processing such as removing duplicate edges or self-loops." The
// builder therefore keeps duplicates and self-loops unless asked otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace ent::graph {

// Hub set (§4.3) for one target hub count: tau is the smallest out-degree
// that leaves at most the target above it (select_hub_threshold,
// graph/degree.hpp), and a vertex is a hub when its out-degree exceeds tau.
struct HubView {
  edge_t tau = 0;
  vertex_t count = 0;               // T_h in the gamma definition
  std::vector<std::uint8_t> flags;  // 1 for each hub, by vertex id
};

class Csr {
 public:
  Csr() = default;
  Csr(vertex_t num_vertices, std::vector<edge_t> row_offsets,
      std::vector<vertex_t> col_indices, bool directed);

  // Move-only: a move carries the derived views (in_edges(), hubs()) with
  // the graph.
  Csr(Csr&&) noexcept = default;
  Csr& operator=(Csr&&) noexcept = default;
  Csr(const Csr&) = delete;
  Csr& operator=(const Csr&) = delete;

  vertex_t num_vertices() const { return num_vertices_; }
  edge_t num_edges() const {
    return row_offsets_.empty() ? 0 : row_offsets_.back();
  }
  bool directed() const { return directed_; }

  edge_t out_degree(vertex_t v) const {
    return row_offsets_[v + 1] - row_offsets_[v];
  }

  std::span<const vertex_t> neighbors(vertex_t v) const {
    return {col_indices_.data() + row_offsets_[v],
            col_indices_.data() + row_offsets_[v + 1]};
  }

  std::span<const edge_t> row_offsets() const { return row_offsets_; }
  std::span<const vertex_t> col_indices() const { return col_indices_; }

  // Mutable view of the resident adjacency bytes (column indices only —
  // corrupting row offsets would turn bit flips into allocation-sized
  // degree errors, which the digest scrub covers anyway). Exists solely so
  // the fault injector's silent-flip rules can corrupt a loaded graph
  // (FaultInjector::register_flip_target); nothing else may write through
  // this, the graph is immutable everywhere else. On a directed graph a
  // flip after the first in_edges() call does not reach the in-edge view.
  std::span<std::byte> raw_adjacency_bytes() {
    return std::as_writable_bytes(std::span<vertex_t>(col_indices_));
  }

  // A fresh reverse (in-edge) CSR, built on util::host_pool() by
  // build_csr's counting scatter (defined in builder.cpp) and
  // invariant-checked on every call; each in-row lists its sources in
  // ascending order. Engines and validators borrow in_edges() instead.
  Csr reversed() const;

  // In-edge view, which bottom-up BFS and tree validation read: `*this`
  // when undirected, else reversed(), built by the first call (concurrent
  // callers wait for it) and kept for the graph's lifetime. It reflects the
  // adjacency at that first call.
  const Csr& in_edges() const;

  // Hub view for `target_hubs` (>= 1): built by the first call for that
  // target (concurrent callers wait for it) and kept for the graph's
  // lifetime, one per target asked for. Reads only the row offsets.
  const HubView& hubs(vertex_t target_hubs) const;

  // Average out-degree across all vertices.
  double average_degree() const;
  edge_t max_degree() const;

  // Structural invariant check (monotone offsets, column bounds, edge-count
  // and degree agreement — see graph/validate.hpp). Aborts on violation;
  // cheap enough to call after every build. Loaders use graph::validate_csr
  // instead, which throws a typed GraphFormatError.
  void check_invariants() const;

  // Bytes resident if loaded to a device (offsets + columns), used by the
  // simulator's global-memory accounting.
  std::size_t footprint_bytes() const;

 private:
  vertex_t num_vertices_ = 0;
  bool directed_ = false;
  std::vector<edge_t> row_offsets_;     // size num_vertices_ + 1
  std::vector<vertex_t> col_indices_;   // size num_edges
  struct HubEntry {
    explicit HubEntry(vertex_t t) : target(t) {}
    vertex_t target;
    std::once_flag built;
    HubView view;
  };
  // State derived from the arrays on first use. Behind a pointer, so the
  // graph moves and its views stay where their borrowers point.
  struct Derived {
    std::once_flag in_edges_built;
    std::unique_ptr<const Csr> in_edges;  // directed graphs only
    std::mutex hubs_mutex;                // guards the list, not the views
    std::vector<std::unique_ptr<HubEntry>> hubs;
  };
  std::unique_ptr<Derived> derived_ = std::make_unique<Derived>();
};

}  // namespace ent::graph
