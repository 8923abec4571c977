// Compressed Sparse Row graph. §5 of the paper: "All the graphs are
// represented by compressed sparse row (CSR) format... We do not perform
// pre-processing such as removing duplicate edges or self-loops." The
// builder therefore keeps duplicates and self-loops unless asked otherwise.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace ent::graph {

class Csr {
 public:
  Csr() = default;
  Csr(vertex_t num_vertices, std::vector<edge_t> row_offsets,
      std::vector<vertex_t> col_indices, bool directed);

  // Move-only: a move carries the in-edge view (in_edges()) with the graph.
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

  // A fresh reverse (in-edge) CSR, built serially and invariant-checked on
  // every call. Engines and validators borrow in_edges() instead.
  Csr reversed() const;

  // In-edge view, which bottom-up BFS and tree validation read: `*this`
  // when undirected, else reversed(), built by the first call (concurrent
  // callers wait for it) and kept for the graph's lifetime. It reflects the
  // adjacency at that first call.
  const Csr& in_edges() const;

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
  struct InEdges {
    std::once_flag built;
    std::unique_ptr<const Csr> csr;
  };
  std::unique_ptr<InEdges> in_edges_;  // allocated for directed graphs only
};

}  // namespace ent::graph
