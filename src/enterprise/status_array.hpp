// Status array (SA): per-vertex BFS state indexed by vertex id (§2.1). The
// paper stores one byte per vertex (unvisited / frontier / visited-at-level);
// we widen storage to int32 because the high-diameter Fig. 14 stand-ins
// exceed 255 levels, and account memory traffic at the paper's 1 byte.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bfs/result.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace ent::enterprise {

inline constexpr std::int32_t kUnvisited = -1;
inline constexpr unsigned kStatusBytes = 1;  // accounted element size

class StatusArray {
 public:
  explicit StatusArray(graph::vertex_t num_vertices)
      : levels_(num_vertices, kUnvisited) {}

  // Adopts an existing level vector (checkpoint restore).
  explicit StatusArray(std::vector<std::int32_t> levels)
      : levels_(std::move(levels)) {}

  graph::vertex_t size() const {
    return static_cast<graph::vertex_t>(levels_.size());
  }

  // Relaxed atomic accesses, which compile to plain moves on x86: blocks of
  // a pooled bottom-up expansion each write their own vertices' statuses
  // while reading their neighbours'.
  std::int32_t level(graph::vertex_t v) const {
    return std::atomic_ref(const_cast<std::int32_t&>(levels_[v]))
        .load(std::memory_order_relaxed);
  }
  bool visited(graph::vertex_t v) const { return level(v) != kUnvisited; }
  void visit(graph::vertex_t v, std::int32_t level) {
    std::atomic_ref(levels_[v]).store(level, std::memory_order_relaxed);
  }

  std::span<const std::int32_t> data() const { return levels_; }
  std::vector<std::int32_t> take() && { return std::move(levels_); }

  // Mutable view of the resident bytes, registered with the fault
  // injector's silent-flip machinery (FaultInjector::register_flip_target).
  // Only the corruption simulator writes through this.
  std::span<std::byte> raw_bytes() {
    return std::as_writable_bytes(std::span<std::int32_t>(levels_));
  }

  // Number of vertices visited so far (test/diagnostic helper).
  graph::vertex_t visited_count() const;

 private:
  std::vector<std::int32_t> levels_;
};

// Fills a BFS result from the final status array: depth, visited count,
// levels, parents and traversed edges. The caller sets the time.
void finalize(bfs::BfsResult& result, const graph::Csr& g,
              StatusArray&& status, std::vector<graph::vertex_t>&& parents);

}  // namespace ent::enterprise
