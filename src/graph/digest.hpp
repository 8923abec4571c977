// Per-segment integrity digests over a CSR's resident arrays (row offsets
// and adjacency), the detection half of the silent-data-corruption defense:
// digests are computed once at load, and a scrub pass (the enterprise /
// multi-GPU level loops, between levels or runs) re-hashes the resident
// bytes and compares. The arrays are hashed in fixed-size blocks so a
// mismatch names the first corrupted block, not just "somewhere".
//
// The hash is 64-bit FNV-1a: cheap, dependency-free, and deterministic
// across platforms — this is an error-*detection* code against random bit
// flips, not a cryptographic commitment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace ent::graph {

// 64-bit FNV-1a over a byte span. Shared by the segment digests below and
// the checkpoint checksum (bfs/checkpoint.hpp).
std::uint64_t fnv1a64(std::span<const std::byte> bytes,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

// First block whose digest no longer matches the load-time value.
struct DigestMismatch {
  std::string segment;     // "row_offsets" | "adjacency"
  std::size_t block = 0;   // index of the first mismatching block
  std::uint64_t expected = 0;
  std::uint64_t actual = 0;
};

class SegmentDigests {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 4096;

  SegmentDigests() = default;

  // Hashes g's row-offset and adjacency segments in `block_bytes` blocks,
  // on util::host_pool() in fixed runs of blocks.
  static SegmentDigests compute(const Csr& g,
                                std::size_t block_bytes = kDefaultBlockBytes);

  // Re-hashes g as compute does and returns the first mismatching block
  // (of row_offsets, then adjacency), or nullopt when every block still
  // matches. Callers surface a mismatch as the typed
  // sim::IntegrityFault (gpusim/fault.hpp).
  std::optional<DigestMismatch> verify(const Csr& g) const;

  bool empty() const {
    return row_offset_blocks_.empty() && adjacency_blocks_.empty();
  }
  std::size_t block_bytes() const { return block_bytes_; }
  std::size_t blocks() const {
    return row_offset_blocks_.size() + adjacency_blocks_.size();
  }

  // Per-block digest values, readable so tools (graph_stats --digests) can
  // print them for byte-for-byte comparison of two snapshot files.
  std::span<const std::uint64_t> row_offset_digests() const {
    return row_offset_blocks_;
  }
  std::span<const std::uint64_t> adjacency_digests() const {
    return adjacency_blocks_;
  }

 private:
  std::size_t block_bytes_ = kDefaultBlockBytes;
  std::vector<std::uint64_t> row_offset_blocks_;
  std::vector<std::uint64_t> adjacency_blocks_;
};

}  // namespace ent::graph
