#include "graph/digest.hpp"

#include <algorithm>

#include "util/pool.hpp"

namespace ent::graph {

namespace {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

}  // namespace

std::uint64_t fnv1a64(std::span<const std::byte> bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= kFnvPrime;
  }
  return h;
}

namespace {

// fnv1a64 of the four `len`-byte blocks starting at `p`, in lockstep: four
// independent multiply chains keep the multiplier busy, where one chain
// waits out each product's latency.
void fnv1a64_four(const std::byte* p, std::size_t len, std::uint64_t* out) {
  const std::byte* p1 = p + len;
  const std::byte* p2 = p1 + len;
  const std::byte* p3 = p2 + len;
  std::uint64_t h0 = kFnvOffsetBasis;
  std::uint64_t h1 = kFnvOffsetBasis;
  std::uint64_t h2 = kFnvOffsetBasis;
  std::uint64_t h3 = kFnvOffsetBasis;
  for (std::size_t i = 0; i < len; ++i) {
    h0 = (h0 ^ static_cast<std::uint64_t>(p[i])) * kFnvPrime;
    h1 = (h1 ^ static_cast<std::uint64_t>(p1[i])) * kFnvPrime;
    h2 = (h2 ^ static_cast<std::uint64_t>(p2[i])) * kFnvPrime;
    h3 = (h3 ^ static_cast<std::uint64_t>(p3[i])) * kFnvPrime;
  }
  out[0] = h0;
  out[1] = h1;
  out[2] = h2;
  out[3] = h3;
}

// Bytes hashed per pool chunk: a fixed run of whole blocks, so the chunks
// do not depend on the pool size.
constexpr std::size_t kRunBytes = std::size_t{256} << 10;

// One FNV-1a digest per block, on util::host_pool(), four whole blocks at a
// time; each block hashes on its own, so the digests equal the serial ones.
std::vector<std::uint64_t> hash_blocks(std::span<const std::byte> bytes,
                                       std::size_t block_bytes) {
  std::vector<std::uint64_t> out((bytes.size() + block_bytes - 1) /
                                 block_bytes);
  const std::size_t run = std::max<std::size_t>(kRunBytes / block_bytes, 1);
  util::host_pool().for_each_block(
      out.size(), run, [&](std::size_t begin, std::size_t end) {
        std::size_t i = begin;
        for (; i + 4 <= end && (i + 4) * block_bytes <= bytes.size(); i += 4) {
          fnv1a64_four(bytes.data() + i * block_bytes, block_bytes,
                       out.data() + i);
        }
        for (; i < end; ++i) {
          const std::size_t off = i * block_bytes;
          out[i] = fnv1a64(
              bytes.subspan(off, std::min(block_bytes, bytes.size() - off)));
        }
      });
  return out;
}

std::optional<DigestMismatch> verify_blocks(
    const char* segment, std::span<const std::byte> bytes,
    std::size_t block_bytes, const std::vector<std::uint64_t>& expected) {
  const std::vector<std::uint64_t> actual = hash_blocks(bytes, block_bytes);
  const std::size_t blocks = std::max(actual.size(), expected.size());
  for (std::size_t i = 0; i < blocks; ++i) {
    const std::uint64_t want = i < expected.size() ? expected[i] : 0;
    const std::uint64_t got = i < actual.size() ? actual[i] : 0;
    if (want != got) return DigestMismatch{segment, i, want, got};
  }
  return std::nullopt;
}

}  // namespace

SegmentDigests SegmentDigests::compute(const Csr& g, std::size_t block_bytes) {
  SegmentDigests d;
  d.block_bytes_ = std::max<std::size_t>(block_bytes, 1);
  d.row_offset_blocks_ =
      hash_blocks(std::as_bytes(g.row_offsets()), d.block_bytes_);
  d.adjacency_blocks_ =
      hash_blocks(std::as_bytes(g.col_indices()), d.block_bytes_);
  return d;
}

std::optional<DigestMismatch> SegmentDigests::verify(const Csr& g) const {
  if (auto m = verify_blocks("row_offsets", std::as_bytes(g.row_offsets()),
                             block_bytes_, row_offset_blocks_)) {
    return m;
  }
  return verify_blocks("adjacency", std::as_bytes(g.col_indices()),
                       block_bytes_, adjacency_blocks_);
}

}  // namespace ent::graph
