// Fixed-size bit array with word-level access. Multi-GPU Enterprise (§4.4)
// gathers the merged visited set as one bit per vertex; the single-device
// driver harvests its top-down queue from a discovery bitmap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ent {

class BitArray {
 public:
  BitArray() = default;
  explicit BitArray(std::size_t bits)
      : num_bits_(bits), words_((bits + 63) / 64, 0) {}

  std::size_t size() const { return num_bits_; }

  bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ull;
  }
  void set(std::size_t i) { words_[i >> 6] |= 1ull << (i & 63); }
  void clear(std::size_t i) { words_[i >> 6] &= ~(1ull << (i & 63)); }
  void reset() { std::fill(words_.begin(), words_.end(), 0); }

  // Number of set bits.
  std::size_t popcount() const;

  // Word-granular access, mirroring what a warp-wide __ballot() produces.
  std::span<const std::uint64_t> words() const { return words_; }
  std::span<std::uint64_t> words() { return words_; }

 private:
  std::size_t num_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ent
