// Deterministic, fast PRNGs used by the graph generators and the BFS source
// sampler. std::mt19937_64 is avoided on hot paths; SplitMix64 gives
// high-quality 64-bit streams from any seed and Xorshift128+ is used where a
// long-period generator is preferred.
#pragma once

#include <cstdint>

namespace ent {

// SplitMix64 (Steele, Lea, Flood 2014). Also used to seed Xorshift128+.
class SplitMix64 {
 public:
  // The state advances by kGamma per draw, so the generator is
  // counter-based: after k draws from `seed` it is exactly
  // SplitMix64(seed + k * kGamma) (mod 2^64), and a stream can start at any
  // draw without running the ones before it.
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;

  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // Uniform in [0, bound). bound must be nonzero.
  std::uint64_t next_below(std::uint64_t bound) {
    // Lemire's multiply-shift rejection-free approximation is fine here: the
    // bias for bound << 2^64 is far below anything the experiments can see.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  // Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

// Xorshift128+ (Vigna). Period 2^128 - 1.
class Xorshift128Plus {
 public:
  explicit Xorshift128Plus(std::uint64_t seed) {
    SplitMix64 sm(seed);
    s0_ = sm.next();
    s1_ = sm.next();
  }

  std::uint64_t next() {
    std::uint64_t x = s0_;
    const std::uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s0_;
  std::uint64_t s1_;
};

// 64->64 bit mixer (Murmur3 finalizer); used by the hub-cache hash.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace ent
