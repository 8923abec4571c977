#include "util/bit_array.hpp"

#include <bit>

namespace ent {

std::size_t BitArray::popcount() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

}  // namespace ent
