// Unit and property tests for src/util.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/args.hpp"
#include "util/bit_array.hpp"
#include "util/pool.hpp"
#include "util/prefix_sum.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

// Every allocation through global operator new, on any thread: the pool
// tests check that a call allocates nothing. Out of line, so the compiler
// does not pair an inlined free() with a new-expression.
std::atomic<std::size_t> g_allocations{0};

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ent {
namespace {

// ---- prefix sums -------------------------------------------------------------

TEST(PrefixSum, ExclusiveBasic) {
  std::vector<std::uint64_t> in{3, 1, 4, 1, 5};
  std::vector<std::uint64_t> out(in.size());
  EXPECT_EQ(exclusive_prefix_sum(in, out), 14u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 3, 4, 8, 9}));
}

TEST(PrefixSum, ExclusiveEmpty) {
  std::vector<std::uint64_t> in;
  std::vector<std::uint64_t> out;
  EXPECT_EQ(exclusive_prefix_sum(in, out), 0u);
}

TEST(PrefixSum, InclusiveBasic) {
  std::vector<std::uint64_t> in{3, 1, 4};
  std::vector<std::uint64_t> out(in.size());
  EXPECT_EQ(inclusive_prefix_sum(in, out), 8u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{3, 4, 8}));
}

TEST(PrefixSum, InplaceMatchesOutOfPlace) {
  SplitMix64 rng(7);
  std::vector<std::uint64_t> data(1000);
  for (auto& d : data) d = rng.next_below(100);
  std::vector<std::uint64_t> expected(data.size());
  const auto total = exclusive_prefix_sum(data, expected);
  std::vector<std::uint64_t> inplace = data;
  EXPECT_EQ(exclusive_prefix_sum_inplace(inplace), total);
  EXPECT_EQ(inplace, expected);
}

// Property: the blocked (GPU-style) scan matches the sequential scan for
// every block size.
class BlockedScanTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockedScanTest, MatchesSequential) {
  SplitMix64 rng(GetParam());
  std::vector<std::uint64_t> data(777);
  for (auto& d : data) d = rng.next_below(50);
  std::vector<std::uint64_t> expected(data.size());
  const auto total = exclusive_prefix_sum(data, expected);
  std::vector<std::uint64_t> blocked(data.size());
  EXPECT_EQ(blocked_exclusive_prefix_sum(data, blocked, GetParam()), total);
  EXPECT_EQ(blocked, expected);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, BlockedScanTest,
                         ::testing::Values(1, 2, 3, 32, 128, 777, 1024));

TEST(PrefixSum, OffsetsFromCounts) {
  std::vector<std::uint32_t> counts{2, 0, 3};
  const auto offsets = offsets_from_counts(counts);
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 2, 2, 5}));
}

// ---- bit array ----------------------------------------------------------------

TEST(BitArray, SetGetClear) {
  BitArray bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_FALSE(bits.get(0));
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.get(0));
  EXPECT_TRUE(bits.get(64));
  EXPECT_TRUE(bits.get(129));
  EXPECT_EQ(bits.popcount(), 3u);
  bits.clear(64);
  EXPECT_FALSE(bits.get(64));
  EXPECT_EQ(bits.popcount(), 2u);
}

// ---- stats ---------------------------------------------------------------------

TEST(Stats, SummaryBasics) {
  std::vector<double> v{1, 2, 3, 4};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.11803, 1e-4);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 10.0);
}

TEST(Stats, BoxplotOrdering) {
  SplitMix64 rng(11);
  std::vector<double> v(501);
  for (auto& x : v) x = rng.next_double();
  const BoxPlot b = boxplot(v);
  EXPECT_LE(b.min, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.max);
}

TEST(Stats, MassCdfEndpoints) {
  std::vector<double> v{1, 1, 1, 1};
  const auto cdf = mass_cdf(v, 5);
  ASSERT_EQ(cdf.size(), 5u);
  EXPECT_NEAR(cdf.front().cumulative_share, 0.25, 1e-9);
  EXPECT_NEAR(cdf.back().cumulative_share, 1.0, 1e-9);
  EXPECT_NEAR(cdf.back().fraction_of_items, 1.0, 1e-9);
}

TEST(Stats, MassCdfSkewedMassConcentratesAtTop) {
  // One heavy item holds half the mass: the CDF should stay low until the
  // final item.
  std::vector<double> v(99, 1.0);
  v.push_back(99.0);
  const auto cdf = mass_cdf(v, 11);
  EXPECT_LT(cdf[9].cumulative_share, 0.55);
  EXPECT_NEAR(cdf.back().cumulative_share, 1.0, 1e-9);
}

TEST(Stats, FractionBelow) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(fraction_below(v, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(fraction_below(v, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(fraction_below(v, 100.0), 1.0);
}

TEST(Stats, HarmonicMean) {
  std::vector<double> v{1.0, 2.0};
  EXPECT_NEAR(harmonic_mean(v), 4.0 / 3.0, 1e-12);
  std::vector<double> with_zero{0.0, 2.0};
  EXPECT_DOUBLE_EQ(harmonic_mean(with_zero), 2.0);
}

// ---- random --------------------------------------------------------------------

TEST(Random, SplitMixDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Random, NextBelowInRange) {
  SplitMix64 rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Random, DoubleInUnitInterval) {
  Xorshift128Plus rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, NextBelowRoughlyUniform) {
  SplitMix64 rng(9);
  std::vector<int> hist(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++hist[rng.next_below(10)];
  for (int count : hist) {
    EXPECT_NEAR(count, draws / 10, draws / 100);
  }
}

// ---- table ---------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "23"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 23    |"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_si(1234.0), "1.23K");
  EXPECT_EQ(fmt_si(2.5e9), "2.50B");
  EXPECT_EQ(fmt_percent(0.1234), "12.3%");
  EXPECT_EQ(fmt_times(4.06), "4.1x");
}

// ---- args ----------------------------------------------------------------------

TEST(Args, ParsesAllForms) {
  // A bare flag followed by a non-flag token would consume it as a value,
  // so positionals come first (documented parser behaviour).
  const char* argv[] = {"prog", "pos", "--a=1", "--b", "2", "--flag"};
  Args args(6, argv);
  EXPECT_EQ(args.get_int("a", 0), 1);
  EXPECT_EQ(args.get_int("b", 0), 2);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_FALSE(args.get_bool("missing", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
  EXPECT_DOUBLE_EQ(args.get_double("a", 0.0), 1.0);
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

// ---- host pool -----------------------------------------------------------------

class HostPoolTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(HostPoolTest, EveryChunkRunsExactlyOnce) {
  util::HostPool pool(GetParam());
  EXPECT_EQ(pool.size(), GetParam());
  for (const std::size_t chunks :
       {std::size_t{0}, std::size_t{1}, std::size_t{GetParam()},
        std::size_t{GetParam() + 1}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> runs(chunks);
    pool.for_each(chunks, [&](std::size_t c) { ++runs[c]; });
    for (std::size_t c = 0; c < chunks; ++c) {
      EXPECT_EQ(runs[c].load(), 1) << "chunk " << c << " of " << chunks;
    }
  }
}

TEST_P(HostPoolTest, ChunkPartialsMergedInOrderMatchSerialLoop) {
  // Floating-point sums depend on their order, so equality needs the same
  // chunks merged in the same order whichever thread ran each.
  std::vector<double> data(100003);
  SplitMix64 rng(17);
  for (double& d : data) d = rng.next_double() * 1e6 - 5e5;
  constexpr std::size_t kBlock = 1000;
  double serial = 0.0;
  for (std::size_t begin = 0; begin < data.size(); begin += kBlock) {
    double partial = 0.0;
    for (std::size_t i = begin; i < std::min(data.size(), begin + kBlock); ++i)
      partial += data[i];
    serial += partial;
  }
  util::HostPool pool(GetParam());
  std::vector<double> partials((data.size() + kBlock - 1) / kBlock, 0.0);
  pool.for_each_block(data.size(), kBlock,
                      [&](std::size_t begin, std::size_t end) {
                        double partial = 0.0;
                        for (std::size_t i = begin; i < end; ++i)
                          partial += data[i];
                        partials[begin / kBlock] = partial;
                      });
  double merged = 0.0;
  for (double p : partials) merged += p;
  EXPECT_EQ(merged, serial);
}

TEST_P(HostPoolTest, LowestFailingChunkExceptionReachesCaller) {
  util::HostPool pool(GetParam());
  std::vector<std::atomic<int>> runs(200);
  try {
    pool.for_each(runs.size(), [&](std::size_t c) {
      ++runs[c];
      if (c == 17 || c == 42 || c == 199) {
        throw std::runtime_error("chunk " + std::to_string(c));
      }
    });
    FAIL() << "expected the chunk's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 17");
  }
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST_P(HostPoolTest, NestedCallRunsInlineWithoutDeadlock) {
  util::ScopedHostPool scoped(GetParam());
  std::vector<std::atomic<int>> inner_runs(64 * 8);
  std::atomic<int> foreign_threads{0};
  util::host_pool().for_each(64, [&](std::size_t outer) {
    const auto self = std::this_thread::get_id();
    util::host_pool().for_each(8, [&](std::size_t inner) {
      if (std::this_thread::get_id() != self) ++foreign_threads;
      ++inner_runs[outer * 8 + inner];
    });
  });
  EXPECT_EQ(foreign_threads.load(), 0);
  for (const auto& r : inner_runs) EXPECT_EQ(r.load(), 1);
}

TEST_P(HostPoolTest, ConcurrentCallersBothFinish) {
  util::HostPool pool(GetParam());
  std::vector<std::atomic<int>> runs(2 * 500);
  auto caller = [&](std::size_t base) {
    for (int round = 0; round < 20; ++round) {
      pool.for_each(500, [&](std::size_t c) { ++runs[base + c]; });
    }
  };
  std::thread a(caller, 0);
  std::thread b(caller, 500);
  a.join();
  b.join();
  for (const auto& r : runs) EXPECT_EQ(r.load(), 20);
}

TEST_P(HostPoolTest, CallAllocatesNothing) {
  util::HostPool pool(GetParam());
  std::vector<std::uint64_t> sums(64, 0);
  // The body captures 40 bytes, more than std::function holds without
  // allocating.
  std::uint64_t a = 1, b = 2, c = 3;
  const auto call = [&] {
    pool.for_each_block(64 * 1000, 1000,
                        [&, a, b, c](std::size_t begin, std::size_t end) {
                          sums[begin / 1000] = begin * a + end * b + c;
                        });
  };
  call();  // one-time runtime set-up on first use is not the pool's
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 10; ++i) call();
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(sums[1], 1000 * a + 2000 * b + c);
}

TEST_P(HostPoolTest, InlineScopeRunsChunksOnCallerInOrder) {
  util::ScopedHostPool scoped(GetParam());
  const util::InlineScope scope;
  std::vector<std::size_t> order;
  order.reserve(100);
  const auto self = std::this_thread::get_id();
  bool foreign = false;
  util::host_pool().for_each(100, [&](std::size_t c) {
    foreign = foreign || std::this_thread::get_id() != self;
    order.push_back(c);
  });
  EXPECT_FALSE(foreign);
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

// True when two chunks of one for_each run at the same time, which takes two
// threads: each chunk waits (boundedly) for the other to arrive.
bool chunks_overlap(util::HostPool& pool) {
  std::atomic<int> arrived{0};
  std::atomic<bool> overlapped{false};
  pool.for_each(2, [&](std::size_t) {
    ++arrived;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (arrived.load() == 2) overlapped = true;
  });
  return overlapped.load();
}

INSTANTIATE_TEST_SUITE_P(Sizes, HostPoolTest, ::testing::Values(1u, 2u, 4u, 7u));

std::size_t live_threads() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(HostPool, SizeOneStartsNoThread) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "needs /proc/self/task to count threads";
  }
  const std::size_t before = live_threads();
  {
    util::HostPool pool(1);
    EXPECT_EQ(live_threads(), before);
    const auto self = std::this_thread::get_id();
    std::atomic<int> foreign{0};
    pool.for_each(100, [&](std::size_t) {
      if (std::this_thread::get_id() != self) ++foreign;
    });
    EXPECT_EQ(foreign.load(), 0);
  }
  // At least: a sanitizer runtime may start a helper with the first thread.
  util::HostPool pool(3);
  EXPECT_GE(live_threads(), before + 2);
}

TEST(HostPool, NestedInlineScopesRestoreThePoolPath) {
  for (const unsigned threads : {2u, 4u, 7u}) {
    util::ScopedHostPool scoped(threads);
    {
      const util::InlineScope outer;
      { const util::InlineScope inner; }
      std::atomic<int> foreign{0};
      const auto self = std::this_thread::get_id();
      util::host_pool().for_each(64, [&](std::size_t) {
        if (std::this_thread::get_id() != self) ++foreign;
      });
      EXPECT_EQ(foreign.load(), 0) << "the outer scope still holds";
    }
    EXPECT_TRUE(chunks_overlap(util::host_pool())) << threads << " threads";
  }
}

TEST(HostPool, ThreadWithoutScopeStillUsesPool) {
  for (const unsigned threads : {2u, 4u, 7u}) {
    util::ScopedHostPool scoped(threads);
    const util::InlineScope scope;  // this thread's only
    bool overlapped = false;
    std::thread other([&] { overlapped = chunks_overlap(util::host_pool()); });
    other.join();
    EXPECT_TRUE(overlapped) << threads << " threads";
  }
}

// Spins until `flag` is set or ~5 s pass; returns whether it was set.
bool wait_for(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  return flag.load();
}

TEST(HostPool, BusyPoolRunsASecondCallerInline) {
  for (const unsigned threads : {2u, 4u, 7u}) {
    util::HostPool pool(threads);
    std::atomic<bool> a_open{false};
    std::atomic<bool> b_returned{false};
    bool b_returned_while_a_open = false;
    std::vector<std::thread::id> ran_on(64);
    std::vector<std::size_t> ran_as(64);
    std::atomic<std::size_t> ran{0};
    std::thread b([&] {
      if (!wait_for(a_open)) return;
      pool.for_each(64, [&](std::size_t c) {
        ran_on[c] = std::this_thread::get_id();
        ran_as[c] = ran++;
      });
      b_returned = true;
    });
    // A's job holds the pool until its chunk 0 sees B return: a B that
    // queued behind A would still be waiting when that wait runs out.
    pool.for_each(2, [&](std::size_t c) {
      if (c != 0) return;
      a_open = true;
      b_returned_while_a_open = wait_for(b_returned);
    });
    const std::thread::id b_id = b.get_id();
    b.join();
    EXPECT_TRUE(b_returned_while_a_open) << threads << " threads";
    EXPECT_EQ(ran_on, std::vector<std::thread::id>(64, b_id))
        << threads << " threads";
    std::vector<std::size_t> chunk_order(64);
    std::iota(chunk_order.begin(), chunk_order.end(), std::size_t{0});
    EXPECT_EQ(ran_as, chunk_order) << threads << " threads";
  }
}

TEST(HostPool, ScopedPoolReplacesProcessPoolForItsScope) {
  const unsigned process = util::host_pool().size();
  EXPECT_GE(process, 1u);
  {
    util::ScopedHostPool outer(3);
    EXPECT_EQ(util::host_pool().size(), 3u);
    {
      util::ScopedHostPool inner(1);
      EXPECT_EQ(util::host_pool().size(), 1u);
    }
    EXPECT_EQ(util::host_pool().size(), 3u);
  }
  EXPECT_EQ(util::host_pool().size(), process);
}

}  // namespace
}  // namespace ent
