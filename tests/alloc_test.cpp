// Allocation budget of a deep search. A steady-state Enterprise level reuses
// the scratch its LevelLoop and driver own (class queues, Hyper-Q records,
// the top-down queue), so on the ROAD stand-in, whose searches
// run 100+ narrow levels, what a search allocates per level is its
// LevelTrace plus the run's own arrays spread over its levels. This
// executable replaces the global operator new with one that counts while
// `counting` is set, so it runs on its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bfs/engine.hpp"
#include "bfs/runner.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void* allocate(std::size_t size) noexcept {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* allocate_or_throw(std::size_t size) {
  if (void* p = allocate(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every form that pairs with the plain operator delete, so sized and
// unsized frees, and a sanitizer's allocation-mismatch check, see one
// malloc/free discipline. The aligned forms keep their defaults.
void* operator new(std::size_t size) { return allocate_or_throw(size); }
void* operator new[](std::size_t size) { return allocate_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

struct Tally {
  std::uint64_t allocations = 0;
  std::uint64_t levels = 0;
  double per_level() const {
    return static_cast<double>(allocations) / static_cast<double>(levels);
  }
};

// Warms a fresh `enterprise` engine with one run, then counts what eight
// sampled searches allocate, result included.
Tally count_searches(const char* name, const Csr& g) {
  const auto engine = bfs::make_engine("enterprise", g);
  const std::vector<vertex_t> sources = bfs::sample_sources(g, 8, 31);
  engine->run(sources.front());
  Tally tally;
  allocations = 0;
  counting = true;
  for (const vertex_t s : sources) {
    tally.levels += engine->run(s).level_trace.size();
  }
  counting = false;
  tally.allocations = allocations;
  std::printf("%s: %llu allocations over %llu levels, %.2f per level\n", name,
              static_cast<unsigned long long>(tally.allocations),
              static_cast<unsigned long long>(tally.levels),
              tally.per_level());
  return tally;
}

Csr suite_graph(const std::string& abbr, double scale) {
  graph::SuiteOptions opt;
  opt.scale = scale;
  return graph::make_suite_graph(abbr, opt).graph;
}

TEST(AllocationBudget, DeepRoadSearchAllocatesAtMostSixPerLevel) {
  const Tally road = count_searches("ROAD 1/4", suite_graph("ROAD", 0.25));
  ASSERT_GT(road.levels, 8u * 100);  // deep: 100+ levels per search
  EXPECT_LE(road.per_level(), 6.0);
}

// Wide, shallow searches: their bottom-up levels split into pool blocks and
// build fresh queues, so they allocate more per level. Printed, not
// asserted.
TEST(AllocationBudget, ReportsShallowGraphs) {
  graph::KroneckerParams p;
  p.scale = 12;
  p.edge_factor = 16;
  const Tally kron =
      count_searches("Kronecker 12", graph::generate_kronecker(p));
  const Tally tw = count_searches("TW 1/16", suite_graph("TW", 1.0 / 16));
  EXPECT_GT(kron.levels, 0u);
  EXPECT_GT(tw.levels, 0u);
}

}  // namespace
}  // namespace ent
