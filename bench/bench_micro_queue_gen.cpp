// Host microbenchmarks for the three frontier-queue generation workflows
// (§4.1), plus the bitmap harvest that replaces the host side of the
// top-down scan: simulation throughput in statuses/second.
#include <benchmark/benchmark.h>

#include "enterprise/frontier_queue.hpp"
#include "gpusim/device.hpp"
#include "util/bit_array.hpp"
#include "util/random.hpp"

namespace {

using namespace ent;

enterprise::StatusArray make_status(graph::vertex_t n, double visited_frac,
                                    std::int32_t level) {
  enterprise::StatusArray sa(n);
  SplitMix64 rng(11);
  for (graph::vertex_t v = 0; v < n; ++v) {
    if (rng.next_double() < visited_frac) sa.visit(v, level);
  }
  return sa;
}

void BM_TopDownScan(benchmark::State& state) {
  const auto n = static_cast<graph::vertex_t>(state.range(0));
  sim::Device dev(sim::k40());
  const enterprise::FrontierQueueGenerator gen(dev.memory(), 65536);
  const auto sa = make_status(n, 0.05, 3);
  for (auto _ : state) {
    sim::KernelRecord rec;
    benchmark::DoNotOptimize(gen.top_down(sa, 3, rec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TopDownScan)->Range(1 << 14, 1 << 20);

// The same queue as BM_TopDownScan, from the expansion's discovery bitmap:
// each iteration sets the frontier's bits, as the expansion does, then
// harvests them.
void BM_TopDownHarvest(benchmark::State& state) {
  const auto n = static_cast<graph::vertex_t>(state.range(0));
  sim::Device dev(sim::k40());
  const enterprise::FrontierQueueGenerator gen(dev.memory(), 65536);
  const auto sa = make_status(n, 0.05, 3);
  std::vector<graph::vertex_t> frontier;
  for (graph::vertex_t v = 0; v < n; ++v) {
    if (sa.level(v) == 3) frontier.push_back(v);
  }
  BitArray discovered(n);
  std::vector<graph::vertex_t> queue;
  for (auto _ : state) {
    for (graph::vertex_t v : frontier) discovered.set(v);
    sim::KernelRecord rec;
    gen.harvest(discovered, queue, rec);
    benchmark::DoNotOptimize(queue.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TopDownHarvest)->Range(1 << 14, 1 << 20);

void BM_DirectionSwitchScan(benchmark::State& state) {
  const auto n = static_cast<graph::vertex_t>(state.range(0));
  sim::Device dev(sim::k40());
  const enterprise::FrontierQueueGenerator gen(dev.memory(), 65536);
  const auto sa = make_status(n, 0.6, 2);
  for (auto _ : state) {
    sim::KernelRecord rec;
    benchmark::DoNotOptimize(gen.direction_switch(sa, {}, rec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_DirectionSwitchScan)->Range(1 << 14, 1 << 20);

void BM_BottomUpFilter(benchmark::State& state) {
  const auto n = static_cast<graph::vertex_t>(state.range(0));
  sim::Device dev(sim::k40());
  const enterprise::FrontierQueueGenerator gen(dev.memory(), 65536);
  auto sa = make_status(n, 0.0, 0);
  std::vector<graph::vertex_t> prev(n);
  for (graph::vertex_t v = 0; v < n; ++v) prev[v] = v;
  SplitMix64 rng(5);
  for (graph::vertex_t v = 0; v < n; ++v) {
    if (rng.next_double() < 0.3) sa.visit(v, 4);
  }
  for (auto _ : state) {
    sim::KernelRecord rec;
    benchmark::DoNotOptimize(gen.bottom_up_filter(prev, sa, {}, rec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_BottomUpFilter)->Range(1 << 14, 1 << 20);

}  // namespace
