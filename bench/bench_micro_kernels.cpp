// Host microbenchmarks for the expansion kernels, classification, tree
// validation, the full Enterprise traversal and the graph's derived state
// (reverse, segment digests): throughput in edges/second. The pooled loops
// run at one thread and at every hardware thread.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <initializer_list>
#include <numeric>
#include <thread>

#include "baselines/cpu_bfs.hpp"
#include "bfs/validate.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "enterprise/hub_cache.hpp"
#include "enterprise/kernels.hpp"
#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "gpusim/device.hpp"
#include "util/pool.hpp"
#include "util/random.hpp"

namespace {

using namespace ent;
using benchmark::internal::Benchmark;

// Each first argument at one host pool thread and at every hardware thread.
// Real time: the pool's other threads do not show in the caller's CPU time.
void pool_args(Benchmark* b, std::initializer_list<int> firsts,
               const char* first_name) {
  const auto all = static_cast<std::int64_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  for (const int first : firsts) {
    b->Args({first, 1});
    if (all > 1) b->Args({first, all});
  }
  b->ArgNames({first_name, "threads"})
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}

graph::Csr bench_graph(int scale) {
  graph::KroneckerParams p;
  p.scale = scale;
  p.edge_factor = 16;
  p.seed = 1;
  return graph::generate_kronecker(p);
}

void BM_ExpandTopDownThread(benchmark::State& state) {
  const graph::Csr g = bench_graph(static_cast<int>(state.range(0)));
  sim::Device dev(sim::k40());
  std::vector<graph::vertex_t> queue;
  for (graph::vertex_t v = 0; v < g.num_vertices(); v += 4) queue.push_back(v);
  for (auto _ : state) {
    enterprise::StatusArray status(g.num_vertices());
    std::vector<graph::vertex_t> parents(g.num_vertices(),
                                         graph::kInvalidVertex);
    sim::KernelRecord rec;
    benchmark::DoNotOptimize(enterprise::expand_top_down(
        g, status, parents, queue, enterprise::Granularity::kThread, 1,
        dev.memory(), rec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges() / 4));
}
BENCHMARK(BM_ExpandTopDownThread)->Arg(12)->Arg(14);

// Args: Kronecker scale, host pool threads.
void BM_ExpandBottomUpWithCache(benchmark::State& state) {
  const graph::Csr g = bench_graph(static_cast<int>(state.range(0)));
  const util::ScopedHostPool pool(static_cast<unsigned>(state.range(1)));
  sim::Device dev(sim::k40());
  enterprise::HubCache cache(1024);
  for (graph::vertex_t v = 0; v < 64; ++v) cache.insert(v);
  std::vector<graph::vertex_t> queue;
  for (graph::vertex_t v = 64; v < g.num_vertices(); v += 2) {
    queue.push_back(v);
  }
  for (auto _ : state) {
    enterprise::StatusArray status(g.num_vertices());
    for (graph::vertex_t v = 0; v < 64; ++v) status.visit(v, 1);
    std::vector<graph::vertex_t> parents(g.num_vertices(),
                                         graph::kInvalidVertex);
    sim::KernelRecord rec;
    benchmark::DoNotOptimize(enterprise::expand_bottom_up(
        g, status, parents, queue, enterprise::Granularity::kThread, 2,
        &cache, dev.memory(), rec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queue.size()));
}
BENCHMARK(BM_ExpandBottomUpWithCache)->Apply([](Benchmark* b) {
  pool_args(b, {16, 18}, "scale");
});

// validate_tree on one BFS tree. Args: graph (0 = Kronecker 18, 1 = the
// ROAD stand-in, 65,536 vertices), host pool threads.
void BM_ValidateTree(benchmark::State& state) {
  const graph::Csr g =
      state.range(0) == 0 ? bench_graph(18)
                          : graph::make_suite_graph("ROAD", {}).graph;
  const util::ScopedHostPool pool(static_cast<unsigned>(state.range(1)));
  graph::vertex_t source = 0;
  while (g.out_degree(source) == 0) ++source;
  const bfs::BfsResult tree = baselines::cpu_bfs(g, source);
  for (auto _ : state) {
    const bfs::ValidationReport report = bfs::validate_tree(g, g, tree);
    if (!report.ok) state.SkipWithError(report.error.c_str());
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_ValidateTree)->Apply([](Benchmark* b) {
  pool_args(b, {0, 1}, "road");
});

// road-deep's classify calls on one thread: 365 frontiers of 180 entries,
// consecutive slices of the ROAD stand-in's BFS order, each one block.
void BM_ClassifyRoadFrontiers(benchmark::State& state) {
  const graph::Csr g = graph::make_suite_graph("ROAD", {}).graph;
  const util::ScopedHostPool pool(1);
  sim::Device dev(sim::k40());
  const bfs::BfsResult tree = baselines::cpu_bfs(g, 0);
  std::vector<graph::vertex_t> order(g.num_vertices());
  std::iota(order.begin(), order.end(), graph::vertex_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](graph::vertex_t a, graph::vertex_t b) {
                     return tree.levels[a] < tree.levels[b];
                   });
  std::vector<std::vector<graph::vertex_t>> frontiers(365);
  std::size_t next = 0;
  for (auto& frontier : frontiers) {
    for (int i = 0; i < 180; ++i) {
      frontier.push_back(order[next++ % order.size()]);
    }
  }
  for (auto _ : state) {
    for (const auto& frontier : frontiers) {
      sim::KernelRecord rec;
      benchmark::DoNotOptimize(
          enterprise::classify_frontiers(g, frontier, dev.memory(), rec));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          365 * 180);
}
BENCHMARK(BM_ClassifyRoadFrontiers)->Unit(benchmark::kMicrosecond);

void BM_FullEnterpriseBfs(benchmark::State& state) {
  const graph::Csr g = bench_graph(static_cast<int>(state.range(0)));
  enterprise::EnterpriseOptions opt;
  opt.device = sim::k40_sim();
  enterprise::EnterpriseBfs sys(g, opt);
  graph::vertex_t source = 0;
  while (g.out_degree(source) < 4) ++source;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.run(source));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_FullEnterpriseBfs)->Arg(12)->Arg(14)->Arg(16);

void BM_HubCacheProbe(benchmark::State& state) {
  enterprise::HubCache cache(static_cast<std::size_t>(state.range(0)));
  SplitMix64 rng(3);
  for (int i = 0; i < state.range(0) / 2; ++i) {
    cache.insert(static_cast<graph::vertex_t>(rng.next()));
  }
  graph::vertex_t probe = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.contains(probe));
    probe = probe * 2654435761u + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HubCacheProbe)->Arg(256)->Arg(1024)->Arg(8192);

// perfbench serve-live's graph: the directed TW stand-in at suite scale 0.5
// (131,072 vertices, about 980,000 edges).
graph::Csr tw_graph() {
  graph::SuiteOptions suite;
  suite.scale = 0.5;
  return graph::make_suite_graph("TW", suite).graph;
}

// Csr::reversed(). Args: scale of a directed R-MAT graph of edge factor 8
// (0 = the TW stand-in), host pool threads.
void BM_ReverseCsr(benchmark::State& state) {
  graph::RmatParams p;
  p.scale = static_cast<int>(state.range(0));
  p.edge_factor = 8;
  p.seed = 2;
  const graph::Csr g = p.scale == 0 ? tw_graph() : graph::generate_rmat(p);
  const util::ScopedHostPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.reversed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_ReverseCsr)->Apply([](Benchmark* b) {
  pool_args(b, {12, 14, 18, 0}, "scale");
});

// SegmentDigests::compute in the default 4 KiB blocks, as a snapshot
// promotion runs it. Args: Kronecker scale (0 = the TW stand-in), host pool
// threads.
void BM_SegmentDigests(benchmark::State& state) {
  const graph::Csr g =
      state.range(0) == 0 ? tw_graph()
                          : bench_graph(static_cast<int>(state.range(0)));
  const util::ScopedHostPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::SegmentDigests::compute(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_SegmentDigests)->Apply([](Benchmark* b) {
  pool_args(b, {18, 0}, "scale");
});

}  // namespace
