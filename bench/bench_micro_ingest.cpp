// Host microbenchmarks for graph ingest on the host pool: Kronecker
// generation end to end (R-MAT draws, relabel, build), directed GTgraph
// R-MAT generation end to end, and build_csr alone, each at one pool thread
// and at every hardware thread.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/pool.hpp"
#include "util/random.hpp"

namespace {

using ent::graph::Csr;
using ent::graph::Edge;
using ent::graph::vertex_t;

constexpr int kEdgeFactor = 16;

void BM_GenerateKronecker(benchmark::State& state) {
  const auto scale = static_cast<int>(state.range(0));
  ent::util::ScopedHostPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    const Csr g = ent::graph::generate_kronecker({scale, kEdgeFactor, 1});
    benchmark::DoNotOptimize(g.col_indices().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (std::int64_t{kEdgeFactor} << scale));
}

// GTgraph R-MAT, (0.45, 0.15, 0.15) and directed: other cut points than the
// Kronecker's, and the unsymmetrized build.
void BM_GenerateRmat(benchmark::State& state) {
  ent::graph::RmatParams p;
  p.scale = static_cast<int>(state.range(0));
  p.edge_factor = kEdgeFactor;
  ent::util::ScopedHostPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    const Csr g = ent::graph::generate_rmat(p);
    benchmark::DoNotOptimize(g.col_indices().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (std::int64_t{kEdgeFactor} << p.scale));
}

// The undirected edge list of a Kronecker graph, each edge once, in a
// shuffled order like the generator's.
std::vector<Edge> kronecker_edge_list(int scale) {
  const Csr g = ent::graph::generate_kronecker({scale, kEdgeFactor, 1});
  std::vector<Edge> edges;
  edges.reserve(g.num_edges() / 2 + g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    for (vertex_t w : g.neighbors(v)) {
      if (v <= w) edges.push_back({v, w});
    }
  }
  ent::SplitMix64 rng(7);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.next_below(i)]);
  }
  return edges;
}

void BM_BuildCsr(benchmark::State& state) {
  const auto scale = static_cast<int>(state.range(0));
  const std::vector<Edge> edges = kronecker_edge_list(scale);
  ent::graph::BuildOptions opts;
  opts.symmetrize = true;
  opts.directed = false;
  ent::util::ScopedHostPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Edge> copy = edges;
    state.ResumeTiming();
    const Csr g = ent::graph::build_csr(vertex_t{1} << scale, std::move(copy),
                                        opts);
    benchmark::DoNotOptimize(g.col_indices().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges.size()));
}

void ingest_args(benchmark::internal::Benchmark* b) {
  const auto all = static_cast<std::int64_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  for (const std::int64_t scale : {16, 18}) {
    b->Args({scale, 1});
    if (all > 1) b->Args({scale, all});
  }
  b->ArgNames({"scale", "threads"})
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}

BENCHMARK(BM_GenerateKronecker)->Apply(ingest_args);
BENCHMARK(BM_GenerateRmat)->Apply(ingest_args);
BENCHMARK(BM_BuildCsr)->Apply(ingest_args);

}  // namespace
