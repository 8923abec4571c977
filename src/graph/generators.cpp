#include "graph/generators.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>

#include "graph/builder.hpp"
#include "graph/errors.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"
#include "util/random.hpp"

namespace ent::graph {
namespace {

// One recursive-matrix edge draw over a 2^scale x 2^scale adjacency matrix.
Edge rmat_edge(int scale, double a, double b, double c, SplitMix64& rng) {
  vertex_t src = 0;
  vertex_t dst = 0;
  for (int level = 0; level < scale; ++level) {
    const double r = rng.next_double();
    src <<= 1;
    dst <<= 1;
    if (r < a) {
      // top-left quadrant: neither bit set
    } else if (r < a + b) {
      dst |= 1;  // top-right
    } else if (r < a + b + c) {
      src |= 1;  // bottom-left
    } else {
      src |= 1;  // bottom-right
      dst |= 1;
    }
  }
  return {src, dst};
}

// Edges per pool chunk of the R-MAT draws and the relabel. Fixed, so the
// chunks, and with them every chunk's starting draw, do not depend on the
// pool size.
constexpr std::size_t kEdgeChunk = std::size_t{1} << 16;

std::vector<Edge> rmat_edges(int scale, edge_t count, double a, double b,
                             double c, std::uint64_t seed) {
  ENT_ASSERT(scale >= 1 && scale < 32);
  ENT_ASSERT(a + b + c <= 1.0);
  std::vector<Edge> edges(count);
  // Every edge takes exactly `scale` draws, so edge e's draws start at draw
  // e * scale of the one serial stream, and each chunk seeds itself there.
  const auto draws_per_edge = static_cast<std::uint64_t>(scale);
  util::host_pool().for_each_block(
      edges.size(), kEdgeChunk, [&](std::size_t begin, std::size_t end) {
        SplitMix64 rng(seed + begin * draws_per_edge * SplitMix64::kGamma);
        for (std::size_t e = begin; e < end; ++e) {
          edges[e] = rmat_edge(scale, a, b, c, rng);
        }
      });
  return edges;
}

// Random permutation of vertex labels: Graph500 shuffles vertex ids so that
// id order carries no degree information.
std::vector<vertex_t> random_permutation(vertex_t n, std::uint64_t seed) {
  std::vector<vertex_t> perm(n);
  std::iota(perm.begin(), perm.end(), vertex_t{0});
  SplitMix64 rng(seed);
  for (vertex_t i = n; i > 1; --i) {
    const auto j = static_cast<vertex_t>(rng.next_below(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

void relabel(std::vector<Edge>& edges, const std::vector<vertex_t>& perm) {
  util::host_pool().for_each_block(
      edges.size(), kEdgeChunk, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          edges[i].src = perm[edges[i].src];
          edges[i].dst = perm[edges[i].dst];
        }
      });
}

}  // namespace

Csr generate_rmat(const RmatParams& params) {
  // Checked before the shift and the edge array below, which a bad scale or
  // edge factor would turn into undefined behaviour or a huge allocation.
  const vertex_t max_vertices = BuildOptions{}.max_vertices;
  if (params.scale < 1 ||
      params.scale >= static_cast<int>(std::bit_width(max_vertices))) {
    throw GraphFormatError(
        {}, "rmat scale " + std::to_string(params.scale) +
                " out of range: need 1 <= scale and 2^scale <= "
                "BuildOptions.max_vertices=" +
                std::to_string(max_vertices));
  }
  if (params.edge_factor < 1) {
    throw GraphFormatError({}, "rmat edge factor " +
                                   std::to_string(params.edge_factor) +
                                   " out of range: need edge_factor >= 1");
  }
  const auto n = static_cast<vertex_t>(1u << params.scale);
  const auto target = static_cast<edge_t>(n) *
                      static_cast<edge_t>(params.edge_factor);
  std::vector<Edge> edges = rmat_edges(params.scale, target, params.a,
                                       params.b, params.c, params.seed);
  relabel(edges, random_permutation(n, params.seed ^ 0x9e3779b9ull));
  BuildOptions opts;
  opts.symmetrize = params.symmetrize;
  opts.directed = !params.symmetrize;
  return build_csr(n, std::move(edges), opts);
}

Csr generate_kronecker(const KroneckerParams& params) {
  RmatParams rmat;
  rmat.scale = params.scale;
  rmat.edge_factor = params.edge_factor;
  rmat.a = 0.57;
  rmat.b = 0.19;
  rmat.c = 0.19;
  rmat.seed = params.seed;
  rmat.symmetrize = true;
  return generate_rmat(rmat);
}

Csr generate_social(const SocialProfile& profile) {
  const vertex_t n = profile.num_vertices;
  ENT_ASSERT(n >= 2);
  ENT_ASSERT(profile.exponent > 1.0);
  ENT_ASSERT(profile.max_degree >= 1);
  SplitMix64 rng(profile.seed);

  // 1. Draw a Pareto degree sequence with the profile's tail exponent.
  std::vector<double> raw(n);
  const double inv = -1.0 / (profile.exponent - 1.0);
  double sum = 0.0;
  for (vertex_t v = 0; v < n; ++v) {
    const double u = std::max(rng.next_double(), 1e-12);
    raw[v] = std::min(std::pow(u, inv),
                      static_cast<double>(profile.max_degree));
    sum += raw[v];
  }

  // 2. Promote a handful of vertices to hubs with degree near the cap —
  //    the explicit hub mass that drives Fig. 6 and the hub-vertex cache.
  const auto num_hubs = static_cast<vertex_t>(
      std::max<double>(1.0, profile.hub_fraction * n));
  for (vertex_t h = 0; h < num_hubs; ++h) {
    const auto v = static_cast<vertex_t>(rng.next_below(n));
    const double boosted = static_cast<double>(profile.max_degree) *
                           (0.5 + 0.5 * rng.next_double());
    sum += boosted - raw[v];
    raw[v] = boosted;
  }

  // 3. Rescale the sequence to hit the requested average degree, then
  //    round. Stub pairing yields one edge per two stubs, and undirected
  //    builds symmetrize back to two directed edges per pair, so directed
  //    graphs need twice the stub mass for the same directed-edge count.
  const double target_edges = profile.average_degree *
                              static_cast<double>(n) *
                              (profile.directed ? 2.0 : 1.0);
  const double scale = target_edges / sum;
  std::vector<edge_t> degree(n);
  for (vertex_t v = 0; v < n; ++v) {
    const double scaled = raw[v] * scale;
    degree[v] = std::max<edge_t>(
        std::max<edge_t>(1, profile.min_degree),
        std::min(profile.max_degree,
                 static_cast<edge_t>(std::llround(scaled))));
  }

  // 4. Configuration model: build the stub list and pair stubs uniformly at
  //    random (Fisher-Yates pairing). For directed graphs, each stub pair
  //    contributes one arc src -> dst; for undirected, both directions.
  std::vector<vertex_t> stubs;
  {
    edge_t total = 0;
    for (edge_t d : degree) total += d;
    if (total & 1) ++degree[0];  // even stub count for pairing
    stubs.reserve(static_cast<std::size_t>(total + 1));
  }
  for (vertex_t v = 0; v < n; ++v) {
    for (edge_t d = 0; d < degree[v]; ++d) stubs.push_back(v);
  }
  for (std::size_t i = stubs.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(stubs[i - 1], stubs[j]);
  }

  std::vector<Edge> edges;
  edges.reserve(stubs.size() / 2);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    edges.push_back({stubs[i], stubs[i + 1]});
  }
  // Release the dead scratch before build_csr allocates its arrays: it
  // would otherwise set the generator's peak memory.
  std::vector<vertex_t>().swap(stubs);
  std::vector<double>().swap(raw);
  std::vector<edge_t>().swap(degree);

  BuildOptions opts;
  opts.symmetrize = !profile.directed;
  opts.directed = profile.directed;
  return build_csr(n, std::move(edges), opts);
}

Csr generate_road_grid(vertex_t width, vertex_t height, std::uint64_t seed) {
  ENT_ASSERT(width >= 2 && height >= 2);
  const vertex_t n = width * height;
  SplitMix64 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * 2);
  auto id = [width](vertex_t x, vertex_t y) { return y * width + x; };
  for (vertex_t y = 0; y < height; ++y) {
    for (vertex_t x = 0; x < width; ++x) {
      // Keep ~92% of grid streets; drop the rest to mimic irregular road
      // topology. Sparse diagonal shortcuts mimic highway ramps.
      if (x + 1 < width && rng.next_double() < 0.92)
        edges.push_back({id(x, y), id(x + 1, y)});
      if (y + 1 < height && rng.next_double() < 0.92)
        edges.push_back({id(x, y), id(x, y + 1)});
      if (x + 1 < width && y + 1 < height && rng.next_double() < 0.02)
        edges.push_back({id(x, y), id(x + 1, y + 1)});
    }
  }
  BuildOptions opts;
  opts.symmetrize = true;
  opts.directed = false;
  return build_csr(n, std::move(edges), opts);
}

Csr generate_mesh(vertex_t num_vertices, unsigned k, std::uint64_t seed) {
  ENT_ASSERT(num_vertices > k);
  SplitMix64 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_vertices) * k / 2);
  // Ring lattice: each vertex links to its k/2 successors, with small index
  // jitter so adjacency is local but not perfectly banded (finite-element
  // matrices have exactly this near-diagonal structure).
  for (vertex_t v = 0; v < num_vertices; ++v) {
    for (unsigned j = 1; j <= k / 2; ++j) {
      const auto jitter = static_cast<vertex_t>(rng.next_below(3));
      const vertex_t w = (v + j + jitter) % num_vertices;
      if (w != v) edges.push_back({v, w});
    }
  }
  BuildOptions opts;
  opts.symmetrize = true;
  opts.directed = false;
  return build_csr(num_vertices, std::move(edges), opts);
}

Csr generate_long_path(vertex_t num_vertices, double shortcut_fraction,
                       std::uint64_t seed) {
  ENT_ASSERT(num_vertices >= 2);
  SplitMix64 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(num_vertices + 1);
  for (vertex_t v = 0; v + 1 < num_vertices; ++v) edges.push_back({v, v + 1});
  // Sparse junctions: short-range shortcuts keep the diameter enormous while
  // lifting the mean degree slightly above 2 (europe.osm: mean 2.1, max 12).
  const auto shortcuts = static_cast<vertex_t>(
      shortcut_fraction * static_cast<double>(num_vertices));
  for (vertex_t s = 0; s < shortcuts; ++s) {
    const auto v = static_cast<vertex_t>(rng.next_below(num_vertices));
    const auto span = static_cast<vertex_t>(2 + rng.next_below(64));
    const vertex_t w = std::min<vertex_t>(num_vertices - 1, v + span);
    if (w != v) edges.push_back({v, w});
  }
  BuildOptions opts;
  opts.symmetrize = true;
  opts.directed = false;
  return build_csr(num_vertices, std::move(edges), opts);
}

Csr generate_comb(vertex_t spine, vertex_t tooth, std::uint64_t seed) {
  ENT_ASSERT(spine >= 2);
  SplitMix64 rng(seed);
  const vertex_t n = spine * (tooth + 1);
  std::vector<Edge> edges;
  edges.reserve(n + spine / 8);
  // Spine vertices are [0, spine); tooth t of spine vertex s occupies
  // [spine + s*tooth, spine + (s+1)*tooth).
  for (vertex_t s = 0; s + 1 < spine; ++s) edges.push_back({s, s + 1});
  for (vertex_t s = 0; s < spine; ++s) {
    vertex_t prev = s;
    for (vertex_t t = 0; t < tooth; ++t) {
      const vertex_t v = spine + s * tooth + t;
      edges.push_back({prev, v});
      prev = v;
    }
  }
  // Occasional cross-links between adjacent teeth mimic minor roads.
  for (vertex_t s = 0; s + 1 < spine && tooth > 0; s += 8) {
    const auto t = static_cast<vertex_t>(rng.next_below(tooth));
    edges.push_back(
        {spine + s * tooth + t, spine + (s + 1) * tooth + t});
  }
  BuildOptions opts;
  opts.symmetrize = true;
  opts.directed = false;
  return build_csr(n, std::move(edges), opts);
}

Csr generate_erdos_renyi(vertex_t num_vertices, edge_t num_edges,
                         bool directed, std::uint64_t seed) {
  ENT_ASSERT(num_vertices >= 2);
  SplitMix64 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (edge_t e = 0; e < num_edges; ++e) {
    const auto src = static_cast<vertex_t>(rng.next_below(num_vertices));
    const auto dst = static_cast<vertex_t>(rng.next_below(num_vertices));
    edges.push_back({src, dst});
  }
  BuildOptions opts;
  opts.symmetrize = !directed;
  opts.directed = directed;
  return build_csr(num_vertices, std::move(edges), opts);
}

}  // namespace ent::graph
