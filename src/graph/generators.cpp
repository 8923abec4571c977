#include "graph/generators.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "graph/builder.hpp"
#include "graph/errors.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"
#include "util/random.hpp"

namespace ent::graph {
namespace {

// The R-MAT quadrant boundaries as integer cut points on the 53-bit draw
// k = next() >> 11. next_double() is exactly k * 2^-53, so for a real t in
// [0, 1], next_double() < t holds exactly when k < ceil(t * 2^53): comparing
// k with the cut point gives the same answer as comparing the double draw
// with t, and the edges stay byte for byte those of the double compare.
struct RmatCuts {
  std::uint64_t a;    // ceil(a * 2^53)
  std::uint64_t ab;   // ceil((a + b) * 2^53)
  std::uint64_t abc;  // ceil((a + b + c) * 2^53)

  // a, b and c are checked: finite, non-negative, a + b + c <= 1. The sums
  // round as the double compare's did, and rounding is monotone, so
  // a <= ab <= abc <= 2^53.
  RmatCuts(double pa, double pb, double pc)
      : a(cut(pa)), ab(cut(pa + pb)), abc(cut(pa + pb + pc)) {}

  static std::uint64_t cut(double t) {
    return static_cast<std::uint64_t>(std::ceil(t * 0x1.0p53));
  }
};

// One recursive-matrix edge draw over a 2^scale x 2^scale adjacency matrix.
// Per level, the draw falls in the top-left (k < a), top-right (k < ab),
// bottom-left (k < abc) or bottom-right quadrant; with the cut points
// ordered, the src bit is k >= ab and the dst bit is the parity of the
// three comparisons, so no level branches on the draw.
Edge rmat_edge(int scale, const RmatCuts& cuts, SplitMix64& rng) {
  vertex_t src = 0;
  vertex_t dst = 0;
  for (int level = 0; level < scale; ++level) {
    const std::uint64_t k = rng.next() >> 11;
    const auto past_a = static_cast<vertex_t>(k >= cuts.a);
    const auto past_ab = static_cast<vertex_t>(k >= cuts.ab);
    const auto past_abc = static_cast<vertex_t>(k >= cuts.abc);
    src = (src << 1) | past_ab;
    dst = (dst << 1) | (past_a ^ past_ab ^ past_abc);
  }
  return {src, dst};
}

// Edges per pool chunk of the R-MAT draws and the relabel. Fixed, so the
// chunks, and with them every chunk's starting draw, do not depend on the
// pool size.
constexpr std::size_t kEdgeChunk = std::size_t{1} << 16;

// Checked before the shift and the edge array that a bad scale or edge
// factor would turn into undefined behaviour or a huge allocation, and
// before the cut points, which a negative or NaN probability would turn
// into an undefined conversion.
void check_rmat_params(const RmatParams& params) {
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
  // The edge list build_csr can count on one thread: at most UINT32_MAX
  // edges. Bounding it here keeps a list that cannot be allocated from
  // escaping as std::bad_alloc.
  constexpr std::uint64_t kMaxEdges = std::numeric_limits<std::uint32_t>::max();
  const std::uint64_t edges = (std::uint64_t{1} << params.scale) *
                              static_cast<std::uint64_t>(params.edge_factor);
  if (edges > kMaxEdges) {
    throw GraphFormatError(
        {}, "rmat scale " + std::to_string(params.scale) +
                " and edge factor " + std::to_string(params.edge_factor) +
                " give " + std::to_string(edges) +
                " edges: need 2^scale * edge_factor <= " +
                std::to_string(kMaxEdges));
  }
  const double a = params.a;
  const double b = params.b;
  const double c = params.c;
  if (!std::isfinite(a) || !std::isfinite(b) || !std::isfinite(c) ||
      a < 0.0 || b < 0.0 || c < 0.0 || a + b + c > 1.0) {
    char text[96];
    std::snprintf(text, sizeof(text), "a=%g b=%g c=%g", a, b, c);
    throw GraphFormatError({}, std::string("rmat probabilities ") + text +
                                   " out of range: need finite a, b, c >= 0 "
                                   "with a + b + c <= 1");
  }
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

std::vector<Edge> generate_rmat_edges(const RmatParams& params) {
  check_rmat_params(params);
  const auto n = static_cast<vertex_t>(1u << params.scale);
  std::vector<Edge> edges(static_cast<std::size_t>(n) *
                          static_cast<std::size_t>(params.edge_factor));
  const RmatCuts cuts(params.a, params.b, params.c);
  // Every edge takes exactly `scale` draws, so edge e's draws start at draw
  // e * scale of the one serial stream, and each chunk seeds itself there.
  const auto draws_per_edge = static_cast<std::uint64_t>(params.scale);
  util::host_pool().for_each_block(
      edges.size(), kEdgeChunk, [&](std::size_t begin, std::size_t end) {
        SplitMix64 rng(params.seed +
                       begin * draws_per_edge * SplitMix64::kGamma);
        for (std::size_t e = begin; e < end; ++e) {
          edges[e] = rmat_edge(params.scale, cuts, rng);
        }
      });
  return edges;
}

Csr generate_rmat(const RmatParams& params) {
  std::vector<Edge> edges = generate_rmat_edges(params);
  const auto n = static_cast<vertex_t>(1u << params.scale);
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
