// Social-network analytics on top of the BFS engine — the §1 motivation:
// BFS as the building block for higher-level workloads. Uses the
// algorithms layer for degrees of separation, connected components,
// pseudo-diameter, betweenness and closeness centrality, all driven by the
// registered "enterprise" engine.
//
//   ./social_analytics [--users=100000] [--avg-friends=20] [--seed=7]
#include <algorithm>
#include <iostream>
#include <memory>

#include "algorithms/analytics.hpp"
#include "bfs/engine.hpp"
#include "bfs/runner.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace ent;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  graph::SocialProfile profile;
  profile.num_vertices =
      static_cast<graph::vertex_t>(args.get_int("users", 100000));
  profile.average_degree = args.get_double("avg-friends", 20.0);
  profile.directed = false;
  profile.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const graph::Csr g = graph::generate_social(profile);

  std::cout << "social network: " << g.num_vertices() << " users, "
            << g.num_edges() / 2 << " friendships\n\n";

  // All analytics run through the Enterprise BFS engine.
  const auto enterprise = bfs::make_engine("enterprise", g);
  bfs::Engine& engine = *enterprise;

  // Hub structure (who are the celebrities?).
  const graph::HubStats hubs = graph::select_hub_threshold(g, 100);
  std::cout << "top-" << hubs.num_hubs << " hubs (degree > "
            << hubs.threshold << ") hold "
            << fmt_percent(hubs.hub_edge_share) << " of all friendships\n\n";

  // Degrees of separation from a well-connected seed.
  const auto seed_user = bfs::sample_sources(g, 1, profile.seed).at(0);
  const algorithms::SsspResult paths = algorithms::sssp(engine, seed_user);
  std::vector<std::uint64_t> per_level(
      static_cast<std::size_t>(paths.ecc) + 1, 0);
  for (graph::vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (paths.distance[v] >= 0) {
      ++per_level[static_cast<std::size_t>(paths.distance[v])];
    }
  }
  std::cout << "degrees of separation from user " << seed_user << ":\n";
  Table sep({"hops", "users", "cumulative"});
  std::uint64_t cumulative = 0;
  for (std::size_t h = 0; h < per_level.size(); ++h) {
    cumulative += per_level[h];
    sep.add_row({std::to_string(h), fmt_si(static_cast<double>(per_level[h])),
                 fmt_percent(static_cast<double>(cumulative) /
                             g.num_vertices())});
  }
  sep.print(std::cout);
  std::cout << "reachable: "
            << fmt_percent(static_cast<double>(paths.reached) /
                           g.num_vertices())
            << " of users within " << paths.ecc << " hops\n\n";

  // One concrete friend chain to the farthest user.
  graph::vertex_t far = seed_user;
  for (graph::vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (paths.distance[v] > paths.distance[far]) far = v;
  }
  const auto chain = algorithms::shortest_path(paths, seed_user, far);
  std::cout << "friend chain to the farthest user (" << far << "): ";
  for (std::size_t i = 0; i < chain.size(); ++i) {
    std::cout << chain[i] << (i + 1 < chain.size() ? " -> " : "\n\n");
  }

  // Connected components.
  const auto cc = algorithms::connected_components(g, engine);
  std::cout << "connected components: " << cc.num_components
            << "; the giant component holds "
            << fmt_percent(static_cast<double>(cc.giant_size) /
                           g.num_vertices())
            << " of users\n";

  // Pseudo-diameter ("how small is this small world?").
  const auto diam = algorithms::pseudo_diameter(g, seed_user, engine);
  std::cout << "pseudo-diameter >= " << diam.lower_bound << " (found in "
            << diam.sweeps << " BFS sweeps)\n\n";

  // Sampled betweenness centrality: the brokers of the network.
  const auto bc = algorithms::betweenness_centrality(
      g, engine, std::min<graph::vertex_t>(64, g.num_vertices()),
      profile.seed);
  std::vector<graph::vertex_t> by_bc(g.num_vertices());
  for (graph::vertex_t v = 0; v < g.num_vertices(); ++v) by_bc[v] = v;
  std::partial_sort(by_bc.begin(), by_bc.begin() + 5, by_bc.end(),
                    [&](graph::vertex_t a, graph::vertex_t b) {
                      return bc[a] > bc[b];
                    });
  std::cout << "top brokers by sampled betweenness centrality:\n";
  Table brokers({"user", "degree", "betweenness (est.)"});
  std::vector<graph::vertex_t> top5(by_bc.begin(), by_bc.begin() + 5);
  const auto closeness = algorithms::harmonic_closeness(g, top5, engine);
  for (std::size_t i = 0; i < top5.size(); ++i) {
    brokers.add_row({std::to_string(top5[i]),
                     std::to_string(g.out_degree(top5[i])),
                     fmt_si(bc[top5[i]])});
  }
  brokers.print(std::cout);
  std::cout << "their harmonic closeness: ";
  for (std::size_t i = 0; i < closeness.size(); ++i) {
    std::cout << fmt_si(closeness[i]) << (i + 1 < closeness.size() ? ", " : "\n");
  }
  return 0;
}
