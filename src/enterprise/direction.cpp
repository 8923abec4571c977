#include "enterprise/direction.hpp"

namespace ent::enterprise {

double compute_alpha(graph::edge_t unexplored_edges,
                     graph::edge_t frontier_edges) {
  if (frontier_edges == 0) return 0.0;
  return static_cast<double>(unexplored_edges) /
         static_cast<double>(frontier_edges);
}

double compute_gamma(graph::vertex_t hubs_in_frontier,
                     graph::vertex_t total_hubs) {
  if (total_hubs == 0) return 0.0;
  return 100.0 * static_cast<double>(hubs_in_frontier) /
         static_cast<double>(total_hubs);
}

bool should_switch_to_bottom_up(const DirectionPolicy& policy, double alpha,
                                double gamma, bool frontier_growing) {
  if (policy.use_gamma) return gamma > policy.gamma_threshold_percent;
  return frontier_growing && alpha < policy.alpha_threshold;
}

}  // namespace ent::enterprise
