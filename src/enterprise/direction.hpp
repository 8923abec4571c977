// Direction-switching indicators (§2.1 Fig. 2 and §4.3).
//
//   alpha = m_u / m_f   (Beamer et al. [10]): unexplored edges over edges to
//                       be checked from the top-down frontier; switch when
//                       the frontier grows large enough that m_f > m_u /
//                       alpha_threshold, i.e. the ratio drops below the
//                       threshold. The best threshold fluctuates 2-200
//                       across graphs (Fig. 10) and needs tuning.
//   gamma = F_h / T_h x 100%: hub vertices in the frontier queue over total
//                       hub vertices. Stable in (30, 40)% across graphs; the
//                       paper switches when gamma > 30.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"

namespace ent::enterprise {

struct DirectionPolicy {
  double gamma_threshold_percent = 30.0;
  // Beamer thresholds, kept for the Fig. 10 comparison and the alpha-policy
  // ablation.
  double alpha_threshold = 15.0;
  bool use_gamma = true;
};

double compute_alpha(graph::edge_t unexplored_edges,
                     graph::edge_t frontier_edges);

// gamma: percentage of the graph's hub vertices that sit in the frontier
// queue, from the count of hubs found there.
double compute_gamma(graph::vertex_t hubs_in_frontier,
                     graph::vertex_t total_hubs);

// Decision: switch top-down -> bottom-up before expanding this frontier?
// `frontier_growing` gates the alpha policy (Beamer's heuristic only
// switches while the frontier still grows — on the way *into* the
// explosion, not out of it); gamma needs no such guard because the hub
// ratio only saturates at the explosion.
bool should_switch_to_bottom_up(const DirectionPolicy& policy, double alpha,
                                double gamma, bool frontier_growing = true);

}  // namespace ent::enterprise
