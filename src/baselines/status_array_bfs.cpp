#include "baselines/status_array_bfs.hpp"

#include <algorithm>

#include "bfs/telemetry.hpp"
#include "enterprise/direction.hpp"
#include "enterprise/kernels.hpp"
#include "enterprise/status_array.hpp"
#include "gpusim/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "util/assert.hpp"

namespace ent::baselines {

using enterprise::StatusArray;
using graph::edge_t;
using graph::vertex_t;

StatusArrayBfs::StatusArrayBfs(const graph::Csr& g,
                               StatusArrayOptions options)
    : graph_(&g), in_edges_(&g.in_edges()), options_(std::move(options)) {
  device_ = std::make_unique<sim::Device>(options_.device);
  device_->set_trace_sink(options_.sink);
  device_->set_device_id(options_.device_ordinal);
  device_->set_fault_injector(options_.fault_injector);
}

StatusArrayBfs::~StatusArrayBfs() = default;

bfs::BfsResult StatusArrayBfs::run(vertex_t source) {
  const graph::Csr& g = *graph_;
  const vertex_t n = g.num_vertices();
  ENT_ASSERT(source < n);

  device_->reset();
  device_->memory().set_working_set(g.footprint_bytes() +
                                    static_cast<std::uint64_t>(n) * 5);

  StatusArray status(n);
  std::vector<vertex_t> parents(n, graph::kInvalidVertex);
  status.visit(source, 0);
  parents[source] = source;

  bfs::BfsResult result;
  result.source = source;

  bool bottom_up = false;
  std::int32_t level = 0;
  vertex_t frontier_count = 1;
  vertex_t prev_frontier_count = 0;
  // m_f: the out-degree sum of the current frontier (status == level).
  edge_t m_f = g.out_degree(source);
  edge_t visited_degree_sum = m_f;
  const edge_t total_edges = g.num_edges();

  while (frontier_count > 0) {
    if (options_.fault_injector != nullptr) {
      options_.fault_injector->set_level(level);
    }
    bfs::LevelTrace trace;
    trace.level = level;
    const double level_start = device_->elapsed_ms();

    trace.alpha =
        enterprise::compute_alpha(total_edges - visited_degree_sum, m_f);
    // Beamer's switch: the frontier has grown large enough that checking
    // its edges costs more than a bottom-up sweep (m_f > m_u / alpha).
    if (!bottom_up && level > 0 && frontier_count > prev_frontier_count &&
        trace.alpha < kAlpha) {
      bottom_up = true;
    } else if (bottom_up && frontier_count < prev_frontier_count &&
               static_cast<double>(frontier_count) <
                   static_cast<double>(n) / kBeta) {
      // Beamer's switch-back in the final stages: the frontier has shrunk
      // below n / beta, so top-down edge checks are cheaper again.
      bottom_up = false;
    }
    trace.direction =
        bottom_up ? bfs::Direction::kBottomUp : bfs::Direction::kTopDown;

    sim::KernelRecord rec;
    rec.name = bottom_up ? "SA-bottom-up" : "SA-top-down";
    const enterprise::StatusExpandOutput out =
        bottom_up ? enterprise::expand_status_bottom_up(
                        g, *in_edges_, status, parents, level + 1,
                        device_->memory(), rec)
                  : enterprise::expand_status_top_down(
                        g, status, parents, level + 1, device_->memory(), rec);
    trace.expand_ms = enterprise::launch(*device_, std::move(rec), trace,
                                         options_.sink, "expand",
                                         frontier_count);
    trace.frontier_count = frontier_count;
    trace.edges_inspected = out.edges_inspected;

    prev_frontier_count = frontier_count;
    frontier_count = out.newly_visited;
    // The vertices just marked level + 1 are the next frontier: the kernel's
    // sum of their out-degrees is both its m_f and its share of m_u.
    if (out.newly_visited > 0) {
      m_f = out.visited_out_degrees;
      visited_degree_sum += m_f;
    }
    trace.total_ms = device_->elapsed_ms() - level_start;
    if (options_.sink != nullptr) {
      options_.sink->level(bfs::to_level_event(trace));
    }
    result.level_trace.push_back(std::move(trace));
    ++level;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counter("bl.levels").add(result.level_trace.size());
  }

  enterprise::finalize(result, g, std::move(status), std::move(parents));
  result.time_ms = device_->elapsed_ms();
  return result;
}

}  // namespace ent::baselines
