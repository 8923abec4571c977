#include "gpusim/multi_gpu.hpp"

#include <algorithm>
#include <queue>
#include <span>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "util/assert.hpp"

namespace ent::sim {

namespace {

bool power_of_two(unsigned p) { return p != 0 && (p & (p - 1)) == 0; }

}  // namespace

// --- cost primitives --------------------------------------------------------

double Interconnect::transfer_ms(std::uint64_t bytes) const {
  return spec_.latency_us * 1e-3 +
         static_cast<double>(bytes) / (spec_.bandwidth_gbs * 1e6);
}

double Interconnect::transfer_ms(std::uint64_t bytes, double now_ms) const {
  if (injector_ != nullptr && !party_ids_.empty()) {
    injector_->on_allgather(std::span<const unsigned>(party_ids_).first(1),
                            now_ms);
  }
  return transfer_ms(bytes);
}

bool Interconnect::cluster_active() const {
  if (spec_.topology.kind != TopologyKind::kRing) return true;
  if (spec_.topology.link_latency_us > 0.0 ||
      spec_.topology.link_bandwidth_gbs > 0.0) {
    return true;
  }
  return injector_ != nullptr && injector_->has_link_rules();
}

const Topology& Interconnect::topology(unsigned parties) const {
  if (topo_parties_ != parties) {
    topo_ = build_topology(spec_.topology, parties, spec_.latency_us,
                           spec_.bandwidth_gbs);
    topo_parties_ = parties;
  }
  return topo_;
}

unsigned Interconnect::fault_id(const Topology& topo, unsigned node) const {
  if (node < topo.parties && node < party_ids_.size()) {
    return party_ids_[node];
  }
  return node;
}

double Interconnect::link_cost_ms(const Topology& topo, std::uint32_t link,
                                  std::uint64_t bytes) const {
  const Link& l = topo.links[link];
  double bandwidth = l.bandwidth_gbs;
  if (injector_ != nullptr) {
    bandwidth *=
        injector_->link_degrade_factor(fault_id(topo, l.a), fault_id(topo, l.b));
  }
  return l.latency_us * 1e-3 + static_cast<double>(bytes) / (bandwidth * 1e6);
}

bool Interconnect::link_is_down(const Topology& topo,
                                std::uint32_t link) const {
  if (injector_ == nullptr) return false;
  const Link& l = topo.links[link];
  return injector_->link_down(fault_id(topo, l.a), fault_id(topo, l.b));
}

// Fewest-hop path over surviving links; deterministic in node order.
double Interconnect::path_cost_ms(const Topology& topo, unsigned a, unsigned b,
                                  std::uint64_t bytes, unsigned* hops) const {
  std::vector<std::int64_t> via(topo.nodes, -1);  // link used to reach node
  std::vector<unsigned> prev(topo.nodes, topo.nodes);
  std::queue<unsigned> frontier;
  frontier.push(a);
  prev[a] = a;
  while (!frontier.empty() && prev[b] == topo.nodes) {
    const unsigned u = frontier.front();
    frontier.pop();
    for (const auto& [v, link] : topo.adj[u]) {
      if (prev[v] != topo.nodes) continue;
      if (link_is_down(topo, link)) continue;
      prev[v] = u;
      via[v] = static_cast<std::int64_t>(link);
      frontier.push(v);
    }
  }
  if (prev[b] == topo.nodes) return -1.0;
  double cost = 0.0;
  unsigned n = 0;
  for (unsigned v = b; v != a; v = prev[v]) {
    cost += link_cost_ms(topo, static_cast<std::uint32_t>(via[v]), bytes);
    ++n;
  }
  if (hops != nullptr) *hops = n;
  return cost;
}

void Interconnect::emit_link_event(const char* action, unsigned a, unsigned b,
                                   double at_ms, double cost_ms,
                                   const std::string& detail) const {
  if (sink_ != nullptr) {
    obs::LinkEvent e;
    e.action = action;
    e.a = a;
    e.b = b;
    e.at_ms = at_ms;
    e.cost_ms = cost_ms;
    e.detail = detail;
    sink_->link(e);
  }
  if (metrics_ != nullptr) {
    metrics_->counter(std::string("comm.link_events.") + action).increment();
  }
}

// --- one message over the fabric -------------------------------------------

double Interconnect::message_ms(const Topology& topo, unsigned a, unsigned b,
                                std::uint64_t bytes, double now_ms,
                                bool force_route) const {
  const std::int64_t direct = topo.link_between(a, b);
  const bool armed = injector_ != nullptr && injector_->has_link_rules();
  double extra = 0.0;
  bool need_route = direct < 0;
  if (!need_route && armed) {
    const unsigned fa = fault_id(topo, a);
    const unsigned fb = fault_id(topo, b);
    unsigned attempts = 0;
    while (true) {
      const std::uint64_t before = injector_->faults_injected();
      try {
        injector_->on_link(fa, fb, now_ms + extra);
        break;
      } catch (const SimFault& fault) {
        const bool fresh = injector_->faults_injected() > before;
        if (fresh) {
          ++stats_.link_faults;
          if (metrics_ != nullptr) {
            metrics_->counter("comm.link_faults").increment();
          }
        }
        if (fault.type() == FaultType::kLinkDegraded) {
          std::ostringstream d;
          d << "bandwidth x" << injector_->link_degrade_factor(fa, fb);
          emit_link_event("degraded", fa, fb, now_ms + extra, 0.0, d.str());
          break;  // the factor is persisted; the cost below pays for it
        }
        if (injector_->link_down(fa, fb)) {
          if (fresh) emit_link_event("down", fa, fb, now_ms + extra, 0.0, "");
          need_route = true;
          break;
        }
        // Flaky firing: bounded retry with exponential simulated backoff.
        ++attempts;
        ++stats_.retries;
        if (metrics_ != nullptr) metrics_->counter("comm.retries").increment();
        const double backoff =
            spec_.policy.retry_backoff_ms *
            static_cast<double>(1u << std::min(attempts - 1, 16u));
        extra += backoff;
        emit_link_event("flaky-retry", fa, fb, now_ms + extra, backoff,
                        "attempt " + std::to_string(attempts));
        if (attempts > spec_.policy.max_link_retries) {
          // Retry budget exhausted: give the link up for this collective.
          need_route = true;
          break;
        }
      }
    }
  }
  if (!need_route) {
    return extra +
           link_cost_ms(topo, static_cast<std::uint32_t>(direct), bytes);
  }
  if (!spec_.policy.reroute && !force_route) throw Unroutable{a, b};
  unsigned hops = 0;
  const double cost = path_cost_ms(topo, a, b, bytes, &hops);
  if (cost < 0.0) throw Unroutable{a, b};
  if (direct >= 0) {
    ++stats_.reroutes;
    if (metrics_ != nullptr) metrics_->counter("comm.reroutes").increment();
    const double detour =
        cost - link_cost_ms(topo, static_cast<std::uint32_t>(direct), bytes);
    if (detour > 0.0) stats_.detour_ms += detour;
    emit_link_event("reroute", fault_id(topo, a), fault_id(topo, b),
                    now_ms + extra, cost,
                    "via " + std::to_string(hops) + " hops");
  }
  return extra + cost;
}

// --- collective patterns ----------------------------------------------------

std::vector<Interconnect::Step> Interconnect::ring_steps(
    unsigned parties) const {
  std::vector<Step> steps;
  steps.reserve(parties - 1);
  for (unsigned s = 0; s + 1 < parties; ++s) {
    Step step;
    step.reserve(parties);
    for (unsigned i = 0; i < parties; ++i) {
      step.push_back(Message{i, (i + 1) % parties});
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

std::vector<Interconnect::Step> Interconnect::pattern_steps(
    const Topology& topo) const {
  const unsigned p = topo.parties;
  switch (topo.kind) {
    case TopologyKind::kButterfly: {
      if (!power_of_two(p)) return ring_steps(p);  // no hypercube exists
      std::vector<Step> steps;
      for (unsigned bit = 1; bit < p; bit <<= 1) {
        Step step;
        step.reserve(p);
        for (unsigned i = 0; i < p; ++i) step.push_back(Message{i, i ^ bit});
        steps.push_back(std::move(step));
      }
      return steps;
    }
    case TopologyKind::kFatTree: {
      const unsigned core = topo.nodes - 1;
      Step up_dev;
      Step up_edge;
      Step down_edge;
      Step down_dev;
      for (unsigned i = 0; i < p; ++i) {
        const unsigned edge = topo.adj[i].front().first;
        up_dev.push_back(Message{i, edge});
        down_dev.push_back(Message{edge, i});
      }
      for (unsigned e = p; e < core; ++e) {
        up_edge.push_back(Message{e, core});
        down_edge.push_back(Message{core, e});
      }
      return {std::move(up_dev), std::move(up_edge), std::move(down_edge),
              std::move(down_dev)};
    }
    case TopologyKind::kFullyConnected: {
      std::vector<Step> steps;
      steps.reserve(p - 1);
      for (unsigned s = 0; s + 1 < p; ++s) {
        Step step;
        step.reserve(p);
        for (unsigned i = 0; i < p; ++i) {
          step.push_back(Message{i, (i + s + 1) % p});
        }
        steps.push_back(std::move(step));
      }
      return steps;
    }
    case TopologyKind::kRing:
      break;
  }
  return ring_steps(p);
}

double Interconnect::run_steps(const Topology& topo,
                               const std::vector<Step>& steps,
                               std::uint64_t bytes_each, double now_ms,
                               bool force_route) const {
  double total = 0.0;
  std::uint64_t volume = 0;
  for (const Step& step : steps) {
    double step_ms = 0.0;
    for (const Message& m : step) {
      const double before_detour = stats_.detour_ms;
      const double ms =
          message_ms(topo, m.a, m.b, bytes_each, now_ms + total, force_route);
      step_ms = std::max(step_ms, ms);
      // Detour hops carry the payload once per hop; everything else is one
      // link-message of bytes_each.
      const double detour = stats_.detour_ms - before_detour;
      volume += bytes_each;
      if (detour > 0.0) {
        volume += bytes_each;  // at least one extra hop was paid for
      }
    }
    total += step_ms;
  }
  ++stats_.collectives;
  stats_.comm_ms += total;
  stats_.volume_bytes += volume;
  if (metrics_ != nullptr) {
    metrics_->counter("comm.collectives").increment();
    metrics_->counter("comm.volume_bytes").add(volume);
    metrics_->gauge("comm.time_ms").set(stats_.comm_ms);
    metrics_->gauge("comm.detour_ms").set(stats_.detour_ms);
  }
  return total;
}

void Interconnect::throw_partitioned(const Topology& topo,
                                     double now_ms) const {
  // Components over the surviving links; the largest component (lowest
  // node breaking ties) keeps running, everyone else is unreachable.
  std::vector<int> component(topo.nodes, -1);
  std::vector<std::vector<unsigned>> members;
  for (unsigned start = 0; start < topo.nodes; ++start) {
    if (component[start] >= 0) continue;
    const int id = static_cast<int>(members.size());
    members.emplace_back();
    std::queue<unsigned> frontier;
    frontier.push(start);
    component[start] = id;
    while (!frontier.empty()) {
      const unsigned u = frontier.front();
      frontier.pop();
      if (u < topo.parties) members[static_cast<std::size_t>(id)].push_back(u);
      for (const auto& [v, link] : topo.adj[u]) {
        if (component[v] >= 0) continue;
        if (link_is_down(topo, link)) continue;
        component[v] = id;
        frontier.push(v);
      }
    }
  }
  std::size_t survivor = 0;
  for (std::size_t c = 1; c < members.size(); ++c) {
    if (members[c].size() > members[survivor].size()) survivor = c;
  }
  std::vector<unsigned> unreachable;
  for (unsigned node = 0; node < topo.parties; ++node) {
    if (component[node] != static_cast<int>(survivor)) {
      unreachable.push_back(fault_id(topo, node));
    }
  }
  if (unreachable.empty() && topo.parties > 1) {
    // The fabric is nominally connected but a message could not be routed
    // (e.g. a flaky bridge link that exhausted its retries). Sacrifice the
    // highest party so recovery can still make progress.
    unreachable.push_back(fault_id(topo, topo.parties - 1));
  }
  ++stats_.partitions;
  if (metrics_ != nullptr) metrics_->counter("comm.partitions").increment();
  std::ostringstream d;
  d << unreachable.size() << " device(s) unreachable";
  emit_link_event("partition", topo.parties, topo.parties, now_ms, 0.0,
                  d.str());
  throw ClusterPartitioned(std::move(unreachable), now_ms);
}

double Interconnect::run_collective(std::uint64_t bytes_each, unsigned parties,
                                    double now_ms) const {
  const Topology& topo = topology(parties);
  try {
    return run_steps(topo, pattern_steps(topo), bytes_each, now_ms,
                     /*force_route=*/false);
  } catch (const Unroutable&) {
    if (spec_.policy.degraded_ring && spec_.topology.kind != TopologyKind::kRing) {
      // The structured pattern lost a link it cannot route around; fall
      // back to a surviving-ring chain, store-and-forwarding each hop over
      // whatever paths remain.
      ++stats_.degraded_rings;
      if (metrics_ != nullptr) {
        metrics_->counter("comm.degraded_rings").increment();
      }
      emit_link_event("degraded-ring", 0, 0, now_ms, 0.0,
                      to_string(spec_.topology.kind) + " -> surviving-ring");
      try {
        return run_steps(topo, ring_steps(parties), bytes_each, now_ms,
                         /*force_route=*/true);
      } catch (const Unroutable&) {
        throw_partitioned(topo, now_ms);
      }
    }
    throw_partitioned(topo, now_ms);
  }
}

// --- public collectives -----------------------------------------------------

double Interconnect::allgather_ms(std::uint64_t bytes_each, unsigned parties,
                                  double now_ms) const {
  ENT_ASSERT(parties >= 1);
  if (injector_ != nullptr) {
    const std::size_t n = std::min<std::size_t>(parties, party_ids_.size());
    injector_->on_allgather(std::span<const unsigned>(party_ids_).first(n),
                            now_ms);
  }
  // One party owns the whole vertex space: there is nobody to exchange
  // with, so the collective is free by definition.
  if (parties <= 1) return 0.0;
  if (!cluster_active()) {
    // Historical ring closed form — bit-identical to the pre-topology
    // interconnect, which is what keeps default-ring reports byte-stable.
    return transfer_ms(bytes_each) * (parties - 1);
  }
  return run_collective(bytes_each, parties, now_ms);
}

// --- system -----------------------------------------------------------------

MultiGpuSystem::MultiGpuSystem(const DeviceSpec& device_spec,
                               unsigned num_devices,
                               InterconnectSpec interconnect)
    : interconnect_(interconnect) {
  ENT_ASSERT(num_devices >= 1);
  devices_.reserve(num_devices);
  for (unsigned i = 0; i < num_devices; ++i) devices_.emplace_back(device_spec);
}

double MultiGpuSystem::advance_step(double max_device_ms, double comm_ms) {
  const double step = max_device_ms + comm_ms;
  elapsed_ms_ += step;
  return step;
}

void MultiGpuSystem::reset() {
  elapsed_ms_ = 0.0;
  for (Device& d : devices_) d.reset();
}

}  // namespace ent::sim
