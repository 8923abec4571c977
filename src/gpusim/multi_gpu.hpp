// Multi-GPU substrate: a set of identical devices plus a topology-aware
// interconnect model for the per-level status exchange (§4.4, extended to
// cluster scale). The interconnect is an explicit link graph
// (gpusim/topology.hpp) whose collectives are costed per hop, and every
// link is a fault target: `link@a-b:...` FaultPlan rules take links down,
// degrade them, or make them flaky, and the collectives climb a resilience
// ladder — bounded per-link retry with simulated backoff, reroute around
// failed links (costed detour), degraded-mode fallback from butterfly to a
// surviving ring, and finally typed ClusterPartitioned when the fabric
// disconnects.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/spec.hpp"
#include "gpusim/topology.hpp"

namespace ent::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace ent::obs

namespace ent::sim {

// Policy knobs for the collective resilience ladder. All defaults keep the
// ladder fully armed; tools expose `--no-reroute` to exercise the
// partition path.
struct CommPolicy {
  unsigned max_link_retries = 2;   // bounded retry budget per flaky link
  double retry_backoff_ms = 0.05;  // simulated backoff: base * 2^(k-1)
  bool reroute = true;             // detour around persisted down links
  bool degraded_ring = true;       // butterfly/fat-tree -> surviving ring
};

struct InterconnectSpec {
  double bandwidth_gbs = 12.0;  // PCIe 3.0 x16 effective
  double latency_us = 10.0;     // per message
  // Appended with defaults so the historical two-field aggregate init
  // (`Interconnect ic({12.0, 10.0})`) keeps meaning "plain ring".
  TopologySpec topology{};
  CommPolicy policy{};
};

// The cluster fabric no longer connects all devices: some parties are
// unreachable from the surviving majority component. Carries the physical
// device ids to blacklist; bfs::ResilientEngine feeds them to its existing
// repartition-and-continue machinery.
class ClusterPartitioned : public SimFault {
 public:
  ClusterPartitioned(std::vector<unsigned> unreachable, double at_ms)
      : SimFault(FaultType::kLinkDown,
                 unreachable.empty() ? 0u : unreachable.front(),
                 "cluster-partition", at_ms, 0),
        unreachable_(std::move(unreachable)) {}

  const std::vector<unsigned>& unreachable() const { return unreachable_; }

 private:
  std::vector<unsigned> unreachable_;
};

// Communication bookkeeping, populated only when the cluster path is
// active (non-ring topology, per-link overrides, or link rules armed) —
// the default ring interconnect records nothing.
struct CommStats {
  std::uint64_t collectives = 0;
  std::uint64_t volume_bytes = 0;  // actual link-bytes incl. detour hops
  double comm_ms = 0.0;
  std::uint64_t link_faults = 0;
  std::uint64_t retries = 0;
  std::uint64_t reroutes = 0;
  double detour_ms = 0.0;
  std::uint64_t degraded_rings = 0;
  std::uint64_t partitions = 0;
};

class FaultInjector;

class Interconnect {
 public:
  explicit Interconnect(InterconnectSpec spec) : spec_(spec) {}

  // Per-level collective: each of `parties` devices contributes
  // `bytes_each`; the pattern follows the spec's topology (ring step
  // chain, butterfly log-step exchange, fat-tree up/down, direct sends).
  // With a fault injector attached the gather is first offered to it
  // (comm-timeout / party-drop), then every link message consults the
  // link rules and climbs the retry/reroute/degraded-ring ladder; a
  // disconnected fabric throws ClusterPartitioned. `parties` must be >= 1;
  // a single party has nobody to talk to and costs 0 ms by definition.
  // On the default ring with no link rules armed this is exactly the
  // historical closed form: transfer_ms(bytes_each) * (parties - 1).
  double allgather_ms(std::uint64_t bytes_each, unsigned parties,
                      double now_ms = 0.0) const;

  // Closed-form communication volume of one collective at the spec's
  // topology — what the drivers book as exchanged bytes.
  std::uint64_t collective_volume(std::uint64_t bytes_each,
                                  unsigned parties) const {
    return collective_volume_bytes(spec_.topology.kind, bytes_each, parties);
  }

  // Point-to-point transfer (pure cost, no fault consultation).
  double transfer_ms(std::uint64_t bytes) const;

  // Injector-tapped point-to-point transfer over a host<->device link:
  // offers the transfer to the fault injector as a gather by party 0's
  // device (comm-timeout / device-pinned comm-drop rules reach it) before
  // pricing it. EnterpriseBfs's partition residency pages through it, with
  // the run's device_ordinal as party 0.
  double transfer_ms(std::uint64_t bytes, double now_ms) const;

  const InterconnectSpec& spec() const { return spec_; }

  // Fault injection tap (gpusim/fault.hpp). `party_ids` names the physical
  // device ids behind collective party slots 0..P-1; link-rule endpoints
  // and ClusterPartitioned blacklists are expressed in those ids (fat-tree
  // switch nodes keep their topology node ids).
  void set_fault_injector(FaultInjector* injector,
                          std::vector<unsigned> party_ids) {
    injector_ = injector;
    party_ids_ = std::move(party_ids);
  }

  // Observability taps; optional, active only on the cluster path.
  void set_sink(obs::TraceSink* sink) { sink_ = sink; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  const CommStats& comm_stats() const { return stats_; }

  // The built link graph for `parties` devices (cached per party count).
  const Topology& topology(unsigned parties) const;

  // True when collectives take the generic per-hop path: a non-ring
  // topology, per-link spec overrides, or link rules armed. False means
  // the historical ring closed form runs (and nothing cluster-shaped is
  // recorded), which is what keeps default-ring reports byte-identical.
  bool cluster_active() const;

 private:
  struct Message {
    unsigned a = 0;
    unsigned b = 0;
  };
  using Step = std::vector<Message>;

  std::vector<Step> pattern_steps(const Topology& topo) const;
  std::vector<Step> ring_steps(unsigned parties) const;
  double run_collective(std::uint64_t bytes_each, unsigned parties,
                        double now_ms) const;
  double run_steps(const Topology& topo, const std::vector<Step>& steps,
                   std::uint64_t bytes_each, double now_ms,
                   bool force_route) const;
  // One message over the fabric: retry ladder + optional reroute. Returns
  // the cost; throws Unroutable (internal) when the endpoints are cut off,
  // force_route treats reroute as enabled (degraded-ring store-and-forward).
  struct Unroutable {
    unsigned a = 0;
    unsigned b = 0;
  };
  double message_ms(const Topology& topo, unsigned a, unsigned b,
                    std::uint64_t bytes, double now_ms,
                    bool force_route) const;
  double link_cost_ms(const Topology& topo, std::uint32_t link,
                      std::uint64_t bytes) const;
  double path_cost_ms(const Topology& topo, unsigned a, unsigned b,
                      std::uint64_t bytes, unsigned* hops) const;
  bool link_is_down(const Topology& topo, std::uint32_t link) const;
  unsigned fault_id(const Topology& topo, unsigned node) const;
  [[noreturn]] void throw_partitioned(const Topology& topo,
                                      double now_ms) const;
  void emit_link_event(const char* action, unsigned a, unsigned b,
                       double at_ms, double cost_ms,
                       const std::string& detail) const;

  InterconnectSpec spec_;
  FaultInjector* injector_ = nullptr;
  std::vector<unsigned> party_ids_;
  obs::TraceSink* sink_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  // The cost methods are const (callers hold const references mid-run);
  // the topology cache and comm bookkeeping are implementation state.
  mutable Topology topo_;
  mutable unsigned topo_parties_ = 0;
  mutable CommStats stats_;
};

class MultiGpuSystem {
 public:
  MultiGpuSystem(const DeviceSpec& device_spec, unsigned num_devices,
                 InterconnectSpec interconnect = {});

  unsigned size() const { return static_cast<unsigned>(devices_.size()); }
  Device& device(unsigned i) { return devices_[i]; }
  const Device& device(unsigned i) const { return devices_[i]; }
  const Interconnect& interconnect() const { return interconnect_; }
  Interconnect& interconnect() { return interconnect_; }

  // Advance the system clock by one bulk-synchronous step: the slowest
  // device's per-level time plus communication. Returns the step time.
  double advance_step(double max_device_ms, double comm_ms);

  double elapsed_ms() const { return elapsed_ms_; }
  void reset();

 private:
  std::vector<Device> devices_;
  Interconnect interconnect_;
  double elapsed_ms_ = 0.0;
};

}  // namespace ent::sim
