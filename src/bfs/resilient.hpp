// Fault-tolerant BFS execution: the `resilient:<inner>` decorator engine.
//
// ResilientEngine drives an inner engine and turns injected simulator
// faults (gpusim/fault.hpp) into recovery actions instead of aborted runs:
//
//   transient faults   bounded retry with exponential simulated backoff;
//                      engines that checkpoint (bfs/checkpoint.hpp) replay
//                      from the last completed level instead of restarting
//   device lost        multi-GPU: blacklist the physical id, rebuild the
//                      system on the surviving devices (repartition) and
//                      continue from the checkpoint; single-GPU: move down
//                      the fallback cascade on a fresh device ordinal
//   budget exhausted   fallback cascade (default enterprise -> bl ->
//                      cpu-parallel); the result is marked `degraded`
//
// Every fault-recovered result is re-checked before it is accepted:
// Graph500-style tree validation for BFS, the program's own invariant
// validate() for vertex-program workloads (whose default cascade is the
// cpu/<program> host reference instead of the BFS engines). When every
// stage is exhausted the run fails loudly with ResilienceExhausted — never
// with a silently wrong answer.
//
// Time accounting: each failed attempt contributes the faulting component's
// clock plus the backoff to the final result's simulated time, so recovered
// runs are honestly slower than clean ones. With no injector configured the
// decorator is a pass-through: no checkpointer is attached and the kernel
// timeline is identical to the inner engine's.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bfs/checkpoint.hpp"
#include "bfs/engine.hpp"

namespace ent::bfs {

// What the resilience layer did; one instance per run plus a session total.
struct ResilienceStats {
  std::uint64_t faults_seen = 0;           // SimFaults + IntegrityFaults
  std::uint64_t integrity_faults = 0;      // detected silent corruption
  std::uint64_t retries = 0;               // transient-fault retries
  std::uint64_t replays = 0;               // retries resumed from checkpoint
  std::uint64_t fallbacks = 0;             // cascade steps taken
  std::uint64_t devices_blacklisted = 0;
  std::uint64_t repartitions = 0;          // multi-GPU rebuilds
  std::uint64_t degraded_runs = 0;         // finished on a fallback engine
  std::uint64_t validation_failures = 0;   // recovered trees that failed
  double backoff_ms = 0.0;                 // simulated backoff injected

  void merge(const ResilienceStats& o) {
    faults_seen += o.faults_seen;
    integrity_faults += o.integrity_faults;
    retries += o.retries;
    replays += o.replays;
    fallbacks += o.fallbacks;
    devices_blacklisted += o.devices_blacklisted;
    repartitions += o.repartitions;
    degraded_runs += o.degraded_runs;
    validation_failures += o.validation_failures;
    backoff_ms += o.backoff_ms;
  }
};

// Typed terminal failure: retries, repartitions, and every fallback engine
// were exhausted without producing a validated tree.
class ResilienceExhausted final : public std::runtime_error {
 public:
  ResilienceExhausted(const std::string& what, ResilienceStats stats)
      : std::runtime_error(what), stats_(stats) {}

  const ResilienceStats& stats() const { return stats_; }

 private:
  ResilienceStats stats_;
};

class ResilientEngine final : public Engine {
 public:
  // `inner_name` must be an undecorated make_engine-accepted core spec
  // (`<base>[/<program>][?params]` — bfs/spec.hpp); policy comes from
  // config.resilience and the injector from config.fault_injector. Throws
  // std::invalid_argument when the inner engine cannot be built.
  ResilientEngine(std::string inner_name, const graph::Csr& g,
                  const EngineConfig& config);

  std::string name() const override { return "resilient:" + inner_name_; }
  std::string options_summary() const override;
  const sim::Device* device() const override;

  const std::string& inner_name() const { return inner_name_; }
  // Engine that finished the most recent run (the inner name unless the
  // cascade stepped down).
  const std::string& active_engine() const { return current_name_; }
  const ResilienceStats& last_run_stats() const { return run_stats_; }
  // Totals across every run of this engine instance — what the RunReport
  // resilience section aggregates.
  const ResilienceStats& session_stats() const { return session_stats_; }

 protected:
  BfsResult do_run(graph::vertex_t source) override;

 private:
  // Builds the named stage on fresh device ordinals; null when the name is
  // not buildable (skipped by the cascade).
  std::unique_ptr<Engine> build_stage(const std::string& engine_name);
  std::vector<std::string> cascade() const;
  void emit_recovery(const char* action, std::string detail, int attempt,
                     double backoff_ms);
  void publish(const BfsResult* result);

  std::string inner_name_;
  const graph::Csr* graph_;
  EngineConfig config_;  // mutated across recoveries (ordinals, device ids)
  sim::FaultInjector* injector_ = nullptr;
  LevelCheckpointStore store_;
  std::unique_ptr<Engine> current_;
  std::string current_name_;
  unsigned next_ordinal_ = 1;  // first id fresh engines may use
  ResilienceStats run_stats_;
  ResilienceStats session_stats_;
};

}  // namespace ent::bfs
