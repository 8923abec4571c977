// Uniform BFS engine API. Every traversal system in the repository —
// Enterprise, the paper's BL baseline, the atomic-queue baseline, the host
// references, and the Fig. 14 comparator models — is constructible by name
// through one factory and driven through one interface:
//
//   auto engine = bfs::make_engine("enterprise", g, config);
//   bfs::BfsResult r = engine->run(source);
//   engine->trace();            // per-level trace of that run
//   engine->options_summary();  // "wb=on hc=on switch=gamma@30 ..."
//
// Telemetry (obs/) configured on the EngineConfig flows through every run:
// the wrapper brackets runs with begin_run/end_run sink events, emits
// per-level events for engines that do not instrument themselves, and
// publishes run histograms/counters into the metrics registry.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bfs/guard.hpp"
#include "bfs/integrity.hpp"
#include "bfs/result.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "enterprise/multi_gpu_bfs.hpp"
#include "graph/csr.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace ent::bfs {

class Checkpointer;

// Policy knobs for the `resilient:<inner>` decorator (bfs/resilient.hpp).
struct ResilienceOptions {
  // Transient-fault retries per engine before the cascade moves on.
  int max_retries = 3;
  // Simulated exponential backoff before retry k: base * 2^(k-1), capped.
  // The backoff is added to the run's simulated time, never wall time.
  double backoff_base_ms = 1.0;
  double backoff_cap_ms = 64.0;
  // Replay retried runs from the last completed level instead of from the
  // source (engines that support bfs/checkpoint.hpp; others restart).
  bool use_checkpoints = true;
  // Engines tried, in order, after the primary engine is exhausted or its
  // device is lost. Empty = the default cascade: {"bl", "cpu-parallel"}
  // (enterprise -> status array -> host) for BFS, {"cpu/<program>?params"}
  // (the host reference) for vertex-program workloads, minus the primary
  // itself.
  std::vector<std::string> fallbacks;
  // Re-check every fault-recovered tree with validate_tree before
  // accepting it; a failed check counts as a failed attempt.
  bool validate = true;
};

// One config covers every engine. `enterprise` holds the technique toggles
// that every Enterprise engine runs with: `enterprise`, `multi-gpu` (on each
// of its devices) and their vertex programs. `multi_gpu` adds only the
// partition: device count, interconnect, physical ids, straggler ladder. The
// factory overrides the toggles' device and telemetry members with the
// shared fields below, so callers set the device and sinks exactly once.
// The baselines take nothing but those shared fields.
struct EngineConfig {
  sim::DeviceSpec device = sim::k40();

  enterprise::EnterpriseOptions enterprise;
  enterprise::MultiGpuOptions multi_gpu;

  obs::TraceSink* sink = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  // --- resilience (gpusim/fault.hpp, bfs/resilient.hpp) -------------------
  // Fault-injection tap handed to every device-backed engine; null keeps
  // fault handling completely out of the kernel path.
  sim::FaultInjector* fault_injector = nullptr;
  // Physical id reported by single-device engines (multi-GPU systems use
  // multi_gpu.device_ids). The resilience layer bumps this so fallback
  // engines never reuse a lost device's id.
  unsigned device_ordinal = 0;
  // Level-checkpoint store for replay-on-retry; normally attached by
  // ResilientEngine rather than set directly.
  Checkpointer* checkpointer = nullptr;
  ResilienceOptions resilience;

  // --- guards (bfs/guard.hpp, bfs/guarded.hpp) ----------------------------
  // Limits enforced by the `guarded:<inner>` decorator: deadline, level and
  // frontier circuit breakers, memory-budget admission. All-zero (the
  // default) means unguarded even under `guarded:`.
  GuardLimits guards;
  // Cooperative cancellation token checked by the enterprise / multi-GPU
  // level loops; normally attached by GuardedEngine rather than set
  // directly.
  RunGuard* guard = nullptr;

  // --- integrity (bfs/integrity.hpp) --------------------------------------
  // Audit mode / scrub interval copied into every engine that self-verifies
  // (enterprise, multi-gpu). Defaults are fully off: no counters created,
  // no extra work, reports byte-identical to a build without the subsystem.
  IntegrityOptions integrity;
};

class Engine {
 public:
  virtual ~Engine() = default;

  virtual std::string name() const = 0;

  // Runs one traversal, bracketing it with sink begin/end events and
  // publishing run metrics. Not virtual — engines implement do_run().
  BfsResult run(graph::vertex_t source);

  // Per-level trace of the most recent run (empty before the first).
  const std::vector<LevelTrace>& trace() const { return last_trace_; }

  // One-line human-readable option string for banners and reports.
  virtual std::string options_summary() const = 0;

  // Simulated device of the most recent run; null for host engines.
  virtual const sim::Device* device() const { return nullptr; }

  // Hub set borrowed from the graph (graph::Csr::hubs) by the enterprise
  // engine; null for every other engine and for decorated stacks.
  virtual const graph::HubView* hubs() const { return nullptr; }

  // Derived nvprof-style counters when device-backed.
  std::optional<sim::HardwareCounters> counters() const;

  // Whether this engine streams LevelEvents itself mid-run (decorators use
  // this to decide who owns post-run level emission).
  bool emits_level_events() const { return impl_emits_levels_; }

  // Rebuilds an INDEPENDENT engine from the same registry name, graph, and
  // config this one was made from: a fresh simulated device and fresh
  // per-run scratch, so the clone and the original can traverse the shared
  // immutable graph from different threads without aliasing any mutable
  // state. Decorated engines clone the whole stack (admission and the
  // fallback cascade re-run deterministically). The overload taking a
  // config swaps the telemetry taps / guards — how the serving layer gives
  // every worker its own TraceSink, MetricsRegistry, FaultInjector, and
  // cancel flag. Returns nullptr for engines not built via make_engine.
  // NOTE: the parameterless clone shares the original's sink/metrics/
  // injector pointers; those objects are not thread-safe, so concurrent
  // clones must use the config overload with per-clone taps (or none).
  std::unique_ptr<Engine> clone() const;
  std::unique_ptr<Engine> clone(const EngineConfig& config) const;
  // Rebind: same recipe, DIFFERENT graph — how the serving layer moves a
  // worker's whole decorator stack (and its lazily built sibling workload
  // stacks) onto a freshly promoted snapshot generation. `g` must outlive
  // the clone.
  std::unique_ptr<Engine> clone(const graph::Csr& g,
                                const EngineConfig& config) const;

 protected:
  virtual BfsResult do_run(graph::vertex_t source) = 0;

  // Runs another engine's traversal WITHOUT its begin_run/end_run bracket —
  // how a decorator (bfs/resilient.hpp) drives its inner engine while the
  // outer wrapper owns the run bracket.
  static BfsResult run_inner(Engine& inner, graph::vertex_t source) {
    return inner.do_run(source);
  }

  obs::TraceSink* sink_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  // True when the wrapped system emits LevelEvents itself mid-run (it was
  // handed the sink through its options); the wrapper then skips its own
  // post-run emission to avoid duplicates.
  bool impl_emits_levels_ = false;

 private:
  friend std::unique_ptr<Engine> make_engine(const std::string& name,
                                             const graph::Csr& g,
                                             const EngineConfig& config);

  // Clone recipe stamped by make_engine: the spec name (including any
  // decorator prefixes), the graph, and the caller's config as passed —
  // never the internally mutated copies decorators keep.
  std::string spec_name_;
  const graph::Csr* spec_graph_ = nullptr;
  EngineConfig spec_config_;
  std::vector<LevelTrace> last_trace_;
};

using EngineFactory = std::unique_ptr<Engine> (*)(const graph::Csr&,
                                                  const EngineConfig&);

// Constructs an engine over `g` (which must outlive the engine) from a
// spec string in the bfs/spec.hpp grammar:
//
//   [guarded:][resilient:]<base>[/<program>][?key=value&...]
//
// Built-in bases: enterprise, multi-gpu, bl, atomic, beamer, cpu,
// cpu-parallel, b40c, gunrock, mapgraph, graphbig. `/<program>` runs a
// vertex program (bfs/program.hpp: sssp, cc, pagerank) on the base's
// machinery — valid on enterprise and multi-gpu (the simulated superstep
// runner) and on cpu (the independent host reference); params carry
// per-program knobs (`enterprise/sssp?delta=4`). A bare program name
// aliases the enterprise base (`sssp` == `enterprise/sssp`).
//
// `resilient:` wraps the core in the fault-tolerant decorator
// (bfs/resilient.hpp) configured by `config.resilience`; `guarded:` wraps
// in the deadline/budget decorator (bfs/guarded.hpp) configured by
// `config.guards`. The canonical stack is `guarded:resilient:<core>` —
// guards outermost, so a blown deadline is never retried as if it were a
// fault. The reverse order (`resilient:guarded:<core>`) is rejected
// (nullptr) by design, as are self-nested decorators
// (docs/ARCHITECTURE.md, "The engine decorator stack"). Returns nullptr
// for any spec that fails to parse (EngineSpec::parse carries the typed
// error) or names an unknown base/program or bad params.
std::unique_ptr<Engine> make_engine(const std::string& name,
                                    const graph::Csr& g,
                                    const EngineConfig& config = {});

// Registered base names, sorted. The `--system=` vocabulary of bfs_runner
// (each is additionally reachable decorated and, where supported, with a
// `/program` suffix). Program names are listed by program_names().
std::vector<std::string> engine_names();

// Extends the registry (e.g. an experiment registering a variant engine).
// Returns false when the name is already taken, empty, or contains one of
// the spec grammar's structural characters ":/?&=" (bfs/spec.hpp).
bool register_engine(const std::string& name, EngineFactory factory);

}  // namespace ent::bfs
