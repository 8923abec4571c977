// Concurrent BFS serving layer: a BfsService owns a SnapshotStore of
// immutable graph generations plus a pool of worker threads, each driving
// its OWN engine stack
// (`guarded:resilient:<inner>` — the canonical decorator order, guards
// outermost) with its own TraceSink, MetricsRegistry, FaultInjector, and
// cancel flag. Nothing mutable is shared between workers except the service
// queue, so the pool runs race-free over one graph (enforced under TSan by
// tests/serve_test.cpp).
//
// Admission policy is explicit and typed:
//   - two priority lanes (interactive drained first, batch shed first);
//   - bounded per-lane queues -> RejectReason::kQueueFull backpressure;
//   - optional shed threshold: when the total backlog crosses it, batch
//     arrivals are refused with kShedBatch while interactive still queues;
//   - draining services refuse everything with kDraining.
//
// Every ADMITTED request reaches exactly one typed terminal outcome —
// completed, timed-out (per-request deadline via RunGuard), failed
// (resilience exhausted / guard breaker / validation), or cancelled
// (cooperative cancel during drain or watchdog recycling) — and the service
// keeps the exact accounting invariant
//
//   admitted == completed + timed_out + failed + cancelled
//
// A watchdog thread detects stuck workers by heartbeat (every trace event a
// worker's engine emits bumps its beat), cancels them cooperatively, and
// recycles the worker: join, Engine::clone() a fresh stack from the same
// recipe, restart the thread. No thread is ever detached and shutdown joins
// everything, so a BfsService never leaks a running thread.
//
// Live graphs: apply_updates() ingests one validated UpdateBatch through
// the SnapshotStore (build off to the side -> verify -> atomic promote; see
// serve/store.hpp). In-flight requests finish on the generation they
// started on, workers rebind their engine stacks at request boundaries, and
// a rejected candidate leaves the old generation serving.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bfs/engine.hpp"
#include "bfs/spec.hpp"
#include "bfs/validate.hpp"
#include "graph/csr.hpp"
#include "graph/snapshot.hpp"
#include "gpusim/fault.hpp"
#include "obs/metrics.hpp"
#include "serve/overload.hpp"
#include "serve/request.hpp"
#include "serve/store.hpp"
#include "util/timer.hpp"

namespace ent::serve {

// FaultPlan scope for the snapshot build/verify/promote path, disjoint from
// the per-worker scopes (worker indices) so chaos schedules on the two paths
// draw from independent streams of the same base seed.
inline constexpr std::uint64_t kSnapshotFaultScope = 0x54a9ull;

struct ServiceOptions {
  // Inner engine spec (bfs/spec.hpp grammar, programs included:
  // "enterprise/sssp?delta=4"). Decorators are normalised to the canonical
  // stack: "enterprise" becomes "guarded:resilient:enterprise"; a spec
  // already carrying decorator prefixes is used as given. The spec's
  // program (empty = BFS) is the service's DEFAULT workload; requests may
  // override it per-arrival with ServeRequest::workload.
  std::string engine = "enterprise";
  unsigned workers = 4;
  // Bounded admission queue capacity, per lane.
  std::size_t queue_capacity = 64;
  // When nonzero: refuse batch arrivals (kShedBatch) once the TOTAL backlog
  // (both lanes) reaches this depth. 0 = never shed.
  std::size_t shed_batch_above = 0;
  // Simulated-time deadline applied to requests that do not carry their own
  // (RunGuard semantics, checked at level boundaries). 0 = no deadline.
  // With overload control enabled the SAME value additionally bounds the
  // end-to-end WALL-clock budget: enqueue feasibility checks, dequeue
  // expiry, and an in-run wall deadline (RunGuard::set_wall_deadline) all
  // derive from it, because a serving deadline the client experiences is a
  // wall deadline.
  double default_deadline_ms = 0.0;
  // Per-worker engine template. sink/metrics/fault_injector/guards.cancel
  // are OVERRIDDEN per worker; everything else is copied as-is.
  bfs::EngineConfig config;
  // Chaos mode: give worker i an injector running fault_plan.scoped_for(i).
  // Without chaos, fault_plan is ignored and no injector is attached.
  sim::FaultPlan fault_plan;
  bool chaos = false;
  // Re-check every completed run — validate_tree for BFS, the program's own
  // validate() (triangle inequality, label agreement, residual) for vertex
  //-program workloads; a failed check turns the outcome into kFailed
  // (detail "validate: ...") and counts in
  // ServiceStats::validation_failures.
  bool validate_trees = false;
  // Watchdog: recycle a worker whose heartbeat stalls for longer than this
  // wall-clock bound while busy. 0 disables the watchdog thread entirely.
  double watchdog_stall_ms = 0.0;
  double watchdog_poll_ms = 5.0;
  // Test seam: invoked on the worker thread right before each traversal,
  // with the worker's cancel flag. serve_test uses it to simulate a stuck
  // worker (block until cancelled) and prove watchdog recycling.
  std::function<void(const ServeRequest&, const std::atomic<bool>&)>
      before_run;
  // Canary defense against silent data corruption: when > 0, every worker
  // interleaves one seeded canary traversal (source chosen at construction,
  // answer precomputed on the host) per ~1/canary_rate served requests.
  // Canaries ALWAYS run the plain-BFS sibling of the configured stack and
  // are checked against host BFS truth, regardless of the default workload
  // — one fixed, cheap probe per slot rather than one per program. A
  // worker whose canary comes back with wrong levels is quarantined —
  // retired and recycled through Engine::clone() like a watchdog recycle —
  // because its engine state can no longer be trusted. 0 = no canaries.
  double canary_rate = 0.0;
  std::uint64_t canary_seed = 0x60a7ull;  // canary source selection
  unsigned canary_count = 4;              // precomputed (source, answer) set
  // --- live snapshots (serve/store.hpp) -----------------------------------
  // Explicit fault plan for the snapshot build/verify/promote path. When
  // unset and chaos is on, the snapshot path runs fault_plan minus its
  // device-lost rules (a "lost" snapshot pipeline would wedge every future
  // ingest, which is a different failure mode than the chaos soak tests),
  // scoped with kSnapshotFaultScope — independent of every worker's stream.
  std::optional<sim::FaultPlan> snapshot_fault_plan;
  // Test seam forwarded to the SnapshotStore: mutate a candidate between
  // build and verification (the rejection-matrix tests).
  std::function<void(graph::Csr&)> corrupt_candidate;
  // --- adaptive overload control (serve/overload.hpp) ---------------------
  // AIMD backlog limiter + deadline-feasibility shedding + brownout ladder.
  // Default-disabled: a service without overload.enabled builds no
  // controller, takes no new admission branches, and reports byte-identical
  // to a pre-overload build.
  OverloadOptions overload;
  // Receivers for the controller's transition events and overload.* series;
  // may be null. Only ever touched under the service mutex, so a plain
  // JsonTraceSink / MetricsRegistry is safe here.
  obs::TraceSink* overload_sink = nullptr;
  obs::MetricsRegistry* overload_metrics = nullptr;
};

// Per-worker counters, snapshotted into ServiceStats. Counters survive
// watchdog recycling (they describe the worker SLOT, not one engine
// incarnation).
struct WorkerStats {
  unsigned worker = 0;
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t faults_injected = 0;  // by this slot's injector
  std::uint64_t flips_injected = 0;   // silent bit flips by the injector
  std::uint64_t integrity_detections = 0;  // in-engine audit/scrub catches
  std::uint64_t retries = 0;          // resilient-stage transient retries
  std::uint64_t fallbacks = 0;        // resilient-stage cascade steps
  std::uint64_t recycles = 0;         // watchdog/quarantine rebuilds
  std::uint64_t canaries = 0;         // canary traversals run by this slot
  std::uint64_t quarantined = 0;      // canary failures (slot retired)
  // Fail-slow ladder activity (gpusim/straggler.hpp), read from the slot's
  // cumulative metrics registry so recycles never lose counts.
  std::uint64_t slow_faults = 0;      // slow/stall rules that first fired
  std::uint64_t slow_applications = 0;
  double slow_ms_injected = 0.0;
  std::uint64_t straggler_detections = 0;
  std::uint64_t speculations = 0;
  std::uint64_t speculations_won = 0;
  std::uint64_t speculations_lost = 0;
  double wasted_speculation_ms = 0.0;
  std::uint64_t rebalances = 0;
  std::uint64_t vertices_moved = 0;
  std::uint64_t demotions = 0;
};

// Per-lane, per-reason rejection counters (the aggregate rejected_* fields
// in ServiceStats predate the split and remain the cross-lane sums).
struct LaneRejectionStats {
  std::uint64_t queue_full = 0;
  std::uint64_t shed = 0;
  std::uint64_t draining = 0;
  std::uint64_t infeasible_deadline = 0;  // overload control only

  std::uint64_t total() const {
    return queue_full + shed + draining + infeasible_deadline;
  }
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_shed = 0;
  std::uint64_t rejected_draining = 0;
  LaneRejectionStats rejected_interactive;
  LaneRejectionStats rejected_batch;
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t validation_failures = 0;
  std::uint64_t workers_recycled = 0;
  // Canary/quarantine accounting (silent-corruption defense). Canaries are
  // service-internal traversals, never admitted requests, so they get their
  // own exact balance below rather than perturbing the request ledger.
  std::uint64_t canaries_run = 0;
  std::uint64_t canaries_passed = 0;
  std::uint64_t canaries_failed = 0;
  std::uint64_t workers_quarantined = 0;
  std::size_t max_queue_depth = 0;  // high-water mark, both lanes
  std::vector<double> queue_wait_ms;  // admitted requests, admission->dequeue
  std::vector<double> e2e_ms;         // admitted requests, admission->outcome
  std::vector<WorkerStats> workers;
  // Overload-controller snapshot; `enabled` false when no controller runs.
  OverloadStats overload;

  // The serving layer's central invariant: nothing admitted is ever lost,
  // and every canary reached a verdict.
  bool accounting_ok() const {
    return admitted == completed + timed_out + failed + cancelled &&
           canaries_run == canaries_passed + canaries_failed;
  }
};

enum class DrainMode {
  kGraceful,  // stop admitting, finish the backlog, then join
  kCancel,    // stop admitting, refuse the backlog (kCancelled), cancel
              // in-flight runs cooperatively, then join
};

class BfsService {
 public:
  // Builds the worker pool (threads start immediately) over `g`, which must
  // outlive the service and becomes snapshot generation 0. Throws
  // std::invalid_argument when the engine stack cannot be built.
  BfsService(const graph::Csr& g, ServiceOptions options);
  ~BfsService();  // shutdown(DrainMode::kCancel) if still running

  BfsService(const BfsService&) = delete;
  BfsService& operator=(const BfsService&) = delete;

  // Admission. The future is always eventually satisfied: immediately for
  // rejects, at the terminal outcome for admitted requests.
  std::future<ServeOutcome> submit(const ServeRequest& request);

  // Idempotent; the first call decides the mode. Joins the watchdog and
  // every worker before returning. NOTE kGraceful waits for the backlog —
  // with the watchdog disabled and a worker wedged in a non-cooperative
  // engine it waits for that run to finish (simulated engines always do).
  void shutdown(DrainMode mode = DrainMode::kGraceful);

  bool draining() const;
  std::size_t queue_depth() const;  // both lanes
  // Snapshot; callable mid-flight or after shutdown (stable then).
  ServiceStats stats() const;

  // The canonical stack name workers run (after normalisation).
  const std::string& engine_stack() const { return stack_name_; }

  // --- live snapshots ------------------------------------------------------
  // Builds, verifies, and atomically promotes a new snapshot generation from
  // one update batch. In-flight requests finish on the generation they
  // started on; workers adopt the new generation at request boundaries.
  // Throws SnapshotRejected on verification failure — the old generation
  // keeps serving, by construction unmodified. Returns the promoted
  // generation number. Callable mid-traffic from any thread.
  std::uint64_t apply_updates(const graph::UpdateBatch& batch);
  // Current serving snapshot (holders pin their generation).
  std::shared_ptr<const Snapshot> snapshot() const;
  // Generation / drain ledger and quarantine log.
  StoreStats snapshot_stats() const;

 private:
  struct Pending {
    ServeRequest request;
    std::promise<ServeOutcome> promise;
    double submitted_ms = 0.0;  // service clock at admission
    // log2 out-degree bucket of the source, precomputed at admission for
    // the overload controller's service-time model (0 when disabled).
    int degree_bucket = 0;
  };

  struct Worker;  // defined in service.cpp (owns thread + engine stack)

  void worker_main(Worker& w);
  ServeOutcome run_request(Worker& w, const Pending& p);
  // Moves the worker onto `snap` if it is a new generation: rebinds the
  // whole engine stack via Engine::clone(graph, config) and drops sibling
  // stacks (rebuilt lazily against the new graph). Only ever called on the
  // worker's own thread or after joining it.
  void adopt(Worker& w, std::shared_ptr<const Snapshot> snap);
  // Engine stack for `workload` on this worker: the primary stack for the
  // default workload, else a lazily built (and slot-cached) sibling with
  // the program swapped via EngineSpec::with_program. Returns nullptr for
  // unknown workload names, with the reason in *error.
  bfs::Engine* engine_for(Worker& w, const std::string& workload,
                          std::string* error);
  // Post-run validation routed by workload: validate_tree for BFS, the
  // program's validate() otherwise — always against the snapshot the
  // request ran on (its graph carries its own in-edge view).
  bfs::ValidationReport validate_result(const Snapshot& snap,
                                        const std::string& workload,
                                        const bfs::BfsResult& r) const;
  // Runs one canary traversal on the worker's own engine; false = the
  // answer was wrong, the slot is retired (quarantine) and the caller must
  // exit the worker loop so the recycler can rebuild it.
  bool run_canary(Worker& w);
  void build_worker(Worker& w);    // initial engine stack construction
  void recycle_worker(Worker& w);  // watchdog path: join + clone + restart
  void watchdog_main();
  void reject(Pending&& p, RejectReason reason, double retry_after_ms = 0.0);
  // The deadline a request actually serves under (its own, else the
  // service default); with overload control on this is ALSO the wall-clock
  // end-to-end budget.
  double effective_deadline_ms(const ServeRequest& request) const {
    return request.deadline_ms > 0.0 ? request.deadline_ms
                                     : options_.default_deadline_ms;
  }

  ServiceOptions options_;
  std::string stack_name_;
  bfs::EngineSpec stack_spec_;     // parsed stack_name_
  std::string default_workload_;   // stack program, or "bfs"
  std::uint64_t canary_every_ = 0;  // serve one canary per this many requests
  Timer clock_;
  // Snapshot-path fault injector (chaos or explicit plan); owned here so the
  // store can stay injector-agnostic about lifetimes.
  std::unique_ptr<sim::FaultInjector> snapshot_injector_;
  // Generations, verification, promotion, and the drain ledger. Derived
  // per-graph state (canary truths, digests; the in-edge view on the graph)
  // lives on each Snapshot, never on the service — a swap can't leave stale
  // derivations.
  std::unique_ptr<SnapshotStore> store_;
  // Adaptive overload controller; null unless options_.overload.enabled.
  // Every method is called under mutex_ — only its atomic suspend taps are
  // read lock-free (by the engines' audit/scrub gates).
  std::unique_ptr<OverloadController> overload_;

  mutable std::mutex mutex_;  // queues + stats + draining flag
  std::condition_variable cv_;
  std::deque<Pending> interactive_;
  std::deque<Pending> batch_;
  bool draining_ = false;
  DrainMode drain_mode_ = DrainMode::kGraceful;
  bool joined_ = false;
  std::mutex shutdown_mutex_;  // serialises concurrent shutdown() calls
  ServiceStats stats_;

  std::vector<std::unique_ptr<Worker>> workers_;

  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
};

// Deterministic chaos fault plan for soak runs: a seeded mix of
// probabilistic transient / ECC / comm-timeout rules plus a rare one-shot
// device-lost, every one recoverable by the resilient stage's cascade. The
// service scopes it per worker with FaultPlan::scoped_for.
sim::FaultPlan chaos_plan(std::uint64_t seed);

}  // namespace ent::serve
