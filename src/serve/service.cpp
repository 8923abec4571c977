#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "baselines/cpu_bfs.hpp"
#include "bfs/guard.hpp"
#include "bfs/guarded.hpp"
#include "bfs/program.hpp"
#include "bfs/resilient.hpp"
#include "bfs/validate.hpp"
#include "obs/trace_sink.hpp"
#include "util/random.hpp"

namespace ent::serve {

const char* to_string(Lane lane) {
  switch (lane) {
    case Lane::kInteractive: return "interactive";
    case Lane::kBatch: return "batch";
  }
  return "unknown";
}

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kShedBatch: return "shed-batch";
    case RejectReason::kDraining: return "draining";
    case RejectReason::kInfeasibleDeadline: return "infeasible-deadline";
  }
  return "unknown";
}

const char* to_string(OutcomeKind kind) {
  switch (kind) {
    case OutcomeKind::kCompleted: return "completed";
    case OutcomeKind::kRejected: return "rejected";
    case OutcomeKind::kTimedOut: return "timed-out";
    case OutcomeKind::kFailed: return "failed";
    case OutcomeKind::kCancelled: return "cancelled";
  }
  return "unknown";
}

namespace {

std::int64_t micros(const Timer& clock) {
  return static_cast<std::int64_t>(clock.seconds() * 1e6);
}

}  // namespace

// Every trace event a worker's engine emits (kernel launches, level
// rollups, faults, recoveries, guard decisions) bumps the worker's
// heartbeat, so the watchdog distinguishes "slow but alive" from "stuck".
// Named (non-anonymous) namespace on purpose: it is a member of
// BfsService::Worker and GCC's -Wsubobject-linkage fires on anonymous types
// there.
class HeartbeatSink final : public obs::TraceSink {
 public:
  HeartbeatSink(std::atomic<std::int64_t>* beat_us, const Timer* clock)
      : beat_us_(beat_us), clock_(clock) {}

  void begin_run(const std::string&, std::uint64_t) override { bump(); }
  void span(const obs::SpanEvent&) override { bump(); }
  void kernel(const obs::KernelEvent&) override { bump(); }
  void level(const obs::LevelEvent&) override { bump(); }
  void fault(const obs::FaultEvent&) override { bump(); }
  void recovery(const obs::RecoveryEvent&) override { bump(); }
  void guard(const obs::GuardEvent&) override { bump(); }
  void end_run(double) override { bump(); }

 private:
  void bump() { beat_us_->store(micros(*clock_), std::memory_order_release); }

  std::atomic<std::int64_t>* beat_us_;
  const Timer* clock_;
};

// One worker slot. The engine stack, sink, metrics, and injector belong to
// this slot alone and are only ever touched by the slot's current thread
// (or by the watchdog strictly after joining it), so workers share no
// mutable state. `stats` and the *_base counters are guarded by the
// service's mutex_.
struct BfsService::Worker {
  unsigned index = 0;
  std::thread thread;
  std::atomic<bool> cancel{false};   // cooperative-cancel flag (guards)
  std::atomic<bool> retire{false};   // exit after the current request
  std::atomic<bool> busy{false};     // mid-request (watchdog stall scope)
  std::atomic<bool> exited{false};   // thread function returned
  std::atomic<std::int64_t> beat_us{0};
  std::unique_ptr<HeartbeatSink> sink;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<sim::FaultInjector> injector;  // chaos mode only
  std::unique_ptr<bfs::Engine> engine;
  // Sibling stacks for non-default workloads (ServeRequest::workload), keyed
  // by canonical workload name and built lazily by engine_for on this slot's
  // thread — slot-local like `engine`, never shared.
  std::map<std::string, std::unique_ptr<bfs::Engine>> extra_engines;
  // Config the slot's stacks were built with (taps point at this slot), for
  // lazy sibling construction.
  bfs::EngineConfig config;
  WorkerStats stats;
  // Snapshot generation this slot's engine stacks are bound to. Touched only
  // by the slot's current thread (or the watchdog strictly after joining
  // it); the shared_ptr pins the generation's graph for as long as any
  // engine references it.
  std::shared_ptr<const Snapshot> snap;
  // Counter baselines folded in at recycle time, because injector->reset()
  // and a fresh engine clone both restart their session counters at zero.
  std::uint64_t faults_base = 0;
  std::uint64_t flips_base = 0;
  std::uint64_t retries_base = 0;
  std::uint64_t fallbacks_base = 0;
  // Rotates through the precomputed canary set; only the slot's current
  // thread touches it.
  std::uint64_t canary_cursor = 0;
};

BfsService::BfsService(const graph::Csr& g, ServiceOptions options)
    : options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  stack_name_ = options_.engine;
  if (stack_name_.rfind("guarded:", 0) != 0) {
    if (stack_name_.rfind("resilient:", 0) != 0) {
      stack_name_ = "resilient:" + stack_name_;
    }
    stack_name_ = "guarded:" + stack_name_;
  }
  {
    bfs::SpecError err;
    auto spec = bfs::EngineSpec::parse(stack_name_, &err);
    if (!spec) {
      throw std::invalid_argument("bfs-serve: bad engine spec '" +
                                  stack_name_ + "': " + err.message);
    }
    stack_spec_ = std::move(*spec);
  }
  default_workload_ =
      stack_spec_.has_program() ? stack_spec_.program : std::string("bfs");
  if (options_.canary_rate > 0.0 && g.num_vertices() > 0) {
    canary_every_ = static_cast<std::uint64_t>(std::llround(
        1.0 / std::min(1.0, options_.canary_rate)));
    if (canary_every_ == 0) canary_every_ = 1;
  }
  // Snapshot-path fault injector: explicit plan wins; chaos mode derives
  // one from the worker plan minus device-lost rules (a permanently "lost"
  // ingest pipeline is a different failure mode than the chaos soaks test).
  if (options_.snapshot_fault_plan.has_value()) {
    snapshot_injector_ = std::make_unique<sim::FaultInjector>(
        *options_.snapshot_fault_plan);
  } else if (options_.chaos) {
    sim::FaultPlan plan = options_.fault_plan;
    std::erase_if(plan.rules, [](const sim::FaultRule& r) {
      return r.type == sim::FaultType::kDeviceLost ||
             r.type == sim::FaultType::kCommPartyDrop;
    });
    snapshot_injector_ = std::make_unique<sim::FaultInjector>(
        plan.scoped_for(kSnapshotFaultScope));
  }
  // Generation 0: the caller's graph plus its per-snapshot derivations
  // (digests, canary truths).
  StoreOptions store_options;
  store_options.canary_count =
      canary_every_ != 0 ? std::max(1u, options_.canary_count) : 0;
  store_options.canary_seed = options_.canary_seed;
  store_options.injector = snapshot_injector_.get();
  store_options.corrupt_candidate = options_.corrupt_candidate;
  store_options.clock = &clock_;
  store_ = std::make_unique<SnapshotStore>(g, std::move(store_options));
  // Overload controller before the workers: build_worker wires its suspend
  // taps into every slot's IntegrityOptions, so it must already exist.
  if (options_.overload.enabled) {
    overload_ = std::make_unique<OverloadController>(
        options_.overload, options_.default_deadline_ms,
        options_.queue_capacity, options_.overload_sink,
        options_.overload_metrics);
  }
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    w->stats.worker = i;
    w->beat_us.store(micros(clock_), std::memory_order_relaxed);
    w->sink = std::make_unique<HeartbeatSink>(&w->beat_us, &clock_);
    w->metrics = std::make_unique<obs::MetricsRegistry>();
    if (options_.chaos) {
      w->injector = std::make_unique<sim::FaultInjector>(
          options_.fault_plan.scoped_for(i));
      w->injector->set_sink(w->sink.get());
      w->injector->set_metrics(w->metrics.get());
    }
    build_worker(*w);
    workers_.push_back(std::move(w));
  }
  // Threads start only after every stack built, so a throwing constructor
  // never leaves half a pool running.
  for (auto& w : workers_) {
    Worker* wp = w.get();
    wp->thread = std::thread([this, wp] { worker_main(*wp); });
  }
  // The watchdog doubles as the recycler for quarantined workers, so canary
  // mode needs it running even without a stall bound (stall checks are
  // skipped when watchdog_stall_ms is 0).
  if (options_.watchdog_stall_ms > 0.0 || canary_every_ != 0) {
    watchdog_ = std::thread([this] { watchdog_main(); });
  }
}

BfsService::~BfsService() { shutdown(DrainMode::kCancel); }

void BfsService::build_worker(Worker& w) {
  bfs::EngineConfig config = options_.config;
  config.sink = w.sink.get();
  config.metrics = w.metrics.get();
  config.fault_injector = w.injector.get();
  // The cancel flag makes GuardLimits::any() true, so the guarded stage
  // always attaches a RunGuard token — which is also how per-request
  // deadlines reach the driver (RunGuard::set_deadline_ms).
  config.guards.cancel = &w.cancel;
  if (config.guards.deadline_ms <= 0.0) {
    config.guards.deadline_ms = options_.default_deadline_ms;
  }
  // Brownout taps: the drivers sample these lock-free at run start, so a
  // ladder step sheds audit/scrub work at the next request boundary with no
  // engine rebuild. Null (no controller) keeps behaviour byte-identical.
  if (overload_ != nullptr) {
    config.integrity.suspend_audits = overload_->audit_suspend_tap();
    config.integrity.suspend_scrubs = overload_->scrub_suspend_tap();
  }
  w.snap = store_->current();
  w.engine = bfs::make_engine(stack_name_, *w.snap->graph, config);
  if (w.engine == nullptr) {
    throw std::invalid_argument("bfs-serve: cannot build engine stack '" +
                                stack_name_ + "'");
  }
  w.config = config;  // sibling stacks reuse the slot's taps
}

void BfsService::adopt(Worker& w, std::shared_ptr<const Snapshot> snap) {
  if (snap == nullptr || snap->generation == w.snap->generation) return;
  // Rebind the whole decorator stack onto the promoted generation's graph;
  // sibling workload stacks are dropped and rebuilt lazily against it. The
  // snapshot pointer is only swapped once the rebind succeeded so the slot
  // never pairs an engine with a graph it was not built over.
  std::unique_ptr<bfs::Engine> fresh = w.engine->clone(*snap->graph, w.config);
  if (fresh == nullptr) return;
  w.engine = std::move(fresh);
  w.extra_engines.clear();
  w.snap = std::move(snap);
}

bfs::Engine* BfsService::engine_for(Worker& w, const std::string& workload,
                                    std::string* error) {
  const std::string& canon = workload.empty() ? default_workload_ : workload;
  if (canon == default_workload_) return w.engine.get();
  const auto it = w.extra_engines.find(canon);
  if (it != w.extra_engines.end()) return it->second.get();
  if (canon != "bfs" && !bfs::is_program_name(canon)) {
    if (error != nullptr) *error = "unknown workload '" + canon + "'";
    return nullptr;
  }
  // Same decorator chain and base, program swapped; with_program drops the
  // default workload's params (they belong to the program they were written
  // for), so siblings run with program defaults.
  const bfs::EngineSpec spec = stack_spec_.with_program(canon);
  std::unique_ptr<bfs::Engine> sibling =
      bfs::make_engine(spec.to_string(), *w.snap->graph, w.config);
  if (sibling == nullptr) {
    if (error != nullptr) {
      *error = "cannot build stack '" + spec.to_string() + "' for workload '" +
               canon + "'";
    }
    return nullptr;
  }
  bfs::Engine* raw = sibling.get();
  w.extra_engines.emplace(canon, std::move(sibling));
  return raw;
}

bfs::ValidationReport BfsService::validate_result(
    const Snapshot& snap, const std::string& workload,
    const bfs::BfsResult& r) const {
  const std::string& canon = workload.empty() ? default_workload_ : workload;
  if (canon == "bfs") {
    return bfs::validate_tree(*snap.graph, snap.graph->in_edges(), r);
  }
  // Program params apply only when validating the default workload (sibling
  // stacks run with program defaults, so they validate with them too).
  bfs::ProgramParams params;
  if (canon == default_workload_) params.entries = stack_spec_.params;
  std::string error;
  const auto program = bfs::make_program(canon, *snap.graph, params, &error);
  if (program == nullptr) {
    bfs::ValidationReport v;
    v.ok = false;
    v.error = "cannot build validator program '" + canon + "': " + error;
    return v;
  }
  return program->validate(*snap.graph, r);
}

std::future<ServeOutcome> BfsService::submit(const ServeRequest& request) {
  Pending p;
  p.request = request;
  p.submitted_ms = clock_.millis();
  if (overload_ != nullptr) {
    const std::shared_ptr<const Snapshot> snap = store_->current();
    const graph::vertex_t n = snap->graph->num_vertices();
    p.degree_bucket = ServiceTimeModel::bucket_for_degree(
        request.source < n ? snap->graph->out_degree(request.source) : 0);
  }
  std::future<ServeOutcome> future = p.promise.get_future();
  bool admitted = false;
  RejectReason reason = RejectReason::kDraining;
  double retry_after_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    LaneRejectionStats& lane_stats = request.lane == Lane::kBatch
                                         ? stats_.rejected_batch
                                         : stats_.rejected_interactive;
    if (draining_) {
      reason = RejectReason::kDraining;
      ++stats_.rejected_draining;
      ++lane_stats.draining;
    } else {
      const std::size_t depth = interactive_.size() + batch_.size();
      std::deque<Pending>& lane_q =
          request.lane == Lane::kBatch ? batch_ : interactive_;
      // Admission ladder, cheapest verdict first: brownout batch closure,
      // static shed threshold, the AIMD dynamic backlog limit, static
      // per-lane capacity, then the deadline-feasibility model.
      const bool brownout_shed = request.lane == Lane::kBatch &&
                                 overload_ != nullptr &&
                                 overload_->batch_closed();
      OverloadController::Feasibility feasibility;
      if (overload_ != nullptr && !brownout_shed) {
        feasibility = overload_->assess(
            p.request.workload.empty() ? default_workload_
                                       : p.request.workload,
            p.degree_bucket, effective_deadline_ms(request), depth,
            options_.workers);
      }
      if (brownout_shed || (request.lane == Lane::kBatch &&
                            options_.shed_batch_above != 0 &&
                            depth >= options_.shed_batch_above)) {
        reason = RejectReason::kShedBatch;
        ++stats_.rejected_shed;
        ++lane_stats.shed;
      } else if (overload_ != nullptr && depth >= overload_->limit()) {
        // The dynamic limit caps TOTAL backlog; it reads as backpressure
        // (queue-full) to clients, just with an adaptive threshold.
        reason = RejectReason::kQueueFull;
        ++stats_.rejected_queue_full;
        ++lane_stats.queue_full;
      } else if (lane_q.size() >= options_.queue_capacity) {
        reason = RejectReason::kQueueFull;
        ++stats_.rejected_queue_full;
        ++lane_stats.queue_full;
      } else if (!feasibility.feasible) {
        reason = RejectReason::kInfeasibleDeadline;
        retry_after_ms = feasibility.retry_after_ms;
        ++lane_stats.infeasible_deadline;
        overload_->note_rejected_infeasible();
      } else {
        ++stats_.admitted;
        stats_.max_queue_depth = std::max(stats_.max_queue_depth, depth + 1);
        lane_q.push_back(std::move(p));
        admitted = true;
      }
    }
    if (!admitted) ++stats_.rejected;
  }
  if (admitted) {
    cv_.notify_one();
  } else {
    reject(std::move(p), reason, retry_after_ms);
  }
  return future;
}

void BfsService::reject(Pending&& p, RejectReason reason,
                        double retry_after_ms) {
  ServeOutcome out;
  out.kind = OutcomeKind::kRejected;
  out.reject_reason = reason;
  out.detail = to_string(reason);
  out.retry_after_ms = retry_after_ms;
  out.total_ms = clock_.millis() - p.submitted_ms;
  p.promise.set_value(std::move(out));
}

void BfsService::worker_main(Worker& w) {
  // A request's pooled loops (the engines' bottom-up levels and finalize,
  // validate_tree) run on the host pool's idle threads. While another
  // worker's loop holds the pool they run inline on this thread instead:
  // HostPool::for_each never waits for another caller.
  for (;;) {
    Pending p;
    bool have = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto wake = [&] {
        return w.retire.load(std::memory_order_acquire) || draining_ ||
               !interactive_.empty() || !batch_.empty() ||
               store_->current_generation() != w.snap->generation;
      };
      if (overload_ == nullptr) {
        cv_.wait(lock, wake);
      } else {
        // Bounded waits so an idle service still ticks the controller: a
        // drained storm must walk the brownout ladder back up even when no
        // further requests arrive to drive adjustment.
        const auto interval = std::chrono::duration<double, std::milli>(
            options_.overload.adjust_interval_ms > 0.0
                ? options_.overload.adjust_interval_ms
                : 25.0);
        while (!wake()) {
          cv_.wait_for(lock, interval);
          overload_->tick(clock_.millis());
        }
      }
      if (w.retire.load(std::memory_order_acquire)) break;
      if (!interactive_.empty() || !batch_.empty()) {
        std::deque<Pending>& q = !interactive_.empty() ? interactive_ : batch_;
        p = std::move(q.front());
        q.pop_front();
        have = true;
      } else if (draining_) {
        break;
      }
      if (have && overload_ != nullptr) {
        const double now_ms = clock_.millis();
        const double wait_ms = now_ms - p.submitted_ms;
        overload_->observe_wait(wait_ms, now_ms);
        overload_->tick(now_ms);
        // Dequeue-time feasibility: a request whose deadline already passed
        // in the queue, or that the service-time model says cannot finish in
        // the remaining budget, is resolved here without ever touching the
        // engine — the cheapest possible way to convert queue delay into
        // typed outcomes instead of wasted work.
        const double ed = effective_deadline_ms(p.request);
        if (ed > 0.0) {
          ServeOutcome doomed;
          bool is_doomed = false;
          if (wait_ms >= ed) {
            doomed.kind = OutcomeKind::kTimedOut;
            doomed.detail = "deadline expired in queue";
            overload_->note_expired_in_queue();
            is_doomed = true;
          } else {
            const std::string& workload = p.request.workload.empty()
                                              ? default_workload_
                                              : p.request.workload;
            const std::optional<double> predicted =
                overload_->predicted_service_ms(workload, p.degree_bucket);
            if (predicted.has_value() && wait_ms + *predicted > ed) {
              doomed.kind = OutcomeKind::kCancelled;
              doomed.detail = "cancelled at dequeue: predicted " +
                              std::to_string(*predicted) +
                              " ms exceeds remaining deadline budget";
              overload_->note_cancelled_infeasible();
              is_doomed = true;
            }
          }
          if (is_doomed) {
            doomed.worker = w.index;
            doomed.queue_wait_ms = wait_ms;
            doomed.total_ms = clock_.millis() - p.submitted_ms;
            stats_.queue_wait_ms.push_back(doomed.queue_wait_ms);
            stats_.e2e_ms.push_back(doomed.total_ms);
            ++w.stats.requests;
            if (doomed.kind == OutcomeKind::kTimedOut) {
              ++stats_.timed_out;
              ++w.stats.timed_out;
            } else {
              ++stats_.cancelled;
              ++w.stats.cancelled;
            }
            lock.unlock();
            p.promise.set_value(std::move(doomed));
            continue;
          }
        }
      }
    }
    if (!have) {
      // Woken by a promotion (or spuriously): adopt the new generation now
      // so an IDLE worker releases the retired snapshot promptly instead of
      // pinning its memory until the next request.
      adopt(w, store_->current());
      continue;
    }
    // Pin the generation this request runs on. The pin and the ledger
    // `started` count are one critical section inside the store, so a
    // promotion can never observe this generation as drained while the
    // request is about to start on it.
    const std::shared_ptr<const Snapshot> snap = store_->begin_request();
    adopt(w, snap);
    w.beat_us.store(micros(clock_), std::memory_order_release);
    w.busy.store(true, std::memory_order_release);
    const double dequeued_ms = clock_.millis();
    ServeOutcome outcome = run_request(w, p);
    w.busy.store(false, std::memory_order_release);
    store_->note_finished(snap->generation);
    outcome.worker = w.index;
    outcome.queue_wait_ms = dequeued_ms - p.submitted_ms;
    outcome.total_ms = clock_.millis() - p.submitted_ms;
    std::uint64_t served = 0;
    bool canary_ok = true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (overload_ != nullptr) {
        // Feed the service-time model from completions only: a timeout or
        // fault says nothing about how long a healthy run takes, and
        // training on truncated times would bias predictions optimistic.
        if (outcome.kind == OutcomeKind::kCompleted) {
          overload_->observe_service(p.request.workload.empty()
                                         ? default_workload_
                                         : p.request.workload,
                                     p.degree_bucket,
                                     clock_.millis() - dequeued_ms);
        }
        // brownout_level_ is guarded by mutex_, so sample the canary gate
        // here rather than in the unlocked interleave check below.
        canary_ok = !overload_->canaries_suspended();
      }
      stats_.queue_wait_ms.push_back(outcome.queue_wait_ms);
      stats_.e2e_ms.push_back(outcome.total_ms);
      served = ++w.stats.requests;
      switch (outcome.kind) {
        case OutcomeKind::kCompleted:
          ++stats_.completed;
          ++w.stats.completed;
          break;
        case OutcomeKind::kTimedOut:
          ++stats_.timed_out;
          ++w.stats.timed_out;
          break;
        case OutcomeKind::kCancelled:
          ++stats_.cancelled;
          ++w.stats.cancelled;
          break;
        case OutcomeKind::kFailed:
        case OutcomeKind::kRejected:  // run_request never returns kRejected
          ++stats_.failed;
          ++w.stats.failed;
          if (outcome.detail.rfind("validate:", 0) == 0) {
            ++stats_.validation_failures;
          }
          break;
      }
      if (w.injector != nullptr) {
        w.stats.faults_injected =
            w.faults_base + w.injector->faults_injected();
        w.stats.flips_injected =
            w.flips_base + w.injector->flips_injected();
        // The metrics registry belongs to the slot and is never reset, so
        // the detections counter is already cumulative across recycles.
        const auto& counters = w.metrics->counters();
        const auto it = counters.find("integrity.detections");
        if (it != counters.end()) {
          w.stats.integrity_detections = it->second.value();
        }
        // Fail-slow ladder activity, same cumulative-registry contract.
        const auto count_of = [&](const char* name) -> std::uint64_t {
          const auto cit = counters.find(name);
          return cit != counters.end() ? cit->second.value() : 0;
        };
        w.stats.slow_faults = count_of("fault.injected.slow") +
                              count_of("fault.injected.stall");
        w.stats.slow_applications = count_of("fault.slow_applications");
        w.stats.straggler_detections = count_of("straggler.detections");
        w.stats.speculations = count_of("straggler.speculations");
        w.stats.speculations_won = count_of("straggler.speculations_won");
        w.stats.speculations_lost = count_of("straggler.speculations_lost");
        w.stats.rebalances = count_of("straggler.rebalances");
        w.stats.vertices_moved = count_of("straggler.vertices_moved");
        w.stats.demotions = count_of("straggler.demotions");
        const auto& gauges = w.metrics->gauges();
        const auto git = gauges.find("straggler.wasted_spec_ms");
        if (git != gauges.end()) {
          w.stats.wasted_speculation_ms = git->second.value();
        }
        const auto sit = gauges.find("fault.slow_ms");
        if (sit != gauges.end()) {
          w.stats.slow_ms_injected = sit->second.value();
        }
      }
      const auto* guarded =
          dynamic_cast<const bfs::GuardedEngine*>(w.engine.get());
      const auto* resilient = dynamic_cast<const bfs::ResilientEngine*>(
          guarded != nullptr ? guarded->inner_engine() : w.engine.get());
      if (resilient != nullptr) {
        w.stats.retries = w.retries_base + resilient->session_stats().retries;
        w.stats.fallbacks =
            w.fallbacks_base + resilient->session_stats().fallbacks;
      }
    }
    // Outside the lock: a future continuation must never run under mutex_.
    p.promise.set_value(std::move(outcome));
    if (w.retire.load(std::memory_order_acquire)) break;
    // Interleave one canary traversal per canary_every_ served requests. A
    // wrong answer means this slot's engine produced silent corruption that
    // escaped its own detectors: exit the loop so the watchdog recycles the
    // quarantined slot with a fresh Engine::clone().
    if (canary_every_ != 0 && served % canary_every_ == 0 && canary_ok &&
        !w.cancel.load(std::memory_order_acquire)) {
      w.busy.store(true, std::memory_order_release);
      const bool healthy = run_canary(w);
      w.busy.store(false, std::memory_order_release);
      if (!healthy) break;
    }
  }
  w.exited.store(true, std::memory_order_release);
}

bool BfsService::run_canary(Worker& w) {
  // Canary truths live on the worker's snapshot, so a freshly adopted
  // generation is probed against answers computed on ITS graph — never a
  // stale pre-swap reference.
  const auto& canaries = w.snap->canaries;
  if (canaries.empty()) return true;
  const auto& [source, truth] = canaries[w.canary_cursor++ % canaries.size()];
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.canaries_run;
    ++w.stats.canaries;
  }
  w.metrics->counter("integrity.canaries.run").increment();
  bool ok = false;
  std::string detail;
  // Canaries probe the plain-BFS sibling of the stack regardless of the
  // default workload: the precomputed truth is host BFS levels.
  bfs::Engine* engine = engine_for(w, "bfs", &detail);
  if (engine == nullptr) {
    // Cannot even build the probe stack — treat like a wrong answer below.
    detail = "canary: " + detail;
  }
  auto* guarded = dynamic_cast<bfs::GuardedEngine*>(engine);
  bfs::RunGuard* token =
      guarded != nullptr ? guarded->guard_token() : nullptr;
  if (token != nullptr) {
    token->set_deadline_ms(options_.default_deadline_ms);
    // The token is reused across requests on this slot; a canary must not
    // inherit the previous request's absolute wall deadline.
    token->set_wall_deadline(nullptr, 0.0);
  }
  try {
    if (engine != nullptr) {
      const bfs::BfsResult result = engine->run(source);
      const bfs::ValidationReport v =
          bfs::validate_levels(result.levels, truth);
      ok = v.ok;
      detail = v.error;
    }
  } catch (const bfs::GuardTripped& e) {
    if (e.kind() == bfs::GuardKind::kCancelled) {
      // Drain or watchdog cancel mid-canary says nothing about corruption;
      // count a pass so the canary ledger still balances.
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.canaries_passed;
      return true;
    }
    detail = e.what();
  } catch (const std::exception& e) {
    // A canary that cannot even finish (resilience exhausted, escaped
    // fault) marks the slot just as unhealthy as a wrong answer.
    detail = e.what();
  }
  if (ok) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.canaries_passed;
    return true;
  }
  // Quarantine: the precomputed answer disagrees, so corruption slipped
  // past every in-engine detector. The slot is retired here and rebuilt by
  // the watchdog's recycle pass.
  w.metrics->counter("integrity.canaries.failed").increment();
  w.metrics->counter("integrity.quarantines").increment();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.canaries_failed;
    ++stats_.workers_quarantined;
    ++w.stats.quarantined;
  }
  w.retire.store(true, std::memory_order_release);
  return false;
}

ServeOutcome BfsService::run_request(Worker& w, const Pending& p) {
  const ServeRequest& request = p.request;
  ServeOutcome out;
  // Every engine asserts its source is a vertex of the graph, so a request
  // naming one outside this generation's graph fails here, typed.
  const graph::vertex_t n = w.snap->graph->num_vertices();
  if (request.source >= n) {
    out.kind = OutcomeKind::kFailed;
    out.detail = "source: vertex " + std::to_string(request.source) +
                 " out of range (" + std::to_string(n) + " vertices)";
    return out;
  }
  if (options_.before_run) options_.before_run(request, w.cancel);
  std::string workload_error;
  bfs::Engine* engine = engine_for(w, request.workload, &workload_error);
  if (engine == nullptr) {
    out.kind = OutcomeKind::kFailed;
    out.detail = "workload: " + workload_error;
    return out;
  }
  auto* guarded = dynamic_cast<bfs::GuardedEngine*>(engine);
  bfs::RunGuard* token =
      guarded != nullptr ? guarded->guard_token() : nullptr;
  if (token != nullptr) {
    token->set_deadline_ms(request.deadline_ms > 0.0
                               ? request.deadline_ms
                               : options_.default_deadline_ms);
    // Under overload control the deadline is end-to-end wall time from
    // submission: queue wait counts against the budget, so a run that
    // started late trips mid-traversal instead of burning a full budget on
    // an answer nobody is waiting for. The simulated-time deadline above
    // still applies unchanged.
    const double ed = effective_deadline_ms(request);
    if (overload_ != nullptr && ed > 0.0) {
      token->set_wall_deadline(&clock_, p.submitted_ms + ed);
    } else {
      token->set_wall_deadline(nullptr, 0.0);
    }
  }
  try {
    bfs::BfsResult result = engine->run(request.source);
    if (options_.validate_trees) {
      const bfs::ValidationReport v =
          validate_result(*w.snap, request.workload, result);
      if (!v.ok) {
        out.kind = OutcomeKind::kFailed;
        out.detail = "validate: " + v.error;
        return out;
      }
    }
    out.kind = OutcomeKind::kCompleted;
    out.result = std::move(result);
  } catch (const bfs::GuardTripped& e) {
    switch (e.kind()) {
      case bfs::GuardKind::kCancelled:
        out.kind = OutcomeKind::kCancelled;
        // The retire flag discriminates the two cancel sources: the
        // watchdog retires the worker it cancels, drain does not.
        out.detail = w.retire.load(std::memory_order_acquire)
                         ? "cancelled by watchdog (stalled worker)"
                         : "cancelled by drain";
        break;
      case bfs::GuardKind::kDeadline:
        out.kind = OutcomeKind::kTimedOut;
        out.detail = e.what();
        break;
      default:
        out.kind = OutcomeKind::kFailed;
        out.detail = std::string("guard: ") + e.what();
        break;
    }
  } catch (const bfs::ResilienceExhausted& e) {
    out.kind = OutcomeKind::kFailed;
    out.detail = std::string("resilience-exhausted: ") + e.what();
  } catch (const sim::SimFault& e) {
    out.kind = OutcomeKind::kFailed;
    out.detail = std::string("fault: ") + e.what();
  } catch (const sim::IntegrityFault& e) {
    // Detected silent corruption that the resilient stage could not recover
    // (or that fired with no resilient stage armed).
    out.kind = OutcomeKind::kFailed;
    out.detail = std::string("integrity: ") + e.what();
  } catch (const std::exception& e) {
    // Last-resort typing: nothing may escape the worker loop, or the
    // accounting invariant (and the thread) would be lost.
    out.kind = OutcomeKind::kFailed;
    out.detail = std::string("error: ") + e.what();
  }
  return out;
}

void BfsService::watchdog_main() {
  const auto poll = std::chrono::duration<double, std::milli>(
      options_.watchdog_poll_ms > 0.0 ? options_.watchdog_poll_ms : 5.0);
  const auto stall_us =
      static_cast<std::int64_t>(options_.watchdog_stall_ms * 1e3);
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, poll, [&] { return watchdog_stop_; });
    if (watchdog_stop_) break;
    lock.unlock();
    const std::int64_t now = micros(clock_);
    for (auto& wp : workers_) {
      Worker& w = *wp;
      if (w.exited.load(std::memory_order_acquire)) {
        recycle_worker(w);
        continue;
      }
      if (stall_us > 0 && w.busy.load(std::memory_order_acquire) &&
          !w.cancel.load(std::memory_order_acquire) &&
          now - w.beat_us.load(std::memory_order_acquire) > stall_us) {
        // Stuck worker: cancel cooperatively and retire it; the recycle
        // happens on a later poll once the thread has actually exited.
        w.retire.store(true, std::memory_order_release);
        w.cancel.store(true, std::memory_order_release);
      }
    }
    lock.lock();
  }
}

void BfsService::recycle_worker(Worker& w) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) return;  // shutdown joins the dead thread itself
  }
  if (w.thread.joinable()) w.thread.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    w.faults_base = w.stats.faults_injected;
    w.flips_base = w.stats.flips_injected;
    w.retries_base = w.stats.retries;
    w.fallbacks_base = w.stats.fallbacks;
    ++w.stats.recycles;
    ++stats_.workers_recycled;
  }
  if (w.injector != nullptr) w.injector->reset();
  // Clone rebuilds the whole decorator stack from the recipe make_engine
  // stamped — including this worker's sink/metrics/injector/cancel taps,
  // which live on the slot, not the engine incarnation — rebound onto the
  // CURRENT snapshot (a quarantined slot may have been wedged across
  // promotions). Sibling workload stacks are dropped wholesale (a
  // quarantined slot's state is not to be trusted) and rebuilt lazily.
  std::shared_ptr<const Snapshot> snap = store_->current();
  std::unique_ptr<bfs::Engine> fresh = w.engine->clone(*snap->graph, w.config);
  if (fresh != nullptr) {
    w.engine = std::move(fresh);
    w.snap = std::move(snap);
  }
  w.extra_engines.clear();
  w.cancel.store(false, std::memory_order_release);
  w.retire.store(false, std::memory_order_release);
  w.busy.store(false, std::memory_order_release);
  w.beat_us.store(micros(clock_), std::memory_order_release);
  w.exited.store(false, std::memory_order_release);
  Worker* wp = &w;
  w.thread = std::thread([this, wp] { worker_main(*wp); });
}

void BfsService::shutdown(DrainMode mode) {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  std::vector<Pending> dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (joined_) return;
    if (!draining_) {
      draining_ = true;
      drain_mode_ = mode;
    }
    if (drain_mode_ == DrainMode::kCancel) {
      const double now_ms = clock_.millis();
      for (std::deque<Pending>* q : {&interactive_, &batch_}) {
        while (!q->empty()) {
          Pending p = std::move(q->front());
          q->pop_front();
          ++stats_.cancelled;
          stats_.queue_wait_ms.push_back(now_ms - p.submitted_ms);
          stats_.e2e_ms.push_back(now_ms - p.submitted_ms);
          dropped.push_back(std::move(p));
        }
      }
      for (auto& w : workers_) {
        w->cancel.store(true, std::memory_order_release);
      }
    }
  }
  cv_.notify_all();
  for (Pending& p : dropped) {
    ServeOutcome out;
    out.kind = OutcomeKind::kCancelled;
    out.detail = "cancelled by drain (queued)";
    out.total_ms = clock_.millis() - p.submitted_ms;
    out.queue_wait_ms = out.total_ms;
    p.promise.set_value(std::move(out));
  }
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // Backlog stranded by early-retired workers (all slots dead before the
  // drain finished): account it as cancelled so nothing is ever lost.
  std::vector<Pending> stranded;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const double now_ms = clock_.millis();
    for (std::deque<Pending>* q : {&interactive_, &batch_}) {
      while (!q->empty()) {
        Pending p = std::move(q->front());
        q->pop_front();
        ++stats_.cancelled;
        stats_.queue_wait_ms.push_back(now_ms - p.submitted_ms);
        stats_.e2e_ms.push_back(now_ms - p.submitted_ms);
        stranded.push_back(std::move(p));
      }
    }
    joined_ = true;
  }
  for (Pending& p : stranded) {
    ServeOutcome out;
    out.kind = OutcomeKind::kCancelled;
    out.detail = "cancelled by drain (no workers left)";
    out.total_ms = clock_.millis() - p.submitted_ms;
    out.queue_wait_ms = out.total_ms;
    p.promise.set_value(std::move(out));
  }
}

std::uint64_t BfsService::apply_updates(const graph::UpdateBatch& batch) {
  const std::shared_ptr<const Snapshot> snap = store_->ingest(batch);
  // Wake every worker: idle slots adopt immediately (releasing the retired
  // generation), busy ones at their next request boundary.
  cv_.notify_all();
  return snap->generation;
}

std::shared_ptr<const Snapshot> BfsService::snapshot() const {
  return store_->current();
}

StoreStats BfsService::snapshot_stats() const { return store_->stats(); }

bool BfsService::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

std::size_t BfsService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return interactive_.size() + batch_.size();
}

ServiceStats BfsService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats s = stats_;
  if (overload_ != nullptr) s.overload = overload_->stats();
  s.workers.clear();
  s.workers.reserve(workers_.size());
  for (const auto& w : workers_) s.workers.push_back(w->stats);
  return s;
}

sim::FaultPlan chaos_plan(std::uint64_t seed) {
  SplitMix64 rng(mix64(seed ^ 0xc4a05ull));
  sim::FaultPlan plan;
  plan.seed = seed;
  const auto prob_rule = [&](sim::FaultType type, double lo, double hi) {
    sim::FaultRule rule;
    rule.type = type;
    rule.probability = lo + (hi - lo) * rng.next_double();
    rule.max_fires = 0;  // keeps firing; the draw gates each launch
    plan.rules.push_back(rule);
  };
  // Recoverable mix: transient aborts retry, ECC replays from checkpoint,
  // comm timeouts retry. Probabilities are per kernel launch, so even a few
  // percent yields faults every traversal or two.
  prob_rule(sim::FaultType::kTransientKernelAbort, 0.005, 0.03);
  prob_rule(sim::FaultType::kEccMemoryError, 0.002, 0.01);
  prob_rule(sim::FaultType::kCommTimeout, 0.002, 0.01);
  // Occasionally lose a device outright, exercising the fallback cascade.
  if (rng.next_double() < 0.25) {
    sim::FaultRule rule;
    rule.type = sim::FaultType::kDeviceLost;
    rule.probability = 0.002;
    rule.max_fires = 1;
    plan.rules.push_back(rule);
  }
  return plan;
}

}  // namespace ent::serve
