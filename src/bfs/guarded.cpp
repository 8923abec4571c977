#include "bfs/guarded.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bfs/program.hpp"
#include "bfs/spec.hpp"
#include "enterprise/status_array.hpp"
#include "gpusim/memory_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace ent::bfs {

namespace {

// Decorator-chain/base/program split of an inner-engine name. Inner names
// reaching the guard layer have already been accepted by make_engine, so a
// parse failure cannot happen; the fallback keeps old callers with ad-hoc
// names on the conservative path.
EngineSpec parse_spec(const std::string& name) {
  std::optional<EngineSpec> spec = EngineSpec::parse(name);
  if (spec) return *spec;
  EngineSpec raw;
  raw.base = name;
  return raw;
}

// Drivers with a cooperative check_level hook in their level loop; every
// other engine is validated post-run instead.
bool base_cooperative(const std::string& base) {
  return base == "enterprise" || base == "multi-gpu";
}

// Which BFS-era limits make sense for the spec's workload: plain BFS bounds
// both depth and frontier; programs declare their own shape
// (bfs/program.hpp, ProgramTraits).
ProgramTraits limit_traits(const EngineSpec& spec) {
  if (spec.has_program()) {
    if (const auto traits = program_traits(spec.program)) return *traits;
  }
  return ProgramTraits{};  // BFS defaults: both bounded
}

std::string fmt1(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::uint64_t GuardedEngine::admission_estimate(const std::string& engine_name,
                                                const graph::Csr& g,
                                                const EngineConfig& config,
                                                bool shrunk_queue) {
  const EngineSpec spec = parse_spec(engine_name);
  const std::string& base = spec.base;
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  const std::uint64_t csr = g.footprint_bytes();
  // Directed BFS keeps the in-edge CSR resident for bottom-up levels; a
  // program only keeps it when it relaxes in-edges (symmetric traits).
  std::uint64_t reverse = g.directed() ? csr : 0;
  std::uint64_t program_state = 0;
  if (spec.has_program()) {
    program_state = program_state_bytes(spec.program, g.num_vertices());
    const std::optional<ProgramTraits> traits = program_traits(spec.program);
    if (!(traits && traits->symmetric)) reverse = 0;
  }
  const std::uint64_t status = n * enterprise::kStatusBytes;
  if (base == "enterprise" || base == "multi-gpu") {
    const enterprise::EnterpriseOptions& opt =
        base == "multi-gpu" ? config.multi_gpu.per_device : config.enterprise;
    // The shrink-queue degradation books the frontier queue at one byte per
    // vertex instead of a full vertex id (paid for in simulated time by the
    // quartered scan width).
    const std::uint64_t queue =
        shrunk_queue ? n : n * sizeof(graph::vertex_t);
    const std::uint64_t hub =
        opt.hub_cache ? static_cast<std::uint64_t>(opt.hub_cache_capacity) *
                            sizeof(graph::vertex_t)
                      : 0;
    return csr + reverse + status + queue + hub + program_state;
  }
  if (base == "bl") return csr + reverse + status;
  if (base == "atomic" || base == "b40c" || base == "gunrock" ||
      base == "mapgraph" || base == "graphbig") {
    return csr + status + n * sizeof(graph::vertex_t);
  }
  return 0;  // host engines negotiate nothing
}

GuardedEngine::GuardedEngine(std::string inner_name, const graph::Csr& g,
                             const EngineConfig& config)
    : inner_name_(std::move(inner_name)),
      active_name_(inner_name_),
      graph_(&g),
      config_(config),
      limits_(config.guards) {
  sink_ = config.sink;
  metrics_ = config.metrics;
  // All-zero limits make the decorator a strict pass-through: no token is
  // attached, no admission runs, the inner engine behaves exactly as bare.
  if (limits_.any()) {
    negotiate_budget(g);
    token_ = std::make_unique<RunGuard>(limits_);
    config_.guard = token_.get();
  }
  cooperative_ = base_cooperative(parse_spec(active_name_).base);
  current_ = make_engine(active_name_, g, config_);
  if (current_ == nullptr) {
    throw std::invalid_argument("guarded: unknown inner engine '" +
                                inner_name_ + "'");
  }
  impl_emits_levels_ = current_->emits_level_events();
}

void GuardedEngine::negotiate_budget(const graph::Csr& g) {
  const std::uint64_t budget = limits_.memory_budget_bytes;
  std::uint64_t estimate =
      admission_estimate(active_name_, g, config_, shrunk_queue_);
  admitted_bytes_ = estimate;
  if (budget == 0) return;
  // The budget is negotiated against the simulator's working-set
  // accounting: the same MemoryModel the device prices Random accesses
  // with decides whether the estimate fits, clamping the grant to the
  // device's physical global memory.
  sim::MemoryModel accounting(config_.device);
  accounting.set_working_set(estimate);
  // Degradation ladder: each step sheds accounted working set and is paid
  // for in simulated time or traversal quality, never with an abort. The
  // host fallback estimates zero, so the loop always terminates.
  while (!accounting.fits(budget)) {
    EngineSpec active = parse_spec(active_name_);
    const std::string& base = active.base;
    const char* action = nullptr;
    if (base_cooperative(base) && (config_.enterprise.hub_cache ||
                                   config_.multi_gpu.per_device.hub_cache)) {
      config_.enterprise.hub_cache = false;
      config_.multi_gpu.per_device.hub_cache = false;
      action = "drop-hub-cache";
    } else if (base_cooperative(base) && !shrunk_queue_) {
      shrunk_queue_ = true;
      const auto quarter = [&](unsigned& threads) {
        threads = std::max(
            1u, enterprise::scan_launch_width(threads, config_.device) / 4);
      };
      quarter(config_.enterprise.scan_threads);
      quarter(config_.multi_gpu.per_device.scan_threads);
      action = "shrink-queue";
    } else if (active.has_program()) {
      // Program workloads skip the status-array rung — it only walks BFS —
      // and fall straight to the host reference with the same params.
      if (base == "cpu") break;  // already on the host floor
      active.base = "cpu";
      active_name_ = active.to_string();
      action = "fallback-host";
    } else if (base != "bl" && base != "cpu-parallel") {
      active.base = "bl";
      active_name_ = active.to_string();
      action = "fallback-engine";
    } else if (base != "cpu-parallel") {
      active.base = "cpu-parallel";
      active_name_ = active.to_string();
      action = "fallback-host";
    } else {
      break;  // already on the host floor
    }
    estimate = admission_estimate(active_name_, g, config_, shrunk_queue_);
    accounting.set_working_set(estimate);
    record_step(action, estimate);
  }
  admitted_bytes_ = estimate;
}

void GuardedEngine::record_step(const char* action, std::uint64_t estimate) {
  ++degrade_steps_;
  if (!degradation_.empty()) degradation_ += ',';
  degradation_ += action;
  emit_guard("memory", action,
             "estimate " + std::to_string(estimate) + "B of budget " +
                 std::to_string(limits_.memory_budget_bytes) + "B (" +
                 active_name_ + ")",
             -1, static_cast<double>(estimate),
             static_cast<double>(limits_.memory_budget_bytes));
}

void GuardedEngine::emit_guard(const char* guard, const char* action,
                               std::string detail, int level, double observed,
                               double limit) {
  if (sink_ == nullptr) return;
  obs::GuardEvent e;
  e.guard = guard;
  e.action = action;
  e.detail = std::move(detail);
  e.level = level;
  e.observed = observed;
  e.limit = limit;
  sink_->guard(e);
}

void GuardedEngine::publish() {
  session_stats_.merge(run_stats_);
  if (metrics_ == nullptr) return;
  // Guards that never fire leave the metrics registry untouched — the
  // never-tripping configuration must be indistinguishable from bare.
  if (run_stats_.trips == 0 && run_stats_.degraded_runs == 0) return;
  metrics_->counter("guard.trips").add(run_stats_.trips);
  if (!run_stats_.last_trip.empty()) {
    metrics_->counter("guard.trips." + run_stats_.last_trip).add(1);
  }
  metrics_->counter("guard.degrade_steps").add(run_stats_.degrade_steps);
  metrics_->counter("guard.degraded_runs").add(run_stats_.degraded_runs);
  metrics_->gauge("guard.admitted_bytes")
      .set(static_cast<double>(admitted_bytes_));
}

const sim::Device* GuardedEngine::device() const {
  return current_ != nullptr ? current_->device() : nullptr;
}

std::string GuardedEngine::options_summary() const {
  std::string s = "inner=" + active_name_;
  if (limits_.deadline_ms > 0.0) {
    s += " deadline=" + fmt1(limits_.deadline_ms) + "ms";
  }
  if (limits_.max_levels != 0) {
    s += " max_levels=" + std::to_string(limits_.max_levels);
  }
  if (limits_.max_frontier != 0) {
    s += " max_frontier=" + std::to_string(limits_.max_frontier);
  }
  if (limits_.memory_budget_bytes != 0) {
    s += " budget=" + std::to_string(limits_.memory_budget_bytes) + "B";
  }
  if (!limits_.any()) s += " limits=none";
  s += " degraded=" + (degradation_.empty() ? "none" : degradation_);
  return s;
}

BfsResult GuardedEngine::do_run(graph::vertex_t source) {
  if (token_ == nullptr) {
    // Strict pass-through: no limits were configured.
    BfsResult r = run_inner(*current_, source);
    impl_emits_levels_ = current_->emits_level_events();
    return r;
  }
  run_stats_ = {};
  run_stats_.degrade_steps = degrade_steps_;
  run_stats_.admitted_bytes = admitted_bytes_;
  run_stats_.degradation = degradation_;
  try {
    BfsResult r = run_inner(*current_, source);
    impl_emits_levels_ = current_->emits_level_events();
    if (!cooperative_) {
      // Engines without a cooperative hook are validated after the fact:
      // the run is complete, but a missed deadline or runaway traversal
      // still surfaces as the typed trip. The BFS-era level/frontier
      // limits are routed through the workload's traits — an
      // unbounded-depth fixpoint (pagerank) must not trip max_levels for
      // converging slowly, nor an all-vertices frontier (cc, pagerank)
      // trip max_frontier by design.
      const ProgramTraits traits = limit_traits(parse_spec(active_name_));
      token_->check_completed(
          r.time_ms, traits.bounded_depth ? r.level_trace.size() : 0);
      if (limits_.max_frontier != 0 && traits.bounded_frontier) {
        for (const LevelTrace& t : r.level_trace) {
          if (t.frontier_count > limits_.max_frontier) {
            throw GuardTripped(GuardKind::kFrontier,
                               static_cast<double>(t.frontier_count),
                               static_cast<double>(limits_.max_frontier),
                               t.level);
          }
        }
      }
    }
    if (degraded()) {
      r.degraded = true;
      if (r.completed_by.empty()) r.completed_by = active_name_;
      run_stats_.degraded_runs = 1;
    }
    publish();
    return r;
  } catch (const GuardTripped& trip) {
    ++run_stats_.trips;
    run_stats_.last_trip = to_string(trip.kind());
    emit_guard(to_string(trip.kind()), "trip", active_name_, trip.level(),
               trip.observed(), trip.limit());
    publish();
    throw;
  }
}

}  // namespace ent::bfs
