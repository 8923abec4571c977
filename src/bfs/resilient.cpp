#include "bfs/resilient.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "bfs/program.hpp"
#include "bfs/spec.hpp"
#include "bfs/validate.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/multi_gpu.hpp"
#include "gpusim/straggler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace ent::bfs {

namespace {

// Base/program split of a stage name (bfs/spec.hpp); stage names reaching
// this layer were accepted by make_engine, so parsing cannot fail — the
// fallback keeps ad-hoc names on the conservative path.
EngineSpec parse_spec(const std::string& name) {
  std::optional<EngineSpec> spec = EngineSpec::parse(name);
  if (spec) return *spec;
  EngineSpec raw;
  raw.base = name;
  return raw;
}

// Stages whose drivers understand bfs/checkpoint.hpp; everything else —
// including the program runner, whose supersteps do not checkpoint —
// restarts from the source on retry.
bool stage_checkpoints(const EngineSpec& spec) {
  return !spec.has_program() &&
         (spec.base == "enterprise" || spec.base == "multi-gpu");
}

// Re-checks a fault-recovered result: the program's own validate() for
// program workloads (tree invariants do not apply to distances, labels, or
// ranks), Graph500-style tree validation for BFS.
ValidationReport validate_recovered(const EngineSpec& spec,
                                    const graph::Csr& g, const BfsResult& r) {
  if (!spec.has_program()) return validate_tree(g, g.in_edges(), r);
  const std::unique_ptr<VertexProgram> program =
      make_program(spec.program, g, ProgramParams{spec.params});
  if (program == nullptr) {
    ValidationReport report;
    report.ok = false;
    report.error = "unknown program '" + spec.program + "'";
    return report;
  }
  return program->validate(g, r);
}

}  // namespace

ResilientEngine::ResilientEngine(std::string inner_name, const graph::Csr& g,
                                 const EngineConfig& config)
    : inner_name_(std::move(inner_name)),
      graph_(&g),
      config_(config),
      injector_(config.fault_injector) {
  sink_ = config.sink;
  metrics_ = config.metrics;
  // Normalize the multi-GPU physical-id map in our copy so blacklisting
  // always edits an explicit list.
  if (config_.multi_gpu.device_ids.empty()) {
    config_.multi_gpu.device_ids.resize(config_.multi_gpu.num_gpus);
    for (unsigned p = 0; p < config_.multi_gpu.num_gpus; ++p) {
      config_.multi_gpu.device_ids[p] = p;
    }
  }
  // Fresh ordinals for fallback engines start past every id in use, so a
  // lost device's id is never handed to a replacement.
  next_ordinal_ = config_.device_ordinal + 1;
  for (const unsigned id : config_.multi_gpu.device_ids) {
    next_ordinal_ = std::max(next_ordinal_, id + 1);
  }
  // Replay support never launches kernels, but attach it only when there
  // are faults to recover from — the no-injector configuration must be a
  // strict pass-through.
  if (injector_ != nullptr && config_.resilience.use_checkpoints) {
    config_.checkpointer = &store_;
  }
  // Checksum verdicts from the store land in the shared registry (only on
  // an actual mismatch, so the clean path creates no counters).
  store_.set_metrics(metrics_);
  current_name_ = inner_name_;
  current_ = make_engine(inner_name_, g, config_);
  if (current_ == nullptr) {
    throw std::invalid_argument("resilient: unknown inner engine '" +
                                inner_name_ + "'");
  }
  impl_emits_levels_ = current_->emits_level_events();
}

const sim::Device* ResilientEngine::device() const {
  return current_ != nullptr ? current_->device() : nullptr;
}

std::string ResilientEngine::options_summary() const {
  const ResilienceOptions& o = config_.resilience;
  std::string s = "inner=" + inner_name_ +
                  " max_retries=" + std::to_string(o.max_retries) +
                  " checkpoints=" + (o.use_checkpoints ? "on" : "off") +
                  " fallbacks=";
  const std::vector<std::string> stages = cascade();
  if (stages.size() == 1) {
    s += "none";
  } else {
    for (std::size_t i = 1; i < stages.size(); ++i) {
      if (i > 1) s += ',';
      s += stages[i];
    }
  }
  s += injector_ != nullptr ? " faults=armed" : " faults=off";
  return s;
}

std::vector<std::string> ResilientEngine::cascade() const {
  std::vector<std::string> stages{inner_name_};
  const EngineSpec primary = parse_spec(inner_name_);
  std::vector<std::string> defaults;
  if (primary.has_program()) {
    // A BFS engine cannot finish a program workload; the only floor that
    // computes the same answer is the host reference with the same params.
    EngineSpec host = primary;
    host.decorators.clear();
    host.base = "cpu";
    defaults.push_back(host.to_string());
  } else {
    defaults = {"bl", "cpu-parallel"};
  }
  const std::vector<std::string>& fallbacks =
      config_.resilience.fallbacks.empty() ? defaults
                                           : config_.resilience.fallbacks;
  for (const std::string& name : fallbacks) {
    if (name.find(':') != std::string::npos) continue;  // no nesting
    if (std::find(stages.begin(), stages.end(), name) != stages.end()) {
      continue;
    }
    stages.push_back(name);
  }
  return stages;
}

std::unique_ptr<Engine> ResilientEngine::build_stage(
    const std::string& engine_name) {
  if (parse_spec(engine_name).base != "multi-gpu") {
    config_.device_ordinal = next_ordinal_++;
  }
  return make_engine(engine_name, *graph_, config_);
}

void ResilientEngine::emit_recovery(const char* action, std::string detail,
                                    int attempt, double backoff_ms) {
  if (sink_ == nullptr) return;
  obs::RecoveryEvent e;
  e.action = action;
  e.detail = std::move(detail);
  e.attempt = attempt;
  e.backoff_ms = backoff_ms;
  sink_->recovery(e);
}

void ResilientEngine::publish(const BfsResult* result) {
  (void)result;
  session_stats_.merge(run_stats_);
  if (metrics_ == nullptr || injector_ == nullptr) return;
  metrics_->counter("resilience.faults_seen").add(run_stats_.faults_seen);
  metrics_->counter("resilience.retries").add(run_stats_.retries);
  metrics_->counter("resilience.replays").add(run_stats_.replays);
  metrics_->counter("resilience.fallbacks").add(run_stats_.fallbacks);
  metrics_->counter("resilience.devices_blacklisted")
      .add(run_stats_.devices_blacklisted);
  metrics_->counter("resilience.repartitions").add(run_stats_.repartitions);
  metrics_->counter("resilience.degraded_runs").add(run_stats_.degraded_runs);
  metrics_->counter("resilience.validation_failures")
      .add(run_stats_.validation_failures);
  metrics_->counter("resilience.integrity_faults")
      .add(run_stats_.integrity_faults);
  metrics_->gauge("resilience.backoff_ms").set(session_stats_.backoff_ms);
}

BfsResult ResilientEngine::do_run(graph::vertex_t source) {
  run_stats_ = {};
  if (injector_ == nullptr) {
    // Strict pass-through: no checkpointer was attached, no try/catch on
    // the hot path matters (faults cannot fire), identical kernel timeline.
    BfsResult r = run_inner(*current_, source);
    impl_emits_levels_ = current_->emits_level_events();
    return r;
  }

  const ResilienceOptions& opts = config_.resilience;
  const std::vector<std::string> stages = cascade();
  store_.clear();
  // Simulated time burnt by failed attempts and backoff, added to the
  // surviving attempt's clock so recovered runs are honestly slower.
  double carried_ms = 0.0;
  int attempts_total = 0;
  std::string last_error = "no attempt made";

  // A run starts on the stage an earlier run fell back to: its engine is
  // the one current_ holds, and a lost device stays lost.
  const std::size_t first_stage = static_cast<std::size_t>(
      std::find(stages.begin(), stages.end(), current_name_) - stages.begin());
  for (std::size_t stage = first_stage; stage < stages.size(); ++stage) {
    const std::string& stage_name = stages[stage];
    const EngineSpec stage_spec = parse_spec(stage_name);
    if (stage > first_stage) {
      std::unique_ptr<Engine> next = build_stage(stage_name);
      if (next == nullptr) continue;  // unknown fallback name
      current_ = std::move(next);
      current_name_ = stage_name;
      ++run_stats_.fallbacks;
      emit_recovery("fallback", stage_name, 0, 0.0);
    }
    const bool checkpoints =
        opts.use_checkpoints && stage_checkpoints(stage_spec);
    int attempt = 0;  // retry budget consumed on this stage
    // Books one retry of this stage after a recoverable fault: the backoff,
    // then a replay from the last intact checkpoint where the stage keeps
    // one. False once the stage's retry budget is spent.
    const auto retry = [&] {
      if (attempt >= opts.max_retries) return false;
      ++attempt;
      ++run_stats_.retries;
      const double backoff =
          std::min(opts.backoff_base_ms * std::ldexp(1.0, attempt - 1),
                   opts.backoff_cap_ms);
      run_stats_.backoff_ms += backoff;
      carried_ms += backoff;
      const LevelCheckpoint* cp = nullptr;
      try {
        cp = store_.restore();
      } catch (const sim::IntegrityFault&) {
        // The snapshot itself is corrupt; restart this stage from the
        // source rather than replaying garbage.
        ++run_stats_.integrity_faults;
        store_.clear();
      }
      const bool replay = checkpoints && cp != nullptr && cp->source == source;
      if (replay) ++run_stats_.replays;
      emit_recovery(
          replay ? "replay-checkpoint" : "retry",
          replay ? "level " + std::to_string(cp->next_level) : stage_name,
          attempt, backoff);
      return true;
    };
    while (true) {
      ++attempts_total;
      try {
        BfsResult r = run_inner(*current_, source);
        if (opts.validate && run_stats_.faults_seen > 0) {
          const ValidationReport check =
              validate_recovered(stage_spec, *graph_, r);
          if (!check.ok) {
            ++run_stats_.validation_failures;
            last_error = "validation failed: " + check.error;
            emit_recovery("validate-failed", check.error, attempt, 0.0);
            // A bad recovered tree consumes retry budget like a transient
            // fault; replaying the (possibly tainted) checkpoint would be
            // circular, so this stage restarts from scratch.
            store_.clear();
            if (attempt >= opts.max_retries) break;
            ++attempt;
            ++run_stats_.retries;
            continue;
          }
        }
        r.attempts = attempts_total;
        r.faults_survived = static_cast<int>(run_stats_.faults_seen);
        r.completed_by = stage_name;
        if (stage != 0) {
          r.degraded = true;
          ++run_stats_.degraded_runs;
        }
        r.time_ms += carried_ms;
        impl_emits_levels_ = current_->emits_level_events();
        publish(&r);
        return r;
      } catch (const sim::SimFault& fault) {
        ++run_stats_.faults_seen;
        carried_ms += fault.at_ms();
        last_error = fault.what();
        if (!fault.transient()) {
          // The interconnect fabric split: blacklist every unreachable
          // device at once (the surviving component keeps running) and
          // reuse the shrink-and-repartition machinery below.
          if (const auto* split =
                  dynamic_cast<const sim::ClusterPartitioned*>(&fault);
              split != nullptr && stage_spec.base == "multi-gpu") {
            std::vector<unsigned>& ids = config_.multi_gpu.device_ids;
            std::size_t removed = 0;
            for (const unsigned dead : split->unreachable()) {
              const auto dead_it = std::find(ids.begin(), ids.end(), dead);
              if (dead_it != ids.end() && ids.size() > 1) {
                ids.erase(dead_it);
                ++removed;
                ++run_stats_.devices_blacklisted;
                emit_recovery("blacklist",
                              "device " + std::to_string(dead) +
                                  " (partitioned)",
                              attempt, 0.0);
              }
            }
            if (removed > 0) {
              config_.multi_gpu.num_gpus = static_cast<unsigned>(ids.size());
              std::unique_ptr<Engine> rebuilt = build_stage(stage_name);
              if (rebuilt == nullptr) break;
              current_ = std::move(rebuilt);
              ++run_stats_.repartitions;
              emit_recovery("repartition",
                            std::to_string(ids.size()) + " gpus", attempt,
                            0.0);
              continue;  // bounded by device count, not the retry budget
            }
            break;
          }
          // Permanent loss of fault.device(). A multi-GPU system shrinks
          // around the hole and resumes from the checkpoint; a
          // single-device stage is dead and the cascade moves on.
          std::vector<unsigned>& ids = config_.multi_gpu.device_ids;
          const auto it = std::find(ids.begin(), ids.end(), fault.device());
          if (stage_spec.base == "multi-gpu" && it != ids.end() &&
              ids.size() > 1) {
            ids.erase(it);
            config_.multi_gpu.num_gpus = static_cast<unsigned>(ids.size());
            ++run_stats_.devices_blacklisted;
            // A fail-slow demotion is a healthy-but-slow device the
            // straggler ladder gave up on; name the cause so operators can
            // tell it apart from a crashed GPU in the recovery log.
            std::string why = "device " + std::to_string(fault.device());
            if (const auto* slow =
                    dynamic_cast<const sim::FailSlowDemoted*>(&fault)) {
              why += " (fail-slow, " + std::to_string(slow->slowdown()) + "x)";
            }
            emit_recovery("blacklist", std::move(why), attempt, 0.0);
            std::unique_ptr<Engine> rebuilt = build_stage(stage_name);
            if (rebuilt == nullptr) break;
            current_ = std::move(rebuilt);
            ++run_stats_.repartitions;
            emit_recovery("repartition",
                          std::to_string(ids.size()) + " gpus", attempt,
                          0.0);
            continue;  // bounded by device count, not the retry budget
          }
          break;
        }
        if (!retry()) break;  // budget exhausted
      } catch (const sim::IntegrityFault& fault) {
        // Detected silent corruption (failed audit, digest mismatch, or a
        // bad checkpoint checksum). Recover like a transient fault: the
        // detectors already counted the detection, so the report keeps it
        // even when the replay below succeeds.
        ++run_stats_.faults_seen;
        ++run_stats_.integrity_faults;
        carried_ms += fault.at_ms();
        last_error = fault.what();
        emit_recovery("integrity-fault", fault.what(), attempt, 0.0);
        if (fault.kind() == sim::IntegrityKind::kCheckpoint) {
          // The stored snapshot is the corrupt artifact; replaying it would
          // throw the same fault forever.
          store_.clear();
        }
        if (!retry()) break;
      }
    }
  }

  publish(nullptr);
  throw ResilienceExhausted(
      "resilient:" + inner_name_ +
          ": every recovery path exhausted for source " +
          std::to_string(source) + " (last failure: " + last_error + ")",
      run_stats_);
}

}  // namespace ent::bfs
