#include "obs/run_report.hpp"

#include <cmath>
#include <type_traits>
#include <utility>
#include <variant>

namespace ent::obs {

namespace {

using enum Json::Type;

// How report_diff compares a field.
enum class Diff {
  kNone,    // not compared
  kInfo,    // printed, never a regression
  kHigher,  // higher is better, beyond the ratio tolerance
  kLower,   // lower is better, beyond the ratio tolerance
  // Lower is better, and a move off a zero baseline is a regression even
  // though no ratio is computable (0 retries -> 3 retries is real news).
  kOffZero,
};

// One JSON key of a report object: the member that holds it and how
// report_diff compares it. An object's table is its one schema: to_json,
// validate_report, from_json and diff_reports all walk it in table order,
// which is the order of the keys in the JSON.
template <typename T>
struct Field {
  const char* key;
  std::variant<std::uint64_t T::*, std::uint32_t T::*, int T::*, double T::*,
               bool T::*, std::string T::*>
      member;
  Diff diff = Diff::kNone;
  // Strings only: omitted when empty and not required when reading.
  bool optional = false;
};

constexpr bool kOptional = true;

// --- tables ------------------------------------------------------------------

// Top-level keys before and after the graph object.
constexpr Field<RunReport> kReportHead[] = {
    {"system", &RunReport::system},
    // Additive: BFS reports omit the key and stay byte-identical to the
    // pre-program schema.
    {"program", &RunReport::program, Diff::kNone, kOptional},
    {"device", &RunReport::device},
    {"options", &RunReport::options_summary},
};
constexpr Field<RunReport> kReportTail[] = {
    {"seed", &RunReport::seed},
    {"requested_sources", &RunReport::requested_sources},
};

// graph.vertices and graph.edges are diffed by hand with the summary rows.
constexpr Field<GraphMeta> kGraph[] = {
    {"name", &GraphMeta::name},
    {"vertices", &GraphMeta::vertices},
    {"edges", &GraphMeta::edges},
    {"directed", &GraphMeta::directed},
};

using Summary = bfs::RunSummary;
constexpr Field<Summary> kSummary[] = {
    {"mean_teps", &Summary::mean_teps},
    {"harmonic_teps", &Summary::harmonic_teps},
    {"mean_time_ms", &Summary::mean_time_ms},
    {"mean_depth", &Summary::mean_depth},
};
constexpr Field<Summary> kTimePercentiles[] = {
    {"min", &Summary::min_time_ms},
    {"p50", &Summary::p50_time_ms},
    {"p95", &Summary::p95_time_ms},
    {"max", &Summary::max_time_ms},
};
constexpr Field<Summary> kTepsPercentiles[] = {
    {"min", &Summary::min_teps},
    {"p50", &Summary::p50_teps},
    {"p95", &Summary::p95_teps},
    {"max", &Summary::max_teps},
};

// runs[]; the derived teps and the recovery fields follow by hand.
using Run = bfs::BfsResult;
constexpr Field<Run> kRun[] = {
    {"source", &Run::source},
    {"visited", &Run::vertices_visited},
    {"depth", &Run::depth},
    {"edges_traversed", &Run::edges_traversed},
    {"time_ms", &Run::time_ms},
};

// levels[], split where the `direction` enum sits.
using Level = bfs::LevelTrace;
constexpr Field<Level> kLevelHead[] = {
    {"level", &Level::level},
};
constexpr Field<Level> kLevelTail[] = {
    {"frontier", &Level::frontier_count},
    {"edges_inspected", &Level::edges_inspected},
    {"queue_gen_ms", &Level::queue_gen_ms},
    {"expand_ms", &Level::expand_ms},
    {"comm_ms", &Level::comm_ms},
    {"total_ms", &Level::total_ms},
    {"gamma", &Level::gamma},
    {"alpha", &Level::alpha},
};
constexpr Field<bfs::KernelTime> kKernel[] = {
    {"name", &bfs::KernelTime::name},
    {"time_ms", &bfs::KernelTime::time_ms},
};

using Counters = sim::HardwareCounters;
constexpr Field<Counters> kCounters[] = {
    {"gld_transactions", &Counters::gld_transactions},
    {"gst_transactions", &Counters::gst_transactions},
    {"ldst_fu_utilization", &Counters::ldst_fu_utilization},
    {"stall_data_request", &Counters::stall_data_request},
    {"ipc", &Counters::ipc},
    {"power_w", &Counters::power_w},
    {"sm_occupancy", &Counters::sm_occupancy},
    {"dram_bandwidth_gbs", &Counters::dram_bandwidth_gbs},
};

// Resilience counters are lower-is-better with the off-zero rule; injected
// faults are an input, not an outcome (info row).
using RS = ResilienceSection;
constexpr Field<RS> kResilience[] = {
    {"fault_plan", &RS::fault_plan, Diff::kNone, kOptional},
    {"faults_injected", &RS::faults_injected, Diff::kInfo},
    {"retries", &RS::retries, Diff::kOffZero},
    {"replays", &RS::replays, Diff::kOffZero},
    {"fallbacks", &RS::fallbacks, Diff::kOffZero},
    {"devices_blacklisted", &RS::devices_blacklisted, Diff::kOffZero},
    {"repartitions", &RS::repartitions, Diff::kOffZero},
    {"degraded_runs", &RS::degraded_runs, Diff::kOffZero},
    {"validation_failures", &RS::validation_failures, Diff::kOffZero},
    {"backoff_ms", &RS::backoff_ms, Diff::kOffZero},
};

// Guard counters follow the resilience rule; the admitted working set is
// an input-level property (info row).
using GS = GuardSection;
constexpr Field<GS> kGuards[] = {
    {"limits", &GS::limits, Diff::kNone, kOptional},
    {"trips", &GS::trips, Diff::kOffZero},
    {"degrade_steps", &GS::degrade_steps, Diff::kOffZero},
    {"degraded_runs", &GS::degraded_runs, Diff::kOffZero},
    {"admitted_bytes", &GS::admitted_bytes, Diff::kInfo},
    {"budget_bytes", &GS::budget_bytes},
    {"degraded", &GS::degraded},
    {"degradation", &GS::degradation, Diff::kNone, kOptional},
    {"last_trip", &GS::last_trip, Diff::kNone, kOptional},
};

// Integrity: injected flips are an input (info row), as is the detection
// total; everything the checks caught or missed is an outcome.
// `flips_missed` moving off a zero baseline is THE silent-data-corruption
// regression — corruption escaped every scrub, audit, checksum, and canary.
using IS = IntegritySection;
constexpr Field<IS> kIntegrity[] = {
    {"audit_mode", &IS::audit_mode},
    {"scrub_interval", &IS::scrub_interval},
    {"flips_injected", &IS::flips_injected, Diff::kInfo},
    {"flips_detected", &IS::flips_detected},
    {"flips_missed", &IS::flips_missed, Diff::kOffZero},
    {"detections", &IS::detections, Diff::kInfo},
    {"scrub_passes", &IS::scrub_passes},
    {"scrub_mismatches", &IS::scrub_mismatches, Diff::kOffZero},
    {"audit_checks", &IS::audit_checks},
    {"audit_failures", &IS::audit_failures, Diff::kOffZero},
    {"checkpoint_failures", &IS::checkpoint_failures, Diff::kOffZero},
    {"canaries_run", &IS::canaries_run},
    {"canaries_failed", &IS::canaries_failed, Diff::kOffZero},
    {"quarantines", &IS::quarantines, Diff::kOffZero},
};

// Cluster rows: injected link faults are an input (info row), as is the
// carried communication volume (it tracks the topology choice, not the
// fabric's behaviour). Every ladder rung — retries, reroutes, detours,
// ring fallbacks, partitions — follows the off-zero rule, and
// communication time is a lower-is-better outcome.
using CS = ClusterSection;
constexpr Field<CS> kCluster[] = {
    {"topology", &CS::topology},
    {"parties", &CS::parties},
    {"links_total", &CS::links_total},
    {"links_failed", &CS::links_failed, Diff::kOffZero},
    {"links_degraded", &CS::links_degraded},
    {"collectives", &CS::collectives},
    {"comm_volume_bytes", &CS::comm_volume_bytes, Diff::kInfo},
    {"comm_time_ms", &CS::comm_time_ms, Diff::kLower},
    {"link_faults", &CS::link_faults, Diff::kInfo},
    {"comm_retries", &CS::comm_retries, Diff::kOffZero},
    {"reroutes", &CS::reroutes, Diff::kOffZero},
    {"detour_ms", &CS::detour_ms, Diff::kOffZero},
    {"degraded_rings", &CS::degraded_rings, Diff::kOffZero},
    {"partitions", &CS::partitions, Diff::kOffZero},
};

// Fail-slow rows: injected slowness and detector activity are inputs (info
// rows); every escalation the ladder took past speculation — lost bets,
// wasted work, rebalances, demotions — follows the off-zero rule.
using FS = FailSlowSection;
constexpr Field<FS> kFailSlow[] = {
    {"detector", &FS::detector},
    {"k", &FS::k},
    {"slow_faults", &FS::slow_faults, Diff::kInfo},
    {"slow_applications", &FS::slow_applications},
    {"slow_ms_injected", &FS::slow_ms_injected, Diff::kInfo},
    {"detections", &FS::detections, Diff::kInfo},
    {"speculations", &FS::speculations, Diff::kInfo},
    {"speculations_won", &FS::speculations_won, Diff::kHigher},
    {"speculations_lost", &FS::speculations_lost, Diff::kOffZero},
    {"wasted_speculation_ms", &FS::wasted_speculation_ms, Diff::kOffZero},
    {"rebalances", &FS::rebalances, Diff::kOffZero},
    {"vertices_moved", &FS::vertices_moved, Diff::kInfo},
    {"demotions", &FS::demotions, Diff::kOffZero},
};

// Service rows: typed failures and recycles follow the off-zero rule;
// latency percentiles are lower-is-better with the ratio tolerance;
// throughput/accounting rows are informational because they track the
// offered load, not the service's behaviour. The head and tail sit either
// side of the per-lane objects.
using SS = ServiceSection;
constexpr Field<SS> kServiceHead[] = {
    {"engine", &SS::engine, Diff::kNone, kOptional},
    {"arrivals", &SS::arrivals, Diff::kNone, kOptional},
    {"workers", &SS::workers},
    {"submitted", &SS::submitted, Diff::kInfo},
    {"admitted", &SS::admitted, Diff::kInfo},
    {"rejected", &SS::rejected, Diff::kInfo},
    {"rejected_queue_full", &SS::rejected_queue_full},
    {"rejected_shed", &SS::rejected_shed},
    {"rejected_draining", &SS::rejected_draining},
};
constexpr Field<SS> kServiceTail[] = {
    {"completed", &SS::completed, Diff::kInfo},
    {"timed_out", &SS::timed_out, Diff::kOffZero},
    {"failed", &SS::failed, Diff::kOffZero},
    {"cancelled", &SS::cancelled, Diff::kOffZero},
    {"validation_failures", &SS::validation_failures, Diff::kOffZero},
    {"workers_recycled", &SS::workers_recycled, Diff::kOffZero},
    {"max_queue_depth", &SS::max_queue_depth, Diff::kInfo},
    {"queue_wait_p50_ms", &SS::queue_wait_p50_ms},
    {"queue_wait_p95_ms", &SS::queue_wait_p95_ms, Diff::kLower},
    {"queue_wait_p99_ms", &SS::queue_wait_p99_ms},
    {"e2e_p50_ms", &SS::e2e_p50_ms},
    {"e2e_p95_ms", &SS::e2e_p95_ms, Diff::kLower},
    {"e2e_p99_ms", &SS::e2e_p99_ms, Diff::kLower},
};

// Per-lane rejection rows. Backpressure reasons (queue_full / shed /
// draining) track the offered load and the configured capacities, so they
// stay informational; `infeasible_deadline` moving off a zero baseline
// means the overload controller started predicting misses where the
// baseline had none — the regression signal the per-lane split exists for.
using Lane = ServiceLaneRejections;
constexpr Field<Lane> kLane[] = {
    {"queue_full", &Lane::queue_full, Diff::kInfo},
    {"shed", &Lane::shed, Diff::kInfo},
    {"draining", &Lane::draining, Diff::kInfo},
    {"infeasible_deadline", &Lane::infeasible_deadline, Diff::kOffZero},
};
constexpr std::pair<const char*, Lane SS::*> kLanes[] = {
    {"rejected_interactive", &SS::rejected_interactive},
    {"rejected_batch", &SS::rejected_batch},
};

// Live-snapshot rows: promotions track the offered update load (info); a
// rejection moving off a zero baseline means candidates started failing
// verification; drain latency is a lower-is-better tail.
constexpr Field<SS> kSnapshots[] = {
    {"snapshots_built", &SS::snapshots_built},
    {"snapshots_promoted", &SS::snapshots_promoted, Diff::kInfo},
    {"snapshots_rejected", &SS::snapshots_rejected, Diff::kOffZero},
    {"snapshot_drain_p95_ms", &SS::snapshot_drain_p95_ms, Diff::kLower},
};
using Generation = ServiceGenerationEntry;
constexpr Field<Generation> kGeneration[] = {
    {"generation", &Generation::generation},
    {"started", &Generation::started},
    {"finished", &Generation::finished},
    {"drain_ms", &Generation::drain_ms},
    {"retired", &Generation::retired},
};

// The `overload` object's keys, held in the flat overload_* members.
constexpr Field<SS> kOverload[] = {
    {"limit", &SS::overload_limit},
    {"limit_increases", &SS::overload_limit_increases},
    {"limit_backoffs", &SS::overload_limit_backoffs},
    {"wait_p95_ms", &SS::overload_wait_p95_ms},
    {"setpoint_ms", &SS::overload_setpoint_ms},
    {"brownout_level", &SS::overload_brownout_level},
    {"brownout_max_level", &SS::overload_brownout_max_level},
    {"brownout_steps_down", &SS::overload_brownout_steps_down},
    {"brownout_steps_up", &SS::overload_brownout_steps_up},
    {"rejected_infeasible", &SS::overload_rejected_infeasible},
    {"expired_in_queue", &SS::overload_expired_in_queue},
    {"cancelled_infeasible", &SS::overload_cancelled_infeasible},
};

using Worker = ServiceWorkerEntry;
constexpr Field<Worker> kWorker[] = {
    {"worker", &Worker::worker},
    {"requests", &Worker::requests},
    {"completed", &Worker::completed},
    {"timed_out", &Worker::timed_out},
    {"failed", &Worker::failed},
    {"cancelled", &Worker::cancelled},
    {"faults_injected", &Worker::faults_injected},
    {"retries", &Worker::retries},
    {"fallbacks", &Worker::fallbacks},
    {"recycles", &Worker::recycles},
};

// --- walkers -----------------------------------------------------------------

template <typename T, std::size_t N>
using Fields = Field<T>[N];

template <typename T, std::size_t N>
void write_fields(Json& j, const T& obj, const Fields<T, N>& fields) {
  for (const Field<T>& f : fields) {
    std::visit(
        [&]<typename V>(V T::*member) {
          const V& v = obj.*member;
          if constexpr (std::is_same_v<V, std::string>) {
            if (!f.optional || !v.empty()) j.set(f.key, v);
          } else if constexpr (std::is_same_v<V, std::uint32_t>) {
            j.set(f.key, static_cast<std::uint64_t>(v));
          } else {
            j.set(f.key, v);
          }
        },
        f.member);
  }
}

template <typename T, std::size_t N>
Json object_json(const T& obj, const Fields<T, N>& fields) {
  Json j = Json::object();
  write_fields(j, obj, fields);
  return j;
}

template <typename T, std::size_t N>
Json array_json(const std::vector<T>& items, const Fields<T, N>& fields) {
  Json a = Json::array();
  for (const T& item : items) a.push_back(object_json(item, fields));
  return a;
}

// Reads a validated object; an absent optional string reads as "".
template <typename T, std::size_t N>
void read_fields(const Json& j, T& obj, const Fields<T, N>& fields) {
  for (const Field<T>& f : fields) {
    const Json& v = j.at(f.key);
    std::visit(
        [&]<typename V>(V T::*member) {
          V& dst = obj.*member;
          if constexpr (std::is_same_v<V, std::string>) {
            dst = v.as_string();
          } else if constexpr (std::is_same_v<V, bool>) {
            dst = v.as_bool();
          } else if constexpr (std::is_signed_v<V>) {  // int, double
            dst = static_cast<V>(v.as_number());
          } else {
            dst = static_cast<V>(v.as_uint());
          }
        },
        f.member);
  }
}

template <typename T, std::size_t N>
std::vector<T> array_from_json(const Json& a, const Fields<T, N>& fields) {
  std::vector<T> items;
  for (const Json& j : a.items()) read_fields(j, items.emplace_back(), fields);
  return items;
}

template <typename T, std::size_t N>
void read_section(const Json& j, const char* key, std::optional<T>& section,
                  const Fields<T, N>& fields) {
  if (j.contains(key)) read_fields(j.at(key), section.emplace(), fields);
}

// Indexed by Json::Type.
constexpr const char* kTypeNames[] = {"null",     "a bool",   "a number",
                                      "a string", "an array", "an object"};

// The JSON type a member serializes as.
template <typename V>
constexpr Json::Type kJsonType = std::is_same_v<V, std::string> ? kString
                                 : std::is_same_v<V, bool>      ? kBool
                                                                : kNumber;

// Appends "<prefix><key> must be <type>" unless j[key] has that type; an
// absent optional key passes. Returns whether the key is there and typed.
bool check_key(std::vector<std::string>& errors, const Json& j,
               const std::string& prefix, const char* key, Json::Type type,
               bool optional = false) {
  const Json* v = j.find(key);
  if (v != nullptr && v->type() == type) return true;
  if (v != nullptr || !optional) {
    errors.push_back(prefix + key + " must be " +
                     kTypeNames[static_cast<int>(type)]);
  }
  return false;
}

template <typename T, std::size_t N>
void check_fields(std::vector<std::string>& errors, const Json& j,
                  const std::string& prefix, const Fields<T, N>& fields) {
  for (const Field<T>& f : fields) {
    std::visit(
        [&]<typename V>(V T::*) {
          check_key(errors, j, prefix, f.key, kJsonType<V>, f.optional);
        },
        f.member);
  }
}

template <typename T, std::size_t N>
bool check_object(std::vector<std::string>& errors, const Json& j,
                  const std::string& prefix, const char* key,
                  const Fields<T, N>& fields, bool optional = false) {
  if (!check_key(errors, j, prefix, key, kObject, optional)) return false;
  check_fields(errors, j.at(key), prefix + key + ".", fields);
  return true;
}

constexpr auto kNoExtraChecks = [](const Json&) {};

// Checks an array of objects against `fields`, plus `extra` per entry;
// stops at the first entry that is not an object.
template <typename T, std::size_t N, typename Extra = decltype(kNoExtraChecks)>
void check_array(std::vector<std::string>& errors, const Json& j,
                 const std::string& prefix, const char* key,
                 const Fields<T, N>& fields, Extra extra = kNoExtraChecks) {
  if (!check_key(errors, j, prefix, key, kArray)) return;
  const std::string path = prefix + key + "[]";
  for (const Json& item : j.at(key).items()) {
    if (!item.is_object()) {
      errors.push_back(path + " entries must be objects");
      break;
    }
    check_fields(errors, item, path + ".", fields);
    extra(item);
  }
}

ReportDelta make_delta(const std::string& metric, double baseline,
                       double candidate, Diff diff, double tolerance) {
  ReportDelta d{metric, baseline, candidate,
                baseline != 0.0 ? candidate / baseline : 1.0};
  if (baseline > 0.0 && std::isfinite(d.ratio)) {
    if (diff == Diff::kHigher) {
      d.regression = d.ratio < 1.0 - tolerance;
    } else if (diff == Diff::kLower || diff == Diff::kOffZero) {
      d.regression = d.ratio > 1.0 + tolerance;
    }
  }
  // A zero baseline has no ratio; the off-zero rule flags the move anyway.
  if (diff == Diff::kOffZero && baseline == 0.0 && candidate > 0.0) {
    d.regression = true;
  }
  return d;
}

// The diff rows of one table. A null side means that report lacks the
// section — typically an older baseline written before it existed. Then
// the rows keep the section visible in the diff (renderers print n/a)
// without ever counting as a regression, so old baselines stay diffable.
// The both-present and n/a paths walk the same table, so they cannot
// drift apart.
template <typename T, std::size_t N>
void diff_fields(std::vector<ReportDelta>& deltas, const std::string& prefix,
                 const T* baseline, const T* candidate,
                 const Fields<T, N>& fields, double tolerance) {
  if (baseline == nullptr && candidate == nullptr) return;
  for (const Field<T>& f : fields) {
    if (f.diff == Diff::kNone) continue;
    ReportDelta d{prefix + f.key};
    d.not_applicable = baseline == nullptr || candidate == nullptr;
    std::visit(
        [&]<typename V>(V T::*member) {
          if constexpr (std::is_arithmetic_v<V>) {  // strings are not diffed
            if (d.not_applicable) return;
            d = make_delta(d.metric, static_cast<double>(baseline->*member),
                           static_cast<double>(candidate->*member), f.diff,
                           tolerance);
          }
        },
        f.member);
    deltas.push_back(std::move(d));
  }
}

template <typename T>
const T* opt_ptr(const std::optional<T>& section) {
  return section ? &*section : nullptr;
}

}  // namespace

Json RunReport::to_json() const {
  Json j = Json::object();
  j.set("schema_version", kReportSchemaVersion);
  write_fields(j, *this, kReportHead);
  j.set("graph", object_json(graph, kGraph));
  write_fields(j, *this, kReportTail);

  Json sj = Json::object();
  sj.set("runs", static_cast<std::uint64_t>(summary.runs.size()));
  write_fields(sj, summary, kSummary);
  sj.set("time_ms", object_json(summary, kTimePercentiles));
  sj.set("teps", object_json(summary, kTepsPercentiles));
  j.set("summary", std::move(sj));

  Json runs = Json::array();
  for (const bfs::BfsResult& r : summary.runs) {
    Json rj = object_json(r, kRun);
    rj.set("teps", r.teps());
    // Resilience fields are additive and written only when the run saw
    // recovery activity, so fault-free reports are byte-identical to the
    // pre-resilience schema.
    if (r.attempts != 1) rj.set("attempts", r.attempts);
    if (r.faults_survived != 0) rj.set("faults_survived", r.faults_survived);
    if (r.degraded) {
      rj.set("degraded", true);
      rj.set("completed_by", r.completed_by);
    }
    runs.push_back(std::move(rj));
  }
  j.set("runs", std::move(runs));

  Json lj = Json::array();
  for (const bfs::LevelTrace& t : levels) {
    Json tj = object_json(t, kLevelHead);
    tj.set("direction", bfs::to_string(t.direction));
    write_fields(tj, t, kLevelTail);
    tj.set("kernels", array_json(t.kernels, kKernel));
    lj.push_back(std::move(tj));
  }
  j.set("levels", std::move(lj));

  if (hardware_counters) {
    j.set("hardware_counters", object_json(*hardware_counters, kCounters));
  }
  if (resilience) j.set("resilience", object_json(*resilience, kResilience));
  if (guards) j.set("guards", object_json(*guards, kGuards));
  if (integrity) j.set("integrity", object_json(*integrity, kIntegrity));
  if (cluster) j.set("cluster", object_json(*cluster, kCluster));
  if (fail_slow) j.set("fail_slow", object_json(*fail_slow, kFailSlow));
  if (service) {
    const ServiceSection& s = *service;
    Json sv = object_json(s, kServiceHead);
    if (s.rejected > 0) {
      // Per-lane split, gated like the snapshot keys below: rejection-free
      // runs serialize byte-identically to the pre-split schema.
      for (const auto& [key, lane] : kLanes) {
        sv.set(key, object_json(s.*lane, kLane));
      }
    }
    write_fields(sv, s, kServiceTail);
    if (s.snapshots_built > 0) {
      // Gated on snapshots_built so runs without an update trace serialize
      // byte-identically to the pre-snapshot schema.
      write_fields(sv, s, kSnapshots);
      sv.set("per_generation", array_json(s.per_generation, kGeneration));
    }
    if (s.overload_enabled) {
      // Whole block gated on the overload controller being armed: disabled
      // services stay byte-identical to the pre-overload schema.
      sv.set("overload", object_json(s, kOverload));
    }
    sv.set("per_worker", array_json(s.per_worker, kWorker));
    j.set("service", std::move(sv));
  }
  if (!metrics.is_null()) j.set("metrics", metrics);
  if (!events.is_null()) j.set("events", events);
  return j;
}

std::vector<std::string> validate_report(const Json& j) {
  std::vector<std::string> errors;
  if (!j.is_object()) {
    errors.push_back("report must be a JSON object");
    return errors;
  }
  if (!j.at("schema_version").is_number() ||
      static_cast<int>(j.at("schema_version").as_number()) !=
          kReportSchemaVersion) {
    errors.push_back("schema_version must be " +
                     std::to_string(kReportSchemaVersion));
  }
  check_fields(errors, j, "", kReportHead);
  check_object(errors, j, "", "graph", kGraph);
  check_fields(errors, j, "", kReportTail);
  if (check_object(errors, j, "", "summary", kSummary)) {
    const Json& s = j.at("summary");
    check_key(errors, s, "summary.", "runs", kNumber);
    check_object(errors, s, "summary.", "time_ms", kTimePercentiles);
    check_object(errors, s, "summary.", "teps", kTepsPercentiles);
  }
  check_array(errors, j, "", "runs", kRun, [&](const Json& r) {
    // Recovery fields: present only for runs that saw recovery activity.
    check_key(errors, r, "runs[].", "attempts", kNumber, kOptional);
    check_key(errors, r, "runs[].", "faults_survived", kNumber, kOptional);
    check_key(errors, r, "runs[].", "degraded", kBool, kOptional);
    check_key(errors, r, "runs[].", "completed_by", kString, kOptional);
  });
  check_array(errors, j, "", "levels", kLevelHead, [&](const Json& l) {
    check_key(errors, l, "levels[].", "direction", kString);
    check_fields(errors, l, "levels[].", kLevelTail);
    check_array(errors, l, "levels[].", "kernels", kKernel);
  });
  check_object(errors, j, "", "hardware_counters", kCounters, kOptional);
  check_object(errors, j, "", "resilience", kResilience, kOptional);
  check_object(errors, j, "", "guards", kGuards, kOptional);
  check_object(errors, j, "", "integrity", kIntegrity, kOptional);
  check_object(errors, j, "", "cluster", kCluster, kOptional);
  check_object(errors, j, "", "fail_slow", kFailSlow, kOptional);
  if (check_key(errors, j, "", "service", kObject, kOptional)) {
    const Json& s = j.at("service");
    check_fields(errors, s, "service.", kServiceHead);
    // Per-lane rejection split: additive, present only for runs with
    // rejections, and then both lanes with all four reasons.
    for (const auto& [key, lane] : kLanes) {
      check_object(errors, s, "service.", key, kLane, kOptional);
    }
    check_fields(errors, s, "service.", kServiceTail);
    // Overload block: additive, present only when the controller was
    // armed, and then all-or-nothing.
    check_object(errors, s, "service.", "overload", kOverload, kOptional);
    // Snapshot keys are additive: present only for runs that ingested
    // update batches, and then all-or-nothing.
    if (s.contains("snapshots_built")) {
      check_fields(errors, s, "service.", kSnapshots);
      check_array(errors, s, "service.", "per_generation", kGeneration);
    }
    check_array(errors, s, "service.", "per_worker", kWorker);
  }
  check_key(errors, j, "", "metrics", kObject, kOptional);
  check_key(errors, j, "", "events", kArray, kOptional);
  return errors;
}

std::optional<RunReport> RunReport::from_json(const Json& j) {
  if (!validate_report(j).empty()) return std::nullopt;
  RunReport report;
  read_fields(j, report, kReportHead);
  read_fields(j.at("graph"), report.graph, kGraph);
  read_fields(j, report, kReportTail);

  const Json& s = j.at("summary");
  read_fields(s, report.summary, kSummary);
  read_fields(s.at("time_ms"), report.summary, kTimePercentiles);
  read_fields(s.at("teps"), report.summary, kTepsPercentiles);
  for (const Json& rj : j.at("runs").items()) {
    bfs::BfsResult& r = report.summary.runs.emplace_back();
    read_fields(rj, r, kRun);
    // Absent recovery fields read as a clean run's defaults.
    r.attempts = static_cast<int>(rj.at("attempts").as_number(1.0));
    r.faults_survived = static_cast<int>(rj.at("faults_survived").as_number());
    r.degraded = rj.at("degraded").as_bool();
    r.completed_by = rj.at("completed_by").as_string();
  }
  for (const Json& lj : j.at("levels").items()) {
    bfs::LevelTrace& t = report.levels.emplace_back();
    read_fields(lj, t, kLevelHead);
    t.direction = lj.at("direction").as_string() == "bottom-up"
                      ? bfs::Direction::kBottomUp
                      : bfs::Direction::kTopDown;
    read_fields(lj, t, kLevelTail);
    t.kernels = array_from_json(lj.at("kernels"), kKernel);
  }

  read_section(j, "hardware_counters", report.hardware_counters, kCounters);
  read_section(j, "resilience", report.resilience, kResilience);
  read_section(j, "guards", report.guards, kGuards);
  read_section(j, "integrity", report.integrity, kIntegrity);
  read_section(j, "cluster", report.cluster, kCluster);
  read_section(j, "fail_slow", report.fail_slow, kFailSlow);
  if (j.contains("service")) {
    const Json& svj = j.at("service");
    ServiceSection& sv = report.service.emplace();
    read_fields(svj, sv, kServiceHead);
    // An absent lane reads as all zeros.
    for (const auto& [key, lane] : kLanes) {
      read_fields(svj.at(key), sv.*lane, kLane);
    }
    read_fields(svj, sv, kServiceTail);
    if (svj.contains("snapshots_built")) {
      read_fields(svj, sv, kSnapshots);
      sv.per_generation =
          array_from_json(svj.at("per_generation"), kGeneration);
    }
    if (svj.contains("overload")) {
      sv.overload_enabled = true;
      read_fields(svj.at("overload"), sv, kOverload);
    }
    sv.per_worker = array_from_json(svj.at("per_worker"), kWorker);
  }
  if (j.contains("metrics")) report.metrics = j.at("metrics");
  if (j.contains("events")) report.events = j.at("events");
  return report;
}

std::optional<RunReport> RunReport::parse(const std::string& text) {
  const auto j = Json::parse(text);
  if (!j) return std::nullopt;
  return from_json(*j);
}

std::vector<ReportDelta> diff_reports(const RunReport& baseline,
                                      const RunReport& candidate,
                                      const ReportDiffOptions& options) {
  const double tol = options.tolerance;
  std::vector<ReportDelta> deltas;
  const auto row = [&](const char* metric, double base, double cand,
                       Diff diff) {
    deltas.push_back(make_delta(metric, base, cand, diff, tol));
  };
  const bfs::RunSummary& b = baseline.summary;
  const bfs::RunSummary& c = candidate.summary;
  row("harmonic_teps", b.harmonic_teps, c.harmonic_teps, Diff::kHigher);
  row("mean_teps", b.mean_teps, c.mean_teps, Diff::kHigher);
  row("p50_teps", b.p50_teps, c.p50_teps, Diff::kHigher);
  row("mean_time_ms", b.mean_time_ms, c.mean_time_ms, Diff::kLower);
  row("p95_time_ms", b.p95_time_ms, c.p95_time_ms, Diff::kLower);
  // Workload sanity rows: never regressions, but a ratio far from 1 tells
  // the reader the two reports measured different graphs.
  row("graph.vertices", static_cast<double>(baseline.graph.vertices),
      static_cast<double>(candidate.graph.vertices), Diff::kInfo);
  row("graph.edges", static_cast<double>(baseline.graph.edges),
      static_cast<double>(candidate.graph.edges), Diff::kInfo);
  row("mean_depth", b.mean_depth, c.mean_depth, Diff::kInfo);
  // Optional sections are compared only when both reports carry them (a
  // fault-injected run against a clean one says nothing about either),
  // with n/a rows when exactly one does.
  diff_fields(deltas, "resilience.", opt_ptr(baseline.resilience),
              opt_ptr(candidate.resilience), kResilience, tol);
  diff_fields(deltas, "guards.", opt_ptr(baseline.guards),
              opt_ptr(candidate.guards), kGuards, tol);
  diff_fields(deltas, "integrity.", opt_ptr(baseline.integrity),
              opt_ptr(candidate.integrity), kIntegrity, tol);
  diff_fields(deltas, "cluster.", opt_ptr(baseline.cluster),
              opt_ptr(candidate.cluster), kCluster, tol);
  diff_fields(deltas, "fail_slow.", opt_ptr(baseline.fail_slow),
              opt_ptr(candidate.fail_slow), kFailSlow, tol);
  const ServiceSection* bs = opt_ptr(baseline.service);
  const ServiceSection* cs = opt_ptr(candidate.service);
  diff_fields(deltas, "service.", bs, cs, kServiceHead, tol);
  for (const auto& [key, lane] : kLanes) {
    diff_fields(deltas, std::string("service.") + key + ".",
                bs != nullptr ? &(bs->*lane) : nullptr,
                cs != nullptr ? &(cs->*lane) : nullptr, kLane, tol);
  }
  diff_fields(deltas, "service.", bs, cs, kServiceTail, tol);
  diff_fields(deltas, "service.", bs, cs, kSnapshots, tol);
  return deltas;
}

bool has_regression(const std::vector<ReportDelta>& deltas) {
  for (const ReportDelta& d : deltas) {
    if (d.regression) return true;
  }
  return false;
}

}  // namespace ent::obs
