// Pins the RunReport schema: the exact text `to_json` emits for a report
// that sets every section and gated group and for one whose sections are
// all zero, the parse/re-serialize round trip, the `diff_reports` rows for
// fixed report pairs, and `validate_report`'s answer for every key. The
// expected text lives in tests/golden/; a mismatch writes the actual text
// next to the test binary so an intended schema change can be reviewed and
// copied over.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/run_report.hpp"

namespace ent {
namespace {

using obs::Json;

std::string read_golden(const std::string& name) {
  std::ifstream f(std::string(ENT_GOLDEN_DIR) + "/" + name);
  std::ostringstream text;
  text << f.rdbuf();
  return text.str();
}

void expect_golden(const std::string& actual, const std::string& name) {
  if (actual == read_golden(name)) return;
  std::ofstream(name + ".actual") << actual;
  ADD_FAILURE() << "differs from tests/golden/" << name
                << "; the actual text is in " << name
                << ".actual in the test's working directory";
}

// Every section, both rejection lanes, the snapshot group with two
// generations, the overload block, two workers, a program and a recovered
// run, with distinct non-default values. `worse` scales every count and
// time up and every TEPS figure down, so maximal_report(2) is a uniformly
// worse candidate for maximal_report(1).
obs::RunReport maximal_report(std::uint64_t worse = 1) {
  const auto n = [worse](std::uint64_t v) { return v * worse; };
  const auto ms = [worse](double v) { return v * static_cast<double>(worse); };
  const auto teps = [worse](double v) {
    return v / static_cast<double>(worse);
  };

  obs::RunReport r;
  r.system = "resilient:multi-gpu";
  r.program = "sssp";
  r.device = "K40";
  r.options_summary = "wb=on hc=on gpus=4";
  r.graph = {"kron-10-16", 1024, 16384, true};
  r.seed = 11;
  r.requested_sources = 2;

  r.summary.mean_teps = teps(3.5e9);
  r.summary.harmonic_teps = teps(3.25e9);
  r.summary.mean_time_ms = ms(1.5);
  r.summary.mean_depth = 6.5;
  r.summary.min_time_ms = ms(1.25);
  r.summary.p50_time_ms = ms(1.375);
  r.summary.p95_time_ms = ms(1.625);
  r.summary.max_time_ms = ms(1.75);
  r.summary.min_teps = teps(2.75e9);
  r.summary.p50_teps = teps(3.125e9);
  r.summary.p95_teps = teps(3.875e9);
  r.summary.max_teps = teps(4.0e9);

  bfs::BfsResult run;
  run.source = 3;
  run.vertices_visited = 1000;
  run.depth = 6;
  run.edges_traversed = 16000;
  run.time_ms = ms(1.25);
  r.summary.runs.push_back(run);
  run.source = 9;
  run.vertices_visited = 1001;
  run.depth = 7;
  run.edges_traversed = 16002;
  run.time_ms = ms(1.75);
  run.attempts = 3;
  run.faults_survived = 2;
  run.degraded = true;
  run.completed_by = "cpu";
  r.summary.runs.push_back(run);

  bfs::LevelTrace level;
  level.level = 0;
  level.direction = bfs::Direction::kTopDown;
  level.frontier_count = 1;
  level.edges_inspected = n(17);
  level.queue_gen_ms = ms(0.125);
  level.expand_ms = ms(0.25);
  level.comm_ms = ms(0.0625);
  level.total_ms = ms(0.4375);
  level.gamma = 12.5;
  level.alpha = 0.75;
  level.kernels = {{"queue_gen", ms(0.125)}, {"expand_thread", ms(0.25)}};
  r.levels.push_back(level);
  level.level = 1;
  level.direction = bfs::Direction::kBottomUp;
  level.frontier_count = 40;
  level.edges_inspected = n(900);
  level.queue_gen_ms = ms(0.5);
  level.expand_ms = ms(1.5);
  level.comm_ms = ms(0.25);
  level.total_ms = ms(2.25);
  level.gamma = 37.5;
  level.alpha = 4.5;
  level.kernels = {{"bottom_up", ms(1.5)}, {"all_gather", ms(0.25)}};
  r.levels.push_back(level);

  sim::HardwareCounters hw;
  hw.gld_transactions = n(123456);
  hw.gst_transactions = n(2345);
  hw.ldst_fu_utilization = 0.625;
  hw.stall_data_request = 0.375;
  hw.ipc = 1.875;
  hw.power_w = 142.5;
  hw.sm_occupancy = 0.8125;
  hw.dram_bandwidth_gbs = 187.25;
  r.hardware_counters = hw;

  obs::ResilienceSection rs;
  rs.fault_plan = "transient@level=2;device-lost@device=1;seed=9";
  rs.faults_injected = n(11);
  rs.retries = n(12);
  rs.replays = n(13);
  rs.fallbacks = n(14);
  rs.devices_blacklisted = n(15);
  rs.repartitions = n(16);
  rs.degraded_runs = n(17);
  rs.validation_failures = n(18);
  rs.backoff_ms = ms(19.5);
  r.resilience = rs;

  obs::GuardSection gs;
  gs.limits = "memory=1.00MB deadline=5.00ms";
  gs.trips = n(21);
  gs.degrade_steps = n(22);
  gs.degraded_runs = n(23);
  gs.admitted_bytes = n(24000);
  gs.budget_bytes = n(25000);
  gs.degraded = true;
  gs.degradation = "no-hub-cache,no-wb";
  gs.last_trip = "deadline";
  r.guards = gs;

  obs::IntegritySection is;
  is.audit_mode = "full";
  is.scrub_interval = 2;
  is.flips_injected = n(31);
  is.flips_detected = n(32);
  is.flips_missed = n(33);
  is.detections = n(34);
  is.scrub_passes = n(35);
  is.scrub_mismatches = n(36);
  is.audit_checks = n(37);
  is.audit_failures = n(38);
  is.checkpoint_failures = n(39);
  is.canaries_run = n(40);
  is.canaries_failed = n(41);
  is.quarantines = n(42);
  r.integrity = is;

  obs::ClusterSection cs;
  cs.topology = "butterfly";
  cs.parties = 4;
  cs.links_total = 8;
  cs.links_failed = n(51);
  cs.links_degraded = n(52);
  cs.collectives = n(53);
  cs.comm_volume_bytes = n(54000);
  cs.comm_time_ms = ms(5.5);
  cs.link_faults = n(56);
  cs.comm_retries = n(57);
  cs.reroutes = n(58);
  cs.detour_ms = ms(5.9);
  cs.degraded_rings = n(60);
  cs.partitions = n(61);
  r.cluster = cs;

  obs::FailSlowSection fs;
  fs.detector = true;
  fs.k = 3.0;
  fs.slow_faults = n(71);
  fs.slow_applications = n(72);
  fs.slow_ms_injected = ms(7.3);
  fs.detections = n(74);
  fs.speculations = n(75);
  fs.speculations_won = 76 / worse;
  fs.speculations_lost = n(77);
  fs.wasted_speculation_ms = ms(7.8);
  fs.rebalances = n(79);
  fs.vertices_moved = n(80);
  fs.demotions = n(81);
  r.fail_slow = fs;

  obs::ServiceSection sv;
  sv.engine = "guarded:resilient:enterprise";
  sv.arrivals = "poisson rate=1500 count=200 seed=5";
  sv.workers = 2;
  sv.submitted = n(200);
  sv.admitted = n(190);
  sv.rejected = n(10);
  sv.rejected_queue_full = n(4);
  sv.rejected_shed = n(3);
  sv.rejected_draining = n(1);
  sv.completed = n(180);
  sv.timed_out = n(5);
  sv.failed = n(3);
  sv.cancelled = n(2);
  sv.validation_failures = n(6);
  sv.workers_recycled = n(7);
  sv.max_queue_depth = n(48);
  sv.queue_wait_p50_ms = ms(0.5);
  sv.queue_wait_p95_ms = ms(2.5);
  sv.queue_wait_p99_ms = ms(4.5);
  sv.e2e_p50_ms = ms(3.5);
  sv.e2e_p95_ms = ms(8.5);
  sv.e2e_p99_ms = ms(12.5);
  sv.snapshots_built = n(3);
  sv.snapshots_promoted = n(2);
  sv.snapshots_rejected = n(1);
  sv.snapshot_drain_p95_ms = ms(6.25);
  sv.per_generation = {{0, n(100), n(100), ms(6.25), true},
                       {1, n(90), n(80), -1.0, false}};
  sv.rejected_interactive = {n(1), n(2), n(3), n(4)};
  sv.rejected_batch = {n(5), n(6), n(7), n(8)};
  sv.overload_enabled = true;
  sv.overload_limit = n(64);
  sv.overload_limit_increases = n(9);
  sv.overload_limit_backoffs = n(10);
  sv.overload_wait_p95_ms = ms(1.5);
  sv.overload_setpoint_ms = 2.0;
  sv.overload_brownout_level = 1;
  sv.overload_brownout_max_level = 3;
  sv.overload_brownout_steps_down = n(4);
  sv.overload_brownout_steps_up = n(3);
  sv.overload_rejected_infeasible = n(11);
  sv.overload_expired_in_queue = n(12);
  sv.overload_cancelled_infeasible = n(13);
  sv.per_worker = {{0, n(95), n(90), n(3), n(1), n(1), n(2), n(3), n(1), n(1)},
                   {1, n(95), n(90), n(2), n(2), n(1), n(4), n(5), n(2), n(0)}};
  r.service = sv;

  Json metrics = Json::object();
  Json counters = Json::object();
  counters.set("enterprise.levels", 7);
  metrics.set("counters", std::move(counters));
  r.metrics = std::move(metrics);
  Json event = Json::object();
  event.set("type", "level");
  event.set("level", 0);
  r.events = Json::array();
  r.events.push_back(std::move(event));
  return r;
}

// A report without any optional section.
obs::RunReport bare_report() {
  obs::RunReport r = maximal_report();
  r.program.clear();
  r.hardware_counters.reset();
  r.resilience.reset();
  r.guards.reset();
  r.integrity.reset();
  r.cluster.reset();
  r.fail_slow.reset();
  r.service.reset();
  r.metrics = Json();
  r.events = Json();
  return r;
}

// Every section present with default (all-zero) contents, so every gated
// key and group stays unwritten.
obs::RunReport zero_section_report() {
  obs::RunReport r = bare_report();
  r.hardware_counters.emplace();
  r.resilience.emplace();
  r.guards.emplace();
  r.integrity.emplace();
  r.cluster.emplace();
  r.fail_slow.emplace();
  r.service.emplace();
  return r;
}

TEST(ReportSchema, MaximalReportTextIsPinned) {
  expect_golden(maximal_report().to_json().dump(2),
                "report_schema_maximal.json");
}

TEST(ReportSchema, ZeroSectionReportTextIsPinned) {
  expect_golden(zero_section_report().to_json().dump(2),
                "report_schema_zero.json");
}

TEST(ReportSchema, ParseThenSerializeReproducesTheText) {
  for (const obs::RunReport& report :
       {maximal_report(), zero_section_report(), bare_report()}) {
    const std::string text = report.to_json().dump(2);
    const auto parsed = obs::RunReport::parse(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->to_json().dump(2), text);
  }
}

// One line per row, sorted by metric: name, both values, regression, n/a.
std::string diff_rows(const obs::RunReport& baseline,
                      const obs::RunReport& candidate) {
  std::vector<std::string> rows;
  for (const obs::ReportDelta& d : obs::diff_reports(baseline, candidate)) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s %.17g %.17g %d %d\n",
                  d.metric.c_str(), d.baseline, d.candidate,
                  d.regression ? 1 : 0, d.not_applicable ? 1 : 0);
    rows.emplace_back(buf);
  }
  std::sort(rows.begin(), rows.end());
  std::string text;
  for (const std::string& row : rows) text += row;
  return text;
}

TEST(ReportSchema, DiffRowsArePinned) {
  const obs::RunReport maximal = maximal_report();
  std::string text;
  text += "# self\n" + diff_rows(maximal, maximal);
  text += "# worse\n" + diff_rows(maximal, maximal_report(2));
  text += "# zero baseline\n" + diff_rows(zero_section_report(), maximal);
  text += "# one-sided\n" + diff_rows(bare_report(), maximal);
  expect_golden(text, "report_schema_diff.txt");
}

// --- validate_report covers every key from_json reads ---------------------

// One step of a key path: an object key, or an array index when `key` is
// empty.
struct Step {
  std::string key;
  std::size_t index = 0;
};
using KeyPath = std::vector<Step>;

// "levels[1].kernels[0].name", or with `indices` off the form
// validate_report's messages use, "levels[].kernels[].name".
std::string path_name(const KeyPath& path, bool indices) {
  std::string name;
  for (const Step& step : path) {
    if (!step.key.empty()) {
      name += (name.empty() ? "" : ".") + step.key;
    } else {
      name += indices ? "[" + std::to_string(step.index) + "]" : "[]";
    }
  }
  return name;
}

// Every object key under `j`, in every array element, except what from_json
// never reads: runs[].teps and everything inside metrics and events.
void collect_paths(const Json& j, KeyPath& prefix, std::vector<KeyPath>& out) {
  if (j.is_array()) {
    for (std::size_t i = 0; i < j.items().size(); ++i) {
      prefix.push_back({"", i});
      collect_paths(j.items()[i], prefix, out);
      prefix.pop_back();
    }
    return;
  }
  for (const auto& [key, value] : j.members()) {
    prefix.push_back({key});
    const std::string name = path_name(prefix, false);
    if (name != "runs[].teps") {
      out.push_back(prefix);
      if (name != "metrics" && name != "events") {
        collect_paths(value, prefix, out);
      }
    }
    prefix.pop_back();
  }
}

enum class Edit { kRetype, kDelete };

// `j` with the key at `path[depth..]` given a value of another type, or
// removed.
Json edited(const Json& j, const KeyPath& path, std::size_t depth, Edit edit) {
  const Step& step = path[depth];
  if (step.key.empty()) {
    Json copy = j;
    copy.items()[step.index] =
        edited(j.items()[step.index], path, depth + 1, edit);
    return copy;
  }
  const bool last = depth + 1 == path.size();
  Json copy = Json::object();
  for (const auto& [key, value] : j.members()) {
    if (key != step.key) {
      copy.set(key, value);
    } else if (!last) {
      copy.set(key, edited(value, path, depth + 1, edit));
    } else if (edit == Edit::kRetype) {
      copy.set(key, value.is_number() ? Json("x") : Json(7.0));
    }
  }
  return copy;
}

// Keys a valid report may leave out: optional sections and strings, the
// recovery fields of a clean run, and the gated service groups (deleting
// the snapshots_built gate turns the rest of that group into unread keys).
const std::set<std::string> kOptionalKeys = {
    "program",
    "runs[].attempts",
    "runs[].faults_survived",
    "runs[].degraded",
    "runs[].completed_by",
    "hardware_counters",
    "resilience",
    "resilience.fault_plan",
    "guards",
    "guards.limits",
    "guards.degradation",
    "guards.last_trip",
    "integrity",
    "cluster",
    "fail_slow",
    "service",
    "service.engine",
    "service.arrivals",
    "service.rejected_interactive",
    "service.rejected_batch",
    "service.snapshots_built",
    "service.overload",
    "metrics",
    "events",
};

// A malformed key must never read as a zero: retyping any key the reader
// uses gives exactly one message naming it, and so does deleting a key
// the schema requires.
TEST(ReportSchema, ValidateNamesEveryKeyTheReaderUses) {
  const Json report = maximal_report().to_json();
  ASSERT_TRUE(obs::validate_report(report).empty());
  std::vector<KeyPath> paths;
  KeyPath prefix;
  collect_paths(report, prefix, paths);
  EXPECT_GT(paths.size(), 200u);

  const auto expect_one_message = [](const std::vector<std::string>& errors,
                                     const std::string& name) {
    ASSERT_EQ(errors.size(), 1u) << testing::PrintToString(errors);
    EXPECT_EQ(errors[0].rfind(name + " must be ", 0), 0u) << errors[0];
  };
  for (const KeyPath& path : paths) {
    const std::string name = path_name(path, false);
    SCOPED_TRACE(path_name(path, true));
    expect_one_message(
        obs::validate_report(edited(report, path, 0, Edit::kRetype)), name);
    const auto deleted =
        obs::validate_report(edited(report, path, 0, Edit::kDelete));
    if (kOptionalKeys.count(name) > 0) {
      EXPECT_TRUE(deleted.empty()) << testing::PrintToString(deleted);
    } else {
      expect_one_message(deleted, name);
    }
  }
}

}  // namespace
}  // namespace ent
