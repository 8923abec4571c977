// perfbench: the repo benchmark's measuring program. perfbench/run.py builds
// and runs it; see perfbench/README.md.
//
//   perfbench --workload=<kron-hub|road-deep|serve-live> --seed=<n>
//             --seconds=<s> --trace=<0|1> --work-dir=<dir> [--toy]
//             [--commit=<sha>]
//
// Prints a provenance line, then as its last line one JSON object:
//   {"correct": ..., "attempted": n, "failed": n, "invalid": "...",
//    "errors": [...], "metrics": {name: {"value": v, "unit": u}}}
// Exit 0 when every check passed, 1 when any failed, 2 on bad arguments.
#include <charconv>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

bool parse(int argc, char** argv, perfbench::Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string value(eq == std::string_view::npos ? ""
                                                         : arg.substr(eq + 1));
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--toy") {
      o.toy = true;
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else if (key == "--commit") {
      o.commit = value;
    } else {
      std::cerr << "perfbench: unknown argument " << arg << "\n";
      return false;
    }
  }
  return !o.work_dir.empty() && o.seconds > 0.0 &&
         (o.workload == "kron-hub" || o.workload == "road-deep" ||
          o.workload == "serve-live");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!parse(argc, argv, o)) {
    std::cerr << "usage: perfbench --workload=<kron-hub|road-deep|serve-live>"
                 " --seed=<n> --seconds=<s> --trace=<0|1> --work-dir=<dir>"
                 " [--toy] [--commit=<sha>]\n";
    return 2;
  }
  std::cout << "provenance workload=" << o.workload << " seed=" << o.seed
            << " trace=" << (o.trace ? 1 : 0) << " size="
            << (o.toy ? "toy" : "full") << " commit=" << o.commit
            << " build=" << PERFBENCH_BUILD_TYPE << " compiler=g++-"
            << __VERSION__ << " nproc=" << std::thread::hardware_concurrency()
            << std::endl;
  perfbench::Report report;
  try {
    report = o.workload == "serve-live" ? perfbench::run_serve_live(o)
                                        : perfbench::run_batch_workload(o);
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }
  const bool correct = report.failed == 0 && report.invalid.empty() &&
                       report.attempted > 0;
  std::string errors;
  for (const auto& e : report.errors) {
    errors += (errors.empty() ? "" : ", ") + quoted(e);
  }
  std::string metrics;
  for (const auto& [name, m] : report.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + quoted(name) +
               ": {\"value\": " + number(m.value) +
               ", \"unit\": " + quoted(m.unit) + "}";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"invalid\": " << quoted(report.invalid) << ", \"errors\": ["
            << errors << "], \"metrics\": {" << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}
