#!/usr/bin/env python3
"""The repo benchmark: one command that builds perfbench from source, runs one
workload and prints every metric by name and unit. See perfbench/README.md.

  python3 perfbench/run.py --workload kron-hub --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --self-check       # toy sizes, every workload
  python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The exit code is 0 only when every check
passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK_DIR = BUILD / "work"

RUN_SECONDS = 35
BINARY_TIMEOUT_S = 170

WORKLOADS = [
    ("kron-hub",
     "Graph 500 Kronecker scale 18: ~6 levels, 4 bottom-up, heavy hubs; "
     "loads bottom-up expansion and the hub cache, and generation dominates "
     "set-up. Tails are p90."),
    ("road-deep",
     "65k-vertex road grid, ~370 levels of degree <= 5: never bottom-up, hub "
     "cache idle; fixed per-level host cost dominates. Bypass workload. "
     "Tails are p90."),
    ("serve-live",
     "Directed TW stand-in served by 3 workers at a fixed 45 req/s Poisson "
     "rate while edge updates promote snapshots, then saturated; the only "
     "serve-layer workload. Tails are p90."),
]

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("bfs_ms_p50", "ms", "lower", 0.25),
    ("bfs_ms_tail", "ms", "lower", 0.25),
    ("host_mteps", "MTEPS", "higher", 0.25),
    ("sim_gteps", "GTEPS", "higher", 0.15),
    ("serve_p50_ms", "ms", "lower", 0.25),
    ("serve_tail_ms", "ms", "lower", 0.25),
    ("serve_goodput_rps", "req/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

LAYERS = ["graph", "enterprise", "gpusim", "bfs", "baselines", "serve", "obs",
          "unattributed"]

# name, unit, better
PER_LAYER = [
    ("graph.generate_ms", "ms", "lower"),
    ("graph.read_ms", "ms", "lower"),
    ("graph.build_ms", "ms", "lower"),
    ("graph.validate_ms", "ms", "lower"),
    ("graph.reverse_ms", "ms", "lower"),
    ("engine.construct_ms", "ms", "lower"),
    ("engine.levels", "count", "lower"),
    ("engine.bottom_up_levels", "count", "higher"),
    ("engine.edges_inspected", "count", "lower"),
    ("engine.ns_per_edge", "ns", "lower"),
    ("engine.us_per_level", "us", "lower"),
    ("enterprise.hub_cache.hit_rate", "fraction", "higher"),
    ("enterprise.hub_cache.probes", "count", "higher"),
    ("sim.time_ms_p50", "ms", "lower"),
    ("sim.queue_gen_ms", "ms", "lower"),
    ("sim.expand_ms", "ms", "lower"),
    ("sim.gld_transactions", "count", "lower"),
    ("sim.kernels", "count", "lower"),
    ("validate.ms_p50", "ms", "lower"),
    ("cpu.ms_p50", "ms", "lower"),
    ("engine_over_cpu", "ratio", "lower"),
    ("cpu_parallel.ms_p50", "ms", "lower"),
    ("cpu_parallel.speedup", "ratio", "higher"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_tail", "ms", "lower"),
    ("serve.max_queue_depth", "count", "lower"),
    ("serve.service_ms_p50", "ms", "lower"),
    ("serve.gen_lag_ms_tail", "ms", "lower"),
    ("snapshot.promote_ms", "ms", "lower"),
    ("snapshot.drain_ms_p95", "ms", "lower"),
    ("obs.trace_overhead_frac", "fraction", "lower"),
] + [("self_ms." + layer, "ms", "lower") for layer in LAYERS]


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: the library sources (src/) are not in this checkout")
        sys.exit(2)
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # checkouts without git metadata


def run_binary(binary, workload, seed, seconds, trace, toy=False):
    """Runs one workload; returns (provenance lines, result dict or None)."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--work-dir={WORK_DIR}", f"--commit={commit()}"]
    if toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {BINARY_TIMEOUT_S} s")
        return [], None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return lines[:-1], json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: no result from {workload} (exit {proc.returncode})")
        return lines, None


def contract_result(result, trace):
    """Selects the declared metrics; None when one is missing or mis-united."""
    declared = END_TO_END if trace == 0 else PER_LAYER
    metrics = {}
    for entry in declared:
        name, unit = entry[0], entry[1]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            log(f"perfbench: metric {name} [{unit}] missing or mis-united: "
                f"{got}")
            return None
        metrics[name] = {"value": got["value"], "unit": unit}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def measure(args):
    binary = build()
    lines, result = run_binary(binary, args.workload, args.seed, args.seconds,
                               args.trace)
    for line in lines:
        print(line)
    if result is None:
        return 1
    out = contract_result(result, args.trace)
    if out is None:
        return 1
    for name, m in out["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    attempted = max(result["attempted"], 1)
    print(f"error_rate = {result['failed'] / attempted:.6g} fraction "
          f"({result['failed']} of {result['attempted']})")
    if result["invalid"]:
        print(f"invalid run: {result['invalid']}")
    for error in result["errors"]:
        print(f"check failed: {error}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def self_check():
    """Every workload at toy size, both modes; the manifest; the bare copy."""
    problems = []
    manifest_path = ROOT / "BENCHMARK.json"
    if json.loads(manifest_path.read_text()) != manifest():
        problems.append("BENCHMARK.json differs from run.py's manifest")
    binary = build()
    for workload, _ in WORKLOADS:
        for trace in (0, 1):
            _, result = run_binary(binary, workload, 1, 1, trace, toy=True)
            out = result and contract_result(result, trace)
            label = f"{workload} trace={trace}"
            if not out:
                problems.append(f"{label}: no complete result")
            elif not out["correct"] or out["failed"]:
                problems.append(f"{label}: correctness gate failed: "
                                f"{result['errors']} {result['invalid']}")
            else:
                log(f"ok {label}: {len(out['metrics'])} metrics, "
                    f"{out['attempted']} checks")
    # Without the library sources the command must fail without a result.
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(manifest_path, bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kron-hub",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("bare copy without src/ did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)
    for p in problems:
        log("FAIL", p)
    log("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args()
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
