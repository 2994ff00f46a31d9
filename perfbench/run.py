#!/usr/bin/env python3
"""Paper-scale wafer benchmark: builds the simulator from source, runs one
workload for a host-time budget, checks its outputs, and prints every metric
by name and unit.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload cosim_allreduce --seed 1 \
        --seconds 10 --trace 0

Workloads: cosim_allreduce, cosim_spiking_fine, campaign_pipeline,
graph_sssp.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer split (and writes the spans as Chrome trace_event JSON next to the
build).  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "wsp_perfbench")
WORKLOADS = ("cosim_allreduce", "cosim_spiking_fine", "campaign_pipeline",
             "graph_sssp")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the Release benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: library sources (src/) not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "wsp_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def validate_trace(trace_path):
    """Checks the span file against the repository's trace schema."""
    cmd = [sys.executable, os.path.join(ROOT, "tools", "validate_json.py"),
           os.path.join(ROOT, "schemas", "trace.schema.json"), trace_path]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode == 0, (proc.stdout + proc.stderr).strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    trace_path = os.path.join(
        BUILD, f"TRACE_perfbench_{args.workload}_{args.seed}.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: benchmark binary exited with "
                         f"{proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    checks = list(raw["checks"])
    host = raw["host"]
    release = host["build_type"] == "Release"
    checks.append({"name": "release_build", "ok": release,
                   "detail": f"build type {host['build_type']}"})
    if args.trace:
        ok, detail = validate_trace(trace_path)
        checks.append({"name": "trace_matches_schema", "ok": ok,
                       "detail": detail or trace_path})
    metrics = raw["metrics"]
    missing = [n for n in expected_metrics(args.trace) if n not in metrics]
    checks.append({"name": "all_metrics_reported", "ok": not missing,
                   "detail": "missing: " + ", ".join(missing) if missing
                   else "every metric of BENCHMARK.json"})

    correct = raw["failed"] == 0 and all(c["ok"] for c in checks)
    print(f"workload {raw['workload']}  seed {raw['seed']}  "
          f"trace {raw['trace']}")
    print(f"host: cpu={host['cpu']!r} nproc={host['nproc']} "
          f"pool_threads={host['pool_threads']} compiler={host['compiler']!r} "
          f"build={host['build_type']}"
          + ("" if release else "  INVALID: not a Release build"))
    print(f"runs: attempted {raw['attempted']}, failed {raw['failed']}")
    if raw["wall_samples_s"]:
        print("raw wall_s per run: "
              + " ".join(f"{v:.4f}" for v in raw["wall_samples_s"]))
    if raw["probe_samples_s"]:
        probe = sorted(raw["probe_samples_s"])
        print(f"host probe: {len(probe)} samples, median "
              f"{probe[len(probe) // 2] * 1e3:.2f} ms; host_scale "
              f"{raw['host_scale']:.4f} (reported host time = raw x scale)")
    for c in checks:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'}"
              + (f" ({c['detail']})" if c["detail"] else ""))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
