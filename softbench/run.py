#!/usr/bin/env python3
"""Campaign benchmark of the SOFT reproduction.

Run from the root of a checkout:

    python3 softbench/run.py --workload table4_serial --seed 1 --seconds 20 --trace 0
    python3 softbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 softbench/run.py --smoke

Builds softbench/ (which pulls in the repository's own CMake project) into
.bench_build/softbench, runs the softbench binary there, and passes its
output through. The last line of standard output is one JSON object with
"correct", "attempted", "failed" and "metrics". Traced runs (--trace 1)
also write a Chrome trace, which is validated with tools/check_trace_json.py
before the result is printed. --workload all runs the four workloads in
turn and ends with one table and one combined result line. --smoke runs
every workload at a tiny budget, traced and untraced, checks each metric
set against BENCHMARK.json and validates every trace: the benchmark's
self-test.

Everything is read and written inside the checkout. Exit code 0 on a
correct run, 1 when a check fails, 2 when the benchmark cannot be built or
run (for example in a directory without the repository's sources).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "softbench")
RESULTS = os.path.join(BUILD, "results")
RUN_TIMEOUT_S = 170
WORKLOADS = ("table4_serial", "table4_fleet", "oracle_duckdb", "baselines_pg")


def log(message):
    print(f"softbench: {message}", file=sys.stderr, flush=True)


def build_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler and library temporaries stay in the checkout
    return env


def build():
    """Configures once, then builds the softbench target (a no-op when
    nothing changed). Returns the binary path, or None on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        log(f"{ROOT} holds no repository sources to build")
        return None
    env = build_env()
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "softbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    binary = os.path.join(BUILD, "softbench")
    return binary if os.path.isfile(binary) else None


def commit_id():
    """The checked-out commit, read from .git without running git (the
    benchmark's checkout is usually not a repository)."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(ROOT, ".git", ref)
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as f:
                    return f.read().strip()
            with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def run_binary(binary, args):
    """Runs softbench in the results directory; returns (code, stdout lines)."""
    os.makedirs(RESULTS, exist_ok=True)
    try:
        done = subprocess.run([binary, "--results-dir", RESULTS, "--commit", commit_id()] + args,
                              cwd=RESULTS, env=build_env(), stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"softbench did not finish within {RUN_TIMEOUT_S} s")
        return 2, []
    return done.returncode, done.stdout.splitlines()


def check_trace(path, min_spans):
    checker = os.path.join(ROOT, "tools", "check_trace_json.py")
    done = subprocess.run([sys.executable, checker, path, f"--min-spans={min_spans}"],
                          cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def trace_path_of(lines):
    for line in lines:
        if line.startswith("spans: ") and "Chrome trace: " in line:
            return line.split("Chrome trace: ", 1)[1].strip()
    return None


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_workload(binary, workload, args):
    """Runs one workload and prints its output; returns its result, or None
    when the binary printed no result line."""
    code, lines = run_binary(binary, ["--workload", workload, "--seed", str(args.seed),
                                      "--seconds", str(args.seconds), "--trace",
                                      str(args.trace)])
    result = parse_result(lines)
    if result is None:
        for line in lines:
            print(line)
        log(f"softbench exited with {code} and no result line")
        return None
    if args.trace == 1:
        path = trace_path_of(lines)
        if path is None or not check_trace(path, min_spans=2):
            log("the Chrome trace is missing or does not validate")
            result["correct"] = False
    result["correct"] = result["correct"] and code == 0
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return result


def main_run(args):
    binary = build()
    if binary is None:
        return 2
    if args.workload != "all":
        result = run_workload(binary, args.workload, args)
        return 2 if result is None else 0 if result["correct"] else 1
    # Every workload in turn, then one table and one combined result line
    # whose metric names are prefixed with the workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"=== {workload} ===", flush=True)
        result = run_workload(binary, workload, args)
        if result is None:
            return 2
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print("=== all workloads ===")
    for name, metric in combined["metrics"].items():
        print(f"{name:<52} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main_smoke(args):
    binary = build()
    if binary is None:
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    want = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    code, lines = run_binary(binary, ["--smoke", "--seed", str(args.seed)])
    for line in lines:
        print(line)
    ok = code == 0
    results = [json.loads(line) for line in lines if line.startswith("{\"correct\"")]
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        log("BENCHMARK.json workloads differ from the benchmark's")
        ok = False
    if len(results) != 2 * len(WORKLOADS):
        log(f"expected {2 * len(WORKLOADS)} result lines, got {len(results)}")
        ok = False
    for i, result in enumerate(results):
        names = list(result["metrics"])
        if names != want[i % 2]:
            log(f"result {i}: metrics {names} differ from BENCHMARK.json")
            ok = False
        for name, metric in result["metrics"].items():
            if units.get(name) != metric["unit"]:
                log(f"result {i}: unit of {name} differs from BENCHMARK.json")
                ok = False
        ok = ok and result["correct"]
    traces = [line.split("Chrome trace: ", 1)[1].strip() for line in lines
              if line.startswith("spans: ")]
    if len(traces) != len(WORKLOADS) or not all(check_trace(t, min_spans=2) for t in traces):
        log("a smoke trace is missing or does not validate")
        ok = False
    print(json.dumps({"smoke": "ok" if ok else "failed", "runs": len(results)}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 1 or args.seconds < 1:
        parser.error("--seed and --seconds must be positive")
    if args.smoke:
        return main_smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
