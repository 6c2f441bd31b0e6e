#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Workloads (see BENCHMARK.json for why each exists):
    hier300_churn          300-node 3-tier hierarchy, churn + scripted kills (sim)
    flat12_lossy_adaptive  12-node flat group, adaptive FD, LAN/lossy/LAN (sim)
    live128                128 services on loopback UDP, 16 groups of 8 (live)

`--trace 0` prints the end-to-end metrics; `--trace 1` reruns the same
workload with the layer instruments on and prints the per-layer metrics
(spans go to <build dir>/spans/). The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
when a correctness check failed or the result does not match the metrics
BENCHMARK.json declares. `--seconds` defaults to BENCHMARK.json's
run_seconds.

The program prints only the metrics it measured. Which workloads produce
which metric, and the layer -> metric -> end-to-end mapping, are in
perfbench/metrics.json: a declared metric must be printed by every workload
its "applies" list names, and this script prints 0 for it on the others.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# glibc's malloc backs perfbench's heap with transparent huge pages. With
# 4 KiB pages the simulations' TLB misses tie their wall time to the
# host's memory contention: in alternating runs of one hier300_churn seed
# (30 s budget) on a shared 4-core VM, 4 KiB pages took 23-44 s and huge
# pages 22-31 s.
MALLOC_TUNABLE = "glibc.malloc.hugetlb=1"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def load_json(*parts):
    with open(os.path.join(*parts)) as f:
        return json.load(f)


def declared(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for the mode."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in load_json(ROOT, "BENCHMARK.json")[key]}


def applies(workload):
    """Names of the metrics whose layers run in `workload`."""
    mapping = load_json(HERE, "metrics.json")["metrics"]
    return {name for name, m in mapping.items() if workload in m["applies"]}


def run_binary(binary, args):
    """Runs perfbench; returns (exit code, stdout lines, parsed result or None)."""
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLE)
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, env=env,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n") if proc.stdout else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def check_result(result, trace, workload):
    """Problems with a result line: the printed metrics must be exactly the
    declared metrics of the mode that apply to the workload, with the
    declared units. Fills the declared metrics that do not apply with 0."""
    if result is None:
        return ["no JSON result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are %s" % sorted(result)]
    want = declared(trace)
    required = set(want) & applies(workload)
    got = result["metrics"]
    problems = []
    for name in sorted(required - set(got)):
        problems.append("metric %s applies to %s but was not printed" % (name, workload))
    for name in sorted(set(got) - required):
        problems.append("metric %s printed but not declared for %s" % (name, workload))
    for name in sorted(required & set(got)):
        value = got[name].get("value")
        if got[name].get("unit") != want[name]:
            problems.append("metric %s has unit %s, declared %s"
                            % (name, got[name].get("unit"), want[name]))
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append("metric %s has no numeric value" % name)
    for name in sorted(set(want) - required):
        got[name] = {"value": 0, "unit": want[name]}
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    return problems


def run(args):
    binary = build()
    spans = os.path.join(build_dir(), "spans")
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(spans, exist_ok=True)
        argv += ["--spans", os.path.join(
            spans, "%s-%d.jsonl" % (args.workload, args.seed))]
    code, lines, result = run_binary(binary, argv)
    problems = check_result(result, args.trace, args.workload)
    for line in lines[:-1]:
        print(line)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    if problems:
        return 1
    print(json.dumps(result))
    return code


def self_test():
    """Fast check of the benchmark itself (not a measurement)."""
    binary = build()
    failures = []
    code, lines, _ = run_binary(binary, ["--self-test"])
    print("\n".join(lines))
    if code != 0:
        failures.append("perfbench --self-test failed")
    bench = load_json(ROOT, "BENCHMARK.json")
    mapping = load_json(HERE, "metrics.json")["metrics"]
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = declared(False)
    names = set(end_to_end) | set(declared(True))
    if set(mapping) != names:
        failures.append("metrics.json and BENCHMARK.json name different metrics: %s"
                        % sorted(set(mapping) ^ names))
    for name, m in mapping.items():
        for w in m["applies"] + m.get("schedule_bound", []):
            if w not in workloads:
                failures.append("metrics.json: %s names unknown workload %s" % (name, w))
        for e, w in m.get("moves", []):
            if e not in end_to_end or w not in workloads:
                failures.append("metrics.json: %s moves unknown %s on %s" % (name, e, w))
    # Every workload prints exactly the declared metrics that apply to it,
    # with their units, in both modes (short runs: one set-up, any number
    # of failovers).
    for w in workloads:
        for trace in (0, 1):
            code, _, result = run_binary(binary, [
                "--workload", w, "--seed", "7", "--seconds", "3",
                "--trace", str(trace), "--quick"])
            problems = check_result(result, trace, w)
            if code != 0 or not result or not result["correct"]:
                problems.append("short run not correct (exit %d)" % code)
            for p in problems:
                failures.append("%s trace=%d: %s" % (w, trace, p))
            print("self-test %s trace=%d: %s" % (w, trace, "ok" if not problems else "FAIL"))
    # The p90 gate fires on a real run too short to collect 100 failovers.
    code, lines, result = run_binary(binary, [
        "--workload", workloads[0], "--seed", "7", "--seconds", "3", "--trace", "0"])
    gate = [line for line in lines if line.startswith("# VIOLATION") and "p90" in line]
    if code == 0 or not result or result["correct"] or not gate:
        failures.append("a run short of failovers for its p90 was accepted")
    else:
        print("self-test p90 gate on a short run: ok (%s)" % gate[0][2:])
    for f in failures:
        print("FAIL " + f)
    print("self-test: %s" % ("ok" if not failures else "%d failures" % len(failures)))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=load_json(ROOT, "BENCHMARK.json")["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
