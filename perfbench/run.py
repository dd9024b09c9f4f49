#!/usr/bin/env python3
"""HybriDS benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first run builds perfbench/ (which
pulls in ../src) into .bench_build/ with CMake; later runs reuse that build.

An untraced run (--trace 0) prints the end-to-end metrics, a traced run
(--trace 1) the per-layer metrics; BENCHMARK.json names both sets and the
gated workloads, and bench.cpp explains why each workload exists;
skiplist_ycsbe runs the same way but is not gated (see bench.cpp). Before
the result the run prints its provenance and every metric the program
measured, with its unit and sample count, including throughput, the p99s,
the per-op-class latencies and error_share, which the gate does not use
yet. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run exits 0 when every output check passed, 1 when one failed, and 2
(printing no result) when the benchmark could not run at all, e.g. in a
tree without the sources.

--selftest checks the benchmark itself at a tiny size: percentile selection,
the stall classifier, dispatch counts and the output oracle (bench.cpp), and
that every workload emits every metric of BENCHMARK.json with its unit.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hybrids_bench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no hybrids sources under src/ in " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "hybrids_bench"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_binary(args):
    try:
        r = subprocess.run([BINARY] + args, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("hybrids_bench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode not in (0, 1, 3) or not lines:
        fail("hybrids_bench exited with %d and no result" % r.returncode)
    try:
        return json.loads(lines[-1]), r.returncode
    except json.JSONDecodeError:
        fail("hybrids_bench printed no JSON result")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def missing_metrics(out, wanted):
    """Declared metrics the program did not emit as a finite number with the
    declared unit."""
    bad = []
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"]
                or not isinstance(got["value"], (int, float))
                or not math.isfinite(got["value"])):
            bad.append(m["name"])
    return bad


def report(out, wanted):
    print("provenance: " + json.dumps(out["provenance"], sort_keys=True))
    print("checks: " + json.dumps(out["checks"], sort_keys=True))
    names = {m["name"] for m in wanted}
    for name in sorted(out["metrics"]):
        m = out["metrics"][name]
        mark = "*" if name in names else " "
        print("%s %-34s %16.6g %-10s n=%d" % (mark, name, m["value"], m["unit"], m["n"]))
    print("(* = metric of this run's result)")


def run(args):
    spec = load_spec()
    build()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
        cmd += ["--spans", os.path.join(BUILD, "spans", args.workload + ".csv")]
    out, code = run_binary(cmd)
    wanted = declared(spec, args.trace)
    if "error" in out["checks"]:
        log("perfbench: run failed: " + out["checks"]["error"])
    else:
        bad = missing_metrics(out, wanted)
        if bad:
            fail("metrics missing or with the wrong unit: " + ", ".join(bad))
        report(out, wanted)
    result = {
        "correct": bool(out["correct"]) and code == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {m["name"]: {"value": out["metrics"][m["name"]]["value"],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in out["metrics"]},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def selftest():
    spec = load_spec()
    build()
    ok = True
    out, code = run_binary(["--selftest"])
    if code != 0 or not out.get("selftest"):
        log("selftest: hybrids_bench --selftest failed")
        ok = False
    for w in spec["workloads"]:
        for trace in (0, 1):
            out, code = run_binary(["--workload", w["name"], "--seed", "1",
                                    "--seconds", "1", "--trace", str(trace),
                                    "--keys", "4096", "--sim-keys", "16384"])
            bad = missing_metrics(out, declared(spec, trace))
            if code != 0 or not out["correct"] or bad:
                log("selftest: %s trace=%d: exit %d, correct %s, missing %s"
                    % (w["name"], trace, code, out["correct"], bad))
                ok = False
    print(json.dumps({"selftest": ok}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
