#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest

`all` runs every workload, one after the other.

Run from the root of a checkout. The first run configures and builds the
libraries under src/ and the benchmark (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed.

A run prints every metric the workload measured, by name with its unit,
then, as its last line, one JSON object with the metrics BENCHMARK.json
names: the end-to-end ones with --trace 0, the per-layer ones with
--trace 1. A per-layer metric of a layer the workload never calls into
reads 0. The exit status is 0 only when every output check held.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["audit_full", "ingest_durable", "mine_templates"]
# The binary's own watchdog fails a hung run at 160 s; this is the last
# resort behind it, inside the 180 s a run may take.
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_checked(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        status = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if status != 0:
        raise RuntimeError("command failed (%d): %s" % (status, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(
            "no library sources: %s/src/CMakeLists.txt is missing; run from "
            "the root of a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake is not installed")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", bdir, "--target", "perfbench",
                 "perfbench_selftest", "-j", jobs])
    return bdir


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(bdir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit status, notes, full result or None)."""
    work = os.path.join(bdir, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", work]
    if trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, [], None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    notes = [line for line in lines if line.startswith("#")]
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, notes, result


def select(result, wanted, fill_zero):
    """The contract's result line: exactly the metrics in `wanted`."""
    metrics = {}
    missing = []
    for spec in wanted:
        measured = result["metrics"].get(spec["name"])
        if measured is None:
            if not fill_zero:
                missing.append(spec["name"])
                continue
            measured = {"value": 0, "unit": spec["unit"]}
        metrics[spec["name"]] = {"value": measured["value"],
                                 "unit": spec["unit"]}
    if missing:
        raise RuntimeError("workload did not report: " + ", ".join(missing))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_metrics(workload, result, end_to_end, per_layer):
    groups = [("end-to-end", {m["name"] for m in end_to_end}),
              ("per-layer", {m["name"] for m in per_layer})]
    for title, names in groups:
        print("# %s %s:" % (workload, title))
        for name in sorted(names & result["metrics"].keys()):
            m = result["metrics"][name]
            print("#   %-44s %.6g %s" % (name, m["value"], m["unit"]))
    other = sorted(result["metrics"].keys() - groups[0][1] - groups[1][1])
    if other:
        print("# %s by workload-specific name:" % workload)
        for name in other:
            m = result["metrics"][name]
            print("#   %-44s %.6g %s" % (name, m["value"], m["unit"]))


def main():
    parser = argparse.ArgumentParser(
        description="Build and run the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the span and percentile self-test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    try:
        spec = load_spec()
        end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
        bdir = build()
    except (OSError, ValueError, KeyError, RuntimeError) as e:
        log("perfbench: %s" % e)
        return 2
    if args.selftest:
        return subprocess.call([os.path.join(bdir, "perfbench_selftest")])

    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    wanted = per_layer if args.trace else end_to_end
    status = 0
    results = {}
    for workload in workloads:
        code, notes, result = run_workload(bdir, workload, args.seed,
                                           args.seconds, args.trace)
        for note in notes:
            print(note)
        if result is None:
            log("%s: the benchmark printed no result" % workload)
            return 1
        print_metrics(workload, result, end_to_end, per_layer)
        try:
            results[workload] = select(result, wanted, fill_zero=args.trace)
        except RuntimeError as e:
            log("%s: %s" % (workload, e))
            return 1
        if code != 0 or not result["correct"]:
            log("%s: FAILED (exit %d, correct=%s)"
                % (workload, code, result["correct"]))
            status = 1
    sys.stdout.flush()
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({"workloads": results}))
    return status


if __name__ == "__main__":
    sys.exit(main())
