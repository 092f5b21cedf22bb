#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first call configures and builds the
privid library and the workload binary (perfbench/src) into .bench_build;
later calls only re-check the build. The run prints the binary's
end-to-end block (and, with --trace 1, the per-layer table), a fingerprint
line, and as its last line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end_to_end metrics of
BENCHMARK.json, --trace 1 the per_layer ones: it runs the workload once
untraced and once traced, and trace_overhead_pct compares the two.

--self-check feeds every correctness gate a deliberately wrong expectation
and confirms that the run reports it and exits non-zero.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "privid_perfbench")
RUN_TIMEOUT_S = 170

# The gates each workload checks (see README.md); --self-check corrupts each
# one in turn.
GATES = {
    "cold_adhoc": ["plan_sensitivity", "replay_raw", "budget_books",
                   "ledger_restore"],
    "service_mixed": ["same_window", "budget_books", "ledger_restore"],
    "standing_restart": ["restart_equal", "restart_recomputed",
                         "budget_books", "ledger_restore"],
}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_jobs():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no privid sources (src/CMakeLists.txt) in " + os.getcwd())
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "privid_perfbench",
           "-j", str(build_jobs())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_workload(workload, seed, seconds, trace, inject=None, echo=True):
    """Runs the binary once; returns (exit code, parsed record or None)."""
    run_dir = os.path.join(BUILD_DIR, "run-%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    # Only the benchmark's own arguments configure the run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRIVID_")}
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--run-dir", run_dir]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(run_dir, ignore_errors=True)
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    shutil.rmtree(run_dir, ignore_errors=True)
    record = None
    for line in out.splitlines():
        if line.startswith("PERFBENCH_RECORD "):
            record = json.loads(line[len("PERFBENCH_RECORD "):])
        elif echo:
            print(line)
    return proc.returncode, record


def source_digest():
    """SHA-256 over the library and benchmark sources (path and content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(".git"):
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def measure(args, spec):
    build()
    code, record = run_workload(args.workload, args.seed, args.seconds, False)
    if record is None:
        fail("workload binary exited %d without a record" % code)
    records = [record]
    if args.trace:
        code_t, traced = run_workload(args.workload, args.seed, args.seconds,
                                      True)
        if traced is None:
            fail("traced workload binary exited %d without a record" % code_t)
        records.append(traced)
        code = code or code_t
        layers = dict(traced["layers"])
        layers["trace_overhead_pct"] = 100.0 * (
            record["metrics"]["queries_per_s"] /
            traced["metrics"]["queries_per_s"] - 1.0)
        wanted, source = spec["per_layer"], layers
    else:
        wanted, source = spec["end_to_end"], record["metrics"]

    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            fail("workload binary did not report " + m["name"])
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    fingerprint = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": record["build"]["nproc"],
        "compiler": record["build"]["compiler"],
        "build_type": record["build"]["build_type"],
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "error_rate": record["metrics"]["error_rate"],
    }
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] and result["failed"] == 0 \
        else 1


def self_check():
    """Every gate must catch a deliberately wrong expectation."""
    build()
    missed = []
    for workload, gates in GATES.items():
        for gate in gates:
            code, record = run_workload(workload, 1, 1, False, inject=gate,
                                        echo=False)
            caught = (code != 0 and record is not None and
                      not record["correct"] and
                      any(f.startswith(gate + ":")
                          for f in record["gate_failures"]))
            print("self-check %-16s %-20s %s" %
                  (workload, gate, "caught" if caught else "MISSED"))
            if not caught:
                missed.append(workload + "/" + gate)
    if missed:
        print("self-check failed: " + ", ".join(missed))
        return 1
    print("self-check passed: every gate reports a wrong expectation")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(GATES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the checkout root (BENCHMARK.json not found)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.self_check:
        return self_check()
    if args.workload is None:
        fail("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
