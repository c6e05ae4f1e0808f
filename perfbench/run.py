#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sched-batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is a Go module of its own (perfbench/go.mod) that uses the
repository's module through a replace directive, so it builds from the
checkout's source. Every build and run output stays inside the checkout,
under .bench_build/. The last line of standard output is the run's JSON
result; everything else goes to standard error.

--selftest runs each workload briefly, traced and untraced, checks that
every metric BENCHMARK.json names is reported with its unit, and checks
that a falsified reference schedule makes operations fail.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT = 170
BUILD_TIMEOUT = 850
WORKLOADS = ("sched-batch", "serve-open", "coldstart")


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def go_env():
    env = dict(os.environ)
    env.update(
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod -buildvcs=false",
        GOWORK="off",
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
    )
    return env


def build():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        proc = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("build failed:", err)
        return False
    if proc.returncode != 0:
        log("build failed with exit code", proc.returncode)
        return False
    return True


def run_binary(args, timeout=RUN_TIMEOUT):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    proc = subprocess.Popen(
        [BINARY] + args, cwd=ROOT, env=go_env(), stdout=subprocess.PIPE,
        stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("run exceeded", timeout, "s; stopping it")
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        return 1, ""
    return proc.returncode, out


def result_of(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run_binary(["--workload", w, "--seed", "7", "--seconds", "2", "--trace", trace])
            res = result_of(out) if code == 0 else None
            if res is None:
                problems.append("%s trace %s: exit %d, no result" % (w, trace, code))
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s trace %s: %d of %d operations failed" % (w, trace, res["failed"], res["attempted"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])
                problems.append("%s trace %s: missing %s, unexpected %s, wrong unit %s" % (w, trace, missing, extra, wrong))
            log("%s trace %s: %d metrics, %d attempted, %d failed" % (w, trace, len(got), res["attempted"], res["failed"]))
        code, out = run_binary(["--workload", w, "--seed", "7", "--seconds", "1", "--trace", "0", "--corrupt-reference"])
        res = result_of(out) if code == 0 else None
        if res is None or res["failed"] == 0 or res["correct"]:
            problems.append("%s: a falsified reference schedule did not fail any operation" % w)
        else:
            log("%s with a falsified reference: %d of %d operations failed, as expected" % (w, res["failed"], res["attempted"]))
    for p in problems:
        log("SELFTEST FAILED:", p)
    if not problems:
        log("selftest passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return selftest()
    code, out = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", args.trace])
    if code != 0:
        log("benchmark exited with code", code)
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
