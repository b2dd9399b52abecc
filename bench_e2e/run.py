#!/usr/bin/env python3
"""Builds and runs bench_e2e, the end-to-end benchmark (see README.md).

Run from the repository root:

  python3 bench_e2e/run.py --workload point_read --seed 11 --seconds 10 --trace 0
      one run; the last stdout line is the JSON result
  python3 bench_e2e/run.py --all [--seed N] [--trace 0|1]
      all four workloads, each in a fresh process
  python3 bench_e2e/run.py --smoke
      ~1 s per workload on a 40-avail fleet: every correctness check, every
      metric named in BENCHMARK.json printed, seed-determined inputs
  python3 bench_e2e/run.py --spread 10 [--workload W] [--out FILE]
      ten seeds per workload; prints each metric's median and quartile
      spread against a third of its bound, and saves the values
  python3 bench_e2e/run.py --compare BASE.json NEW.json
      per (workload, metric): NEW's median against BASE's and the bound

The benchmark is compiled from bench_e2e/ and ../src into
.bench_build/bench_e2e (Release). Everything it writes stays under
.bench_build/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "bench_e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
WORKLOADS = ["point_read", "detached_score", "ingest_rw", "retrain_loop"]
RUN_TIMEOUT_S = 170


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "cwd": ROOT}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, **quiet).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    compile_ = ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", "4"]
    return subprocess.run(compile_, **quiet).returncode == 0


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(workload, seed, seconds, trace, extra=(), capture=False):
    """Runs the binary once; returns (exit code, stdout or None)."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, BENCH_E2E_GIT_COMMIT=git_commit())
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir",
           os.path.join(WORK, "e2e_runs", f"{workload}-{seed}-{os.getpid()}"),
           "--trace-out", os.path.join(WORK, "e2e_traces", f"{workload}.tsv")]
    cmd += list(extra)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print(f"bench_e2e: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    return done.returncode, done.stdout


def result_of(stdout):
    lines = (stdout or "").strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_all(args):
    failed = False
    for workload in WORKLOADS:
        code, out = run_one(workload, args.seed, args.seconds, args.trace,
                            capture=True)
        sys.stdout.write(out or "")
        result = result_of(out)
        failed |= code != 0 or result is None or not result["correct"]
    return 1 if failed else 0


def smoke():
    """The correctness smoke test; returns a process exit code."""
    bench = spec()
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"] for m in bench[kind]}
        for workload in WORKLOADS:
            code, out = run_one(workload, 11, 1, trace, ["--smoke"],
                                capture=True)
            result = result_of(out)
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{workload} trace={trace}: run failed")
                sys.stdout.write(out or "")
                continue
            printed = {line.split()[1] for line in out.splitlines()
                       if line.startswith("metric ")}
            missing = (wanted - printed) | (wanted - set(result["metrics"]))
            if missing:
                problems.append(f"{workload} trace={trace}: missing "
                                f"{sorted(missing)}")
    digests = []
    for seed in (11, 11, 12):
        _, out = run_one("ingest_rw", seed, 1, 0, ["--smoke", "--digest"],
                         capture=True)
        digests.append((out or "").strip())
    if not digests[0] or digests[0] != digests[1]:
        problems.append(f"same seed, different inputs: {digests[:2]}")
    if digests[0] == digests[2]:
        problems.append("seed 11 and seed 12 generated identical inputs")
    for problem in problems:
        print("SMOKE FAIL", problem)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def spread(args):
    """N seeds per workload: each metric's median and quartile spread."""
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [args.workload] if args.workload else WORKLOADS
    values = {}
    ok = True
    for workload in workloads:
        for seed in range(1, args.spread + 1):
            code, out = run_one(workload, seed, args.seconds, 0, capture=True)
            result = result_of(out)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED\n{out}")
                ok = False
                continue
            env = [json.loads(l[4:]) for l in out.splitlines()
                   if l.startswith("env ")]
            stamp = env[0] if env else {}
            print(f"{workload} seed {seed}: host_ref_ms "
                  f"{stamp.get('host_ref_ms', 0):.0f}, " +
                  ("valid" if stamp.get("valid") else
                   f"INVALID {stamp.get('invalid_reasons')}"), flush=True)
            measured = {name: metric["value"]
                        for name, metric in result["metrics"].items()}
            # The ungated info lines too: a change is read against them.
            measured.update({l.split()[1]: float(l.split()[2])
                             for l in out.splitlines()
                             if l.startswith("info ")})
            for name, value in measured.items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    value)
    print(f"\n{'workload':15} {'metric':22} {'median':>12} {'spread':>8} "
          f"{'bound/3':>8}")
    for workload, metrics in values.items():
        for name, series in metrics.items():
            if len(series) < 4:
                continue
            q1, q2, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / q2 if q2 else float("inf")
            if name not in bounds:
                print(f"{workload:15} {name:22} {q2:12.5g} {share:8.3f} "
                      f"{'info':>8}")
                continue
            limit = bounds[name] / 3
            flag = "" if share < limit or name == "setup_s" else "  WIDE"
            ok &= flag == ""
            print(f"{workload:15} {name:22} {q2:12.5g} {share:8.3f} "
                  f"{limit:8.3f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


def compare(base_path, new_path):
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    worse = False
    print(f"{'workload':15} {'metric':22} {'base':>12} {'new':>12} "
          f"{'change':>8} {'bound':>6}")
    for workload, metrics in base.items():
        for name, series in metrics.items():
            if name not in new.get(workload, {}):
                continue
            a = statistics.median(series)
            b = statistics.median(new[workload][name])
            change = (b - a) / a if a else 0.0
            if name not in bounds:
                print(f"{workload:15} {name:22} {a:12.5g} {b:12.5g} "
                      f"{change:+8.3f} {'info':>6}")
                continue
            if bounds[name]["better"] == "higher":
                change = -change
            flag = "  REGRESSED" if change > bounds[name]["bound"] else ""
            worse |= bool(flag)
            print(f"{workload:15} {name:22} {a:12.5g} {b:12.5g} "
                  f"{change:+8.3f} {bounds[name]['bound']:6.2f}{flag}")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spread", type=int, metavar="N")
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if not build():
        print("bench_e2e: build failed", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.spread:
        return spread(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload is required")
    code, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
