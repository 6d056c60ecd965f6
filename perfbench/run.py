#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload reduce-nyx --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark compiles the library from the
checkout's own sources into .bench_build/perfbench, runs one workload with
OMP_NUM_THREADS=4, and passes the program's output through; the last stdout
line is the JSON result. --selftest runs every workload at a tiny scale, with
and without tracing, and checks that every metric BENCHMARK.json names is
reported with its unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("reduce-nyx", "reduce-grf")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the binary up to date (a no-op rebuild
    when nothing changed). Build output goes to stderr."""
    if not (ROOT / "src" / "api" / "mrc_api.h").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_stamp():
    """(git sha or "none", sha256 over the library sources) for the stamp."""
    sha = "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return sha, h.hexdigest()[:16]


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    env = dict(os.environ, OMP_NUM_THREADS="4")
    proc = subprocess.run([str(BINARY)] + args, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        raise ValueError("no output")
    res = json.loads(lines[-1])
    if set(res) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(res)}")
    return res


def selftest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from the benchmark's")
    build()
    problems = []
    for wl in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_binary(["--workload", wl, "--seed", "3", "--seconds", "1",
                                      "--trace", str(trace), "--edge", "64"])
            tag = f"{wl} --trace {trace}"
            if code != 0:
                problems.append(f"{tag}: exit code {code}")
                continue
            try:
                res = parse_result(lines)
            except ValueError as e:
                problems.append(f"{tag}: bad result line: {e}")
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in set(got) & set(want[trace]) if got[k] != want[trace][k])
                problems.append(f"{tag}: missing {missing} extra {extra} unit mismatch {units}")
            if not all(isinstance(v.get("value"), (int, float)) for v in res["metrics"].values()):
                problems.append(f"{tag}: non-numeric metric value")
            if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} attempted={res['attempted']} "
                                f"failed={res['failed']}")
            print(f"selftest {tag}: {len(got)} metrics, attempted {res['attempted']}, "
                  f"failed {res['failed']}")
    for p in problems:
        print(f"selftest FAILED {p}", file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.selftest:
        return selftest()
    if a.workload is None:
        fail("--workload is required")
    build()
    sha, digest = source_stamp()
    code, lines = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                              "--seconds", str(a.seconds), "--trace", str(a.trace),
                              "--sha", sha, "--src-digest", digest])
    for line in lines:
        print(line)
    if code != 0:
        return code
    try:
        parse_result(lines)
    except ValueError as e:
        print(f"perfbench: no valid result line: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
