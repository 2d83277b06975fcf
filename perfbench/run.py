#!/usr/bin/env python3
"""Repo benchmark entry point.

Run from the repo root:

    python3 perfbench/run.py --workload train-wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the benchmark package (perfbench/,
which builds the library from src/) into .bench_build/perfbench, or
under $CARGO_TARGET_DIR when that is set; later calls rebuild
incrementally. The benchmark binary's stdout is passed through: a
`config {...}` line with the resolved configuration, then the result
JSON as the last line. Build output and diagnostics go to stderr.

Any MLS_* environment variable makes the run refuse to start (exit 2):
the library reads them as tuning knobs, and one set by accident would
measure a different program.

--self-test runs every workload at tiny shapes and checks that each
prints every metric named in BENCHMARK.json with its unit, that a
deliberately perturbed reference fails the correctness gates, and that
an MLS_* variable is refused.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["train-wide", "serve-decode"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def mls_environment():
    return sorted(k for k in os.environ if k.startswith("MLS_"))


def run_binary(binary, args, env=None):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.run([str(binary)] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, env=env, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def self_test(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        log(("  ok    " if ok else "  FAIL  ") + what)
        if not ok:
            failures.append(what)

    tiny = ["--seed", "3", "--seconds", "0.2", "--tiny"]
    for w in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_binary(binary, ["--workload", w, "--trace", str(trace)] + tiny)
            res = parse_result(lines)
            check(code == 0 and res is not None and res["correct"],
                  f"{w} trace={trace}: runs and passes its gates")
            got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
            check(got == wanted[trace],
                  f"{w} trace={trace}: prints exactly the BENCHMARK.json metrics with their units"
                  + ("" if got == wanted[trace] else
                     f" (missing {sorted(set(wanted[trace]) - set(got))},"
                     f" extra {sorted(set(got) - set(wanted[trace]))})"))
        code, lines = run_binary(binary, ["--workload", w, "--trace", "0", "--perturb"] + tiny)
        res = parse_result(lines)
        check(code == 0 and res is not None and res["correct"] is False,
              f"{w}: a perturbed reference fails the correctness gate")
    env = dict(os.environ, MLS_KERNEL_THREADS="1")
    code, lines = run_binary(binary, ["--workload", "serve-decode", "--trace", "0"] + tiny, env)
    check(code != 0 and parse_result(lines) is None, "an MLS_* variable is refused")
    log(f"self-test: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    stray = mls_environment()
    if stray:
        log(f"refusing to run with {', '.join(stray)} set: the library reads MLS_* "
            "variables as tuning knobs")
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.self_test:
        return self_test(binary)

    try:
        code, lines = run_binary(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                          "--seconds", str(args.seconds),
                                          "--trace", str(args.trace)])
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if code != 0 or parse_result(lines) is None:
        log(f"benchmark exited with code {code} and no result")
        return code or 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
