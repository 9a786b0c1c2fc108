#!/usr/bin/env python3
"""Builds and runs the mixed-priority benchmark from the root of a checkout.

    python3 mixbench/run.py --workload text_mixed --seed 1 --seconds 20 --trace 0
    python3 mixbench/run.py --selftest          # builds and runs the check tests

The DiAS sources under src/ are built into .bench_build/ (CMake + Ninja,
Release) on the first run and rebuilt incrementally afterwards. The last
line of stdout is the benchmark's result object; with BENCHMARK.json
present, its metrics are those BENCHMARK.json declares for the mode, and
the rest are printed on an "extra" line before it.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "mixbench")
OUT = os.path.join(HERE, "out")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"mixbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.hpp")):
        raise RuntimeError(f"no DiAS sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr,
                       timeout=CONFIGURE_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "--", "-j", "3"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, target)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "mixbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spill-root", help="directory for text_spill's BlockStore "
                        "(default: mixbench/out)")
    parser.add_argument("--baseline", action="store_true",
                        help="closed-loop job times on a one-worker engine")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        binary = build("mixbench_checks_test" if args.selftest else "mixbench")
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 2
    if args.selftest:
        os.makedirs(BUILD, exist_ok=True)
        return subprocess.run([binary], cwd=BUILD, timeout=RUN_TIMEOUT_S).returncode
    if not args.workload:
        parser.error("--workload is required")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--source-id", source_id()]
    if args.spill_root:
        cmd += ["--spill-root", args.spill_root]
    if args.baseline:
        cmd += ["--baseline", "1"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stdout)
        log(f"benchmark exited with code {proc.returncode} and no result")
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    wanted = None if args.baseline else declared_metrics(args.trace)
    if wanted is not None:
        missing = wanted - set(result["metrics"])
        if missing:
            log(f"metrics missing from the result: {sorted(missing)}")
            return 1
        extra = {k: v for k, v in result["metrics"].items() if k not in wanted}
        if extra:
            print("extra " + json.dumps(extra))
        result["metrics"] = {k: v for k, v in result["metrics"].items() if k in wanted}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
