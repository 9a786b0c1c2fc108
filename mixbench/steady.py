#!/usr/bin/env python3
"""Steadiness report for the mixed-priority benchmark.

Runs every workload N times, each with another seed, round-robin across
workloads so host drift touches all of them alike, and reports for each
metric the median, the quartiles, the spread (q3 - q1) / median and the
worst deviation from the median, against the bound BENCHMARK.json sets.

    python3 mixbench/steady.py --runs 10                    # untraced runs
    python3 mixbench/steady.py --runs 5 --traced            # + traced runs, overhead
    python3 mixbench/steady.py --runs 10 --save out/a.jsonl # keep the raw runs
    python3 mixbench/steady.py --load out/a.jsonl out/b.jsonl  # pool saved runs

Bounds should be set from runs saved at different times of day and pooled
with --load, not from one quiet burst.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["text_mixed", "graph_mixed", "text_spill"]


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    record = {"workload": workload, "seed": seed, "trace": trace, "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        kind, _, body = line.partition(" ")
        if kind in ("health", "extra"):
            record[kind] = json.loads(body)
    return record


def bounds():
    return {m["name"]: m["bound"] for m in spec().get("end_to_end", [])}


def values_by_metric(records):
    out = {}
    for r in records:
        metrics = dict(r.get("extra", {}))
        metrics.update(r["result"]["metrics"])
        for name, m in metrics.items():
            out.setdefault(name, []).append(m["value"])
    return out


def report(records):
    bound = bounds()
    for workload in WORKLOADS:
        untraced = [r for r in records if r["workload"] == workload and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == workload and r["trace"] == 1]
        if not untraced:
            continue
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in untraced})
        ok = all(r["result"]["correct"] for r in untraced + traced)
        steal = [r["health"]["steal_s"] for r in untraced if "health" in r]
        probe = [r["health"]["host_probe_s"] for r in untraced if "health" in r]
        print(f"\n{workload}: {len(untraced)} runs, correct={ok}, failed shares={shares}, "
              f"steal_s median={statistics.median(steal):.2f} max={max(steal):.2f}, "
              f"host probe {min(probe):.4f}-{max(probe):.4f} s")
        print(f"  {'metric':<24}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'worst':>9}"
              f"{'bound':>8}  verdict")
        untraced_values = values_by_metric(untraced)
        for name, vals in untraced_values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(abs(v - med) for v in vals) / med if med else float("inf")
            b = bound.get(name)
            if b is None:
                verdict = "not gated"
            elif spread <= b / 3:
                verdict = "steady"
            elif spread <= b:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
            print(f"  {name:<24}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.3f}{worst:>9.3f}"
                  f"{'-' if b is None else b:>8}  {verdict}")
        if traced:
            traced_values = values_by_metric(traced)
            for plain, name, sign in (("low_jobs_per_s", "traced.low_jobs_per_s", -1),
                                      ("high_resp_p50_s", "traced.high_resp_p50_s", 1)):
                base = statistics.median(untraced_values[plain])
                with_trace = statistics.median(traced_values[name])
                print(f"  tracing overhead on {plain}: {100 * sign * (with_trace - base) / base:+.1f}%"
                      f" (untraced median {base:.6g}, traced median {with_trace:.6g},"
                      f" {len(traced)} traced runs)")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json, else 20")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec().get("workloads", [{"name": n} for n in WORKLOADS])))
    parser.add_argument("--traced", action="store_true", help="also run each seed traced")
    parser.add_argument("--save", help="append the raw runs to this JSONL file")
    parser.add_argument("--load", nargs="*", help="report on saved runs instead of running")
    args = parser.parse_args()

    if args.load:
        records = []
        for path in args.load:
            with open(path) as f:
                records += [json.loads(line) for line in f if line.strip()]
        report(records)
        return 0

    seconds = args.seconds or spec().get("run_seconds", 20)
    records = []
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in args.workloads.split(","):
            for trace in ((0, 1) if args.traced else (0,)):
                r = run_once(workload, seed, seconds, trace)
                records.append(r)
                print(f"{workload} seed {seed} trace {trace}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in r["result"]["metrics"].items()
                                 if not k.startswith(("spill.", "storage.", "shuffle.", "engine.",
                                                      "pool.", "analytics.", "dispatcher.",
                                                      "runtime."))),
                      flush=True)
                if args.save:
                    with open(args.save, "a") as f:
                        f.write(json.dumps(r) + "\n")
    report(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
