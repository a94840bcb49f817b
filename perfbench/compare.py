#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

Two subcommands:

  run     Runs the benchmark in two checkouts in alternating order, one
          seed per pair, and appends every result to a JSON-lines file.
  report  Reads such a file and prints, per workload and per metric, each
          side's median and quartiles, the change's win share and a
          verdict; and each side's failure share.

    python3 perfbench/compare.py run --parent ../parent --change . \\
        --workload gemm_flat16 --pairs 10 --out runs.jsonl
    python3 perfbench/compare.py report runs.jsonl

Verdicts follow the rules the benchmark was written to:
  improved    the change wins at least 9 of every 10 pairs (ties count
              for neither side) and the medians differ by more than the
              parent's interquartile range;
  unresolved  the run-to-run spread (interquartile range over median, the
              wider of the two sides) exceeds the metric's bound and not
              every change run reads better than every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound (a share of the parent's median);
  no worse    otherwise.

Traced runs (--trace 1) also carry the determinism canary: the simulated
counts and cache misses must read the same in every run of one workload
at one seed, on both sides; report flags any that differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CANARY = ("sim.instructions_per_req", "sim.femtos_per_req", "engine.cache_misses")


def quartiles(values):
    """Q1, median, Q3 as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def wins(parent, change, better):
    """Pairs the change wins; pairs are matched by index, ties win none."""
    sign = 1 if better == "higher" else -1
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(parent, change, better, bound):
    """The verdict for one metric on one workload (see the module doc)."""
    sign = 1 if better == "higher" else -1
    pairs = min(len(parent), len(change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    if pairs and wins(parent, change, better) >= 0.9 * pairs and gain > p3 - p1:
        return "improved"
    if sign > 0:
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved"
    if gain < -bound * abs(pm):
        return "worse"
    return "no worse"


def canary_mismatches(records):
    """(workload, seed, metric) triples whose canary values differ."""
    seen = {}
    for r in records:
        for metric in CANARY:
            value = r["result"]["metrics"].get(metric)
            if value is not None:
                key = (r["workload"], r["seed"], metric)
                seen.setdefault(key, set()).add(value["value"])
    return sorted(key for key, values in seen.items() if len(values) > 1)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def report(records, benchmark):
    metrics = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    by_workload = {}
    for r in records:
        by_workload.setdefault(r["workload"], {}).setdefault(r["side"], []).append(r)
    for workload, sides in sorted(by_workload.items()):
        parent = sorted(sides.get("parent", []), key=lambda r: r["pair"])
        change = sorted(sides.get("change", []), key=lambda r: r["pair"])
        print(f"== {workload}: {len(parent)} parent runs, {len(change)} change runs")
        shares = []
        for name, runs in (("parent", parent), ("change", change)):
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            share = failed / attempted if attempted else 0.0
            shares.append(share)
            print(f"   failures {name}: {failed}/{attempted} = {share:.6f}")
        if shares[1] > shares[0]:
            print("   failures: worse")
        names = sorted(set(parent[0]["result"]["metrics"]) if parent else [])
        for metric in names:
            spec = metrics.get(metric)
            if spec is None:
                continue
            pv = [r["result"]["metrics"][metric]["value"] for r in parent]
            cv = [r["result"]["metrics"][metric]["value"] for r in change]
            if not pv or not cv:
                continue
            unit = parent[0]["result"]["metrics"][metric]["unit"]
            bound = spec.get("bound")
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            w = wins(pv, cv, spec["better"])
            line = (
                f"   {metric:28s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]"
                f"  change {cm:.6g} [{c1:.6g}, {c3:.6g}] {unit}"
                f"  wins {w}/{min(len(pv), len(cv))}"
            )
            if bound is not None:
                line += f"  -> {verdict(pv, cv, spec['better'], bound)}"
            print(line)
    for workload, seed, metric in canary_mismatches(records):
        print(f"canary MISMATCH: {workload} seed {seed} {metric} differs between runs")


def run(args):
    if args.seconds is None:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    command = ["cargo", "run", "--release", "--offline", "--quiet",
               "--manifest-path", "perfbench/Cargo.toml", "--"]
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = [("parent", args.parent), ("change", args.change)]
            if pair % 2:
                order.reverse()
            for workload in args.workload:
                for side, root in order:
                    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
                    proc = subprocess.run(
                        command + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                        cwd=root, env=env, capture_output=True, text=True)
                    lines = proc.stdout.strip().splitlines()
                    if not lines:
                        sys.exit(f"{side} {workload} seed {seed}: no result "
                                 f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
                    record = {"side": side, "workload": workload, "seed": seed,
                              "pair": pair, "first": side == order[0][0],
                              "result": json.loads(lines[-1])}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: exit {proc.returncode}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run parent and change in alternating order")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True, help="JSON-lines file to append to")
    p = sub.add_parser("report", help="print medians, quartiles, wins and verdicts")
    p.add_argument("runs", help="JSON-lines file written by run")
    p.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    if args.cmd == "run":
        run(args)
    else:
        with open(args.benchmark) as f:
            report(load(args.runs), json.load(f))


if __name__ == "__main__":
    main()
