"""Collect result sets and compare them.

Three subcommands, all run from anywhere::

    # run every workload for seeds 0..9 and append one JSON line per run
    python3 benchmarks/e2e/compare.py collect A.jsonl --seeds 0-9

    # do two sets of runs of the same code agree within the bounds?
    python3 benchmarks/e2e/compare.py agree A.jsonl B.jsonl

    # alternate parent and change checkouts and apply the gain rule
    python3 benchmarks/e2e/compare.py ab PARENT_DIR CHANGE_DIR --pairs 10

``agree`` prints one row per (workload, metric) and exits 1 when a
spread (interquartile range over median) exceeds the metric's bound,
when the two medians differ by more than the bound, or when a count
that must repeat exactly differs between the sets for the same seed.
``ab`` claims a gain only when the change wins at least nine tenths of
the pairs and the medians differ by more than the parent's
interquartile range; it exits 1 when a metric got worse by more than
its bound while the parent's spread stays within it.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Per-layer values that must repeat exactly for a seed (traced runs).
DETERMINISTIC = {
    "adversary": ("kernel.nodes", "kernel.backtracks",
                  "kernel.domain_wipeouts", "kernel.mask_intersections"),
    "semcache_zipf": ("semcache.hit_rate", "semcache.exact_hits",
                      "semcache.residual_hits", "semcache.misses",
                      "semcache.admitted", "semcache.evicted"),
    "matrix_warm": ("store.hit_rate.prepare",
                    "store.hit_rate.obligation_verdicts",
                    "store.hit_rate.nonempty"),
}


def load_benchmark(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def seeds_of(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(root, workload, seed, seconds, trace):
    """One benchmark run in checkout *root*; returns its result record."""
    command = [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace",
               str(trace)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    completed = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                               text=True)
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if completed.returncode in (0, 1) else None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": completed.returncode, "result": result}


def load_set(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def values(records, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["result"] is not None
            and metric in r["result"]["metrics"]]


def spread(samples):
    """Interquartile range over median (0 with fewer than two values)."""
    if len(samples) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median if median else math.inf


def worse_by(metric, base, other):
    """How much *other* is worse than *base*, as a share of *base*."""
    if not base:
        return 0.0
    change = (other - base) / base
    return -change if metric["better"] == "higher" else change


def cmd_collect(args):
    benchmark = load_benchmark()
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    with open(args.out, "a") as handle:
        for seed in seeds_of(args.seeds):
            for workload in names:
                record = run_once(ROOT, workload, seed, args.seconds,
                                  args.trace)
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
                result = record["result"] or {}
                print("%-14s seed %-3d exit %d correct %s" % (
                    workload, seed, record["exit"], result.get("correct")),
                    file=sys.stderr)
    return 0


def cmd_agree(args):
    benchmark = load_benchmark()
    first, second = load_set(args.first), load_set(args.second)
    failures = 0
    for record in first + second:
        if record["result"] is None or not record["result"]["correct"]:
            print("run %s seed %s exited %s or was incorrect"
                  % (record["workload"], record["seed"], record["exit"]))
            failures += 1
    print("%-14s %-18s %12s %12s %7s %7s %7s %6s  %s" % (
        "workload", "metric", "median A", "median B", "iqr A", "iqr B",
        "diff", "bound", "verdict"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            a = values(first, workload, metric["name"])
            b = values(second, workload, metric["name"])
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            spread_a, spread_b = spread(a), spread(b)
            diff = max(worse_by(metric, med_a, med_b),
                       worse_by(metric, med_b, med_a))
            bound = metric["bound"]
            problems = []
            if metric["name"] != "setup_s" and max(spread_a, spread_b) > bound:
                problems.append("spread")
            if diff > bound:
                problems.append("medians")
            failures += bool(problems)
            print("%-14s %-18s %12.5g %12.5g %7.3f %7.3f %7.3f %6.2f  %s" % (
                workload, metric["name"], med_a, med_b, spread_a, spread_b,
                diff, bound, ",".join(problems) or "ok"))
    for workload, metrics in DETERMINISTIC.items():
        for metric in metrics:
            by_seed = {}
            for tag, records in (("A", first), ("B", second)):
                for r in records:
                    if r["workload"] == workload and r["result"] and \
                            metric in r["result"]["metrics"]:
                        by_seed.setdefault(r["seed"], {})[tag] = \
                            r["result"]["metrics"][metric]["value"]
            for seed, pair in sorted(by_seed.items()):
                if len(pair) == 2 and pair["A"] != pair["B"]:
                    print("%s %s seed %d: %r != %r" % (
                        workload, metric, seed, pair["A"], pair["B"]))
                    failures += 1
    return 1 if failures else 0


def cmd_ab(args):
    benchmark = load_benchmark(args.parent)
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    sides = {"parent": [], "change": []}
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else \
            ("change", "parent")
        for workload in names:
            for side in order:
                root = args.parent if side == "parent" else args.change
                record = run_once(root, workload, args.seed, args.seconds, 0)
                sides[side].append(record)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(sides, handle)
    regressions = 0
    print("%-14s %-18s %12s %12s %9s %5s  %s" % (
        "workload", "metric", "parent", "change", "parent iqr", "wins",
        "verdict"))
    for workload in names:
        for metric in benchmark["end_to_end"]:
            parent = values(sides["parent"], workload, metric["name"])
            change = values(sides["change"], workload, metric["name"])
            if not parent or not change:
                continue
            wins = sum(1 for p, c in zip(parent, change)
                       if worse_by(metric, p, c) < 0)
            med_p, med_c = statistics.median(parent), statistics.median(change)
            q1, __, q3 = statistics.quantiles(parent, n=4)
            gain = worse_by(metric, med_p, med_c) < 0 and \
                abs(med_c - med_p) > q3 - q1 and \
                wins >= math.ceil(0.9 * len(parent))
            worse = worse_by(metric, med_p, med_c)
            if gain:
                verdict = "gain"
            elif worse <= metric["bound"]:
                verdict = "no regression"
            elif spread(parent) > metric["bound"] and not all(
                    worse_by(metric, p, c) < 0
                    for p in parent for c in change):
                verdict = "unresolved"
            else:
                verdict = "REGRESSION"
                regressions += 1
            print("%-14s %-18s %12.5g %12.5g %9.4g %2d/%-2d  %s" % (
                workload, metric["name"], med_p, med_c, q3 - q1, wins,
                len(parent), verdict))
    return 1 if regressions else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    collect = commands.add_parser("collect")
    collect.add_argument("out")
    collect.add_argument("--seeds", default="0-9")
    collect.add_argument("--workload", action="append")
    collect.add_argument("--trace", type=int, choices=(0, 1), default=0)
    collect.add_argument("--seconds", type=int)
    collect.set_defaults(func=cmd_collect)
    agree = commands.add_parser("agree")
    agree.add_argument("first")
    agree.add_argument("second")
    agree.set_defaults(func=cmd_agree)
    ab = commands.add_parser("ab")
    ab.add_argument("parent")
    ab.add_argument("change")
    ab.add_argument("--pairs", type=int, default=10)
    ab.add_argument("--seed", type=int, default=1)
    ab.add_argument("--workload", action="append")
    ab.add_argument("--seconds", type=int)
    ab.add_argument("--out")
    ab.set_defaults(func=cmd_ab)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
