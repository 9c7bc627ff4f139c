"""End-to-end and per-layer benchmark of the containment system.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload matrix_cold --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the traced run, which reports the per-layer metrics.
``--workload all`` runs every workload, each in its own process.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every verdict and answer was correct.  ``--quick``
(``--seconds 1``) is a quick self-test of the same code paths, and
``--traced`` is ``--trace 1``.

The program is imported from the checkout's ``src`` directory; without
it the run stops with exit code 2 before measuring anything.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(argv, benchmark):
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    parser.add_argument("--quick", dest="seconds", action="store_const",
                        const=1, help="same as --seconds 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def report(workload, result):
    """The human-readable metric table (before the JSON line)."""
    lines = ["%s: %s, %d attempted, %d failed" % (
        workload, "correct" if result["correct"] else "INCORRECT",
        result["attempted"], result["failed"])]
    for name, entry in sorted(result["metrics"].items()):
        lines.append("  %-40s %14.6g %s" % (name, entry["value"],
                                            entry["unit"]))
    return "\n".join(lines)


def run_one(args, benchmark):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs
    import workloads

    run = workloads.Run(ROOT, args.workload, args.seed, args.seconds,
                        bool(args.trace))
    os.makedirs(run.out_dir, exist_ok=True)
    os.environ["TMPDIR"] = run.out_dir
    tempfile.tempdir = run.out_dir
    with open(os.path.join(HERE, "pins.json")) as handle:
        pins = json.load(handle).get(str(args.seed))
    if pins is not None:
        digest = inputs.digest(args.workload, args.seed)
        if digest != pins[args.workload]:
            run.fail("inputs of seed %d changed: digest %s, pinned %s"
                     % (args.seed, digest, pins[args.workload]), ops=0)
    workloads.WORKLOADS[args.workload](run)

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(run.metrics) != set(units):
        missing = sorted(set(units) - set(run.metrics))
        extra = sorted(set(run.metrics) - set(units))
        run.fail("metric set mismatch: missing %s, undeclared %s"
                 % (missing, extra), ops=0)
    for problem in run.problems:
        print("problem: %s" % problem, file=sys.stderr)
    for name, value in sorted(run.notes.items()):
        print("note: %s = %s" % (name, value), file=sys.stderr)
    return {
        "correct": not run.problems and run.attempted > 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in sorted(run.metrics.items())
                    if name in units},
    }


def run_all(args, benchmark):
    results = {}
    for workload in [w["name"] for w in benchmark["workloads"]]:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   text=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode not in (0, 1) or not lines:
            print("%s: exited with %d" % (workload, completed.returncode),
                  file=sys.stderr)
            sys.exit(2)
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w: r["metrics"] for w, r in results.items()},
    }


def main(argv=None):
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no src/repro under %s; run from a checkout of the "
              "repository" % ROOT, file=sys.stderr)
        return 2
    # Started in the background, the harness may inherit an ignored
    # SIGINT, and an ignored signal stays ignored across exec: the service
    # would then not stop on SIGINT.  A handler resets to the default in
    # every child.  SIGTERM unwinds like an exit, so the service is
    # stopped on that path too.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    benchmark = load_benchmark()
    args = parse_args(argv, benchmark)
    if args.workload == "all":
        result = run_all(args, benchmark)
    else:
        result = run_one(args, benchmark)
        print(report(args.workload, result))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
