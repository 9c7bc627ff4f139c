"""Compare fresh BENCH_*.json trajectory files against committed seeds.

Usage::

    python check_regression.py --seeds seeds --fresh out [--tolerance 0.25]
                               [--strict-time]

For every seed file ``seeds/BENCH_<module>.json`` the matching fresh
file is loaded and rows are joined by ``fullname``.  Two comparisons:

* **search effort** (deterministic) — a row whose recorded ``nodes``
  exceeds the seed's by more than the tolerance (default 25%) is a
  **failure**; node counts do not depend on machine speed, so any growth
  is a real algorithmic regression.  Rows below the noise floor
  (``--floor``, default 100 nodes) are skipped: on trivial instances a
  few nodes of jitter from e.g. a changed tie-break are meaningless.
* **wall time** (noisy) — mean times beyond ``2x`` tolerance are
  reported as warnings only, unless ``--strict-time`` promotes them to
  failures (CI keeps them advisory: shared runners are too noisy).
* **cold/warm ratio** — a row recording ``cold_over_warm`` (the
  pipeline benchmark's artifact-store speedup, measured cold and warm on
  the same machine in the same process) must stay at least
  ``--min-speedup`` (default 2.0); below that is a warning, promoted to
  failure by ``--strict-time``, because it means the content-addressed
  store stopped doing its job.
* **tail latency** — a row recording ``p99_ms`` (the service
  benchmark's per-request 99th percentile) is compared like mean time:
  growth beyond ``2x`` tolerance over the seed is a warning, a failure
  under ``--strict-time``.  Tail latency is what micro-batching and the
  persistent tier exist to protect, so it gets its own gate instead of
  hiding inside the workload mean.
* **cross-process hit rate** — a row recording
  ``cross_process_hit_rate`` (the fraction of a restarted service's
  lookups served by the persistent tier) must stay positive; zero is a
  **failure** regardless of ``--strict-time``, because it is
  deterministic — it means warm restarts silently recompute.
* **semantic-cache warm hit rate** — a row recording ``warm_hit_rate``
  (the semantic cache's steady-state serving fraction under the seeded
  Zipf workload) must stay at least 0.5 and within tolerance of the
  seed; below that is a **failure** regardless of ``--strict-time``,
  because the replay is fully deterministic for its pinned seed — a
  drop means a serving rule stopped firing, not that a machine got
  slow.

* **certificate soundness** — a fresh row recording both
  ``predicted_nodes`` (the cost certificate's sound search bound) and
  ``nodes`` (the measured effort of the same check) must satisfy
  ``predicted >= actual``; a violation is a **failure** regardless of
  ``--strict-time`` — the bound is mathematical, an unsound one is a
  bug in the abstract interpreter, not noise.
* **union short-circuit** — a fresh row recording both ``union_width``
  and ``branches_decided`` with ``contained`` true (the ucq benchmark's
  width sweep, built so the first sup branch covers every sub branch)
  must satisfy ``branches_decided <= union_width``; more decisions than
  sub branches is a **failure** regardless of ``--strict-time`` — the
  Sagiv–Yannakakis inner loop is deterministic, so exceeding the bound
  means the short-circuit (or the ``branch_verdict`` memo) broke.
* **chase artifact hit rate** — a fresh row recording
  ``chase_hit_rate`` (the ucq benchmark's witness-escalation replay)
  must keep it positive; zero is a **failure** regardless of
  ``--strict-time``, because the replay is deterministic — it means the
  content-addressed chase memoization silently recomputes saturations.

Rows present only on one side are reported (new benchmarks are fine;
vanished ones are a failure, they usually mean a silently skipped
case).  Exit status 0 = clean, 1 = regression.
"""

import argparse
import json
import os
import sys


def load_rows(path):
    with open(path) as handle:
        data = json.load(handle)
    return {row["fullname"]: row for row in data.get("rows", [])}


def compare_module(name, seed_rows, fresh_rows, tolerance, floor,
                   strict_time, min_speedup=2.0):
    failures = []
    warnings = []
    for fullname, seed in sorted(seed_rows.items()):
        fresh = fresh_rows.get(fullname)
        if fresh is None:
            failures.append("%s: row vanished from fresh run" % fullname)
            continue
        seed_nodes = seed.get("extra", {}).get("nodes")
        fresh_nodes = fresh.get("extra", {}).get("nodes")
        if seed_nodes is not None and fresh_nodes is not None:
            if seed_nodes >= floor and fresh_nodes > seed_nodes * (
                1.0 + tolerance
            ):
                failures.append(
                    "%s: search nodes regressed %d -> %d (>%d%%)"
                    % (fullname, seed_nodes, fresh_nodes,
                       int(tolerance * 100))
                )
        seed_ratio = seed.get("extra", {}).get("cold_over_warm")
        fresh_ratio = fresh.get("extra", {}).get("cold_over_warm")
        if seed_ratio is not None and fresh_ratio is not None:
            if fresh_ratio < min_speedup:
                message = (
                    "%s: cold/warm speedup %.2fx below the %.1fx floor "
                    "(seed had %.2fx)"
                    % (fullname, fresh_ratio, min_speedup, seed_ratio)
                )
                (failures if strict_time else warnings).append(message)
        fresh_hit_rate = fresh.get("extra", {}).get("cross_process_hit_rate")
        if seed.get("extra", {}).get(
            "cross_process_hit_rate"
        ) is not None and not fresh_hit_rate:
            failures.append(
                "%s: cross-process hit rate dropped to zero — restarted "
                "processes no longer warm-start from the persistent tier"
                % fullname
            )
        seed_warm = seed.get("extra", {}).get("warm_hit_rate")
        fresh_warm = fresh.get("extra", {}).get("warm_hit_rate")
        if seed_warm is not None and fresh_warm is not None:
            warm_floor = max(0.5, seed_warm * (1.0 - tolerance))
            if fresh_warm < warm_floor:
                failures.append(
                    "%s: warm hit rate %.3f below floor %.3f (seed %.3f) — "
                    "the semantic cache's serving rules regressed"
                    % (fullname, fresh_warm, warm_floor, seed_warm)
                )
        seed_p99 = seed.get("extra", {}).get("p99_ms")
        fresh_p99 = fresh.get("extra", {}).get("p99_ms")
        if seed_p99 and fresh_p99 and fresh_p99 > 1.0:
            if fresh_p99 > seed_p99 * (1.0 + tolerance) * 2.0:
                message = "%s: p99 latency %.2fms -> %.2fms" % (
                    fullname, seed_p99, fresh_p99,
                )
                (failures if strict_time else warnings).append(message)
        seed_mean = seed.get("stats", {}).get("mean")
        fresh_mean = fresh.get("stats", {}).get("mean")
        if seed_mean and fresh_mean and fresh_mean > 0.05:
            if fresh_mean > seed_mean * (1.0 + tolerance) * 2.0:
                message = "%s: mean time %.4fs -> %.4fs" % (
                    fullname, seed_mean, fresh_mean,
                )
                (failures if strict_time else warnings).append(message)
    for fullname in sorted(set(fresh_rows) - set(seed_rows)):
        warnings.append("%s: new row (no seed; not compared)" % fullname)
    return failures, warnings


def check_certificate_soundness(fresh_rows):
    """``predicted_nodes >= nodes`` on every fresh row recording both."""
    failures = []
    for fullname, fresh in sorted(fresh_rows.items()):
        extra = fresh.get("extra", {})
        predicted = extra.get("predicted_nodes")
        actual = extra.get("nodes")
        if predicted is None or actual is None:
            continue
        if int(actual) > int(predicted):
            failures.append(
                "%s: certificate UNSOUND: predicted bound %s < actual %s "
                "search nodes" % (fullname, predicted, actual)
            )
    return failures


def check_union_short_circuit(fresh_rows):
    """``branches_decided <= union_width`` on contained union rows."""
    failures = []
    for fullname, fresh in sorted(fresh_rows.items()):
        extra = fresh.get("extra", {})
        width = extra.get("union_width")
        decided = extra.get("branches_decided")
        if width is None or decided is None or not extra.get("contained"):
            continue
        if int(decided) > int(width):
            failures.append(
                "%s: decided %s branch pairs for a contained union of "
                "width %s — the Sagiv-Yannakakis short-circuit broke"
                % (fullname, decided, width)
            )
    return failures


def check_chase_hit_rate(fresh_rows):
    """``chase_hit_rate`` must stay positive wherever it is recorded."""
    failures = []
    for fullname, fresh in sorted(fresh_rows.items()):
        rate = fresh.get("extra", {}).get("chase_hit_rate")
        if rate is None:
            continue
        if not rate:
            failures.append(
                "%s: chase artifact hit rate dropped to zero — witness "
                "escalation recomputes saturations instead of replaying "
                "the content-addressed chase artifact" % fullname
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="seeds",
                        help="directory of committed seed BENCH_*.json")
    parser.add_argument("--fresh", default=".",
                        help="directory of freshly produced BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional growth (default 0.25)")
    parser.add_argument("--floor", type=int, default=100,
                        help="ignore rows whose seed node count is below "
                             "this (default 100)")
    parser.add_argument("--strict-time", action="store_true",
                        help="treat wall-time growth (and a cold/warm "
                             "speedup below the floor) as failure, not "
                             "warning")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="minimum acceptable cold/warm ratio for rows "
                             "recording one (default 2.0)")
    options = parser.parse_args(argv)

    seed_files = sorted(
        name
        for name in os.listdir(options.seeds)
        if name.startswith("BENCH_") and name.endswith(".json")
    )
    if not seed_files:
        print("no seed files under %s" % options.seeds)
        return 1

    all_failures = []
    for name in seed_files:
        fresh_path = os.path.join(options.fresh, name)
        if not os.path.exists(fresh_path):
            message = "%s: fresh file missing" % name
            print("FAIL  %s" % message)
            all_failures.append(message)
            continue
        fresh_rows = load_rows(fresh_path)
        failures, warnings = compare_module(
            name,
            load_rows(os.path.join(options.seeds, name)),
            fresh_rows,
            options.tolerance,
            options.floor,
            options.strict_time,
            options.min_speedup,
        )
        failures.extend(check_certificate_soundness(fresh_rows))
        failures.extend(check_union_short_circuit(fresh_rows))
        failures.extend(check_chase_hit_rate(fresh_rows))
        for message in warnings:
            print("WARN  %s" % message)
        for message in failures:
            print("FAIL  %s" % message)
        if not failures and not warnings:
            print("ok    %s" % name)
        all_failures.extend(failures)

    if all_failures:
        print("%d regression(s)" % len(all_failures))
        return 1
    print("no regressions against %d seed file(s)" % len(seed_files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
