"""Command-line interface.

Usage::

    python -m repro contain  --schema 'r:a,b;s:k,b' SUP SUB [--jobs N --timeout-s T --stats --trace-out trace.json]
    python -m repro matrix   --schema 'r:a,b' Q1 Q2 Q3 [--jobs N --timeout-s T]
    python -m repro equiv    --schema 'r:a,b' Q1 Q2 [--weak]
    python -m repro lint     --schema 'r:a,b' QUERY_OR_FILE... [--format json --explain COQLNNN]
    python -m repro analyze  --schema 'r:a,b' QUERY_OR_FILE... [--against Q --witnesses N --budget B --data db.json --format json]
    python -m repro eval     --schema 'r:a,b' --data db.json QUERY
    python -m repro minimize --schema 'r:a,b' QUERY
    python -m repro cq-contain 'q(X) :- r(X,Y)' 'q(X) :- r(X,Y), s(Y)'
    python -m repro serve    --store-path cache.db [--host H --port P --jobs N --timeout-s T]
    python -m repro semcache --scenario company --steps 200 --seed 7 [--zipf S --churn P --oracle --json]

Schemas are written ``name:attr,attr;name:attr`` (attributes atomic).
Databases for ``eval`` are JSON files ``{"relation": [{"attr": value}]}``.
``lint`` targets are inline queries or ``.coql`` files (``#`` comments;
a ``# schema: r:a,b`` directive overrides ``--schema``, and
``# constraint: r[a] -> s[b]`` directives declare inclusion
dependencies for that file).

Inclusion dependencies (``repro.constraints``) enter through
``--constraints DEP_OR_FILE`` (repeatable) on ``contain`` / ``matrix``
/ ``equiv`` / ``lint`` / ``serve``: each value is either an inline
dependency ``r[a,b] -> s[x,y]`` or a path to a file of one dependency
per line (``#`` comments allowed).  Declared dependencies feed the
chase stage — the sub-side's canonical witnesses are saturated before
the simulation search, so verdicts hold over databases satisfying the
dependencies.

Exit codes, uniform across the decision subcommands (see docs/API.md):

* **0** — positive verdict: contained / equivalent / every matrix cell
  decided / no error-severity lint findings;
* **1** — negative verdict: not contained / not equivalent / an
  undecided or incomparable matrix cell / error-severity lint findings;
* **2** — usage error: bad flags, bad schema, a query that does not
  parse (``lint`` reports parse errors as COQL000 findings instead);
* **3** — UNDECIDED: a ``contain --timeout-s`` check timed out.
"""

import argparse
import json
import sys

from repro.errors import ReproError

__all__ = ["main"]


def _parse_schema(text):
    schema = {}
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        name, __, attrs = entry.partition(":")
        schema[name.strip()] = tuple(
            a.strip() for a in attrs.split(",") if a.strip()
        )
    if not schema:
        raise ReproError("empty schema (expected 'name:attr,attr;...')")
    return schema


def _load_constraints(values):
    """``--constraints`` values → a tuple of InclusionDependency.

    Each value is either an inline dependency (``r[a] -> s[b]``) or a
    path to a file of one dependency per line (blank lines and ``#``
    comments skipped).  Malformed dependencies raise
    :class:`~repro.errors.ReproError` — a usage error (exit 2).
    """
    import os

    from repro.constraints import parse_constraint, parse_constraints

    dependencies = []
    for value in values or ():
        if os.path.exists(value):
            with open(value) as handle:
                dependencies.extend(
                    parse_constraints(handle.read().splitlines())
                )
        else:
            dependencies.append(parse_constraint(value))
    return tuple(dependencies)


def _print_stats(engine):
    print("--- engine stats ---", file=sys.stderr)
    print(engine.stats().format(), file=sys.stderr)
    summary = engine.tracer().stage_summary()
    if summary:
        print("--- per-stage breakdown ---", file=sys.stderr)
        width = max(len(stage) for stage in summary)
        for stage in sorted(summary):
            entry = summary[stage]
            line = "%-*s  %4d run(s)  %10.6fs" % (
                width, stage, entry["runs"], entry["seconds"],
            )
            if entry["hits"] or entry["misses"]:
                line += "  (%d hit(s), %d miss(es))" % (
                    entry["hits"], entry["misses"],
                )
            print(line, file=sys.stderr)


def _write_trace(engine, path):
    """Export the engine's trace as Chrome ``trace_event`` JSON.

    Load the file at ``chrome://tracing`` / https://ui.perfetto.dev, or
    post-process it — the format is one JSON object with a
    ``traceEvents`` list of complete (``ph: "X"``) events.
    """
    engine.tracer().write_chrome_trace(path)
    print("trace written to %s" % path, file=sys.stderr)


def _cmd_contain(args):
    from repro.engine import UNDECIDED, ContainmentEngine, ParallelContainmentEngine

    schema = _parse_schema(args.schema)
    constraints = _load_constraints(args.constraints)
    if args.jobs is not None or args.timeout_s is not None:
        engine = ParallelContainmentEngine(
            jobs=args.jobs, timeout_s=args.timeout_s, method=args.method,
            store_path=args.store_path, constraints=constraints,
        )
        with engine:
            verdict = engine.contains(args.sup, args.sub, schema)
    else:
        engine = ContainmentEngine(
            store_path=args.store_path, constraints=constraints
        )
        verdict = engine.contains(args.sup, args.sub, schema, method=args.method)
        store = engine.store()
        if hasattr(store, "flush"):
            store.flush()
    if verdict is UNDECIDED:
        print("UNDECIDED (timed out after %gs)" % args.timeout_s)
    else:
        print("contained" if verdict else "NOT contained")
    if args.stats:
        _print_stats(engine)
    if args.trace_out:
        _write_trace(engine, args.trace_out)
    if verdict is UNDECIDED:
        return 3
    return 0 if verdict else 1


_MATRIX_CELLS = {True: "+", False: "-", None: "!"}


def _cmd_matrix(args):
    from repro.engine import ParallelContainmentEngine

    schema = _parse_schema(args.schema)
    engine = ParallelContainmentEngine(
        jobs=args.jobs, timeout_s=args.timeout_s, method=args.method,
        constraints=_load_constraints(args.constraints),
    )
    with engine:
        matrix = engine.pairwise_matrix(args.queries, schema)
    names = ["q%d" % i for i in range(len(args.queries))]
    width = max(len(n) for n in names)
    print("%*s  %s" % (width, "", " ".join("%*s" % (width, n) for n in names)))
    for name, row in zip(names, matrix):
        cells = (_MATRIX_CELLS.get(v, "?") for v in row)
        print("%*s  %s" % (width, name,
                           " ".join("%*s" % (width, c) for c in cells)))
    print("(+ contained  - not contained  ! incomparable  ? timed out;"
          " cell [i][j]: qj ⊑ qi)")
    if args.stats:
        _print_stats(engine)
    if args.trace_out:
        _write_trace(engine, args.trace_out)
    # 0 only when every cell was decided; an incomparable (None) or
    # timed-out (UNDECIDED) cell is a negative outcome, like exit 1 of
    # `contain`/`equiv` — scripts can trust a zero exit to mean a fully
    # decided matrix.
    decided = all(cell is True or cell is False for row in matrix for cell in row)
    return 0 if decided else 1


def _cmd_equiv(args):
    from repro.engine import ContainmentEngine

    schema = _parse_schema(args.schema)
    engine = ContainmentEngine(constraints=_load_constraints(args.constraints))
    if args.weak:
        verdict = engine.weakly_equivalent(
            args.q1, args.q2, schema, method=args.method
        )
        print("weakly equivalent" if verdict else "NOT weakly equivalent")
    else:
        verdict = engine.equivalent(args.q1, args.q2, schema, method=args.method)
        print("equivalent" if verdict else "NOT equivalent")
    if args.stats:
        _print_stats(engine)
    if args.trace_out:
        _write_trace(engine, args.trace_out)
    return 0 if verdict else 1


def _codes(text):
    if text is None:
        return None
    return tuple(code.strip() for code in text.split(",") if code.strip())


def _read_coql_file(text):
    """Split a ``.coql`` file into (query text, schema, constraints).

    ``#`` lines are comments; a ``# schema: r:a,b;s:k`` directive names
    the schema the file is linted against, and each
    ``# constraint: r[a] -> s[b]`` directive declares an inclusion
    dependency the file's checks hold under.  Comment lines are
    blanked, not removed, so diagnostic line numbers match the file.
    """
    from repro.constraints import parse_constraint

    schema = None
    constraints = []
    lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            directive = stripped.lstrip("#").strip()
            if directive.lower().startswith("schema:"):
                schema = _parse_schema(directive[len("schema:"):])
            elif directive.lower().startswith("constraint:"):
                constraints.append(
                    parse_constraint(directive[len("constraint:"):])
                )
            lines.append("")
            continue
        lines.append(line)
    return "\n".join(lines), schema, tuple(constraints)


def _explain_rule(code):
    from repro.analysis import get_rule

    rule = get_rule(code)  # unknown codes raise ReproError -> exit 2
    print("%s (%s)" % (rule.code, rule.name))
    print("severity: %s%s" % (rule.severity,
                              "  [expensive]" if rule.expensive else ""))
    print("paper: %s" % rule.paper)
    print("kind: %s" % rule.kind)
    print()
    print(rule.summary)
    doc = rule.check.__doc__ if rule.check is not None else None
    if doc:
        import inspect

        print()
        print(inspect.cleandoc(doc))
    return 0


def _cmd_lint(args):
    import os

    from repro.analysis import ERROR, AnalysisConfig, analyze
    from repro.engine import ContainmentEngine

    if args.explain:
        return _explain_rule(args.explain)
    if not args.targets:
        raise ReproError("no targets (pass queries/.coql files, or "
                         "--explain CODE)")

    engine = ContainmentEngine()
    base_constraints = _load_constraints(args.constraints)
    base_schema = _parse_schema(args.schema) if args.schema else None
    results = []
    counts = {"error": 0, "warning": 0, "info": 0}
    for target in args.targets:
        if target.endswith(".coql") or os.path.exists(target):
            with open(target) as handle:
                query, schema, file_constraints = _read_coql_file(
                    handle.read()
                )
            schema = schema or base_schema
        else:
            query, schema = target, base_schema
            file_constraints = ()
        if schema is None:
            raise ReproError(
                "no schema for %r: pass --schema or a '# schema: ...' "
                "directive" % (target,)
            )
        config = AnalysisConfig(
            complexity_budget=args.budget, expensive=not args.no_minimize,
            constraints=base_constraints + file_constraints,
        )
        diagnostics = [
            d.with_target(target)
            for d in analyze(
                query, schema, engine=engine, config=config,
                select=_codes(args.select), ignore=_codes(args.ignore),
            )
        ]
        for diagnostic in diagnostics:
            counts[diagnostic.severity] += 1
        results.append((target, diagnostics))

    if args.format == "json":
        payload = {
            "version": 1,
            "targets": [
                {"target": target,
                 "diagnostics": [d.as_dict() for d in diagnostics]}
                for target, diagnostics in results
            ],
            "summary": {
                "targets": len(results),
                "errors": counts["error"],
                "warnings": counts["warning"],
                "infos": counts["info"],
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for target, diagnostics in results:
            if not diagnostics:
                print("%s: ok" % target)
                continue
            for diagnostic in diagnostics:
                print("%s: %s" % (target, diagnostic.format()))
        print(
            "%d target(s): %d error(s), %d warning(s), %d info(s)"
            % (len(results), counts["error"], counts["warning"],
               counts["info"])
        )
    if args.stats:
        _print_stats(engine)
    return 1 if counts[ERROR] else 0


def _analyze_stats(path):
    from repro.analysis import DatabaseStatistics
    from repro.objects import Database

    with open(path) as handle:
        tables = json.load(handle)
    return DatabaseStatistics.sample(Database.from_dict(tables))


def _cmd_analyze(args):
    import os

    from repro.engine import ContainmentEngine

    engine = ContainmentEngine()
    base_schema = _parse_schema(args.schema) if args.schema else None
    stats = _analyze_stats(args.data) if args.data else None
    over_budget = 0
    reports = []
    for target in args.targets:
        if target.endswith(".coql") or os.path.exists(target):
            with open(target) as handle:
                query, schema, __ = _read_coql_file(handle.read())
            schema = schema or base_schema
        else:
            query, schema = target, base_schema
        if schema is None:
            raise ReproError(
                "no schema for %r: pass --schema or a '# schema: ...' "
                "directive" % (target,)
            )
        certificate = engine.cost_certificate(
            query, schema, against=args.against, witnesses=args.witnesses,
            stats=stats,
        )
        if args.budget is not None and certificate.total_bound > args.budget:
            over_budget += 1
        reports.append((target, certificate))

    if args.format == "json":
        payload = {
            "version": 1,
            "targets": [
                {
                    "target": target,
                    "certificate": certificate.as_dict(),
                    "facts": (
                        certificate.facts.as_dict()
                        if certificate.facts is not None else None
                    ),
                }
                for target, certificate in reports
            ],
            "summary": {
                "targets": len(reports),
                "over_budget": over_budget,
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for target, certificate in reports:
            print("%s:" % target)
            for line in certificate.explain().splitlines():
                print("  " + line)
            if (args.budget is not None
                    and certificate.total_bound > args.budget):
                print("  OVER BUDGET (%d > %d)"
                      % (certificate.total_bound, args.budget))
    if args.stats:
        _print_stats(engine)
    if args.trace_out:
        _write_trace(engine, args.trace_out)
    return 1 if over_budget else 0


def _cmd_eval(args):
    from repro.objects import Database
    from repro.coql import parse_coql, evaluate_coql

    with open(args.data) as handle:
        tables = json.load(handle)
    db = Database.from_dict(tables)
    answer = evaluate_coql(parse_coql(args.query), db)
    for element in answer:
        print(element)
    return 0


def _cmd_minimize(args):
    from repro.coql import minimize_coql

    schema = _parse_schema(args.schema)
    print(repr(minimize_coql(args.query, schema)))
    return 0


def _cmd_serve(args):
    import asyncio

    from repro.service import ContainmentService

    service = ContainmentService(
        host=args.host,
        port=args.port,
        store_path=args.store_path,
        jobs=args.jobs,
        timeout_s=args.timeout_s,
        batch_window_s=args.batch_window_ms / 1000.0,
        max_batch=args.max_batch,
        default_schema=_parse_schema(args.schema) if args.schema else None,
        preload=args.preload,
        constraints=_load_constraints(args.constraints),
    )

    async def run():
        await service.start()
        print("serving on http://%s:%d" % (service.host, service.port),
              file=sys.stderr)
        if args.preload:
            print("preloaded %d artifact(s) from %s"
                  % (service.preloaded, args.store_path), file=sys.stderr)
        await service.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_semcache(args):
    from repro.workloads import WorkloadSimulator, scenario_by_name

    scenario = scenario_by_name(args.scenario, seed=args.seed)
    simulator = WorkloadSimulator(
        scenario,
        steps=args.steps,
        seed=args.seed,
        scale=args.scale,
        zipf_s=args.zipf,
        churn=args.churn,
        max_views=args.max_views,
        oracle=args.oracle,
        jobs=args.jobs,
        timeout_s=args.timeout_s,
    )
    summary = simulator.run()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        sources = summary["sources"]
        print("scenario %s: %d step(s), seed %d, pool of %d quer(ies)"
              % (summary["scenario"], summary["steps"], summary["seed"],
                 summary["pool"]))
        print("  exact %d  residual %d  miss %d" % (
            sources["exact"], sources["residual"], sources["miss"]))
        print("  hit rate %.3f (warm %.3f)  p50 %.3fms  p99 %.3fms" % (
            summary["hit_rate"], summary["warm_hit_rate"],
            summary["p50_ms"], summary["p99_ms"]))
        print("  admitted %d  evicted %d (churn %d)  prefetch hints %d  "
              "views now %d" % (
                  summary["admitted"], summary["evicted"],
                  summary["churn_evictions"], summary["prefetch_hints"],
                  summary["views"]))
    if summary["mismatches"]:
        for mismatch in summary["mismatches"]:
            print("ORACLE MISMATCH at step %d (%s via %s, %s): %s"
                  % (mismatch["step"], mismatch["query_name"],
                     mismatch["view"], mismatch["verdict"],
                     mismatch["query"]), file=sys.stderr)
        return 1
    if args.stats:
        _print_stats(simulator.cache.engine())
    return 0


def _cmd_cq_contain(args):
    from repro.cq import parse_query, contains

    sup = parse_query(args.sup)
    sub = parse_query(args.sub)
    verdict = contains(sup, sub)
    print("contained" if verdict else "NOT contained")
    return 0 if verdict else 1


def _add_constraints_flag(p):
    p.add_argument("--constraints", action="append", default=None,
                   metavar="DEP_OR_FILE",
                   help="inclusion dependency 'r[a] -> s[b]' or a file "
                        "of one dependency per line (repeatable); "
                        "declared dependencies saturate the sub-side's "
                        "canonical witnesses via the chase before the "
                        "simulation search")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Containment and equivalence for complex-object queries "
        "(Levy & Suciu, PODS 1997).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contain", help="decide SUB ⊑ SUP for COQL queries")
    p.add_argument("--schema", required=True)
    p.add_argument("--method", choices=("certificate", "canonical"),
                   default="certificate",
                   help="decision procedure (canonical: the slow "
                        "cross-validation path)")
    p.add_argument("--stats", action="store_true",
                   help="print engine statistics (cache hits, obligation "
                        "and homomorphism-search counts, stage times) to "
                        "stderr")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the parallel engine "
                        "(default: in-process)")
    p.add_argument("--timeout-s", type=float, default=None, dest="timeout_s",
                   help="per-check wall-clock budget in seconds; a "
                        "timed-out check prints UNDECIDED and exits 3")
    p.add_argument("--trace-out", default=None, dest="trace_out",
                   metavar="FILE",
                   help="write the per-stage trace as Chrome trace_event "
                        "JSON (open at chrome://tracing or perfetto.dev)")
    p.add_argument("--store-path", default=None, dest="store_path",
                   metavar="FILE",
                   help="SQLite artifact store: reuse cached pipeline "
                        "artifacts across runs and persist new ones")
    _add_constraints_flag(p)
    p.add_argument("sup", help="the containing query")
    p.add_argument("sub", help="the contained query")
    p.set_defaults(func=_cmd_contain)

    p = sub.add_parser("matrix",
                       help="pairwise containment matrix of COQL queries, "
                            "sharded across worker processes")
    p.add_argument("--schema", required=True)
    p.add_argument("--method", choices=("certificate", "canonical"),
                   default="certificate")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: one per CPU)")
    p.add_argument("--timeout-s", type=float, default=None, dest="timeout_s",
                   help="per-check wall-clock budget in seconds; "
                        "timed-out cells print '?'")
    p.add_argument("--stats", action="store_true",
                   help="print engine statistics to stderr")
    p.add_argument("--trace-out", default=None, dest="trace_out",
                   metavar="FILE",
                   help="write the per-stage trace (locally decided "
                        "checks only) as Chrome trace_event JSON")
    _add_constraints_flag(p)
    p.add_argument("queries", nargs="+", help="two or more COQL queries")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("equiv", help="decide equivalence of COQL queries")
    p.add_argument("--schema", required=True)
    p.add_argument("--weak", action="store_true",
                   help="decide weak equivalence (always decidable)")
    p.add_argument("--method", choices=("certificate", "canonical"),
                   default="certificate",
                   help="decision procedure for both directions")
    p.add_argument("--stats", action="store_true",
                   help="print engine statistics to stderr")
    p.add_argument("--trace-out", default=None, dest="trace_out",
                   metavar="FILE",
                   help="write the per-stage trace as Chrome trace_event "
                        "JSON")
    _add_constraints_flag(p)
    p.add_argument("q1")
    p.add_argument("q2")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser(
        "lint",
        help="static-analysis lint of COQL queries (rules COQL001-COQL013)",
    )
    p.add_argument("--schema", default=None,
                   help="schema for targets without a '# schema:' directive")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (json is schema-stable: "
                        "{version, targets, summary})")
    p.add_argument("--select", default=None, metavar="CODES",
                   help="comma-separated rule codes to run exclusively "
                        "(e.g. COQL002,COQL004)")
    p.add_argument("--ignore", default=None, metavar="CODES",
                   help="comma-separated rule codes to skip")
    p.add_argument("--budget", type=int, default=10**8,
                   help="COQL007 search-space budget "
                        "(default: %(default)s)")
    p.add_argument("--no-minimize", action="store_true",
                   help="skip the expensive COQL005 minimization rule")
    p.add_argument("--stats", action="store_true",
                   help="print engine statistics to stderr")
    p.add_argument("--explain", default=None, metavar="CODE",
                   help="print a rule's documentation (severity, paper "
                        "section, full docstring) and exit")
    _add_constraints_flag(p)
    p.add_argument("targets", nargs="*", metavar="QUERY_OR_FILE",
                   help="COQL query text, or a .coql file (# comments; "
                        "'# schema: r:a,b' directive)")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="abstract-interpretation cost certificates: sound search "
             "bounds, fan-out/cardinality facts",
    )
    p.add_argument("--schema", default=None,
                   help="schema for targets without a '# schema:' directive")
    p.add_argument("--against", default=None, metavar="QUERY",
                   help="superquery to certify the check against "
                        "(default: the query itself)")
    p.add_argument("--witnesses", type=int, default=None,
                   help="pin the witness-copy stage (default: bound one "
                        "copy plus the completeness bound, the schedule "
                        "of a check under constraints; an unconstrained "
                        "check searches only the first)")
    p.add_argument("--budget", type=int, default=None,
                   help="exit 1 when a certificate's total node bound "
                        "exceeds this")
    p.add_argument("--data", default=None, metavar="FILE",
                   help="JSON database to sample DatabaseStatistics from "
                        "(sharpens cardinality intervals)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (json is schema-stable: "
                        "{version, targets, summary})")
    p.add_argument("--stats", action="store_true",
                   help="print engine statistics to stderr")
    p.add_argument("--trace-out", default=None, dest="trace_out",
                   metavar="FILE",
                   help="write the per-stage trace as Chrome trace_event "
                        "JSON")
    p.add_argument("targets", nargs="+", metavar="QUERY_OR_FILE",
                   help="COQL query text, or a .coql file (# comments; "
                        "'# schema: r:a,b' directive)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("eval", help="evaluate a COQL query over a JSON db")
    p.add_argument("--schema", required=False, default="")
    p.add_argument("--data", required=True)
    p.add_argument("query")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("minimize", help="remove redundant COQL subgoals")
    p.add_argument("--schema", required=True)
    p.add_argument("query")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser(
        "serve",
        help="run the containment service (JSON over HTTP, persistent "
             "artifact cache, micro-batched checks)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: %(default)s)")
    p.add_argument("--port", type=int, default=8977,
                   help="bind port; 0 picks an ephemeral port "
                        "(default: %(default)s)")
    p.add_argument("--store-path", default=None, dest="store_path",
                   metavar="FILE",
                   help="SQLite artifact store backing the cache; restarts "
                        "warm-start from it (default: memory only)")
    p.add_argument("--schema", default=None,
                   help="default schema for requests that omit one")
    p.add_argument("--jobs", type=int, default=1,
                   help="engine worker processes (default: %(default)s, "
                        "in-process)")
    p.add_argument("--timeout-s", type=float, default=None, dest="timeout_s",
                   help="default per-check deadline; timed-out checks "
                        "answer \"undecided\"")
    p.add_argument("--batch-window-ms", type=float, default=2.0,
                   dest="batch_window_ms",
                   help="micro-batching window in milliseconds "
                        "(default: %(default)s)")
    p.add_argument("--max-batch", type=int, default=64, dest="max_batch",
                   help="dispatch a batch at this many queued checks "
                        "(default: %(default)s)")
    p.add_argument("--preload", action="store_true",
                   help="warm the in-memory cache from --store-path at "
                        "startup")
    _add_constraints_flag(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "semcache",
        help="replay a seeded Zipf workload through the semantic "
             "view-cache and report hit-rate/latency",
    )
    p.add_argument("--scenario", required=True,
                   help="a registered scenario name (company, orders)")
    p.add_argument("--steps", type=int, default=200,
                   help="lookups to replay (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed: database generation, pool shuffle, "
                        "Zipf draws, churn (default: %(default)s)")
    p.add_argument("--scale", type=int, default=1,
                   help="database scale factor (default: %(default)s)")
    p.add_argument("--zipf", type=float, default=1.1,
                   help="Zipf popularity exponent (default: %(default)s)")
    p.add_argument("--churn", type=float, default=0.0,
                   help="per-step probability of evicting a random view "
                        "(default: %(default)s)")
    p.add_argument("--max-views", type=int, default=32, dest="max_views",
                   help="cache admission budget (default: %(default)s)")
    p.add_argument("--jobs", type=int, default=None,
                   help="shard classification across worker processes")
    p.add_argument("--timeout-s", type=float, default=None, dest="timeout_s",
                   help="per-containment-check deadline; undecided checks "
                        "only demote labels")
    p.add_argument("--oracle", action="store_true",
                   help="compare every served answer against direct "
                        "evaluation; mismatches print to stderr and exit 1")
    p.add_argument("--json", action="store_true",
                   help="print the full JSON summary (trajectory included)")
    p.add_argument("--stats", action="store_true",
                   help="print engine statistics to stderr")
    p.set_defaults(func=_cmd_semcache)

    p = sub.add_parser("cq-contain",
                       help="classical conjunctive-query containment")
    p.add_argument("sup")
    p.add_argument("sub")
    p.set_defaults(func=_cmd_cq_contain)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
