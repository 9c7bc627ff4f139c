"""Cost-certificate analysis rules (COQL008 … COQL011).

These rules consume the abstract interpreter of
:mod:`repro.analysis.interp` — per-variable cardinality intervals,
per-path fan-out bounds, and the composed :class:`CostCertificate` —
rather than re-deriving structure from the AST:

* COQL008 flags joins whose per-outer-row fan-out is unbounded — fan-out
  and nesting depth are exactly the parameters Koch's complexity study
  identifies as separating tractable from intractable instances of
  nonrecursive queries over complex values;
* COQL009 reports conditions the interval domain refutes against
  sampled database statistics (dead on the sampled database: the value
  sets of the two sides are disjoint) — pass
  ``AnalysisConfig(stats=DatabaseStatistics.sample(db))`` to enable it;
* COQL010 points out guaranteed-singleton generators (``[1, 1]``
  cardinality sources) that normalization will inline — usually a sign
  the query can be written more directly;
* COQL011 is the evidence-carrying successor of COQL007's crude size
  heuristic: it computes the full self-containment
  :class:`CostCertificate` (sound node bound over obligation patterns,
  witness stages, and search components — Theorem 5.1) and warns with
  the certificate's own numbers when the bound exceeds the budget.
"""

from repro.analysis.diagnostics import INFO, WARNING
from repro.analysis.registry import Rule, register
from repro.errors import ReproError

__all__ = [
    "check_unbounded_fanout",
    "check_dead_conditions",
    "check_singleton_generators",
    "check_certified_complexity",
]


def _facts(ctx):
    """The interpreter's facts for this query (computed at most once)."""
    from repro.analysis.interp import interpret

    cached = getattr(ctx, "_interp_facts", None)
    if cached is None:
        cached = interpret(ctx.query, ctx.schema, ctx.config.stats)
        ctx._interp_facts = cached
    return cached


# -- COQL008: unbounded fan-out join -----------------------------------


def check_unbounded_fanout(ctx, rule):
    """A nested join with unbounded per-outer-row fan-out.

    A head-nested select is evaluated once per outer row; when it joins
    two or more generators whose cardinality interval is ``[0, inf]``,
    one outer row can produce unboundedly many output rows *and* the
    canonical database the simulation search walks grows with the
    product of the unbounded sources.  Database statistics
    (``AnalysisConfig(stats=...)``) bound relation cardinalities and
    silence the rule for small relations.
    """
    out = []
    for fact in _facts(ctx).selects:
        if not fact.nested:
            continue
        if len(fact.unbounded_generators) < 2:
            continue
        if not fact.out_card.is_unbounded:
            continue
        out.append(rule.diagnostic(
            "nested join of unbounded generators %s: each outer row can "
            "produce unboundedly many rows (fan-out bound inf); unbounded "
            "fan-out times nesting depth is what makes instances "
            "intractable" % ", ".join(
                repr(v) for v in fact.unbounded_generators
            ),
            path=fact.path, span=fact.span,
        ))
    return out


register(Rule(
    "COQL008", "unbounded-fanout-join", WARNING,
    "a nested select joins two or more unbounded generators, so its "
    "per-outer-row fan-out is unbounded",
    paper="Theorem 5.1 (search space); fan-out/nesting tractability",
    check=check_unbounded_fanout,
))


# -- COQL009: interval-refuted dead condition --------------------------


def check_dead_conditions(ctx, rule):
    """A condition the interval domain refutes on the sampled database.

    Only meaningful with database statistics: when the complete value
    sets of a condition's two sides (a constant, or a relation column
    whose sample was not truncated) are disjoint, the condition can
    never hold on that database and its select contributes nothing.
    Universal contradictions (dead on *every* database) remain
    COQL002's finding.
    """
    if ctx.config.stats is None:
        return []
    out = []
    for fact in _facts(ctx).dead_conditions:
        if fact.universal:
            continue  # COQL002 territory
        out.append(rule.diagnostic(
            "condition %s can never hold on the sampled database (the "
            "value sets of its sides are disjoint); this subquery is "
            "empty there" % fact.description,
            path=fact.path, span=fact.span,
        ))
    return out


register(Rule(
    "COQL009", "interval-refuted-condition", WARNING,
    "database statistics refute a condition: the value sets of its two "
    "sides are disjoint on the sampled database",
    paper="Section 4 (containment relative to a database)",
    check=check_dead_conditions,
))


# -- COQL010: guaranteed-singleton generator ---------------------------


def check_singleton_generators(ctx, rule):
    """A generator over a guaranteed one-element set.

    ``x in {e}`` (or a relation statistics pin to exactly one row) binds
    ``x`` to a single value; comprehension normalization inlines the
    singleton case away, so the generator is pure notation — usually
    clearer (and identical after normalization) written inline.
    """
    out = []
    for fact in _facts(ctx).generators:
        if not fact.card.is_singleton:
            continue
        out.append(rule.diagnostic(
            "generator %r ranges over a guaranteed singleton (cardinality "
            "[1, 1]); normalization inlines it — consider writing the "
            "element directly" % fact.var,
            path=fact.path, span=fact.span,
        ))
    return out


register(Rule(
    "COQL010", "singleton-generator", INFO,
    "a generator ranges over a guaranteed one-element set and will be "
    "inlined by normalization",
    paper="Section 5.1 (comprehension normal form)",
    check=check_singleton_generators,
))


# -- COQL011: certified complexity budget ------------------------------


def check_certified_complexity(ctx, rule):
    """The cost certificate's sound node bound exceeds the budget.

    Where COQL007 multiplies crude body sizes, this rule computes the
    actual :class:`CostCertificate` for a self-containment check —
    obligation patterns times witness stages times per-component
    ``prod(1 + rows) - 1`` bounds — and carries the evidence in the
    message.  The bound is falsifiable: ``SearchCounters.nodes`` of the
    corresponding check never exceeds it (gated in
    ``benchmarks/bench_cost_model.py``).
    """
    encoded = ctx.encoded()
    if encoded is None or encoded.is_empty:
        return []
    try:
        certificate = ctx.engine.pipeline().analyze_cost(
            encoded.query, encoded.query
        )
    except ReproError:
        return []
    if certificate.total_bound <= ctx.config.complexity_budget:
        return []
    worst = max(
        (c.node_bound for c in certificate.components), default=0
    )
    return [rule.diagnostic(
        "certified containment search bound %s nodes exceeds the budget "
        "%.1e (%d obligation pattern(s) x witness stages %s; worst "
        "component bound %s); simulation is NP-complete — consider "
        "a timeout" % (
            _fmt(certificate.total_bound),
            float(ctx.config.complexity_budget),
            certificate.patterns,
            list(certificate.witness_stages),
            _fmt(worst),
        ),
        path="$", span=ctx.query.span,
    )]


def _fmt(bound):
    from repro.analysis.interp import format_bound

    return format_bound(bound)


register(Rule(
    "COQL011", "certified-complexity-budget", WARNING,
    "the cost certificate's sound search-node bound exceeds the "
    "configured budget",
    paper="Theorem 5.1 (simulation is NP-complete; search-space bound)",
    check=check_certified_complexity,
))
