"""The query-level analysis rules (COQL001 … COQL005, COQL007,
COQL012, COQL013).

Each rule is a function ``check(ctx, rule) -> iterable[Diagnostic]``
over an :class:`repro.analysis.context.AnalysisContext`; rules register
themselves with :mod:`repro.analysis.registry` at import time, which is
how :func:`repro.analysis.analyze` finds them.

The rules are grounded in the paper's decision procedure rather than
style: an unused generator is a silent cartesian factor (COQL001), a
contradictory body makes the query the constant empty set — and thereby
contained in *every* query (COQL002); disconnected generators blow up
the canonical database the simulation search walks (COQL003); possible
empty sets are exactly what forces the exponential truncation-pattern
case split of Theorem 4.1's procedure (COQL004); redundant subgoals are
the paper's own motivating application of containment (COQL005); and
COQL007 estimates the NP-hard search space (Theorem 5.1) before a
caller commits to a check.
"""

from repro.analysis.context import base_var, walk_selects
from repro.analysis.diagnostics import ERROR, INFO, WARNING
from repro.analysis.registry import Rule, register
from repro.coql.ast import Const, Select, VarRef
from repro.errors import ReproError

__all__ = [
    "check_unbound_or_unused",
    "check_unsatisfiable",
    "check_cartesian",
    "check_empty_set_hazard",
    "check_redundant",
    "check_complexity",
    "check_redundant_union_branch",
    "check_union_shape",
]


# -- COQL000: front-end failures ---------------------------------------

# Not a checkable rule: the code the analyzer reports parse,
# type-check, and encoding failures of the query itself under.  Parse
# and type errors are error-severity (the query is not a COQL query);
# encoding failures (outside the decidable fragment, schema mismatch)
# are warnings — the query may be perfectly good, the decision
# procedures just cannot take it.
register(Rule(
    "COQL000", "front-end-failure", ERROR,
    "the query fails the front end: parse error, type error, or "
    "outside the encodable fragment",
    paper="Sections 3 and 5.1 (COQL and its flat encoding)",
    kind="front-end",
))


# -- COQL001: unbound / unused generator variables ---------------------


def check_unbound_or_unused(ctx, rule):
    """Unbound variable references (error) and never-used generators
    (warning).

    An unused generator does not change *which* elements appear in a
    set-of-distinct-values answer, but it multiplies the body the
    decision procedures must match: it is a cartesian factor with no
    observable output, and usually a typo.
    """
    out = []
    for var, span, path in _unbound_refs(ctx.query):
        out.append(rule.diagnostic(
            "unbound variable %r: no enclosing generator binds it"
            % var,
            severity=ERROR, path=path, span=span,
        ))
    for select, path, __ in walk_selects(ctx.query):
        for position, (var, __src) in enumerate(select.generators):
            users = [src for __v, src in select.generators[position + 1:]]
            users.extend(side for cond in select.conditions for side in cond)
            users.append(select.head)
            if any(var in part.free_vars() for part in users):
                continue
            out.append(rule.diagnostic(
                "generator variable %r is never used; the generator only "
                "multiplies the query body" % var,
                severity=WARNING,
                path="%s.from[%d]" % (path, position),
                span=select.generators[position][1].span or select.span,
            ))
    return out


def _unbound_refs(query):
    """Every free variable occurrence: ``(name, span, path)``."""
    found = []

    def walk(expr, bound, path):
        if isinstance(expr, VarRef):
            if expr.name not in bound:
                found.append((expr.name, expr.span, path))
            return
        if isinstance(expr, Select):
            inner = set(bound)
            for position, (var, source) in enumerate(expr.generators):
                walk(source, frozenset(inner), "%s.from[%d]" % (path, position))
                inner.add(var)
            inner = frozenset(inner)
            for position, (left, right) in enumerate(expr.conditions):
                where = "%s.where[%d]" % (path, position)
                walk(left, inner, where)
                walk(right, inner, where)
            walk(expr.head, inner, path + ".head")
            return
        for position, child in enumerate(expr.children()):
            walk(child, bound, "%s[%d]" % (path, position))

    walk(query, frozenset(), "$")
    return found


register(Rule(
    "COQL001", "unbound-or-unused-variable", ERROR,
    "unbound variable reference, or a generator variable that is never "
    "used",
    paper="Section 3 (COQL well-formedness)",
    check=check_unbound_or_unused,
))


# -- COQL002: unsatisfiable body ---------------------------------------


def check_unsatisfiable(ctx, rule):
    """Contradictory equalities make a body unsatisfiable.

    When the *whole* query is the constant empty set the finding is an
    error — ``{} ⊑ Q'`` holds for every ``Q'``, so every containment
    check against it is vacuously true (exactly the short-circuit of
    :func:`repro.coql.encode.paired_encoding`); the verdict is taken
    from the encoder, so the error fires iff ``contains(sup, q)`` is
    True for arbitrary *sup*.  A contradiction confined to a nested
    subquery only pins that component to ``{}`` and is a warning.
    """
    out = []
    flagged_spans = set()
    for select, path, inherited in walk_selects(ctx.query):
        witness = _contradiction(tuple(inherited) + select.conditions)
        if witness is None:
            continue
        left, right = witness
        span = left.span or right.span or select.span
        flagged_spans.add(span)
        out.append(rule.diagnostic(
            "unsatisfiable conditions: %r = %r can never hold; this "
            "subquery always produces the empty set" % (left, right),
            severity=WARNING, path=path, span=span,
        ))
    encoded = ctx.encoded()
    if encoded is not None and encoded.is_empty:
        spans = sorted(span for span in flagged_spans if span is not None)
        span = spans[0] if spans else ctx.query.span
        out.append(rule.diagnostic(
            "the query is the constant empty set, so it is contained in "
            "every comparable query and every containment check against "
            "it is vacuous",
            severity=ERROR, path="$", span=span,
        ))
    return out


def _contradiction(conditions):
    """The first condition that closes a constant contradiction, or None.

    Union-find over the *syntactic* terms of the equalities; two
    distinct constants in one class are unsatisfiable.  Purely
    structural — sound (terms are only merged when some condition chain
    equates them) but weaker than the encoder's unification, which also
    normalizes paths; the encoder's verdict is what upgrades a root
    contradiction to an error.
    """
    parent = {}

    def find(term):
        while term in parent:
            term = parent[term]
        return term

    for left, right in conditions:
        root_l, root_r = find(left), find(right)
        if root_l == root_r:
            continue
        if isinstance(root_l, Const) and isinstance(root_r, Const):
            return (left, right)
        # Constants win as representatives so later merges see them.
        if isinstance(root_r, Const):
            root_l, root_r = root_r, root_l
        parent[root_r] = root_l
    return None


register(Rule(
    "COQL002", "unsatisfiable-body", ERROR,
    "contradictory constant equalities make the body unsatisfiable "
    "(the query or a component is the constant empty set)",
    paper="Section 4 (containment; {} is contained in everything)",
    check=check_unsatisfiable,
))


# -- COQL003: cartesian-product generators -----------------------------


def check_cartesian(ctx, rule):
    """Generators with no joining condition form a cartesian product.

    The simulation search of the decision procedure works over canonical
    databases whose size is the *product* of the generator relations'
    frozen bodies (Section 5.2), so an unjoined generator multiplies the
    NP-hard search space for nothing.  Two generators are considered
    joined when a chain of ``where`` equalities links them (possibly
    through a constant or an outer variable) or when one's source
    expression depends on the other (dependent generators are
    correlated, not a product).
    """
    out = []
    for select, path, __ in walk_selects(ctx.query):
        if len(select.generators) < 2:
            continue
        local = [var for var, __src in select.generators]
        components = _join_components(select, frozenset(local))
        if len(components) < 2:
            continue
        groups = " x ".join(
            "{%s}" % ", ".join(sorted(group)) for group in components
        )
        out.append(rule.diagnostic(
            "generators %s have no joining condition: the select is a "
            "cartesian product, which multiplies the simulation search "
            "space" % groups,
            path=path, span=select.span,
        ))
    return out


def _join_components(select, local):
    parent = {}

    def find(key):
        while key in parent:
            key = parent[key]
        return key

    def union(a, b):
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b

    def key_of(expr):
        base = base_var(expr)
        if base in local:
            return base
        if isinstance(expr, Const):
            return ("const", expr.value)
        return "outer"

    for position, (var, source) in enumerate(select.generators):
        for earlier, __src in select.generators[:position]:
            if earlier in source.free_vars():
                union(var, earlier)
    for left, right in select.conditions:
        union(key_of(left), key_of(right))
    components = {}
    for var in local:
        components.setdefault(find(var), set()).add(var)
    return sorted(components.values(), key=min)


register(Rule(
    "COQL003", "cartesian-product", WARNING,
    "a select joins none of its generators; the body is a cartesian "
    "product",
    paper="Section 5.2 (canonical databases; simulation search)",
    check=check_cartesian,
))


# -- COQL004: empty-set hazard -----------------------------------------


def check_empty_set_hazard(ctx, rule):
    """Components that may be empty force the exponential case split.

    For empty-set-free queries one simulation obligation decides
    containment and weak equivalence *is* equivalence; every set node
    that is not provably non-empty doubles the truncation patterns the
    procedure must check (up to ``2^k``) and keeps :func:`equivalent`
    out of reach.  Silent exactly when
    :meth:`ContainmentEngine.empty_set_free` holds.
    """
    encoded = ctx.encoded()
    if encoded is None:
        return []
    if ctx.engine.empty_set_free(ctx.query, ctx.schema):
        return []
    out = []
    if encoded.is_empty:
        return [rule.diagnostic(
            "the query is always the empty set",
            path="$", span=ctx.query.span,
        )]
    for path in sorted(encoded.empty_paths):
        out.append(rule.diagnostic(
            "set component %s is always empty; only weak equivalence is "
            "decidable for this query" % _grouping_path(path),
            path=_grouping_path(path),
        ))
    query = encoded.query
    hazards = [
        path for path in sorted(query.paths())
        if path and not ctx.engine.provably_nonempty(query, path)
    ]
    for path in hazards:
        out.append(rule.diagnostic(
            "set component %s is not provably non-empty; each such "
            "component doubles the truncation patterns containment must "
            "check" % _grouping_path(path),
            path=_grouping_path(path),
        ))
    return out


def _grouping_path(path):
    return "$" + "".join("/" + label for label in path)


register(Rule(
    "COQL004", "empty-set-hazard", WARNING,
    "the query can produce empty sets, forcing the exponential "
    "truncation-pattern case split and blocking exact equivalence",
    paper="Theorem 4.2 (empty-set-free queries)",
    check=check_empty_set_hazard,
))


# -- COQL005: redundant subgoal (expensive) ----------------------------


def check_redundant(ctx, rule):
    """A generator or condition the query does not need.

    Runs :func:`repro.coql.minimize.minimize_coql`, which calls the
    containment oracle itself — hence ``expensive``: the engine's
    pre-check skips it, ``repro lint`` runs it unless ``--no-minimize``.
    """
    from repro.coql.minimize import minimize_coql

    try:
        minimized = minimize_coql(ctx.query, ctx.schema, engine=ctx.engine)
    except ReproError:
        return []
    if minimized == ctx.query:
        return []
    gens, conds = _body_size(ctx.query)
    min_gens, min_conds = _body_size(minimized)
    return [rule.diagnostic(
        "query is not minimal: an equivalent query needs %d fewer "
        "generator(s) and %d fewer condition(s): %r"
        % (gens - min_gens, conds - min_conds, minimized),
        path="$", span=ctx.query.span,
    )]


def _body_size(query):
    gens = conds = 0
    for select, __, ___ in walk_selects(query):
        gens += len(select.generators)
        conds += len(select.conditions)
    return gens, conds


register(Rule(
    "COQL005", "redundant-subgoal", INFO,
    "a generator or condition is redundant; minimization finds a "
    "smaller weakly equivalent query",
    paper="Section 1 (redundant subgoals as motivating application)",
    expensive=True,
    check=check_redundant,
))


# -- COQL007: complexity estimate --------------------------------------


def check_complexity(ctx, rule):
    """Estimate the containment search space against the budget.

    Deciding simulation of grouping queries is NP-complete (Theorem
    5.1), and possibly-empty components add a factor of up to ``2^k``
    truncation patterns on top.  The estimate is deliberately crude —
    (patterns) x Σ |body|^|body| per set node, the brute-force
    assignment count — and only its order of magnitude matters: past
    ``config.complexity_budget`` a check against a same-shaped query
    may be impractical without a timeout.
    """
    encoded = ctx.encoded()
    if encoded is None or encoded.is_empty:
        return []
    query = encoded.query
    optional = [
        path for path in query.paths()
        if path and not ctx.engine.provably_nonempty(query, path)
    ]
    patterns = 2 ** len(optional)
    assignments = 0
    for path in query.paths():
        body = len(query.full_body(path))
        assignments += max(1, body) ** max(1, body)
    estimate = patterns * assignments
    if estimate <= ctx.config.complexity_budget:
        return []
    return [rule.diagnostic(
        "estimated containment search space ~%.1e candidate assignments "
        "(%d truncation pattern(s) x %d homomorphism candidates) exceeds "
        "the budget %.1e; simulation is NP-complete, consider a timeout"
        % (
            float(estimate), patterns, assignments,
            float(ctx.config.complexity_budget),
        ),
        path="$", span=ctx.query.span,
    )]


register(Rule(
    "COQL007", "complexity-budget", WARNING,
    "the estimated containment search space exceeds the configured "
    "budget",
    paper="Theorem 5.1 (simulation is NP-complete)",
    check=check_complexity,
))


# -- COQL012: redundant union branch (expensive) -----------------------


def check_redundant_union_branch(ctx, rule):
    """A union branch contained in the rest of the union is dead weight.

    Minimization-backed, like COQL005: the branches the greedy
    Sagiv–Yannakakis minimizer (drop any branch contained in a
    *surviving* sibling, repeat to fixpoint) would remove are flagged —
    never both of a mutually-equivalent pair, since one survivor always
    keeps serving the other's answers.  Each pairwise test is a full
    engine containment check (memoized under ``branch_verdict``), hence
    ``expensive``; declared inclusion dependencies
    (``AnalysisConfig.constraints``) sharpen the verdicts via the
    chase.
    """
    from repro.coql.family import contains_union, union_branches

    if not contains_union(ctx.query):
        return []
    try:
        branches = union_branches(ctx.query)
    except ReproError:
        return []  # non-linear union placement: the front end reports it
    if len(branches) < 2:
        return []
    constraints = ctx.config.constraints or None

    def covered(candidate, sibling):
        try:
            return ctx.engine.contains(
                sibling, candidate, ctx.schema, constraints=constraints
            )
        except ReproError:
            return False

    dropped = []
    kept = list(range(len(branches)))
    changed = True
    while changed:
        changed = False
        for position, index in enumerate(kept):
            rest = kept[:position] + kept[position + 1:]
            winner = next(
                (j for j in rest if covered(branches[index], branches[j])),
                None,
            )
            if winner is not None:
                dropped.append((index, winner))
                kept = rest
                changed = True
                break
    out = []
    for index, winner in sorted(dropped):
        out.append(rule.diagnostic(
            "union branch %d is contained in branch %d; dropping it "
            "leaves an equivalent union" % (index + 1, winner + 1),
            path="$.union[%d]" % index,
            span=branches[index].span or ctx.query.span,
        ))
    return out


register(Rule(
    "COQL012", "redundant-union-branch", INFO,
    "a union branch is contained in a sibling branch; the union is "
    "equivalent without it",
    paper="Sagiv-Yannakakis union reduction (related work [36])",
    expensive=True,
    check=check_redundant_union_branch,
))


# -- COQL013: union branch shape mismatch ------------------------------


def check_union_shape(ctx, rule):
    """Union branches whose head shapes do not join.

    COQL types a union body as the join of its branches' set types;
    branches with different head arities (or shapes that do not join at
    all) make the union ill-typed, and every containment check against
    it raises.  The finding carries the type checker's span, which
    points at the first offending branch.
    """
    from repro.coql.ast import UnionBody
    from repro.coql.typecheck import typecheck
    from repro.errors import TypeCheckError

    def has_union(expr):
        if isinstance(expr, UnionBody):
            return True
        return any(has_union(child) for child in expr.children())

    if not has_union(ctx.query):
        return []
    try:
        typecheck(ctx.query, ctx.schema)
    except TypeCheckError as exc:
        if str(exc).startswith("union branch"):
            return [rule.diagnostic(
                str(exc), path="$", span=getattr(exc, "span", None),
            )]
    return []


register(Rule(
    "COQL013", "union-branch-shape-mismatch", ERROR,
    "union branches have incompatible head shapes (different arities, "
    "or set types that do not join)",
    paper="Section 3 (union bodies type as the join of branch types)",
    check=check_union_shape,
))
