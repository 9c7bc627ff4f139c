"""Abstract interpretation of COQL queries into cost certificates.

Theorem 5.1 reduces containment of complex-object queries to a bounded
family of homomorphism searches (simulation obligations over truncated
grouping trees).  The search-space size of each obligation is therefore
a *statically analyzable* quantity: the simulation target built by
:func:`repro.grouping.simulation.build_simulation_target` has a known
number of rows per predicate (one generic copy plus ``witnesses``
witness copies per non-root path), and a deterministic backtracking
search over ``k`` atoms with at most ``c_i`` candidate rows each visits
at most ``prod(1 + c_i) - 1`` nodes — every counted node is a distinct
consistent partial assignment, and a deterministic strategy extends any
given partial assignment at most once.  Forward checking and AC-3 only
prune; they never add nodes.  Composing these per-component bounds over
obligation patterns (Section 4 truncations) and witness-escalation
stages yields a :class:`CostCertificate` — a *sound* upper bound on the
``SearchCounters.nodes`` an engine check can record, falsifiable
against the actual counters (`benchmarks/bench_cost_model.py` gates on
``predicted >= actual`` for every case).

Two abstract domains feed the certificate and the COQL008–011 lint
rules:

* **cardinality intervals** ``[lo, hi]`` with ``hi ∈ ℕ ∪ {∞}`` on every
  set-valued expression — schema relations are ``[0, ∞]`` unless
  database statistics pin them, ``{e}`` is ``[1, 1]``, ``{}`` is
  ``[0, 0]``, and a select's output is the interval product of its
  generators (zero when a condition is refuted);
* **per-path fan-out bounds** — for each nested select, how many output
  rows one outer row can produce; unbounded fan-out on two or more
  generators of a join is exactly the parameter Koch's complexity study
  identifies as separating tractable from intractable instances.

Everything here is total: :func:`interpret` never raises on arbitrary
(even ill-typed) ASTs, so it can run over the parser-fuzz corpus, and
all bounds are non-negative and finite-or-``inf``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.coql.ast import (
    Const as ASTConst,
    EmptySet,
    Expr,
    Flatten,
    Proj,
    RecordExpr,
    RelRef,
    Select,
    Singleton,
    VarRef,
)
from repro.cq.terms import Var

__all__ = [
    "INF",
    "Bound",
    "Interval",
    "ColumnStats",
    "RelationStats",
    "DatabaseStatistics",
    "GeneratorFact",
    "ConditionFact",
    "SelectFact",
    "QueryFacts",
    "interpret",
    "component_node_bound",
    "target_row_bounds",
    "ComponentBound",
    "pair_certificate",
    "cost_certificate",
    "CostCertificate",
    "format_bound",
    "PATTERN_ENUMERATION_CAP",
]

INF: float = float("inf")

#: A non-negative count that may be infinite.  Search-side bounds (node
#: counts over simulation targets) are always finite integers; ``INF``
#: only enters through the AST-level cardinality domain.
Bound = Union[int, float]

#: Above this many optional (not provably non-empty) paths the
#: certificate stops enumerating truncation patterns individually and
#: multiplies the full-pattern bound by ``2**optional`` instead.
PATTERN_ENUMERATION_CAP = 6


def _bound_add(a: Bound, b: Bound) -> Bound:
    if a == INF or b == INF:
        return INF
    return a + b


def _bound_mul(a: Bound, b: Bound) -> Bound:
    # 0 * inf = 0: an empty generator yields no rows no matter how wide
    # the other side is.
    if a == 0 or b == 0:
        return 0
    if a == INF or b == INF:
        return INF
    return a * b


def format_bound(value: Bound) -> str:
    """Human-readable rendering: exact small ints, ``~1.2e+30``, ``inf``."""
    if value == INF:
        return "inf"
    number = int(value)
    if number >= 10**7:
        return "~%.2e" % float(number)
    return str(number)


def _json_bound(value: Bound) -> Union[int, str]:
    """JSON-safe rendering (``inf`` is not valid JSON; big ints are)."""
    if value == INF:
        return "inf"
    return int(value)


# -- the cardinality-interval domain ----------------------------------------


@dataclass(frozen=True)
class Interval:
    """A cardinality interval ``[lo, hi]`` with ``0 <= lo <= hi <= inf``."""

    lo: int
    hi: Bound

    @classmethod
    def top(cls) -> "Interval":
        return cls(0, INF)

    @classmethod
    def point(cls, n: int) -> "Interval":
        return cls(n, n)

    @property
    def is_singleton(self) -> bool:
        """Exactly one element, always."""
        return self.lo == 1 and self.hi == 1

    @property
    def is_unbounded(self) -> bool:
        return self.hi == INF

    @property
    def is_empty(self) -> bool:
        """Always the empty set."""
        return self.hi == 0

    def times(self, other: "Interval") -> "Interval":
        """Interval product — the cardinality of a cross join."""
        hi = _bound_mul(self.hi, other.hi)
        return Interval(self.lo * other.lo, hi)

    def join(self, other: "Interval") -> "Interval":
        """Least upper bound (interval hull)."""
        hi = self.hi if other.hi <= self.hi else other.hi
        return Interval(min(self.lo, other.lo), hi)

    def with_zero(self) -> "Interval":
        """Widen the lower bound to zero (selection may filter rows)."""
        if self.lo == 0:
            return self
        return Interval(0, self.hi)

    def __str__(self) -> str:
        return "[%d, %s]" % (self.lo, format_bound(self.hi))


# -- database statistics (sampled from witness databases) -------------------


@dataclass(frozen=True)
class ColumnStats:
    """Per-column facts sampled from one relation.

    ``values`` is the complete set of atomic values seen in the column,
    or ``None`` when the sample was truncated (more than ``max_values``
    distinct values) or contained non-atomic entries — a ``None`` column
    can never refute a condition.
    """

    distinct: int
    values: Optional[FrozenSet[Any]]


@dataclass(frozen=True)
class RelationStats:
    rows: int
    columns: Mapping[str, ColumnStats]


@dataclass(frozen=True)
class DatabaseStatistics:
    """Cardinalities and column-value sets sampled from a database.

    Built with :meth:`sample` from a :class:`repro.objects.Database`;
    sharpens relation intervals from ``[0, inf]`` to exact points and
    enables value-level refutation of conditions (COQL009's
    non-universal variant: dead *on the sampled database*).
    """

    relations: Mapping[str, RelationStats]

    @classmethod
    def sample(cls, db: Any, max_values: int = 64) -> "DatabaseStatistics":
        relations: Dict[str, RelationStats] = {}
        for relation in db.relations():
            columns: Dict[str, ColumnStats] = {}
            for attr in relation.attributes():
                values: Optional[set] = set()
                for row in relation.rows:
                    try:
                        value = row[attr]
                        hash(value)
                    except Exception:
                        values = None
                        break
                    values.add(value)
                    if len(values) > max_values:
                        values = None
                        break
                if values is None:
                    # Distinct count unknown past the cap; record the
                    # row count as a safe upper bound.
                    columns[attr] = ColumnStats(len(relation.rows), None)
                else:
                    columns[attr] = ColumnStats(len(values), frozenset(values))
            relations[relation.name] = RelationStats(len(relation.rows), columns)
        return cls(relations)

    def relation_cardinality(self, name: str) -> Optional[Interval]:
        stats = self.relations.get(name)
        if stats is None:
            return None
        return Interval.point(stats.rows)

    def column_values(self, name: str, attr: str) -> Optional[FrozenSet[Any]]:
        stats = self.relations.get(name)
        if stats is None:
            return None
        column = stats.columns.get(attr)
        if column is None:
            return None
        return column.values

    def as_dict(self) -> Dict[str, Any]:
        return {
            name: {
                "rows": stats.rows,
                "columns": {
                    attr: {
                        "distinct": col.distinct,
                        "complete": col.values is not None,
                    }
                    for attr, col in sorted(stats.columns.items())
                },
            }
            for name, stats in sorted(self.relations.items())
        }


# -- AST-level facts --------------------------------------------------------


@dataclass(frozen=True)
class GeneratorFact:
    """One ``var in source`` generator and the interval of its source."""

    var: str
    path: str
    span: Optional[Tuple[int, int]]
    card: Interval
    relation: Optional[str]


@dataclass(frozen=True)
class ConditionFact:
    """A condition the interpreter proved dead.

    ``universal`` means dead on *every* database (a constant-chain
    contradiction); otherwise dead only on the sampled database (a
    column value-set refutation).
    """

    path: str
    span: Optional[Tuple[int, int]]
    description: str
    universal: bool


@dataclass(frozen=True)
class SelectFact:
    """Facts about one select block."""

    path: str
    span: Optional[Tuple[int, int]]
    out_card: Interval
    generator_cards: Tuple[Tuple[str, Interval], ...]
    unbounded_generators: Tuple[str, ...]
    nested: bool


@dataclass(frozen=True)
class QueryFacts:
    """Everything :func:`interpret` derived from one query."""

    card: Interval
    selects: Tuple[SelectFact, ...]
    generators: Tuple[GeneratorFact, ...]
    dead_conditions: Tuple[ConditionFact, ...]

    def fanout(self) -> Tuple[Tuple[str, Bound], ...]:
        """Per-path fan-out: output rows one outer row can produce."""
        return tuple(
            (fact.path, fact.out_card.hi)
            for fact in self.selects
            if fact.nested
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "card": {"lo": self.card.lo, "hi": _json_bound(self.card.hi)},
            "selects": [
                {
                    "path": fact.path,
                    "out_lo": fact.out_card.lo,
                    "out_hi": _json_bound(fact.out_card.hi),
                    "unbounded_generators": list(fact.unbounded_generators),
                    "nested": fact.nested,
                }
                for fact in self.selects
            ],
            "dead_conditions": [
                {
                    "path": fact.path,
                    "description": fact.description,
                    "universal": fact.universal,
                }
                for fact in self.dead_conditions
            ],
        }


@dataclass(frozen=True)
class _SetBound:
    """Abstraction of a set value: cardinality plus element abstraction."""

    card: Interval
    elem: Optional["_SetBound"] = None


@dataclass(frozen=True)
class _VarInfo:
    """What the interpreter knows about one generator variable."""

    elem: Optional[_SetBound]
    relation: Optional[str]


_Env = Dict[str, _VarInfo]


def _describe_condition(left: Any, right: Any) -> str:
    return "%r = %r" % (left, right)


class _UnionFind:
    """Union-find over syntactic terms; constants win as representatives."""

    def __init__(self) -> None:
        self._parent: Dict[Any, Any] = {}

    def find(self, term: Any) -> Any:
        parent = self._parent
        while parent.get(term, term) != term:
            term = parent[term]
        return term

    def union(self, left: Any, right: Any) -> bool:
        """Merge; return False when this closes a const/const clash."""
        a, b = self.find(left), self.find(right)
        if a == b:
            return True
        a_const = isinstance(a, ASTConst)
        b_const = isinstance(b, ASTConst)
        if a_const and b_const:
            return a.value == b.value
        # Constants become representatives so chains resolve to them.
        if a_const:
            self._parent[b] = a
        else:
            self._parent[a] = b
        return True


def _value_set(
    expr: Any, env: _Env, stats: Optional[DatabaseStatistics]
) -> Optional[FrozenSet[Any]]:
    """The complete value set one condition side can take, if known."""
    if stats is None:
        return None
    if isinstance(expr, ASTConst):
        return frozenset([expr.value])
    if isinstance(expr, Proj) and isinstance(expr.expr, VarRef):
        info = env.get(expr.expr.name)
        if info is not None and info.relation is not None:
            return stats.column_values(info.relation, expr.attr)
    return None


def interpret(
    query: Any,
    schema: Any = None,
    stats: Optional[DatabaseStatistics] = None,
) -> QueryFacts:
    """Abstractly interpret a COQL AST.

    Total on arbitrary expression trees — ill-typed or fuzz-generated
    ASTs produce (sound, possibly trivial) facts rather than errors.
    *schema* is accepted for interface symmetry with the deciders; the
    abstraction only needs it through *stats*.
    """
    selects: List[SelectFact] = []
    generators: List[GeneratorFact] = []
    dead: List[ConditionFact] = []

    def go(expr: Any, env: _Env, path: str, nested: bool) -> _SetBound:
        if isinstance(expr, EmptySet):
            return _SetBound(Interval.point(0))
        if isinstance(expr, Singleton):
            elem = go(expr.expr, env, path + ".elem", nested)
            return _SetBound(Interval.point(1), elem)
        if isinstance(expr, Flatten):
            outer = go(expr.expr, env, path + ".flatten", nested)
            inner = outer.elem or _SetBound(Interval.top())
            hi = _bound_mul(outer.card.hi, inner.card.hi)
            return _SetBound(Interval(0, hi), inner.elem)
        if isinstance(expr, RelRef):
            card: Optional[Interval] = None
            if stats is not None:
                card = stats.relation_cardinality(expr.name)
            return _SetBound(card if card is not None else Interval.top())
        if isinstance(expr, VarRef):
            info = env.get(expr.name)
            if info is not None and info.elem is not None:
                return info.elem
            return _SetBound(Interval.top())
        if isinstance(expr, Proj):
            go(expr.expr, env, path + ".proj", nested)
            return _SetBound(Interval.top())
        if isinstance(expr, RecordExpr):
            for name, value in expr.fields:
                go(value, env, "%s.%s" % (path, name), nested)
            return _SetBound(Interval.top())
        if isinstance(expr, Select):
            return go_select(expr, env, path, nested)
        # Unknown node kind (future extensions, fuzz garbage): sound top.
        return _SetBound(Interval.top())

    def go_select(expr: Select, env: _Env, path: str, nested: bool) -> _SetBound:
        scope: _Env = dict(env)
        cards: List[Tuple[str, Interval]] = []
        unbounded: List[str] = []
        for position, (var, source) in enumerate(expr.generators):
            source_bound = go(
                source, scope, "%s.from[%d]" % (path, position), False
            )
            relation = source.name if isinstance(source, RelRef) else None
            span = source.span if source.span is not None else expr.span
            generators.append(
                GeneratorFact(
                    var=var,
                    path="%s.from[%d]" % (path, position),
                    span=span,
                    card=source_bound.card,
                    relation=relation,
                )
            )
            cards.append((var, source_bound.card))
            if source_bound.card.is_unbounded:
                unbounded.append(var)
            scope[var] = _VarInfo(source_bound.elem, relation)

        refuted = False
        universal_refuted = False
        uf = _UnionFind()
        for position, (left, right) in enumerate(expr.conditions):
            cond_path = "%s.where[%d]" % (path, position)
            span = left.span if left.span is not None else expr.span
            # Nested selects inside conditions are ill-typed, but the
            # interpreter must stay total over them.
            for side in (left, right):
                if isinstance(side, Select):
                    go(side, scope, cond_path, True)
            if not uf.union(left, right):
                dead.append(
                    ConditionFact(
                        path=cond_path,
                        span=span,
                        description=_describe_condition(left, right),
                        universal=True,
                    )
                )
                refuted = True
                universal_refuted = True
                continue
            left_values = _value_set(left, scope, stats)
            right_values = _value_set(right, scope, stats)
            if (
                left_values is not None
                and right_values is not None
                and not (left_values & right_values)
            ):
                dead.append(
                    ConditionFact(
                        path=cond_path,
                        span=span,
                        description=_describe_condition(left, right),
                        universal=False,
                    )
                )
                refuted = True

        head_bound = go(expr.head, scope, path + ".head", True)

        out = Interval.point(1)
        for __, card in cards:
            out = out.times(card)
        if refuted:
            out = Interval.point(0)
        elif expr.conditions:
            out = out.with_zero()
        # A universally refuted select is [0, 0] on every database; a
        # stats-refuted one only on the sampled database, but the
        # certificate reports intervals relative to the given stats.
        del universal_refuted
        selects.append(
            SelectFact(
                path=path,
                span=expr.span,
                out_card=out,
                generator_cards=tuple(cards),
                unbounded_generators=tuple(unbounded),
                nested=nested,
            )
        )
        return _SetBound(out, head_bound if isinstance(
            expr.head, (Select, Singleton, EmptySet, Flatten)
        ) else None)

    top = go(query, {}, "$", False)
    return QueryFacts(
        card=top.card,
        selects=tuple(selects),
        generators=tuple(generators),
        dead_conditions=tuple(dead),
    )


# -- search-node bounds over the grouping encoding --------------------------


def component_node_bound(row_counts: Sequence[int]) -> int:
    """Sound node bound for one connected component.

    A deterministic backtracking search over atoms with ``c_i``
    candidate rows counts one node per *distinct consistent partial
    assignment* it reaches, and reaches each at most once; there are at
    most ``prod(1 + c_i) - 1`` non-empty ones (each atom contributes
    "absent" or one of its rows).  Forward checking and AC-3 only
    remove nodes.
    """
    product = 1
    for count in row_counts:
        product *= 1 + count
    return product - 1


def target_row_bounds(sub: Any, witnesses: int) -> Dict[Tuple[str, int], int]:
    """Rows per ``(pred, arity)`` in the simulation target for *sub*.

    Mirrors :func:`repro.grouping.simulation.build_simulation_target`:
    one generic copy of every node's own atoms, plus ``witnesses``
    copies of ``full_body(path)`` per non-root path.  Deduplication in
    the real target only shrinks these counts.
    """
    counts: Counter = Counter()
    for node in sub.nodes():
        for atom in node.own_atoms:
            counts[(atom.pred, atom.arity)] += 1
    for path in sub.paths():
        if not path:
            continue
        for atom in sub.full_body(path):
            counts[(atom.pred, atom.arity)] += witnesses
    return dict(counts)


@dataclass(frozen=True)
class ComponentBound:
    """Per-component certificate entry; ``node_bound`` is the sound
    bound over the component's candidate-row counts."""

    atoms: int
    row_counts: Tuple[int, ...]
    node_bound: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "atoms": self.atoms,
            "row_counts": list(self.row_counts),
            "node_bound": _json_bound(self.node_bound),
        }


def _pinned_variables(sup: Any) -> FrozenSet[Any]:
    """Sup-side variables pre-bound before the component search starts.

    Value variables are pinned to the sub side's frozen value columns
    (the ``fixed`` argument of ``simulation_certificate``); atoms
    connected only through them decompose into separate components.
    """
    pinned = set()
    for node in sup.nodes():
        for __, term in node.values:
            if isinstance(term, Var):
                pinned.add(term)
    return frozenset(pinned)


def _atom_components(
    atoms: Sequence[Any], pinned: FrozenSet[Any]
) -> List[List[Any]]:
    """Connected components of *atoms* linked by shared unpinned vars."""
    indexed = list(enumerate(atoms))
    parent: Dict[int, int] = {i: i for i, __ in indexed}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_var: Dict[Any, int] = {}
    for i, atom in indexed:
        for var in atom.variables():
            if var in pinned:
                continue
            if var in by_var:
                parent[find(i)] = find(by_var[var])
            else:
                by_var[var] = i
    groups: Dict[int, List[Any]] = {}
    for i, atom in indexed:
        groups.setdefault(find(i), []).append(atom)
    return [groups[root] for root in sorted(groups)]


def component_bounds(
    sub: Any, sup: Any, witnesses: int
) -> Tuple[ComponentBound, ...]:
    """Per-component bounds for simulating *sub* against *sup*."""
    rows = target_row_bounds(sub, witnesses)
    atoms = [atom for node in sup.nodes() for atom in node.own_atoms]
    pinned = _pinned_variables(sup)
    out = []
    for component in _atom_components(atoms, pinned):
        counts = tuple(
            rows.get((atom.pred, atom.arity), 0) for atom in component
        )
        out.append(
            ComponentBound(
                atoms=len(component),
                row_counts=counts,
                node_bound=component_node_bound(counts),
            )
        )
    return tuple(out)


def _nonempty_bound(sub: Any) -> int:
    """Bound on nodes spent deciding ``_provably_nonempty`` per path.

    Each non-root path runs one search mapping the child body into the
    ground parent body with all parent variables fixed; every child
    atom has at most as many candidate rows as the parent body has
    atoms of its predicate.  One merged component over all child atoms
    dominates the per-component sum.
    """
    total = 0
    for path in sub.paths():
        if not path:
            continue
        parent_counts: Counter = Counter(
            (atom.pred, atom.arity) for atom in sub.full_body(path[:-1])
        )
        counts = [
            parent_counts.get((atom.pred, atom.arity), 0)
            for atom in sub.full_body(path)
        ]
        total += component_node_bound(counts)
    return total


@dataclass(frozen=True)
class CostCertificate:
    """A sound, falsifiable bound on one containment check's search.

    ``total_bound`` dominates the ``SearchCounters.nodes`` recorded
    around ``engine.contains`` for the same pair: ``search_bound``
    covers every (pattern × witness-stage × component) simulation
    search, ``nonempty_bound`` the per-path non-emptiness tests.  The
    AST-level ``fanout`` / ``output_cardinality`` facts (present when
    built through :func:`cost_certificate` rather than
    :func:`pair_certificate`) power the COQL008–011 lint rules.
    """

    name: str
    paths: int
    variables: int
    witness_stages: Tuple[int, ...]
    patterns: int
    patterns_enumerated: bool
    components: Tuple[ComponentBound, ...]
    search_bound: int
    nonempty_bound: int
    total_bound: int
    settled: Optional[bool] = None
    fanout: Tuple[Tuple[str, Bound], ...] = ()
    output_cardinality: Optional[Tuple[int, Bound]] = None
    facts: Optional[QueryFacts] = field(default=None, compare=False)

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "paths": self.paths,
            "variables": self.variables,
            "witness_stages": list(self.witness_stages),
            "patterns": self.patterns,
            "patterns_enumerated": self.patterns_enumerated,
            "components": [c.as_dict() for c in self.components],
            "search_bound": _json_bound(self.search_bound),
            "nonempty_bound": _json_bound(self.nonempty_bound),
            "total_bound": _json_bound(self.total_bound),
        }
        if self.settled is not None:
            payload["settled"] = self.settled
        if self.fanout:
            payload["fanout"] = {
                path: _json_bound(hi) for path, hi in self.fanout
            }
        if self.output_cardinality is not None:
            lo, hi = self.output_cardinality
            payload["output_cardinality"] = {
                "lo": lo,
                "hi": _json_bound(hi),
            }
        return payload

    def explain(self) -> str:
        lines = [
            "cost certificate: %s" % self.name,
            "  grouping tree: %d path(s), %d variable(s)"
            % (self.paths, self.variables),
        ]
        if self.settled is not None:
            lines.append(
                "  settled statically: %s (no search needed)"
                % ("contained" if self.settled else "not contained")
            )
            return "\n".join(lines)
        lines.append(
            "  witness stages: %s"
            % ", ".join(str(w) for w in self.witness_stages)
        )
        lines.append(
            "  obligation patterns: %d (%s)"
            % (
                self.patterns,
                "enumerated" if self.patterns_enumerated else
                "bounded, not enumerated",
            )
        )
        stage = self.witness_stages[-1] if self.witness_stages else 1
        lines.append(
            "  components (full pattern, %d witness(es)):" % stage
        )
        for position, comp in enumerate(self.components):
            lines.append(
                "    #%d: %d atom(s), rows %s -> bound %s"
                % (
                    position + 1,
                    comp.atoms,
                    list(comp.row_counts),
                    format_bound(comp.node_bound),
                )
            )
        lines.append("  search-node bound: %s" % format_bound(self.search_bound))
        lines.append(
            "  non-emptiness-test bound: %s" % format_bound(self.nonempty_bound)
        )
        lines.append("  total node bound: %s" % format_bound(self.total_bound))
        if self.output_cardinality is not None:
            lo, hi = self.output_cardinality
            lines.append(
                "  output cardinality: [%d, %s]" % (lo, format_bound(hi))
            )
        for path, hi in self.fanout:
            lines.append(
                "  fan-out %s: <= %s%s"
                % (
                    path,
                    format_bound(hi),
                    " (unbounded)" if hi == INF else "",
                )
            )
        return "\n".join(lines)


def _witness_stages(sup: Any, witnesses: Optional[int]) -> Tuple[int, ...]:
    """The witness counts whose searches the bound sums.

    ``None`` gives two stages, one copy and then ``max(1, |vars(sup)|)``.
    An unconstrained check searches only the first (the retraction
    lemma, DESIGN.md §2), but a check under inclusion dependencies
    still escalates to the second, and the certificate takes no
    constraints: two stages stay the sound upper bound for both.
    """
    if witnesses is not None:
        return (max(1, int(witnesses)),)
    escalated = max(1, len(sup.variables()))
    if escalated == 1:
        return (1,)
    return (1, escalated)


def pair_certificate(
    sub: Any,
    sup: Any,
    witnesses: Optional[int] = None,
    is_nonempty: Optional[Callable[[Any, Any], bool]] = None,
    name: Optional[str] = None,
) -> CostCertificate:
    """Certificate for one aligned grouping-query pair.

    *sub* and *sup* must have the same path set (the engine aligns them
    with ``paired_encoding`` before calling this).  *witnesses* pins a
    single witness stage; ``None`` bounds the engine's default schedule
    by both of its possible stages (see :func:`_witness_stages`).  *is_nonempty*
    replaces the module-level non-emptiness test — pass the engine's
    memoized version so the certificate enumerates exactly the
    obligation patterns the engine will.
    """
    from repro.coql.containment import _obligation_patterns, _provably_nonempty

    if is_nonempty is None:
        is_nonempty = _provably_nonempty
    stages = _witness_stages(sup, witnesses)
    optional = [p for p in sub.paths() if p and not is_nonempty(sub, p)]

    if len(optional) <= PATTERN_ENUMERATION_CAP:
        patterns = list(_obligation_patterns(sub, is_nonempty=is_nonempty))
        enumerated = True
        search_bound = 0
        for kept in patterns:
            sub_t = sub.truncate(kept)
            sup_t = sup.truncate(kept)
            for stage in stages:
                search_bound += sum(
                    comp.node_bound
                    for comp in component_bounds(sub_t, sup_t, stage)
                )
        pattern_count = len(patterns)
    else:
        # Too many optional paths to enumerate 2**k patterns: every
        # truncation is dominated by the full pair, so multiply.
        pattern_count = 2 ** len(optional)
        enumerated = False
        per_pattern = sum(
            comp.node_bound
            for stage in stages
            for comp in component_bounds(sub, sup, stage)
        )
        search_bound = pattern_count * per_pattern

    components = component_bounds(sub, sup, stages[-1])
    nonempty = _nonempty_bound(sub)
    return CostCertificate(
        name=name or "%s vs %s" % (sub.name, sup.name),
        paths=len(sub.paths()),
        variables=len(sup.variables()),
        witness_stages=stages,
        patterns=pattern_count,
        patterns_enumerated=enumerated,
        components=components,
        search_bound=search_bound,
        nonempty_bound=nonempty,
        total_bound=search_bound + nonempty,
    )


def _trivial_certificate(name: str, settled: bool) -> CostCertificate:
    return CostCertificate(
        name=name,
        paths=0,
        variables=0,
        witness_stages=(),
        patterns=0,
        patterns_enumerated=True,
        components=(),
        search_bound=0,
        nonempty_bound=0,
        total_bound=0,
        settled=settled,
    )


def _fold_union_certificates(
    name: str, certificates: List[CostCertificate]
) -> CostCertificate:
    """One certificate dominating a Sagiv–Yannakakis family check.

    The reduction decides at most every (sub branch, sup branch) pair,
    each bounded by its own pair certificate — so the sums below stay
    sound search bounds for the whole union-vs-union check.
    """
    return CostCertificate(
        name=name,
        paths=sum(c.paths for c in certificates),
        variables=sum(c.variables for c in certificates),
        witness_stages=max(
            (c.witness_stages for c in certificates), key=len
        ),
        patterns=sum(c.patterns for c in certificates),
        patterns_enumerated=all(c.patterns_enumerated for c in certificates),
        components=tuple(
            comp for c in certificates for comp in c.components
        ),
        search_bound=sum(c.search_bound for c in certificates),
        nonempty_bound=sum(c.nonempty_bound for c in certificates),
        total_bound=sum(c.total_bound for c in certificates),
    )


def cost_certificate(
    query: Any,
    schema: Any,
    against: Any = None,
    engine: Any = None,
    witnesses: Optional[int] = None,
    stats: Optional[DatabaseStatistics] = None,
) -> CostCertificate:
    """Certificate for a COQL query (optionally against a superquery).

    Runs the abstract interpreter over the parsed AST (attaching
    fan-out and output-cardinality facts), encodes through the engine's
    cached pipeline, aligns with ``paired_encoding`` exactly like
    ``contains``, and bounds the resulting search.  With no *against*,
    the self-containment pair is bounded — the canonical workload for
    "how expensive is checking against this query".

    Union queries are bounded family-wise: the branch-pair certificates
    of the Sagiv–Yannakakis reduction are summed (the reduction decides
    at most every pair), so ``analyze`` accepts the same query set the
    engine does.
    """
    from repro.coql.encode import paired_encoding
    from repro.coql.family import contains_union, union_branches
    from repro.coql.parser import parse_coql

    if engine is None:
        from repro.engine import default_engine

        engine = default_engine()

    ast = parse_coql(query) if isinstance(query, str) else query
    facts = interpret(ast, schema, stats)

    against_ast = (
        parse_coql(against) if isinstance(against, str) else against
    )
    if contains_union(ast) or (
        against_ast is not None and contains_union(against_ast)
    ):
        sub_branches = union_branches(ast)
        sup_branches = (
            union_branches(against_ast)
            if against_ast is not None
            else sub_branches
        )
        pair_certificates = [
            cost_certificate(
                sub_branch, schema, against=sup_branch, engine=engine,
                witnesses=witnesses, stats=stats,
            )
            for sub_branch in sub_branches
            for sup_branch in sup_branches
        ]
        core = _fold_union_certificates(
            "union(%d) vs union(%d)" % (len(sub_branches),
                                        len(sup_branches)),
            pair_certificates,
        )
        return replace(
            core,
            fanout=facts.fanout(),
            output_cardinality=(facts.card.lo, facts.card.hi),
            facts=facts,
        )

    sub_encoded = engine.prepare(query, schema, name="sub")
    sup_encoded = (
        engine.prepare(against, schema, name="sup")
        if against is not None
        else sub_encoded
    )
    name = (
        "%s vs %s" % (sub_encoded.query.name, sup_encoded.query.name)
        if not sub_encoded.is_empty and not sup_encoded.is_empty
        else "query"
    )
    sub_query, sup_query, verdict = paired_encoding(sub_encoded, sup_encoded)
    if verdict is not None:
        core = _trivial_certificate(name, bool(verdict))
    else:
        core = engine.pipeline().analyze_cost(
            sub_query, sup_query, witnesses
        )
    return replace(
        core,
        fanout=facts.fanout(),
        output_cardinality=(facts.card.lo, facts.card.hi),
        facts=facts,
    )
