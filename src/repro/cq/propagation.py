"""The constraint-propagating homomorphism search core.

Every decision procedure in this library — Chandra–Merlin containment,
the Theorem 4.1 simulation certificate, strong simulation, and the
weak-equivalence truncation sweep — bottoms out in the homomorphism
search of :mod:`repro.cq.homomorphism`, the NP-complete kernel the paper
leans on for its hardness results (Theorem 5.1).  This module is that
search: one kernel, classic CSP machinery over a vectorized
representation.

* **Compiled targets** — :func:`compile_target` turns ground target
  atoms into a :class:`CompiledTarget`: deduplicated rows in insertion
  order (so enumeration is deterministic, independent of hash seeds)
  and a per-``(pred, position, value)`` inverted index held as
  **integer bitmasks** over row ids (bit ``i`` set ⇔ row ``i`` carries
  the value), so candidate rows are fetched by lookup instead of
  scanning.  Compiled targets are reusable and cacheable — every search
  entry point accepts one in place of raw atoms, and the engine's
  target cache amortizes mask construction along with the rest of the
  compile.
* **Variable domains + AC-3 preprocessing** — every unbound variable
  starts with the intersection, over its occurrences, of the values
  seen at that column (further cut by the caller's ``allowed`` sets);
  an arc-consistency pass (in the style of AC-3, here
  generalized-arc-consistency over whole atoms) narrows domains to
  values supported by some candidate row of every atom.  An empty
  domain refutes the instance with **no search tree at all**.
* **Forward checking** — each assignment prunes the candidate sets
  of the still-unsolved atoms that share a just-bound variable by mask
  intersection; a pruned-to-empty set (a *domain wipeout*) backtracks
  immediately instead of rediscovering the conflict atoms later.
* **Component decomposition** — after ``fixed``/constant substitution
  the source atoms split into connected components (atoms linked by
  shared unbound variables); each component is solved independently and
  :func:`repro.cq.homomorphism.find_all_homomorphisms` enumerates the
  cross product lazily.  This is exactly Chandra–Merlin's argument that
  a join of independent subqueries is decided componentwise —
  multiplicative search cost becomes additive.

Candidate sets are arbitrary-precision Python ints (intersection is
``&``, emptiness is ``== 0``, cardinality is a cached
``.bit_count()``), trail entries are ``(position, old mask, old
count)`` tuples, and each source atom gets an :class:`_AtomPlan` with a
**generated matcher closure** that fuses its constant-position checks
and repeated-variable equalities into straight-line code — no per-row
``isinstance``/``zip`` interpretation.  Row enumeration walks set bits
in ascending row-id order, which is exactly insertion order.  The
naive source-order backtracker in ``tests/naive_homomorphism.py`` is
the independent oracle this kernel is differentially tested against.

Search effort is reported through :class:`SearchCounters` (installed
process-wide with :func:`install_search_counters`): ``nodes`` and
``backtracks``, ``domain_wipeouts`` (refutations by propagation),
``components_solved`` (independent component searches), and
``mask_intersections`` (bitmask ``&`` operations on the hot path).
"""

from dataclasses import dataclass, fields

from repro.errors import ReproError
from repro.cq.terms import Var, Const

__all__ = [
    "CompiledTarget",
    "compile_target",
    "SearchCounters",
    "install_search_counters",
    "propagating_search",
]


@dataclass(slots=True)
class SearchCounters:
    """Tallies of backtracking-search effort.

    ``nodes`` counts candidate-row extensions applied (search-tree nodes
    visited); ``backtracks`` counts extensions undone;
    ``domain_wipeouts`` counts refutations by constraint propagation (an
    empty variable domain before search, or a candidate set pruned to
    empty by forward checking); ``components_solved`` counts independent
    connected-component searches; ``mask_intersections`` counts bitmask
    ``&`` operations performed by the kernel.  Install an instance with
    :func:`install_search_counters` to have every search in the process
    report into it; the :class:`repro.engine.core.ContainmentEngine`
    does this around each decision.

    A dataclass on purpose: aggregation code (``EngineStats.merge`` /
    ``as_dict``, the benchmark harness) iterates
    :func:`dataclasses.fields` instead of naming counters, so a counter
    added here can never be silently dropped by worker-stat merging.
    """

    nodes: int = 0
    backtracks: int = 0
    domain_wipeouts: int = 0
    components_solved: int = 0
    mask_intersections: int = 0

    def reset(self):
        """Zero every counter field."""
        for field in fields(self):
            setattr(self, field.name, 0)

    def merge(self, other):
        """Add every counter of *other* into this object; return self."""
        for field in fields(self):
            setattr(
                self, field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )
        return self

    def as_dict(self):
        """Every counter as ``{field name: value}``."""
        return {
            field.name: getattr(self, field.name) for field in fields(self)
        }


_counters = None


def install_search_counters(counters):
    """Set the active :class:`SearchCounters` sink (or None to disable).

    Returns the previously installed sink so callers can restore it.
    """
    global _counters
    previous = _counters
    _counters = counters
    return previous


def active_counters():
    """The currently installed :class:`SearchCounters` sink (or None)."""
    return _counters


class _Unbound:
    pass


_UNBOUND = _Unbound()
_EMPTY = frozenset()


class CompiledTarget:
    """Ground target atoms compiled for constraint-propagating search.

    Attributes:
        atoms: the original ground atoms, as given.
        rows: ``{(pred, arity): tuple of value rows}`` — deduplicated in
            first-occurrence order, so the search enumerates rows (and
            therefore homomorphisms) in a deterministic,
            hash-seed-independent order.
        domains: ``{(pred, arity): per-position frozenset of values}`` —
            the column value sets that seed variable domains.
        masks: ``{(pred, arity): per-position ({value: int bitmask})}``
            — the inverted index as arbitrary-precision integer
            bitmasks over row ids (bit ``i`` set ⇔ ``rows[key][i]``
            carries the value at that position); the kernel's hot-path
            representation.
        full_masks: ``{(pred, arity): int}`` — the all-rows mask
            ``(1 << len(rows[key])) - 1`` per predicate.

    Instances are immutable by convention and safe to cache and share
    across searches (the :class:`repro.engine.core.ContainmentEngine`
    does, keyed on the originating query and witness count, so cache
    hits amortize mask construction too).
    """

    __slots__ = ("atoms", "rows", "domains", "masks", "full_masks")

    def __init__(self, atoms, rows, domains, masks, full_masks):
        self.atoms = atoms
        self.rows = rows
        self.domains = domains
        self.masks = masks
        self.full_masks = full_masks

    def __repr__(self):
        return "CompiledTarget(preds=%d, rows=%d)" % (
            len(self.rows),
            sum(len(r) for r in self.rows.values()),
        )


def compile_target(target_atoms):
    """Compile ground atoms into a :class:`CompiledTarget`.

    Idempotent: a :class:`CompiledTarget` passes through unchanged, so
    callers may hand either form to the search entry points.  Raises
    :class:`ReproError` when a target atom is not ground.
    """
    if isinstance(target_atoms, CompiledTarget):
        return target_atoms
    atoms = tuple(target_atoms)
    deduped = {}
    for atom in atoms:
        for term in atom.args:
            if isinstance(term, Var):
                raise ReproError(
                    "target atoms must be ground; %r is not" % (atom,)
                )
        key = (atom.pred, atom.arity)
        deduped.setdefault(key, {})[
            tuple(term.value for term in atom.args)
        ] = None
    rows = {key: tuple(seen) for key, seen in deduped.items()}
    domains = {}
    masks = {}
    full_masks = {}
    for key, key_rows in rows.items():
        per_position = [{} for __ in range(key[1])]
        for row_id, row in enumerate(key_rows):
            for position, value in enumerate(row):
                per_position[position].setdefault(value, set()).add(row_id)
        domains[key] = tuple(frozenset(column) for column in per_position)
        masks[key] = tuple(
            {
                value: _ids_to_mask(ids)
                for value, ids in column.items()
            }
            for column in per_position
        )
        full_masks[key] = (1 << len(key_rows)) - 1
    return CompiledTarget(atoms, rows, domains, masks, full_masks)


def _ids_to_mask(row_ids):
    mask = 0
    for row_id in row_ids:
        mask |= 1 << row_id
    return mask


# -- the kernel ---------------------------------------------------------------
#
# A candidate set is one arbitrary-precision int (bit i set <=> target
# row i is still viable), and each source atom carries a matcher closure
# generated once — straight-line code for its constant positions and
# repeated variables instead of a per-row zip/isinstance interpreter.
# Enumeration walks set bits lowest-first, i.e. ascending row id, i.e.
# target insertion order.


class _AtomPlan:
    """One source atom compiled for the kernel.

    ``const_positions`` is ``((position, value), ...)`` for the atom's
    constant arguments; ``var_positions`` is ``((var, (positions, ...)),
    ...)`` in first-occurrence order, one entry per distinct variable;
    ``match`` is the generated matcher closure — ``match(row, binding)``
    returns the ``{Var: value}`` extension or None, fusing constant
    checks, repeated-variable equality, and binding consistency.
    """

    __slots__ = ("const_positions", "var_positions", "match")

    def __init__(self, const_positions, var_positions, match):
        self.const_positions = const_positions
        self.var_positions = var_positions
        self.match = match


def _generate_matcher(const_positions, var_positions):
    """Build the specialized matcher closure for one atom shape.

    The function body is generated source — one comparison per constant
    position, one per repeated occurrence, one binding probe per
    distinct variable — compiled once and reused for every row the atom
    is ever matched against.
    """
    env = {"_UNBOUND": _UNBOUND}
    lines = ["def match(row, binding):"]
    for i, (position, value) in enumerate(const_positions):
        env["c%d" % i] = value
        lines.append("    if row[%d] != c%d:" % (position, i))
        lines.append("        return None")
    for i, (var, positions) in enumerate(var_positions):
        env["v%d" % i] = var
        lines.append("    value%d = row[%d]" % (i, positions[0]))
        for position in positions[1:]:
            lines.append("    if row[%d] != value%d:" % (position, i))
            lines.append("        return None")
    lines.append("    extension = {}")
    for i, (var, positions) in enumerate(var_positions):
        lines.append("    bound = binding.get(v%d, _UNBOUND)" % i)
        lines.append("    if bound is _UNBOUND:")
        lines.append("        extension[v%d] = value%d" % (i, i))
        lines.append("    elif bound != value%d:" % i)
        lines.append("        return None")
    lines.append("    return extension")
    namespace = {}
    exec("\n".join(lines), env, namespace)  # noqa: S102 - generated from terms
    return namespace["match"]


_PLAN_CACHE = {}
_PLAN_CACHE_LIMIT = 4096


def _atom_plan(atom):
    """The (memoized) :class:`_AtomPlan` of one source atom."""
    plan = _PLAN_CACHE.get(atom)
    if plan is not None:
        return plan
    const_positions = []
    occurrences = {}
    for position, term in enumerate(atom.args):
        if isinstance(term, Const):
            const_positions.append((position, term.value))
        else:
            occurrences.setdefault(term, []).append(position)
    const_positions = tuple(const_positions)
    var_positions = tuple(
        (var, tuple(positions)) for var, positions in occurrences.items()
    )
    plan = _AtomPlan(
        const_positions,
        var_positions,
        _generate_matcher(const_positions, var_positions),
    )
    if len(_PLAN_CACHE) >= _PLAN_CACHE_LIMIT:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[atom] = plan
    return plan


def _feasible_mask(plan, columns, start, column_domains, binding, domains):
    """Narrow *start* to the rows the atom can map onto.

    A row survives iff every constant position matches, every bound variable's
    value matches at each occurrence, and every unbound variable finds a
    single in-domain value across all its occurrences.  Returns
    ``(mask, intersections performed)``.
    """
    mask = start
    intersections = 0
    for position, value in plan.const_positions:
        mask &= columns[position].get(value, 0)
        intersections += 1
        if not mask:
            return mask, intersections
    for var, positions in plan.var_positions:
        bound = binding.get(var, _UNBOUND)
        if bound is not _UNBOUND:
            for position in positions:
                mask &= columns[position].get(bound, 0)
                intersections += 1
            if not mask:
                return mask, intersections
            continue
        domain = domains[var]
        if len(positions) == 1:
            position = positions[0]
            if len(domain) == len(column_domains[position]):
                # The domain covers every value of the column: every row
                # passes, the union of the per-value masks is `start`.
                continue
            column = columns[position]
            union = 0
            for value in domain:
                entry = column.get(value)
                if entry:
                    union |= entry
            intersections += 1
            mask &= union
        else:
            # A repeated variable: a row survives when some in-domain
            # value occupies *all* of its positions.
            union = 0
            first = columns[positions[0]]
            for value in domain:
                rows_with_value = first.get(value, 0)
                if not rows_with_value:
                    continue
                for position in positions[1:]:
                    rows_with_value &= columns[position].get(value, 0)
                    intersections += 1
                union |= rows_with_value
            intersections += 1
            mask &= union
        if not mask:
            return mask, intersections
    return mask, intersections


def _ac3_masks(source_atoms, plans, keys, compiled, candidates, counts,
               domains, binding, counters):
    """Generalized arc consistency: narrow domains to supported values.

    Iterates atom-wise revisions to a fixpoint; *candidates*, *counts*
    and *domains* are narrowed in place.  Returns False on a domain
    wipeout (the instance has no homomorphism).
    """
    intersections = 0
    changed = True
    while changed:
        changed = False
        for position_in_source, atom in enumerate(source_atoms):
            key = keys[position_in_source]
            columns = compiled.masks.get(key)
            if columns is None:
                kept = 0
            else:
                kept, used = _feasible_mask(
                    plans[position_in_source], columns,
                    candidates[position_in_source], compiled.domains[key],
                    binding, domains,
                )
                intersections += used
            if not kept:
                if counters is not None:
                    counters.mask_intersections += intersections
                    counters.domain_wipeouts += 1
                return False
            if kept != candidates[position_in_source]:
                candidates[position_in_source] = kept
                counts[position_in_source] = kept.bit_count()
            for var, positions in plans[position_in_source].var_positions:
                if var in binding:
                    continue
                for position in positions:
                    column = columns[position]
                    domain = domains[var]
                    narrowed = frozenset(
                        value
                        for value in domain
                        if kept & column.get(value, 0)
                    )
                    intersections += len(domain)
                    if len(narrowed) < len(domain):
                        domains[var] = narrowed
                        changed = True
                        if not narrowed:
                            if counters is not None:
                                counters.mask_intersections += intersections
                                counters.domain_wipeouts += 1
                            return False
    if counters is not None:
        counters.mask_intersections += intersections
    return True


def _forward_check_masks(extension, rest, plans, keys, compiled, candidates,
                         counts, trail):
    """Prune the mask candidate sets of *rest* atoms against *extension*.

    Pruned sets are pushed onto *trail* as ``(position, old mask, old
    count)`` for O(1) restoration on backtrack.  Returns ``(consistent,
    intersections performed)``; inconsistent means some atom lost every
    candidate row.
    """
    intersections = 0
    for position_in_source in rest:
        columns = compiled.masks.get(keys[position_in_source])
        mask = candidates[position_in_source]
        old = mask
        for var, positions in plans[position_in_source].var_positions:
            value = extension.get(var, _UNBOUND)
            if value is _UNBOUND:
                continue
            if columns is None:
                mask = 0
                break
            for position in positions:
                mask &= columns[position].get(value, 0)
                intersections += 1
            if not mask:
                break
        if mask != old:
            trail.append(
                (position_in_source, old, counts[position_in_source])
            )
            candidates[position_in_source] = mask
            counts[position_in_source] = mask.bit_count()
            if not mask:
                return False, intersections
    return True, intersections


def _solve_component_masks(order, plans, keys, compiled, candidates, counts,
                           binding, counters):
    """Yield every assignment of one component's unbound variables.

    *candidates*, *counts* (``{atom position: mask}`` / ``{atom
    position: cardinality}``) and *binding* are private to this
    component (the caller copies them), so paused generators of sibling
    components never interfere.  The cached cardinalities, maintained
    by forward checking and the trail, make the most-constrained-first
    choice an O(1) dict probe per remaining atom instead of a recount.
    """

    def descend(remaining, assigned):
        if not remaining:
            yield dict(assigned)
            return
        best = min(remaining, key=lambda p: (counts[p], p))
        mask = candidates[best]
        if not mask:
            return
        rest = [p for p in remaining if p != best]
        match = plans[best].match
        rows = compiled.rows[keys[best]]
        while mask:
            low = mask & -mask
            mask ^= low
            extension = match(rows[low.bit_length() - 1], binding)
            if extension is None:
                continue
            if counters is not None:
                counters.nodes += 1
            binding.update(extension)
            assigned.update(extension)
            trail = []
            consistent = True
            if extension and rest:
                consistent, used = _forward_check_masks(
                    extension, rest, plans, keys, compiled, candidates,
                    counts, trail,
                )
                if counters is not None:
                    counters.mask_intersections += used
            if consistent:
                yield from descend(rest, assigned)
            elif counters is not None:
                counters.domain_wipeouts += 1
            for pruned_position, old_mask, old_count in trail:
                candidates[pruned_position] = old_mask
                counts[pruned_position] = old_count
            for var in extension:
                del binding[var]
                del assigned[var]
            if counters is not None:
                counters.backtracks += 1

    yield from descend(list(order), {})


def _initial_domains(source_atoms, keys, compiled, binding, allowed):
    """Seed per-variable domains from column values and ``allowed``."""
    domains = {}
    for atom, key in zip(source_atoms, keys):
        columns = compiled.domains.get(key)
        for position, term in enumerate(atom.args):
            if not isinstance(term, Var) or term in binding:
                continue
            values = columns[position] if columns is not None else _EMPTY
            if term in domains:
                domains[term] = domains[term] & values
            else:
                restriction = allowed.get(term)
                domains[term] = (
                    frozenset(values)
                    if restriction is None
                    else values & frozenset(restriction)
                )
    return domains


def _components(source_atoms, binding):
    """Connected components of atoms linked by shared unbound variables.

    Returns a list of sorted atom-position lists; atoms with no unbound
    variables form singleton components.  Deterministic: components are
    ordered by their smallest member.
    """
    unbound_vars = []
    var_to_atoms = {}
    for position, atom in enumerate(source_atoms):
        mine = {v for v in atom.variables() if v not in binding}
        unbound_vars.append(mine)
        for var in mine:
            var_to_atoms.setdefault(var, []).append(position)
    seen = set()
    components = []
    for start in range(len(source_atoms)):
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        members = []
        while stack:
            position = stack.pop()
            members.append(position)
            for var in unbound_vars[position]:
                for neighbor in var_to_atoms[var]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
        members.sort()
        components.append(members)
    return components


class _LazySolutions:
    """A generator with positional access and caching.

    Lets the cross-product enumeration revisit a component's solutions
    without re-running its search, while still computing each solution
    only on demand.
    """

    __slots__ = ("_generator", "_items", "_exhausted")

    def __init__(self, generator):
        self._generator = generator
        self._items = []
        self._exhausted = False

    def get(self, position):
        """The solution at *position*, or None past the end."""
        while not self._exhausted and len(self._items) <= position:
            try:
                self._items.append(next(self._generator))
            except StopIteration:
                self._exhausted = True
        if position < len(self._items):
            return self._items[position]
        return None


def _cross(lazies, binding):
    """Lazily enumerate the cross product of component solutions."""

    def descend(level, accumulated):
        if level == len(lazies):
            yield dict(accumulated)
            return
        position = 0
        while True:
            solution = lazies[level].get(position)
            if solution is None:
                return
            accumulated.update(solution)
            yield from descend(level + 1, accumulated)
            for var in solution:
                del accumulated[var]
            position += 1

    yield from descend(0, dict(binding))


def propagating_search(source_atoms, compiled, binding, allowed):
    """Yield every homomorphism of *source_atoms* into *compiled*.

    :param source_atoms: tuple of source atoms.
    :param compiled: a :class:`CompiledTarget`.
    :param binding: the initial ``{Var: value}`` assignment (the
        caller's ``fixed``); echoed in every yielded mapping.
    :param allowed: ``{Var: allowed values}`` restrictions.

    Stages: initial domains and feasibility masks, the AC-3 fixpoint,
    component decomposition, a lazy per-component solve, and the lazy
    cross product of component solutions.
    """
    counters = _counters
    keys = tuple((atom.pred, atom.arity) for atom in source_atoms)
    domains = _initial_domains(source_atoms, keys, compiled, binding, allowed)
    if any(not domain for domain in domains.values()):
        if counters is not None:
            counters.domain_wipeouts += 1
        return
    plans = tuple(_atom_plan(atom) for atom in source_atoms)
    candidates = []
    counts = []
    intersections = 0
    for plan, key in zip(plans, keys):
        columns = compiled.masks.get(key)
        if columns is None:
            mask = 0
        else:
            mask, used = _feasible_mask(
                plan, columns, compiled.full_masks[key],
                compiled.domains[key], binding, domains,
            )
            intersections += used
        if not mask:
            if counters is not None:
                counters.mask_intersections += intersections
                counters.domain_wipeouts += 1
            return
        candidates.append(mask)
        counts.append(mask.bit_count())
    if counters is not None:
        counters.mask_intersections += intersections
    components = _components(source_atoms, binding)
    if not _ac3_masks(
        source_atoms, plans, keys, compiled, candidates, counts, domains,
        binding, counters,
    ):
        return
    lazies = []
    for order in components:
        if counters is not None:
            counters.components_solved += 1
        generator = _solve_component_masks(
            order,
            plans,
            keys,
            compiled,
            {position: candidates[position] for position in order},
            {position: counts[position] for position in order},
            dict(binding),
            counters,
        )
        lazy = _LazySolutions(generator)
        if lazy.get(0) is None:
            return
        lazies.append(lazy)
    yield from _cross(lazies, binding)
