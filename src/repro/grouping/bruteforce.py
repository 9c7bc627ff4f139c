"""Independent semantic checks for simulation and strong simulation.

These implement the paper's conditions *directly from their definitions*
(quantifier alternations evaluated over concrete databases) and are used
to validate the certificate-based procedures in
:mod:`repro.grouping.simulation` and :mod:`repro.grouping.strong`:

* :func:`semantic_simulates` — evaluates the ∀I ∃I' ∀rows condition on
  one database, searching over uniform index-correspondence choices.
* :func:`semantic_strongly_simulates` — the strong condition (chosen
  groups must be *equal*); at the level of evaluated complex objects
  this is plain membership of every answer element, recursively.
* :func:`canonical_databases` — the canonical family ("generic row plus
  k interchangeable witness rows per group") on which a semantic failure
  refutes simulation and a semantic success implies the certificate
  exists (completeness side of the reconstruction).

Falsification on *any* database refutes the ∀-database conditions, so
random databases (see ``repro.workloads``) give an unbounded supply of
soundness tests.
"""

from repro.cq.query import atoms_to_database
from repro.grouping.semantics import node_groups, evaluate_grouping
from repro.grouping.simulation import build_simulation_target

__all__ = [
    "semantic_simulates",
    "semantic_strongly_simulates",
    "canonical_databases",
    "check_simulation_on_canonical",
    "check_strong_simulation_on_canonical",
]


def semantic_simulates(sub, sup, database, max_choices=2000000):
    """Evaluate the simulation condition on one concrete database.

    Searches for uniform index choices: for each index value of each node
    of *sub*, one index value of the matched node of *sup*, such that
    every row of every (chain-reachable) sub group maps to a row of the
    chosen sup group with equal values and correspondingly-chosen child
    keys.

    Exponential in the number of distinct index values (it is a direct
    reading of the ∀I ∃I' ∀rows formula) — use only on small databases.
    """
    sub.require_same_shape(sup)
    sub_groups = node_groups(sub, database)
    sup_groups = node_groups(sup, database)
    sub_paths = sub.paths()
    memo = {}
    active_rows = _active_rows(sub, sub_groups)

    def coverable(path, sub_key, sup_key):
        """The *active* rows of group *sub_key* of sub's node are covered
        by group *sup_key* of sup's, with uniform child choices.

        Only active rows enter the check: the simulation implication's
        hypothesis requires content along *every* branch below a row, so
        a row with an unrealizable child key never constrains anything
        (it is exactly the situation the truncated obligations of the
        containment test handle separately).
        """
        state = (path, sub_key, sup_key)
        if state in memo:
            return memo[state]
        sub_node = sub_paths[path]
        sub_rows = active_rows[path].get(sub_key, frozenset())
        sup_rows = sup_groups[path].get(sup_key, frozenset())
        if not sub_rows:
            memo[state] = True
            return True
        if not sup_rows:
            memo[state] = False
            return False
        n_children = len(sub_node.children)
        # Distinct sub child keys per child position (active rows only).
        used = [
            sorted({row[1][c] for row in sub_rows}, key=_key_order)
            for c in range(n_children)
        ]
        sup_keys = [
            sorted({row[1][c] for row in sup_rows}, key=_key_order)
            for c in range(n_children)
        ]
        # Candidate images per (child position, sub child key).
        slots = []
        for c in range(n_children):
            child_path = path + (sub_node.children[c].label,)
            for key in used[c]:
                candidates = [
                    sup_key_c
                    for sup_key_c in sup_keys[c]
                    if coverable(child_path, key, sup_key_c)
                ]
                if not candidates:
                    memo[state] = False
                    return False
                slots.append(((c, key), candidates))
        result = _choice_search(slots, sub_rows, sup_rows, max_choices)
        memo[state] = result
        return result

    return coverable((), (), ())


def _key_order(key):
    """A total sort key for index keys: one key may mix generic values
    (strings) with integer constants, which do not compare directly."""
    return tuple((type(value).__name__, value) for value in key)


def _active_rows(query, groups):
    """Per path, the groups restricted to their *active* rows.

    A row is active when every one of its child keys is realizable; a
    key is realizable when its group contains at least one active row
    (leaf rows are always active).  Active rows are exactly the rows a
    full chain of the simulation hypothesis can pass through.
    """
    paths = query.paths()
    out = {}

    def realizable(path, key):
        return bool(active(path, key))

    def active(path, key):
        cache = out.setdefault(path, {})
        if key in cache:
            return cache[key]
        cache[key] = frozenset()  # cycle-safe placeholder (paths are acyclic)
        node = paths[path]
        kept = []
        for row in groups[path].get(key, frozenset()):
            __, child_keys = row
            if all(
                realizable(path + (child.label,), child_key)
                for child, child_key in zip(node.children, child_keys)
            ):
                kept.append(row)
        cache[key] = frozenset(kept)
        return cache[key]

    for path in paths:
        for key in groups[path]:
            active(path, key)
        out.setdefault(path, {})
    return out


def _choice_search(slots, sub_rows, sup_rows, max_choices):
    """Backtrack over child-key choice functions until rows line up.

    A *slot* is one (child position, sub child key) pair together with
    its candidate sup child keys; an assignment of all slots is a uniform
    choice function.  The search assigns slots depth-first and prunes
    with a per-row consistency check: every sub row must still have at
    least one sup row with equal values whose child keys agree with the
    assigned slots.
    """
    if not slots:
        return all((values, ()) in sup_rows for values, __ in sub_rows)
    # Most-constrained slots first keeps the backtracking shallow.
    slots = sorted(slots, key=lambda slot: len(slot[1]))

    sup_by_values = {}
    for values, child_keys in sup_rows:
        sup_by_values.setdefault(values, []).append(child_keys)

    rows = []
    for values, child_keys in sub_rows:
        options = sup_by_values.get(values)
        if not options:
            return False
        rows.append((tuple(enumerate(child_keys)), options))

    assignment = {}
    steps = [0]

    def consistent():
        for slot_list, options in rows:
            hit = False
            for candidate in options:
                if all(
                    assignment.get((c, key), candidate[c]) == candidate[c]
                    for c, key in slot_list
                ):
                    hit = True
                    break
            if not hit:
                return False
        return True

    def dfs(position):
        steps[0] += 1
        if steps[0] > max_choices:
            raise RuntimeError(
                "semantic simulation check exceeded max_choices=%d" % max_choices
            )
        if position == len(slots):
            return True
        slot, candidates = slots[position]
        for choice in candidates:
            assignment[slot] = choice
            if consistent() and dfs(position + 1):
                return True
            del assignment[slot]
        return False

    return dfs(0)


def semantic_strongly_simulates(sub, sup, database):
    """Evaluate the strong-simulation condition on one database.

    Strong simulation demands the chosen sup group be *equal* to the sub
    group; at the level of evaluated complex objects this is element-of,
    recursively, restricted to the *active* part of the sub answer —
    elements with an empty set component (recursively) never enter the
    implication's hypothesis, so they impose nothing (as in
    :func:`semantic_simulates`; at depth ≤ 2 the active projection keeps
    every element's groups intact, making the check exact).
    """
    sub.require_same_shape(sup)
    sub_answer = evaluate_grouping(sub, database)
    sup_answer = evaluate_grouping(sup, database)
    return all(
        element in sup_answer
        for element in sub_answer
        if _value_is_active(element)
    )


def _value_is_active(element):
    """True when a full hypothesis chain passes through the element:
    every set component contains, recursively, an active member."""
    from repro.objects.values import Record, CSet

    if not isinstance(element, Record):
        return True
    for __, component in element.items():
        if isinstance(component, CSet):
            if not any(_value_is_active(member) for member in component):
                return False
    return True


def canonical_databases(sub, sup=None, max_witnesses=None):
    """The canonical database family for testing ``sub ⊴ sup``.

    Yields ``(k, database)`` for k = 0 .. K where K defaults to
    ``|vars(sup)|`` (the completeness bound) or 2 when *sup* is omitted.
    Each database is the frozen generic body of *sub* plus k witness rows
    per group.
    """
    if max_witnesses is None:
        max_witnesses = max(1, len(sup.variables())) if sup is not None else 2
    for k in range(max_witnesses + 1):
        atoms, __ = build_simulation_target(sub, k)
        yield k, atoms_to_database(atoms)


def check_simulation_on_canonical(sub, sup, max_witnesses=None):
    """Semantic simulation over the whole canonical family of *sub*.

    Agrees with :func:`repro.grouping.simulation.is_simulated` (this is
    the completeness check the tests exercise).
    """
    return all(
        semantic_simulates(sub, sup, db)
        for __, db in canonical_databases(sub, sup, max_witnesses)
    )


def check_strong_simulation_on_canonical(sub, sup, max_witnesses=None):
    """Semantic strong simulation over the canonical family of *sub*."""
    return all(
        semantic_strongly_simulates(sub, sup, db)
        for __, db in canonical_databases(sub, sup, max_witnesses)
    )
