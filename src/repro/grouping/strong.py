"""Strong simulation: the equivalence-side condition (paper, Section 6).

``Q ⊴s Q'`` (*Q is strongly simulated by Q'*) iff on every database,
every element of Q's answer is an element of Q' 's answer **as a nested
value** — i.e. the uniform index correspondence of simulation must match
groups that are *equal*, not merely included.  For depth 2::

    ∀I ∃I' ∀S ∀C . (Q1(S,I) ∧ Q2(I,C) ⟹ Q'1(S,I') ∧ Q'2(I',C))
                 ∧ (Q1(S,I) ∧ Q'2(I',C) ⟹ Q2(I,C))

The extra conjunct breaks the Bernays–Schönfinkel / Class-1.2 shape, so
(as the paper notes) decidability of strong simulation does not follow
from classical results; the paper proves it decidable and NP-complete.

The NP certificate implemented here extends the simulation certificate:

1. an extended containment mapping φ as in
   :mod:`repro.grouping.simulation` (the forward, ⊆ direction), and
2. for every set node *n*, a classical containment proof that the
   *paired query* ``L_n ⊑ R_n`` (the reverse, ⊇ direction), where

   * ``R_n(ī_n, v̄_n)`` is node *n*'s group-content query, and
   * ``L_n`` describes the content of the Q'-group *chosen by φ*: the
     witness bodies along *n*'s chain (which tie the choice to the index
     ``ī_n``) conjoined with Q' 's chain body in which the index
     variables of the matched node are replaced by their φ-images
     (translated back from canonical values to query variables).

Soundness: whatever the database and witness assignment, every row of
the chosen Q'-group is an answer of ``L_n``, hence of ``R_n``, hence a
row of Q's group — giving group equality when combined with φ.
Completeness of the (φ, reverse-proof) search is validated empirically
against :func:`repro.grouping.bruteforce.semantic_strongly_simulates`
(see the property tests); the forward search enumerates all φ and
accepts when any passes every reverse check.
"""

from repro.errors import ReproError
from repro.cq.terms import Var, Const, is_var
from repro.cq.query import ConjunctiveQuery
from repro.cq.homomorphism import find_all_homomorphisms
from repro.cq.containment import contains as cq_contains
from repro.grouping.simulation import (
    SimulationCertificate,
    simulation_target,
    _generic_value,
    _index_pools,
    _pin_values,
    _witness_value,
)

__all__ = [
    "StrongSimulationCertificate",
    "strong_simulation_certificate",
    "is_strongly_simulated",
]


class StrongSimulationCertificate:
    """A simulation certificate whose reverse checks all succeeded."""

    __slots__ = ("forward", "reverse_paths")

    def __init__(self, forward, reverse_paths):
        self.forward = forward
        self.reverse_paths = tuple(reverse_paths)

    def __repr__(self):
        return "StrongSimulationCertificate(witnesses=%d, reverse_paths=%r)" % (
            self.forward.witnesses,
            self.reverse_paths,
        )


def strong_simulation_certificate(sub, sup, witnesses=None, max_candidates=None,
                                  cache=None, stats=None):
    """Find a certificate that ``sub ⊴s sup``, or return None.

    Enumerates forward simulation certificates φ and returns the first
    whose reverse containments all hold.  *max_candidates* bounds the
    number of φ considered (None = unbounded).  *cache*/*stats* are the
    simulation-target cache and counter sink of
    :func:`repro.grouping.simulation.simulation_target`; the forward
    target here is the same witness-augmented canonical database, so a
    shared cache serves both procedures.
    """
    sub.require_same_shape(sup)
    if witnesses is None:
        # The reverse checks read the witness copies, so the retraction
        # lemma that lets plain simulation stop at one copy does not
        # apply here: search at the completeness bound.
        witnesses = max(1, len(sup.variables()))
    fixed = _pin_values(sub, sup)
    if fixed is None:
        return None
    target = simulation_target(sub, witnesses, cache=cache, stats=stats)
    allowed = _index_pools(sup, target.available)
    sub_paths = sub.paths()
    sup_paths = sup.paths()

    sup_atoms = tuple(a for node in sup.nodes() for a in node.own_atoms)
    unfreeze = _build_unfreezer(sub, witnesses)

    count = 0
    for mapping in find_all_homomorphisms(
        sup_atoms, target.compiled, fixed=fixed, allowed=allowed
    ):
        count += 1
        if max_candidates is not None and count > max_candidates:
            return None
        mapping = dict(mapping)
        for var, value in fixed.items():
            mapping.setdefault(var, value)
        reverse_paths = [p for p in sub_paths if p]
        if all(
            _reverse_holds(sub, sup, path, mapping, witnesses, unfreeze)
            for path in reverse_paths
        ):
            index_choice = {
                path: tuple(mapping.get(v) for v in node.index)
                for path, node in sup_paths.items()
            }
            forward = SimulationCertificate(mapping, witnesses, index_choice)
            return StrongSimulationCertificate(forward, reverse_paths)
    return None


def is_strongly_simulated(sub, sup, witnesses=None, max_candidates=None,
                          cache=None, stats=None):
    """True iff ``sub ⊴s sup``."""
    return (
        strong_simulation_certificate(
            sub, sup, witnesses=witnesses, max_candidates=max_candidates,
            cache=cache, stats=stats,
        )
        is not None
    )


def _build_unfreezer(sub, witnesses):
    """Map canonical values back to fresh query variables.

    Generic values become the sub variables themselves; witness values
    become dedicated variables (one per witness variable, shared across
    reverse checks); other values are ordinary constants.
    """
    table = {}
    for var in sub.variables():
        table[_generic_value(var)] = var
    paths = sub.paths()
    for path, node in paths.items():
        if not path:
            continue
        parent = paths[path[:-1]]
        shared = set(node.index) | set(parent.index)
        body = sub.full_body(path)
        body_vars = {v for atom in body for v in atom.variables()}
        for copy in range(witnesses):
            for var in body_vars:
                if var not in shared:
                    value = _witness_value(var, path, copy)
                    table[value] = Var(
                        "W%%%s%%%d%%%s" % ("/".join(path), copy, var.name)
                    )

    def unfreeze(value):
        hit = table.get(value)
        return Const(value) if hit is None else hit

    return unfreeze


def _reverse_holds(sub, sup, path, mapping, witnesses, unfreeze):
    """Check the ⊇ direction at *path*: the φ-chosen sup group's content
    is contained in sub's group content (as value rows)."""
    left = _paired_query(sub, sup, path, mapping, witnesses, unfreeze)
    right = sub.to_flat_cq(path)
    try:
        return cq_contains(right, left)  # left ⊑ right
    except ReproError:
        return False


def _paired_query(sub, sup, path, mapping, witnesses, unfreeze):
    """Build ``L_path``: witness bodies along the chain + sup's chain body
    with the matched node's index replaced by its φ-image."""
    sub_paths = sub.paths()
    sup_paths = sup.paths()
    sup_node = sup_paths[path]
    pinned = {var: unfreeze(mapping[var]) for var in sup_node.index}

    body = []
    # Witness bodies along the chain (assert the sub group chain exists
    # and bind the witness variables the φ-image may mention).
    chain = [path[:i] for i in range(len(path) + 1)]
    for q in chain:
        if not q:
            continue
        node = sub_paths[q]
        parent = sub_paths[q[:-1]]
        shared = set(node.index) | set(parent.index)
        q_body = sub.full_body(q)
        q_vars = {v for atom in q_body for v in atom.variables()}
        for copy in range(witnesses):
            copy_map = {}
            for var in q_vars:
                if var in shared:
                    copy_map[var] = var
                else:
                    copy_map[var] = Var(
                        "W%%%s%%%d%%%s" % ("/".join(q), copy, var.name)
                    )
            for atom in q_body:
                body.append(atom.substitute(copy_map))

    # Sup's chain body with fresh variables, except the matched node's
    # index variables which take their φ-image terms.
    sup_fresh = {}
    for q in chain:
        for atom in sup_paths[q].own_atoms:
            body.append(atom.substitute(_SupRename(pinned, sup_fresh)))

    head = list(sub_paths[path].index)
    for __, term in sup_node.values:
        if is_var(term):
            head.append(pinned.get(term, sup_fresh.setdefault(term, _fresh(term))))
        else:
            head.append(term)
    return ConjunctiveQuery(tuple(head), tuple(body), "paired")


def _fresh(var):
    return Var("S%%" + var.name)


class _SupRename(dict):
    """A lazy {Var: term} mapping: pinned index vars keep their φ-image;
    every other sup variable gets a stable fresh variable."""

    def __init__(self, pinned, fresh):
        super().__init__()
        self._pinned = pinned
        self._fresh = fresh

    def get(self, var, default=None):
        if var in self._pinned:
            return self._pinned[var]
        return self._fresh.setdefault(var, _fresh(var))
