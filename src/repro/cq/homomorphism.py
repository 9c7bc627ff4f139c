"""Homomorphism search between sets of atoms.

The workhorse of every decision procedure in this library: find a mapping
from the variables of a set of *source* atoms to atomic values such that
every source atom's image is one of the (ground) *target* atoms.

Supports a *fixed* partial assignment (used to pin head variables in the
Chandra–Merlin test) and per-variable *allowed* value sets (used by the
simulation certificates of ``repro.grouping``, where index variables may
only map to witness-copy values).

The search is NP-complete in general (the paper leans on this for its
hardness results).  It runs on the constraint-propagation engine of
:mod:`repro.cq.propagation`: candidate sets are integer bitmasks,
variable domains are narrowed by an AC-3 pass, each assignment is
forward-checked, and independent components are solved separately.

Enumeration order is deterministic (target rows are deduplicated in
insertion order, never hash order).  Targets may be given as atoms or
as a precompiled :class:`repro.cq.propagation.CompiledTarget`, which
callers deciding many questions against one target should build once
with :func:`compile_target` (the containment engine caches these per
simulation target).
"""

from repro.cq.terms import Const
from repro.cq.propagation import (
    CompiledTarget,
    SearchCounters,
    compile_target,
    install_search_counters,
    propagating_search,
)

__all__ = [
    "find_homomorphism",
    "find_all_homomorphisms",
    "count_homomorphisms",
    "ground_atoms_of_query",
    "SearchCounters",
    "install_search_counters",
    "CompiledTarget",
    "compile_target",
]


def ground_atoms_of_query(query, tag=""):
    """The frozen body atoms of *query* as ground atoms.

    Variables are replaced by their frozen constants (see
    :func:`repro.cq.query.frozen_constant`).
    """
    from repro.cq.query import frozen_constant

    mapping = {v: Const(frozen_constant(v, tag)) for v in query.variables()}
    return tuple(atom.substitute(mapping) for atom in query.body)


def find_homomorphism(source_atoms, target_atoms, fixed=None, allowed=None):
    """Find one homomorphism, or None.

    :param source_atoms: atoms whose variables are to be mapped.
    :param target_atoms: ground atoms to map into, or a precompiled
        :class:`CompiledTarget`.
    :param fixed: optional ``{Var: value}`` pinning some variables.
    :param allowed: optional ``{Var: set-of-values}`` restricting some
        variables' images (variables not listed are unrestricted).
    :returns: a complete ``{Var: value}`` mapping or ``None``.
    """
    for mapping in find_all_homomorphisms(
        source_atoms, target_atoms, fixed=fixed, allowed=allowed
    ):
        return mapping
    return None


def count_homomorphisms(source_atoms, target_atoms, fixed=None, allowed=None):
    """The number of distinct homomorphisms."""
    return sum(
        1
        for __ in find_all_homomorphisms(
            source_atoms, target_atoms, fixed=fixed, allowed=allowed
        )
    )


def find_all_homomorphisms(source_atoms, target_atoms, fixed=None,
                           allowed=None):
    """Yield every homomorphism (as ``{Var: value}`` dicts).

    Variables that occur in no source atom are not assigned; callers that
    pin such variables should include them in *fixed* (they are then
    echoed in the result).

    Enumeration order is deterministic: target rows are deduplicated in
    insertion order, never hash order, and the kernel walks candidate
    rows in ascending row-id order.
    """
    source_atoms = tuple(source_atoms)
    compiled = compile_target(target_atoms)
    binding = dict(fixed or {})
    if allowed:
        for var, values in allowed.items():
            if var in binding and binding[var] not in values:
                return
    yield from propagating_search(
        source_atoms, compiled, binding, allowed or {}
    )
