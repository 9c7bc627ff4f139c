"""The naive backtracking homomorphism search: the kernel's test oracle.

:mod:`repro.cq.propagation` prunes with bitmask domains, AC-3, forward
checking and component decomposition.  This search does none of that:
it expands source atoms strictly in source order, scanning every target
row of the atom's predicate.  Sharing no code with the kernel but the
atom types, it is the independent reference the differential tests
compare the kernel's homomorphism sets against.
"""

from functools import cache

from repro.cq.propagation import active_counters
from repro.cq.terms import Const

__all__ = ["NaiveBacktrackHomomorphismAlgorithm"]


_UNBOUND = object()


class NaiveBacktrackHomomorphismAlgorithm:
    """Source-order backtracking over ground target atoms.

    Target atoms are deduplicated in first-occurrence order, so the
    enumeration order is deterministic.  Extensions and undos are
    counted as ``nodes`` and ``backtracks`` in the installed
    :class:`repro.cq.propagation.SearchCounters`, if any.
    """

    @staticmethod
    @cache
    def instance():
        return NaiveBacktrackHomomorphismAlgorithm()

    def compute_homomorphisms(self, source_atoms, target_atoms, fixed=None,
                              allowed=None):
        """Yield every homomorphism, echoing *fixed*; *allowed* maps
        variables to the values they may take."""
        rows = {}
        for atom in target_atoms:
            rows.setdefault((atom.pred, atom.arity), {})[
                tuple(term.value for term in atom.args)
            ] = None
        binding = dict(fixed or {})
        allowed = allowed or {}
        if any(
            var in binding and binding[var] not in values
            for var, values in allowed.items()
        ):
            return
        yield from self._extend(list(source_atoms), rows, binding, allowed)

    def exist_homomorphism(self, source_atoms, target_atoms, fixed=None,
                           allowed=None):
        for __ in self.compute_homomorphisms(
            source_atoms, target_atoms, fixed, allowed
        ):
            return True
        return False

    def _extend(self, remaining, rows, binding, allowed):
        if not remaining:
            yield dict(binding)
            return
        counters = active_counters()
        atom = remaining[0]
        for row in rows.get((atom.pred, atom.arity), ()):
            extension = _match(atom, row, binding, allowed)
            if extension is None:
                continue
            if counters is not None:
                counters.nodes += 1
            binding.update(extension)
            yield from self._extend(remaining[1:], rows, binding, allowed)
            for var in extension:
                del binding[var]
            if counters is not None:
                counters.backtracks += 1


def _match(atom, row, binding, allowed):
    """The ``{Var: value}`` extension mapping *atom* onto *row*, or None."""
    extension = {}
    for term, value in zip(atom.args, row):
        if isinstance(term, Const):
            if term.value != value:
                return None
            continue
        bound = binding.get(term, extension.get(term, _UNBOUND))
        if bound is _UNBOUND:
            restriction = allowed.get(term)
            if restriction is not None and value not in restriction:
                return None
            extension[term] = value
        elif bound != value:
            return None
    return extension
