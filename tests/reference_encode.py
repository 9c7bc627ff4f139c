# The unification that repro.coql.encode's path-compressed _unify
# replaced, kept unchanged as the oracle of
# tests/test_encode_differential.py.  Do not edit it to follow the new
# encoder.  It links representatives without path compression and
# returns a _Resolved view that walks the parent chain on every lookup;
# everything else is the live _Builder.
"""COQL encoding with the lazily resolved unification."""

from repro.errors import TypeCheckError, UnsupportedQueryError
from repro.cq.terms import Const
from repro.grouping.query import GroupingQuery
from repro.coql.encode import EncodedQuery, _Builder, _Unsat
from repro.coql.normalize import NFEmpty, NFSet


class _ReferenceBuilder(_Builder):
    def _unify(self, conds, columns, outer_vars):
        """Turn equality conditions into a substitution.

        Raises :class:`_Unsat` when two distinct constants must be equal
        and :class:`UnsupportedQueryError` when a condition relates two
        outer terms (see module docstring).
        """
        parent = {}

        def find(term):
            while term in parent:
                term = parent[term]
            return term

        def rank(term):
            # Higher rank wins as representative.
            if isinstance(term, Const):
                return 2
            return 1 if term in outer_vars else 0

        for left, right in conds:
            left_term = find(self._term(left, columns))
            right_term = find(self._term(right, columns))
            if left_term == right_term:
                continue
            if isinstance(left_term, Const) and isinstance(right_term, Const):
                raise _Unsat()
            if rank(left_term) < rank(right_term):
                left_term, right_term = right_term, left_term
            # left_term is the representative.
            if rank(right_term) >= 1:
                # Both sides are outer terms (or outer/constant): the
                # condition gates the inner set on the outer binding.
                raise UnsupportedQueryError(
                    "condition equates two outer terms (%r = %r) inside a "
                    "nested subquery; outside the implemented fragment"
                    % (left_term, right_term)
                )
            parent[right_term] = left_term

        return _Resolved(parent)


class _Resolved(dict):
    """A substitution that follows union-find parent chains lazily."""

    def __init__(self, parent):
        super().__init__()
        self._parent = parent

    def get(self, term, default=None):
        if term not in self._parent:
            return default
        while term in self._parent:
            term = self._parent[term]
        return term


def encode_query(nf, schema, name="q"):
    """:func:`repro.coql.encode.encode_query` over the reference
    unification."""
    if isinstance(nf, NFEmpty):
        return EncodedQuery(None, {}, {()}, ("empty",))
    if not isinstance(nf, NFSet):
        raise TypeCheckError("queries must be set-valued, got %r" % (nf,))
    builder = _ReferenceBuilder(schema)
    root, templates, empty_paths, shape = builder.build_root(nf)
    if root is None:
        return EncodedQuery(None, {}, {()}, ("empty",))
    return EncodedQuery(GroupingQuery(root, name), templates, empty_paths, shape)
