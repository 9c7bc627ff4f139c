"""Differential test: the per-class encoder table against the chain.

:mod:`tests.reference_fingerprint` is the ``isinstance`` chain that
:func:`repro.pipeline.fingerprint._feed` replaced.  On every input both
must give byte-equal digests, or raise the same ``TypeError``.  Store
keys are these digests, so a disagreement would orphan every persisted
artifact.

Both encoders fill the same ``_digest`` memo slots, so each side digests
its own freshly built objects wherever an input holds memoized classes.
"""

import collections
import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coql.containment import prepare
from repro.coql.parser import parse_coql
from repro.objects.database import Database, Relation
from repro.objects.types import ATOM, RecordType, SetType, infer_type
from repro.objects.values import CSet, Record
from repro.pipeline.fingerprint import _digest as live_digest
from repro.workloads import COQL_SCHEMA, random_coql_deep
from tests.reference_fingerprint import _digest as reference_digest
from tests.test_pipeline import DEPTH3, DEPTH3_SUP, GOLDEN_KEYS, SCHEMA


def assert_same(build):
    """Digest ``build()`` with the chain, and a second ``build()`` with
    the table: the two digests must be equal bytes."""
    expected = reference_digest(build())
    assert live_digest(build()) == expected
    return expected


def _golden_inputs():
    """The ``(kind, *parts)`` tuple behind every golden store key."""
    ast = parse_coql(DEPTH3)
    sub = prepare(DEPTH3, SCHEMA, "sub").query
    sup = prepare(DEPTH3_SUP, SCHEMA, "sup").query
    partial = {(), ("mids",)}
    schema_items = (
        ("r", RecordType({"a": ATOM, "b": ATOM})),
        ("s", RecordType({"k": ATOM, "b": ATOM})),
    )
    nested = SetType(RecordType({
        "a": ATOM, "s": SetType(RecordType({"b": ATOM})),
    }))
    return {
        "ast": ("ast", ast),
        "prepare": (
            "prepare", reference_digest(("parse", DEPTH3)).hex(),
            reference_digest(schema_items).hex(), "q",
        ),
        "grouping": ("grouping", sub),
        "flat_cq": ("flat_cq", sub.to_flat_cq(("mids",))),
        "set_type": ("type", nested),
        "nonempty": ("nonempty", sub, ("mids",)),
        "obligation_verdicts": (
            "obligation_verdicts", sub.truncate(partial),
            sup.truncate(partial), "certificate",
        ),
        "negative_zero": ("k", -0.0),
        "nan": ("k", float("nan")),
        "tuple": ("k", ("a", 1)),
        "list": ("k", ["a", 1]),
        "dict": ("k", {"b": 2, "a": 1.5}),
        "frozenset": ("k", frozenset({"x", 3, None})),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
def test_golden_corpus(name):
    digest = assert_same(lambda: _golden_inputs()[name])
    assert digest.hex() == GOLDEN_KEYS[name]


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf")]),
    st.text(max_size=6),
    st.binary(max_size=6),
)

_HASHABLE = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.tuples(inner), st.tuples(inner, inner),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=8,
)

_NESTED = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.sets(_HASHABLE, max_size=4),
        st.frozensets(_HASHABLE, max_size=4),
        st.dictionaries(_HASHABLE, inner, max_size=3),
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(_NESTED)
def test_nested_builtins(value):
    # Builtins carry no memo, so both encoders may read one object.
    assert live_digest(value) == reference_digest(value)


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class Name(str):
    pass


Point = collections.namedtuple("Point", "x y")


@pytest.mark.parametrize("value", [
    True, False, 1, 0, Colour.RED, Colour.BLUE, Name("a"), Name(""),
    Point(1, "y"), (Point(0.5, None), [Colour.BLUE, Name("z")]),
    {Name("k"): Point(True, 1)}, frozenset({Colour.RED, 1}),
], ids=repr)
def test_subclasses_keep_their_base_rule(value):
    assert live_digest(value) == reference_digest(value)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_random_queries_and_their_grouping_trees(depth):
    for seed in range(12):
        text = random_coql_deep(seed=seed, depth=depth)
        assert_same(lambda: parse_coql(text))

        def grouping():
            encoded = prepare(text, COQL_SCHEMA)
            return None if encoded.is_empty else encoded.query

        assert_same(grouping)


def _values():
    inner = CSet([Record(b=1), Record(b=2.5)])
    row_type = RecordType({"a": ATOM, "b": ATOM})
    relation = Relation.from_rows(
        "r", [{"a": 1, "b": "x"}, {"a": -0.0, "b": True}], row_type
    )
    return [
        Record(a=1, b="x"),
        Record(a=Record(c=0.5), kids=inner),
        inner,
        CSet(),
        CSet([CSet([1, 2]), CSet()]),
        relation,
        Database([relation]),
        row_type,
        infer_type(Record(a=1, kids=inner)),
        SetType(RecordType({"b": ATOM})),
    ]


@pytest.mark.parametrize("index", range(len(_values())))
def test_values_and_types(index):
    assert_same(lambda: _values()[index])


def test_unencodable_objects_raise_the_same_error():
    obj = object()
    with pytest.raises(TypeError) as reference:
        reference_digest(obj)
    with pytest.raises(TypeError) as live:
        live_digest(obj)
    assert str(live.value) == str(reference.value)
    with pytest.raises(TypeError) as again:
        live_digest(("k", obj))
    assert str(again.value) == str(reference.value)
