"""Unit tests for complex-object values (Record, CSet, atoms)."""

import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValueConstructionError
from repro.objects import Record, CSet, is_atom, is_complex_object, sort_key
from repro.objects import values
from repro.pipeline.fingerprint import fingerprint


class TestAtoms:
    def test_scalars_are_atoms(self):
        for value in ("x", 3, 2.5, True):
            assert is_atom(value)

    def test_collections_are_not_atoms(self):
        assert not is_atom([1])
        assert not is_atom(Record(a=1))
        assert not is_atom(CSet([1]))


class TestRecord:
    def test_attribute_access(self):
        r = Record(name="ann", age=7)
        assert r["name"] == "ann"
        assert r["age"] == 7

    def test_missing_attribute_raises(self):
        with pytest.raises(KeyError):
            Record(a=1)["b"]

    def test_get_with_default(self):
        assert Record(a=1).get("b", 9) == 9

    def test_equality_ignores_order(self):
        assert Record(a=1, b=2) == Record(b=2, a=1)

    def test_hashable(self):
        assert hash(Record(a=1)) == hash(Record(a=1))

    def test_keys_sorted(self):
        assert Record(b=1, a=2).keys() == ("a", "b")

    def test_nested_components(self):
        r = Record(a=CSet([Record(b=1)]))
        assert isinstance(r["a"], CSet)

    def test_replace(self):
        r = Record(a=1, b=2).replace(b=3, c=4)
        assert r == Record(a=1, b=3, c=4)

    def test_project(self):
        assert Record(a=1, b=2).project(["a"]) == Record(a=1)

    def test_immutable(self):
        r = Record(a=1)
        with pytest.raises(AttributeError):
            r.x = 1

    def test_invalid_component_rejected(self):
        with pytest.raises(ValueConstructionError):
            Record(a=object())

    def test_invalid_attr_name_rejected(self):
        with pytest.raises(ValueConstructionError):
            Record({1: "x"})

    def test_contains(self):
        assert "a" in Record(a=1)
        assert "b" not in Record(a=1)


class TestCSet:
    def test_deduplication(self):
        assert len(CSet([1, 1, 2])) == 2

    def test_equality(self):
        assert CSet([1, 2]) == CSet([2, 1])

    def test_nested_sets(self):
        s = CSet([CSet([1]), CSet([])])
        assert len(s) == 2

    def test_membership(self):
        assert Record(a=1) in CSet([Record(a=1)])

    def test_union_intersection(self):
        assert CSet([1]) | CSet([2]) == CSet([1, 2])
        assert CSet([1, 2]) & CSet([2, 3]) == CSet([2])

    def test_subset(self):
        assert CSet([1]) <= CSet([1, 2])
        assert not (CSet([3]) <= CSet([1, 2]))

    def test_iteration_deterministic(self):
        s = CSet(["b", "a", "c"])
        assert list(s) == list(s) == ["a", "b", "c"]

    def test_sorts_once(self, monkeypatch):
        calls = []

        def counting_sort_key(value):
            calls.append(value)
            return sort_key(value)

        monkeypatch.setattr(values, "sort_key", counting_sort_key)
        s = CSet(["b", "a", "c"])
        assert list(s) == ["a", "b", "c"]
        assert list(s) == ["a", "b", "c"]
        # The first iteration keys each element once; the second reads
        # the memoized order.
        assert len(calls) == 3

    def test_invalid_element_rejected(self):
        with pytest.raises(ValueConstructionError):
            CSet([object()])

    def test_immutable(self):
        s = CSet([1])
        with pytest.raises(AttributeError):
            s.x = 1


_ATOMS = st.one_of(
    st.integers(-2, 2), st.sampled_from(["a", "b", "c"]), st.booleans(),
)
_INNER = st.builds(lambda a, b: Record(a=a, b=b), _ATOMS, _ATOMS)
_OUTER = st.builds(
    lambda k, kids: Record(k=k, kids=CSet(kids)),
    _ATOMS, st.lists(_INNER, max_size=4),
)


def _rebuild(value):
    """An equal value built from new objects, none of them iterated."""
    if isinstance(value, CSet):
        return CSet([_rebuild(v) for v in value.elements()])
    if isinstance(value, Record):
        return Record({k: _rebuild(v) for k, v in value.items()})
    return value


def _plain_repr(value):
    """``repr`` spelled out with an explicit sort, not the order memo."""
    if isinstance(value, CSet):
        ordered = sorted(value.elements(), key=sort_key)
        return "{%s}" % ", ".join(_plain_repr(v) for v in ordered)
    if isinstance(value, Record):
        return "[%s]" % ", ".join(
            "%s: %s" % (k, _plain_repr(v)) for k, v in value.items()
        )
    return repr(value)


class TestOrderMemo:
    """A set's memoized iteration order is invisible to every reader."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_OUTER, max_size=5))
    def test_memo_changes_no_observable(self, rows):
        s = CSet(rows)
        before = fingerprint(s)
        expected = sorted(s.elements(), key=sort_key)
        assert list(s) == expected
        assert list(s) == expected
        for row in s:
            assert list(row["kids"]) == sorted(
                row["kids"].elements(), key=sort_key
            )
        fresh = _rebuild(s)
        assert s == fresh and hash(s) == hash(fresh) and len(s) == len(fresh)
        assert all(row in fresh for row in s)
        assert fingerprint(s) == before == fingerprint(fresh)
        assert repr(s) == _plain_repr(s) == repr(fresh)

    def test_threads_read_one_order(self):
        rows = [Record(a=i % 7, b=CSet([i, -i])) for i in range(40)]
        expected = sorted(CSet(rows).elements(), key=sort_key)
        sets = [CSet(rows) for __ in range(50)]
        seen = []

        def reader():
            seen.extend(tuple(s) for s in sets)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for __ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 * len(sets)
        assert set(seen) == {tuple(expected)}


class TestCopies:
    """Values cross process boundaries: pickle and deepcopy rebuild
    them through ``PicklableSlots``, and memos are recomputed."""

    def test_pickle_and_deepcopy_round_trip(self):
        from repro.objects import Database

        inner = CSet([Record(b="x"), Record(b="y")])
        value = CSet([Record(a=1, kids=inner), "z", 2.5])
        assert list(value)  # fills the order memo before copying
        database = Database.from_dict({"r": [{"a": 1}, {"a": 2}]})
        for original in (value, Record({"a": 1}), CSet([1]), database):
            for clone in (
                pickle.loads(pickle.dumps(original)),
                copy.deepcopy(original),
            ):
                assert clone == original
                if not isinstance(original, Database):
                    assert hash(clone) == hash(original)
                    assert clone in {original}
        clone = pickle.loads(pickle.dumps(value))
        assert "_order" not in clone.__getstate__()
        assert list(clone) == list(value)
        assert fingerprint(clone) == fingerprint(value)
        with pytest.raises(AttributeError):
            clone.x = 1


class TestWellFormedness:
    def test_nested_value_is_complex_object(self):
        value = CSet([Record(a=1, b=CSet([Record(c="x")]))])
        assert is_complex_object(value)

    def test_sort_key_total_on_mixed(self):
        values = [CSet([1]), Record(a=1), "z", 3, CSet([])]
        ordered = sorted(values, key=sort_key)
        assert sorted(ordered, key=sort_key) == ordered
