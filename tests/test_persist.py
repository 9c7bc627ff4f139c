"""The persistent artifact tier: round trips, tiering semantics,
failure degradation, and genuine cross-process warm starts."""

import copyreg
import io
import multiprocessing
import os
import pickle
import sqlite3
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro
from repro.cq.propagation import CompiledTarget, compile_target
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Atom, Const, Var
from repro.engine import ContainmentEngine
from repro.grouping.query import GroupingNode
from repro.objects.types import ATOM, RecordType, SetType
from repro.pipeline import ArtifactStore, MISSING, PersistentStore, TieredStore
from repro.pipeline.persist import FORMAT_VERSION

SCHEMA = {"r": ("a", "b"), "s": ("k", "b")}
WIDER = "select [a: x.a, kids: select [b: y.b] from y in s] from x in r"
UNLINKED = (
    "select [a: x.a, kids: select [b: y.b] from y in s where y.k = x.a]"
    " from x in r"
)
FLAT = "select [v: x.a] from x in r"


def _stale_compiled_target():
    """A compiled target pickled with the ``index`` slot older versions
    carried: unpickling it now raises AttributeError."""
    target = compile_target(())
    state = {name: getattr(target, name) for name in CompiledTarget.__slots__}
    state["index"] = {}
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = {
        CompiledTarget: lambda obj: (
            copyreg.__newobj__, (CompiledTarget,), (None, state)
        ),
    }
    pickler.dump(target)
    return buffer.getvalue()


class TestPersistentStore:
    def test_round_trip_and_miss(self, tmp_path):
        with PersistentStore(str(tmp_path / "a.db")) as store:
            assert store.lookup("prepare", "k1") is MISSING
            store.store("prepare", "k1", {"x": (1, 2)})
            assert store.lookup("prepare", "k1") == {"x": (1, 2)}
            assert store.lookup("prepare", "other") is MISSING
            assert store.lookup("other_kind", "k1") is MISSING
            assert len(store) == 1

    def test_values_survive_reopen(self, tmp_path):
        path = str(tmp_path / "a.db")
        with PersistentStore(path) as store:
            store.store("targets", "t", ["compiled", ("target",)])
        with PersistentStore(path) as store:
            assert store.lookup("targets", "t") == ["compiled", ("target",)]
            assert store.sizes() == {"targets": 1}
            assert store.counters()["targets"]["hits"] == 1
            assert store.hit_rates() == {"targets": 1.0}

    def test_upsert_replaces(self, tmp_path):
        with PersistentStore(str(tmp_path / "a.db")) as store:
            store.store("k", "key", 1)
            store.store("k", "key", 2)
            assert store.lookup("k", "key") == 2
            assert store.sizes() == {"k": 1}

    def test_store_many_one_batch(self, tmp_path):
        with PersistentStore(str(tmp_path / "a.db")) as store:
            store.store_many(
                ("verdicts", "k%d" % i, i) for i in range(10)
            )
            assert store.sizes() == {"verdicts": 10}
            assert store.counters()["verdicts"]["stores"] == 10
            assert [v for __, __, v in store.rows(newest_first=False)] == list(
                range(10)
            )

    def test_non_string_keys_never_persist(self, tmp_path):
        with PersistentStore(str(tmp_path / "a.db")) as store:
            store.store("k", ("tuple", "key"), "value")
            assert store.counters()["k"]["store_errors"] == 1
            assert store.lookup("k", ("tuple", "key")) is MISSING
            assert len(store) == 0

    def test_unpicklable_value_degrades_to_store_error(self, tmp_path):
        with PersistentStore(str(tmp_path / "a.db")) as store:
            store.store("k", "key", lambda: None)
            assert store.counters()["k"]["store_errors"] == 1
            assert store.lookup("k", "key") is MISSING

    def test_delete_and_clear(self, tmp_path):
        with PersistentStore(str(tmp_path / "a.db")) as store:
            store.store_many(
                [("a", "k1", 1), ("a", "k2", 2), ("b", "k1", 3)]
            )
            store.delete("a", "k1")
            assert store.lookup("a", "k1") is MISSING
            store.clear("a")
            assert store.sizes() == {"b": 1}
            store.clear()
            assert store.sizes() == {}

    def test_format_version_bump_clears_stale_artifacts(self, tmp_path):
        path = str(tmp_path / "a.db")
        with PersistentStore(path) as store:
            store.store("prepare", "stale", "old-encoding")
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE name = 'format_version'",
            (str(FORMAT_VERSION - 1),),
        )
        conn.commit()
        conn.close()
        with PersistentStore(path) as store:
            assert store.lookup("prepare", "stale") is MISSING
            assert len(store) == 0
            store.store("prepare", "fresh", "new-encoding")
        with PersistentStore(path) as store:
            assert store.lookup("prepare", "fresh") == "new-encoding"

    def test_corrupted_database_degrades_to_misses(self, tmp_path):
        path = str(tmp_path / "a.db")
        with open(path, "wb") as handle:
            handle.write(b"this is not a sqlite database at all")
        store = PersistentStore(path)
        assert store.broken
        assert store.open_errors == 1
        assert store.lookup("prepare", "k") is MISSING
        store.store("prepare", "k", "value")  # dropped, not raised
        assert store.counters()["prepare"]["store_errors"] == 1
        assert store.sizes() == {}
        assert list(store.rows()) == []
        store.close()

    def test_poisoned_row_is_a_miss_and_evicted(self, tmp_path):
        payloads = {
            "garbage": b"\x80\x04 truncated garbage",
            "stale_target": _stale_compiled_target(),
        }
        for name, payload in payloads.items():
            path = str(tmp_path / ("%s.db" % name))
            with PersistentStore(path) as store:
                store.store("k", "good", "value")
            conn = sqlite3.connect(path)
            conn.execute(
                "INSERT INTO artifacts (kind, key, value, stored_at)"
                " VALUES ('k', 'bad', ?, 0.0)",
                (payload,),
            )
            conn.commit()
            conn.close()
            with PersistentStore(path) as store:
                assert store.lookup("k", "bad") is MISSING, name
                assert store.counters()["k"]["load_errors"] == 1, name
                # The poisoned row was dropped so a recomputed artifact
                # can take its place; rows() skips nothing that remains.
                assert store.sizes() == {"k": 1}, name
                assert [key for __, key, __ in store.rows()] == ["good"]
        # Stale compiled targets under the engine's own keys: every one
        # is a load error, recomputed to the same verdict.
        path = str(tmp_path / "engine.db")
        engine = ContainmentEngine(store_path=path)
        assert engine.contains(WIDER, UNLINKED, SCHEMA) is True
        engine.store().close()
        conn = sqlite3.connect(path)
        stale = conn.execute(
            "UPDATE artifacts SET value = ? WHERE kind = 'targets'",
            (payloads["stale_target"],),
        ).rowcount
        conn.execute("DELETE FROM artifacts WHERE kind != 'targets'")
        conn.commit()
        conn.close()
        assert stale > 0
        warm = ContainmentEngine(store_path=path)
        assert warm.contains(WIDER, UNLINKED, SCHEMA) is True
        tally = warm.store().counters()["targets"]
        assert tally["disk_load_errors"] == stale
        assert tally["disk_hits"] == 0
        warm.store().close()

    def test_closed_store_behaves_as_broken(self, tmp_path):
        store = PersistentStore(str(tmp_path / "a.db"))
        store.store("k", "key", 1)
        store.close()
        assert store.broken
        assert store.lookup("k", "key") is MISSING
        store.store("k", "key2", 2)  # dropped silently
        store.close()  # idempotent


class TestTieredStore:
    def test_requires_exactly_one_backing(self, tmp_path):
        with pytest.raises(ValueError):
            TieredStore()
        with pytest.raises(ValueError):
            TieredStore(
                path=str(tmp_path / "a.db"),
                disk=PersistentStore(":memory:"),
            )

    def test_write_back_is_deferred_until_flush(self, tmp_path):
        with TieredStore(path=str(tmp_path / "a.db")) as tiered:
            tiered.store("prepare", "k", "artifact")
            assert tiered.disk.sizes() == {}  # still dirty
            assert tiered.lookup("prepare", "k") == "artifact"
            assert tiered.flush() == 1
            assert tiered.disk.sizes() == {"prepare": 1}
            assert tiered.flush() == 0  # nothing newly dirty

    def test_write_back_threshold_auto_flushes(self, tmp_path):
        with TieredStore(
            path=str(tmp_path / "a.db"), write_back_batch=3
        ) as tiered:
            tiered.store("k", "k1", 1)
            tiered.store("k", "k2", 2)
            assert tiered.disk.sizes() == {}
            tiered.store("k", "k3", 3)
            assert tiered.disk.sizes() == {"k": 3}
            assert tiered.flushes == 1

    def test_close_flushes_dirty_buffer(self, tmp_path):
        path = str(tmp_path / "a.db")
        tiered = TieredStore(path=path)
        tiered.store("k", "key", "value")
        tiered.close()
        with PersistentStore(path) as disk:
            assert disk.lookup("k", "key") == "value"

    def test_read_through_promotes_disk_hits(self, tmp_path):
        path = str(tmp_path / "a.db")
        with PersistentStore(path) as disk:
            disk.store("prepare", "k", "warm-artifact")
        with TieredStore(path=path) as tiered:
            assert tiered.memory.sizes() == {}
            assert tiered.lookup("prepare", "k") == "warm-artifact"
            assert tiered.promotions == 1
            # Promoted: the second lookup is a pure memory hit.
            assert tiered.lookup("prepare", "k") == "warm-artifact"
            assert tiered.memory.counters()["prepare"]["hits"] == 1
            assert tiered.disk.counters()["prepare"]["hits"] == 1

    def test_dirty_buffer_serves_lru_evicted_entries(self, tmp_path):
        memory = ArtifactStore(limits={"k": 1})
        with TieredStore(
            path=str(tmp_path / "a.db"), memory=memory, write_back_batch=100
        ) as tiered:
            tiered.store("k", "k1", "first")
            tiered.store("k", "k2", "second")  # evicts k1 from memory
            assert memory.sizes() == {"k": 1}
            assert tiered.disk.sizes() == {}  # not flushed yet
            # Still a hit: the dirty buffer holds the unflushed value.
            assert tiered.lookup("k", "k1") == "first"

    def test_per_kind_persistence_policy(self, tmp_path):
        with TieredStore(
            path=str(tmp_path / "a.db"), persist_kinds={"prepare"}
        ) as tiered:
            assert tiered.persisted("prepare")
            assert not tiered.persisted("trace")
            tiered.store("prepare", "k", 1)
            tiered.store("trace", "k", 2)
            tiered.flush()
            assert tiered.disk.sizes() == {"prepare": 1}
            # The memory tier serves every kind regardless.
            assert tiered.lookup("trace", "k") == 2

    def test_set_persisted_flips_at_runtime(self, tmp_path):
        with TieredStore(path=str(tmp_path / "a.db")) as tiered:
            tiered.set_persisted("trace", False)
            tiered.store("trace", "k", 1)
            tiered.store("prepare", "k", 2)
            tiered.flush()
            assert tiered.disk.sizes() == {"prepare": 1}
            tiered.set_persisted("trace", True)
            tiered.store("trace", "k2", 3)
            tiered.flush()
            assert tiered.disk.sizes() == {"prepare": 1, "trace": 1}

    def test_preload_warms_memory_newest_first(self, tmp_path):
        path = str(tmp_path / "a.db")
        with PersistentStore(path) as disk:
            disk.store_many(
                [("prepare", "k%d" % i, i) for i in range(5)]
            )
        with TieredStore(path=path) as tiered:
            assert tiered.preload() == 5
            assert tiered.memory.sizes() == {"prepare": 5}
            assert tiered.lookup("prepare", "k3") == 3
            # Served from memory: the disk tier saw no lookups at all.
            assert tiered.disk.counters().get("prepare", {}).get(
                "hits", 0
            ) == 0

    def test_preload_respects_caps_and_kind_filter(self, tmp_path):
        path = str(tmp_path / "a.db")
        with PersistentStore(path) as disk:
            disk.store_many(
                [("a", "k%d" % i, i) for i in range(5)]
                + [("b", "k%d" % i, i) for i in range(5)]
            )
        with TieredStore(path=path) as tiered:
            assert tiered.preload(kinds=["a"], per_kind_limit=2) == 2
            assert tiered.memory.sizes() == {"a": 2}
        memory = ArtifactStore(limits={"a": 3}, default_maxsize=8)
        with TieredStore(path=path, memory=memory) as tiered:
            # No explicit cap: each kind fills to its memory bound.
            assert tiered.preload() == 8
            assert memory.sizes() == {"a": 3, "b": 5}

    def test_clear_hits_every_tier(self, tmp_path):
        with TieredStore(
            path=str(tmp_path / "a.db"), write_back_batch=2
        ) as tiered:
            tiered.store("a", "k1", 1)
            tiered.store("a", "k2", 2)  # flushed
            tiered.store("b", "k1", 3)  # dirty
            tiered.clear("a")
            assert tiered.lookup("a", "k1") is MISSING
            assert tiered.disk.sizes() == {}
            assert tiered.lookup("b", "k1") == 3  # other kind untouched
            tiered.clear()
            assert tiered.lookup("b", "k1") is MISSING

    def test_corrupted_disk_tier_degrades_to_memory_only(self, tmp_path):
        path = str(tmp_path / "a.db")
        with open(path, "wb") as handle:
            handle.write(b"garbage, not sqlite")
        with TieredStore(path=path) as tiered:
            assert tiered.disk.broken
            tiered.store("prepare", "k", "value")
            assert tiered.lookup("prepare", "k") == "value"  # memory works
            assert tiered.lookup("prepare", "cold") is MISSING
            tiered.flush()  # drops, never raises

    def test_combined_accounting(self, tmp_path):
        path = str(tmp_path / "a.db")
        with PersistentStore(path) as disk:
            disk.store("k", "warm", 1)
        with TieredStore(path=path) as tiered:
            tiered.lookup("k", "warm")   # memory miss, disk hit
            tiered.lookup("k", "cold")   # miss in both
            counters = tiered.counters()
            assert counters["k"]["misses"] == 2
            assert counters["k"]["disk_hits"] == 1
            assert tiered.hit_rates() == {"k": 0.5}
            tiered.reset_counters()
            assert tiered.promotions == 0
            assert tiered.counters().get("k", {}).get("disk_hits", 0) == 0


# -- cross-process warm starts ------------------------------------------


def _decide_with_store(path, sup, sub):
    """Run one containment check over the persistent tier (subprocess)."""
    engine = ContainmentEngine(store_path=path)
    verdict = engine.contains(sup, sub, SCHEMA)
    store = engine.store()
    store.flush()
    counters = store.counters()
    rates = store.hit_rates()
    store.close()
    return verdict, counters, rates


class TestCrossProcessWarmStart:
    def test_subprocess_reads_artifacts_written_here(self, tmp_path):
        path = str(tmp_path / "cache.db")
        with TieredStore(path=path) as tiered:
            tiered.store("prepare", "shared-key", {"payload": (1, "two")})
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            value = pool.submit(_read_one, path, "prepare", "shared-key")
            assert value.result() == {"payload": (1, "two")}

    def test_engine_warm_starts_from_another_process_run(self, tmp_path):
        path = str(tmp_path / "cache.db")
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            cold = pool.submit(
                _decide_with_store, path, WIDER, UNLINKED
            ).result()
        verdict, counters, rates = cold
        assert verdict is True
        # The cold run computed everything: no disk hits anywhere.
        assert all(
            tally.get("disk_hits", 0) == 0 for tally in counters.values()
        )
        # Same check, fresh process: served from the persistent tier.
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            warm = pool.submit(
                _decide_with_store, path, WIDER, UNLINKED
            ).result()
        verdict, counters, rates = warm
        assert verdict is True
        assert sum(
            tally.get("disk_hits", 0) for tally in counters.values()
        ) > 0
        assert any(rate == 1.0 for rate in rates.values() if rate is not None)

    def test_engine_store_path_round_trip_same_process(self, tmp_path):
        path = str(tmp_path / "cache.db")
        engine = ContainmentEngine(store_path=path)
        assert engine.contains(WIDER, UNLINKED, SCHEMA) is True
        engine.store().close()
        warm = ContainmentEngine(store_path=path)
        assert warm.contains(WIDER, UNLINKED, SCHEMA) is True
        assert warm.store().promotions > 0
        warm.store().close()


def _read_one(path, kind, key):
    with TieredStore(path=path) as tiered:
        return tiered.lookup(kind, key)


def _hashed_instances():
    """One instance of every class that memoizes its ``hash()`` in a
    ``_hash`` slot, and the :class:`Var` they hold (the key of every
    binding dict), built the same way in every process."""
    x = Var("X")
    atom = Atom("r", (x, Const("c")))
    record = RecordType({"a": ATOM, "kids": SetType(RecordType({"b": ATOM}))})
    return (
        x,
        atom,
        ConjunctiveQuery((x,), (atom,)),
        GroupingNode("root", (atom,), {"a": x}, (x,)),
        record,
        SetType(record),
    )


def _write_hashed(directory):
    """Pickle :func:`_hashed_instances` and prepare a query into a
    persistent store, both under *directory* (run in a subprocess)."""
    with open(os.path.join(directory, "hashed.pickle"), "wb") as handle:
        pickle.dump(_hashed_instances(), handle)
    engine = ContainmentEngine(store_path=os.path.join(directory, "cache.db"))
    engine.prepare(UNLINKED, SCHEMA)
    engine.store().close()


def _check_hashed(directory):
    """Load what :func:`_write_hashed` wrote and compare it with fresh
    objects, by equality, by hash and by set membership (subprocess)."""
    with open(os.path.join(directory, "hashed.pickle"), "rb") as handle:
        loaded = pickle.load(handle)
    engine = ContainmentEngine(store_path=os.path.join(directory, "cache.db"))
    disk = engine.prepare(UNLINKED, SCHEMA)
    assert engine.store().counters()["prepare"]["disk_hits"] == 1
    fresh = ContainmentEngine().prepare(UNLINKED, SCHEMA)
    pairs = list(zip(loaded, _hashed_instances()))
    pairs.append((disk.query.root, fresh.query.root))
    pairs.extend(zip(disk.query.root.own_atoms, fresh.query.root.own_atoms))
    for old, new in pairs:
        assert old == new, (old, new)
        assert hash(old) == hash(new), (type(old).__name__, old)
        assert old in {new}, (type(old).__name__, old)


class TestHashAcrossProcesses:
    """``str`` hashes are salted per process, so a memoized ``_hash``
    must never be pickled: a copy loaded in another process would equal
    a fresh object yet miss it in every set and dict."""

    def _run(self, function, directory, hash_seed):
        # The package's parent directory and the one holding ``tests/``.
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        project_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=os.pathsep.join((source_root, project_root)))
        completed = subprocess.run(
            [sys.executable, "-c",
             "import sys; from tests.test_persist import %s as f; f(sys.argv[1])"
             % function, directory],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stdout

    def test_loaded_objects_rehash_in_the_reading_process(self, tmp_path):
        self._run("_write_hashed", str(tmp_path), 1)
        self._run("_check_hashed", str(tmp_path), 2)

    def test_state_carrying_a_stale_hash_loads_rehashed(self):
        # Rows written before ``_hash`` was skipped carry one in their
        # state; loading must ignore it.
        atom = Atom("r", (Var("X"), Const("c")))
        state = dict(atom.__getstate__(), _hash=12345)
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dispatch_table = {
            Atom: lambda obj: (copyreg.__newobj__, (Atom,), state),
        }
        pickler.dump(atom)
        loaded = pickle.loads(buffer.getvalue())
        assert loaded == atom
        assert hash(loaded) == hash(atom) != 12345
        assert "_hash" not in loaded.__getstate__()
