"""Parallel/sequential determinism of the classification protocol.

Regressions guarded here:

* ``ViewCatalog.containment_matrix`` with ``jobs > 1`` must return
  byte-identical results to the sequential engine (the semantic cache's
  minimizer trusts either path interchangeably);
* ``catalog.classify`` must agree between the sequential and sharded
  paths;
* an :data:`repro.engine.UNDECIDED` verdict (the timeout outcome) can
  only *demote* a label — never ``subsuming`` or ``equivalent`` off an
  undecided direction — and labels derived from UNDECIDED are never
  cached under the ``classification`` artifact kind (a later, slower
  pass must be able to improve on them);
* a parallel engine under inclusion dependencies stores its labels
  under constrained keys, never under the keys an unconstrained engine
  sharing its store reads.
"""

from repro.constraints import parse_constraint
from repro.coql.views import ViewCatalog
from repro.engine import (
    CLASSIFICATIONS,
    ContainmentEngine,
    ParallelContainmentEngine,
    UNDECIDED,
    classification_of,
)
from repro.pipeline import ArtifactStore
from repro.engine.core import resolve_classifications

SCHEMA = {"dept": ("dname", "floor"), "emp": ("name", "dep", "salary_band")}

VIEWS = {
    "flat": "select [d: x.dname, floor: x.floor] from x in dept",
    "renamed": "select [d: zz.dname, floor: zz.floor] from zz in dept",
    "second_floor": (
        "select [d: x.dname, floor: x.floor] from x in dept"
        " where x.floor = 2"
    ),
    "names_only": "select [n: e.name] from e in emp",
    "staffed": (
        "select [d: x.dname, floor: x.floor] from x in dept, e in emp"
        " where e.dep = x.dname"
    ),
}

QUERY = "select [d: q.dname, floor: q.floor] from q in dept where q.floor = 2"


def test_classification_of_truth_table():
    assert classification_of(True, True) == "equivalent"
    assert classification_of(True, False) == "subsuming"
    assert classification_of(False, True) == "contained"
    assert classification_of(False, False) == "irrelevant"
    # UNDECIDED (falsy) and captured errors only ever demote.
    assert classification_of(UNDECIDED, True) == "contained"
    assert classification_of(True, UNDECIDED) == "subsuming"
    assert classification_of(UNDECIDED, UNDECIDED) == "irrelevant"
    assert classification_of(ValueError("boom"), True) == "contained"
    for label in (
        classification_of(UNDECIDED, UNDECIDED),
        classification_of(True, False),
    ):
        assert label in CLASSIFICATIONS


def test_matrix_parallel_is_byte_identical_to_sequential():
    sequential = ViewCatalog(SCHEMA, views=VIEWS)
    names_seq, matrix_seq = sequential.containment_matrix()
    parallel = ViewCatalog(SCHEMA, views=VIEWS)
    names_par, matrix_par = parallel.containment_matrix(
        jobs=2, timeout_s=120.0
    )
    assert names_seq == names_par
    assert repr(matrix_seq) == repr(matrix_par)
    for row_seq, row_par in zip(matrix_seq, matrix_par):
        for cell_seq, cell_par in zip(row_seq, row_par):
            assert cell_seq is cell_par  # identity, not mere equality


def test_classify_parallel_agrees_with_sequential():
    catalog = ViewCatalog(SCHEMA, views=VIEWS)
    sequential = catalog.classify(QUERY)
    sharded = ViewCatalog(SCHEMA, views=VIEWS).classify(
        QUERY, jobs=2, timeout_s=120.0
    )
    assert sequential == sharded
    assert sequential == {
        "flat": "subsuming",
        "renamed": "subsuming",
        "second_floor": "equivalent",
        "names_only": "irrelevant",
        "staffed": "irrelevant",
    }


def test_classify_is_label_cached():
    engine = ContainmentEngine()
    catalog = ViewCatalog(SCHEMA, views=VIEWS, engine=engine)
    first = catalog.classify(QUERY)
    stats_before = engine.stats().as_dict()
    second = catalog.classify(QUERY)
    stats_after = engine.stats().as_dict()
    assert first == second
    hits = (
        stats_after["classification_hits"]
        - stats_before.get("classification_hits", 0)
    )
    assert hits == len(VIEWS)
    assert engine.store().sizes().get("classification", 0) >= len(VIEWS)


def test_undecided_labels_are_demoted_and_never_cached():
    """Feed the protocol UNDECIDED verdicts directly (the exact shape a
    timed-out parallel check produces): every label must demote, and
    nothing may land in the classification cache."""
    engine = ContainmentEngine()
    candidates = [VIEWS["flat"], VIEWS["second_floor"]]

    labels = resolve_classifications(
        engine, QUERY, candidates, SCHEMA,
        lambda pairs: [UNDECIDED] * len(pairs),
    )
    assert labels == ["irrelevant", "irrelevant"]
    assert engine.store().sizes().get("classification", 0) == 0

    # A half-decided pair: proven backward direction still counts, but
    # the undecided forward direction can never yield "subsuming" — and
    # the label still stays out of the cache.
    labels = resolve_classifications(
        engine, QUERY, candidates, SCHEMA,
        lambda pairs: [
            UNDECIDED if index % 2 == 0 else True
            for index in range(len(pairs))
        ],
    )
    assert "subsuming" not in labels and "equivalent" not in labels
    assert labels == ["contained", "contained"]
    assert engine.store().sizes().get("classification", 0) == 0

    # Fully decided verdicts, by contrast, are cached.
    labels = resolve_classifications(
        engine, QUERY, candidates, SCHEMA,
        lambda pairs: [True] * len(pairs),
    )
    assert labels == ["equivalent", "equivalent"]
    assert engine.store().sizes().get("classification", 0) == 2


def test_parallel_labels_are_decided_and_keyed_under_one_constraint_set():
    schema = {"employee": ("name", "dept"), "manager": ("name", "level")}
    dependency = parse_constraint("manager[name] -> employee[name]")
    query = "select [n: m.name] from m in manager"
    view = "select [n: e.name] from e in employee"
    store = ArtifactStore()
    with ParallelContainmentEngine(
        jobs=1, constraints=(dependency,), store=store
    ) as parallel:
        # Every manager is an employee, so the view answers the query.
        assert parallel.classify_many(query, [view], schema) == ["subsuming"]
    # Without the dependency neither direction holds.
    plain = ContainmentEngine(store=store)
    assert plain.classify_many(query, [view], schema) == ["irrelevant"]
    assert store.sizes()["classification"] == 2

    # A catalog that opts out of its engine's dependencies classifies
    # without them on the sharded path too.
    store = ArtifactStore()
    constrained = ContainmentEngine(store=store, constraints=(dependency,))
    catalog = ViewCatalog(
        schema, views={"v": view}, engine=constrained, constraints=()
    )
    assert catalog.classify(query, jobs=1) == {"v": "irrelevant"}
    assert catalog.classify(query) == {"v": "irrelevant"}
    plain = ContainmentEngine(store=store)
    assert plain.classify_many(query, [view], schema) == ["irrelevant"]
