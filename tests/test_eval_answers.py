"""Evaluation answers and their printed order, pinned by one digest.

``repr`` of a complex object iterates every nested set, so a sha256
over the printed answers pins both the values and the canonical
iteration order (``objects.values.sort_key``) of every set in them.
The corpus is every pool query of the ``company`` and ``orders``
simulator tenants at seeds 0..3, each on its tenant's database, plus
40 constant-bearing ``random_coql_deep`` queries on small random
databases.  The digest must not depend on ``PYTHONHASHSEED``.
"""

import hashlib
import random

from repro.coql import evaluate_coql, parse_coql
from repro.objects import Database
from repro.workloads.generators import COQL_SCHEMA, random_coql_deep
from repro.workloads.scenarios import scenario_by_name
from repro.workloads.simulator import WorkloadSimulator

ANSWERS_SHA256 = (
    "f80e005e8b1c1376395292dad661b623e0ae44142b235106d56a193d8c0f5af9"
)


def _random_database(seed):
    rng = random.Random(seed)
    return Database.from_dict({
        name: [
            {attr: rng.randrange(3) for attr in COQL_SCHEMA[name]}
            for __ in range(5)
        ]
        for name in sorted(COQL_SCHEMA)
    })


def _corpus():
    for seed in range(4):
        for name in ("company", "orders"):
            simulator = WorkloadSimulator(
                scenario_by_name(name, seed=seed), steps=0, seed=seed,
                max_views=2,
            )
            for __, text in sorted(simulator.pool()):
                yield parse_coql(text), simulator.database
    for seed in range(40):
        query = random_coql_deep(seed=seed, depth=2 + seed % 2)
        yield parse_coql(query), _random_database(seed)


def test_answers_and_their_order_are_pinned():
    hasher = hashlib.sha256()
    count = 0
    for query, database in _corpus():
        hasher.update(repr(evaluate_coql(query, database)).encode("utf-8"))
        count += 1
    assert count == 127
    assert hasher.hexdigest() == ANSWERS_SHA256
