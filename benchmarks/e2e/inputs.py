"""Seeded inputs for the end-to-end workloads, and their digests.

Every input a workload feeds the program is generated here from the run
seed, so the same seed gives the same inputs and the program never sees
the seed itself.  :func:`digest` hashes a workload's inputs;
``pins.json`` records the digests for seeds 0 and 1, and a run on a
pinned seed fails when its inputs no longer match, so a change to the
generators in ``repro.workloads`` cannot silently change the benchmark.

Run this file to print the digests (to re-pin after a deliberate
change)::

    python3 benchmarks/e2e/inputs.py
"""

import hashlib
import json
import random

#: Flat schema of the clique queries: nodes, directed edges, and the
#: relation the padding rays live in.
CLIQUE_SCHEMA = {"node": ("id",), "e": ("a", "b"), "r": ("a", "b")}

#: Catalog queries per nesting depth in the matrix workloads.
MATRIX_DEPTHS = (2, 3, 4)
MATRIX_PER_DEPTH = 12
ORACLE_DATABASES = 8

#: Service mix per block of 64 requests: 57 hot catalog pairs, 6 novel
#: pairs and one heavy clique refutation (89% / 9.4% / 1.6%).  The heavy
#: request sits in the middle half of its block, so heavy requests are at
#: least 32 requests apart and the queue behind one drains before the
#: next forms.  A heavy request (K5 vs K6, ~35 ms) blocks the engine
#: thread, and with two connections the client too, for the requests
#: that arrive during it.  p99 falls among the ~19 heavy requests of a
#: run.  Twice as many heavy requests put a third of all requests in a
#: queue, and the spread of p50 over seeds rose from 0.05 to 0.2.
SERVICE_BLOCK = 64
SERVICE_NOVEL_PER_BLOCK = 6
#: Requests generated; a run uses a prefix, so the digest does not
#: depend on ``--seconds``.
SERVICE_SCHEDULE = 10000
SERVICE_WARMUP = 50
SERVICE_RATE = 100.0
ZIPF_S = 1.1

SEMCACHE_SCENARIOS = ("company", "orders")
SEMCACHE_TENANTS = 4
#: Two views per cache: the hot set is larger, about half the lookups
#: miss, and the median lookup is a miss or a residual hit rather than
#: sitting on the edge of the exact-hit share (about 50% with three).
SEMCACHE_MAX_VIEWS = 2
SEMCACHE_CHURN = 0.05
#: Lookups generated; longer runs cycle through the stream.
SEMCACHE_STREAM = 20000


def _rng(label, seed):
    return random.Random("%s:%d" % (label, seed))


def matrix_catalog(seed, label="matrix"):
    """36 chain-shaped COQL queries, 12 each at depth 2, 3 and 4."""
    from repro.workloads.generators import random_coql_deep

    rng = _rng(label, seed)
    return [
        random_coql_deep(seed=rng.randrange(2 ** 31), depth=depth)
        for depth in MATRIX_DEPTHS
        for __ in range(MATRIX_PER_DEPTH)
    ]


def oracle_databases(seed):
    """Small random databases over the matrix schema (positive oracle)."""
    from repro.objects.database import Database
    from repro.workloads.generators import COQL_SCHEMA

    rng = _rng("oracle-db", seed)
    return [
        Database.from_dict({
            name: [{attr: rng.randrange(3) for attr in attrs}
                   for __ in range(4)]
            for name, attrs in sorted(COQL_SCHEMA.items())
        })
        for __ in range(ORACLE_DATABASES)
    ]


def clique_query(size, rays, marker=None):
    """The K_size clique as a COQL query, padded with an independent star.

    Every ordered pair of distinct nodes is joined by an ``e`` edge; the
    star (a node with *rays* ``r`` edges) shares no variable with the
    clique.  A *marker* constant on the first ray makes otherwise equal
    queries distinct without touching the clique.
    """
    gens = ["v%d in node" % i for i in range(size)]
    conds = []
    for i in range(size):
        for j in range(size):
            if i != j:
                gens.append("e%d_%d in e" % (i, j))
                conds.append("e%d_%d.a = v%d.id" % (i, j, i))
                conds.append("e%d_%d.b = v%d.id" % (i, j, j))
    gens.append("u in node")
    for k in range(rays):
        gens.append("x%d in r" % k)
        conds.append("x%d.a = u.id" % k)
    if marker is not None:
        conds.append("x0.b = %d" % marker)
    return "select [c: v0.id] from %s where %s" % (
        ", ".join(gens), " and ".join(conds))


def clique_pairs(seed):
    """18 ``(sup, sub, expected)`` pairs in a seeded order.

    K_n ⊑ K_{n+1} is false (no homomorphism maps n+1 mutually adjacent
    nodes onto n: pigeonhole), and K_{n+1} ⊑ K_n is true (K_n embeds).
    """
    pairs = []
    for n in (4, 5, 6):
        for rays in (1, 2, 3):
            small, large = clique_query(n, rays), clique_query(n + 1, rays)
            pairs.append((large, small, False))
            pairs.append((small, large, True))
    _rng("adversary", seed).shuffle(pairs)
    return pairs


def heavy_pair(index):
    """A distinct K5-vs-K6 refutation for the service (answer False)."""
    marker = 1000 + index
    return clique_query(6, 1, marker), clique_query(5, 1, marker)


def _zipf_weights(count):
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(count)]


def service_inputs(seed):
    """Hot pairs, novel pairs, and the request schedules of the service.

    Each request is ``(kind, sup, sub)`` with kind ``hot``, ``novel`` or
    ``heavy``; the measured schedule carries Poisson arrival offsets.
    """
    from repro.workloads.generators import random_coql_deep

    rng = _rng("service", seed)
    catalog = [random_coql_deep(seed=rng.randrange(2 ** 31), depth=2)
               for __ in range(12)]
    hot = [(sup, sub) for sup in catalog for sub in catalog]
    rng.shuffle(hot)
    pool = [random_coql_deep(seed=rng.randrange(2 ** 31), depth=3)
            for __ in range(60)]
    novel = [(sup, sub) for sup in pool for sub in pool if sup != sub]
    rng.shuffle(novel)
    weights = _zipf_weights(len(hot))

    def draw_hot():
        return ("hot",) + rng.choices(hot, weights=weights)[0]

    warmup = [draw_hot() for __ in range(SERVICE_WARMUP)]
    requests = []
    for block in range(SERVICE_SCHEDULE // SERVICE_BLOCK):
        kinds = ["novel"] * SERVICE_NOVEL_PER_BLOCK
        kinds += ["hot"] * (SERVICE_BLOCK - 1 - len(kinds))
        rng.shuffle(kinds)
        middle = SERVICE_BLOCK // 4
        kinds.insert(rng.randrange(middle, SERVICE_BLOCK - middle), "heavy")
        for kind in kinds:
            if kind == "hot":
                requests.append(draw_hot())
            elif kind == "novel":
                requests.append(("novel",) + novel.pop())
            else:
                requests.append(("heavy",) + heavy_pair(block))
    offsets = []
    clock = 0.0
    for __ in requests:
        clock += rng.expovariate(SERVICE_RATE)
        offsets.append(clock)
    return {"warmup": warmup, "requests": requests, "offsets": offsets}


def semcache_inputs(seed):
    """Tenants and the lookup stream of the semantic cache.

    Each tenant is one scenario database with its query pool (named
    queries, full projections, refinements with constants sampled from
    the database), both from :class:`repro.workloads.WorkloadSimulator`.
    The tenants are the same for every seed: the databases are tiny, so
    a tenant's data alone decides how expensive its misses are, and
    redrawing them would change the workload's cost from seed to seed.
    The seed draws the traffic.  Popularity ranks follow query names
    rather than the simulator's shuffle, so every tenant has the same hot
    set.  The stream visits the tenants in turn; each step is ``(tenant
    index, pool index, churn draw or None)``.
    """
    from repro.workloads import WorkloadSimulator, scenario_by_name

    tenants = []
    for tenant_seed in range(SEMCACHE_TENANTS):
        for name in SEMCACHE_SCENARIOS:
            simulator = WorkloadSimulator(
                scenario_by_name(name, seed=tenant_seed), steps=0,
                seed=tenant_seed, max_views=SEMCACHE_MAX_VIEWS,
            )
            tenants.append({
                "name": name,
                "schema": simulator.cache.catalog().schema(),
                "database": simulator.database,
                "pool": sorted(simulator.pool()),
            })
    rng = _rng("semcache", seed)
    weights = [_zipf_weights(len(t["pool"])) for t in tenants]
    stream = []
    for step in range(SEMCACHE_STREAM):
        which = step % len(tenants)
        pool = range(len(tenants[which]["pool"]))
        index = rng.choices(pool, weights=weights[which])[0]
        churn = rng.random() if rng.random() < SEMCACHE_CHURN else None
        stream.append((which, index, churn))
    return {"tenants": tenants, "stream": stream}


def _database_rows(database):
    return {
        name: sorted(json.dumps({k: row[k] for k in row.keys()},
                                sort_keys=True)
                     for row in database[name].rows)
        for name in sorted(database.names())
    }


def _digest(value):
    data = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _matrix_digest(seed):
    return _digest({
        "catalog": matrix_catalog(seed),
        "warmup_catalog": matrix_catalog(seed, label="matrix-warmup"),
        "databases": [_database_rows(db) for db in oracle_databases(seed)],
    })


def _semcache_digest(seed):
    inputs = semcache_inputs(seed)
    return _digest({
        "pools": [t["pool"] for t in inputs["tenants"]],
        "databases": [_database_rows(t["database"])
                      for t in inputs["tenants"]],
        "stream": inputs["stream"],
    })


DIGESTS = {
    "matrix_cold": _matrix_digest,
    "matrix_warm": _matrix_digest,
    "adversary": lambda seed: _digest(clique_pairs(seed)),
    "service_mixed": lambda seed: _digest(service_inputs(seed)),
    "semcache_zipf": _semcache_digest,
}


def digest(workload, seed):
    """The sha256 of *workload*'s generated inputs for *seed*."""
    return DIGESTS[workload](seed)


if __name__ == "__main__":
    import os
    import sys

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    sys.path.insert(0, os.path.join(root, "src"))
    print(json.dumps({str(seed): {name: digest(name, seed) for name in DIGESTS}
                      for seed in (0, 1)}, indent=2, sort_keys=True))
