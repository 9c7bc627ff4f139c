"""Named realistic scenarios: schemas, generators, and query sets.

Used by the examples and benchmarks so that workloads read like the
database settings the paper's introduction has in mind (OQL-era object
databases: departments with employees, customers with orders) rather
than synthetic r/s soup.
"""

import random

from repro.errors import ReproError
from repro.objects.database import Database
from repro.objects.types import ATOM, RecordType


def _row_types(schema):
    """Flat-schema row types for :meth:`Database.from_dict`, so a
    generator seed that leaves some relation empty still yields a
    well-typed database."""
    return {
        name: RecordType({attr: ATOM for attr in attrs})
        for name, attrs in schema.items()
    }

__all__ = [
    "Scenario",
    "SCENARIOS",
    "company_scenario",
    "orders_scenario",
    "scenario_by_name",
]


class Scenario:
    """A schema, a database generator, and named queries.

    *default_seed* is the generator seed used when :meth:`database` is
    called without one — threaded from the scenario constructors so that
    CLI ``--seed`` reaches every derived artifact.
    """

    __slots__ = ("name", "schema", "queries", "_generator", "default_seed")

    def __init__(self, name, schema, queries, generator, default_seed=0):
        self.name = name
        self.schema = schema
        self.queries = dict(queries)
        self._generator = generator
        self.default_seed = default_seed

    def database(self, scale=1, seed=None):
        """A reproducible database at the given scale factor.

        Falls back to the scenario's *default_seed* when *seed* is
        omitted, so ``company_scenario(seed=7).database()`` and
        ``company_scenario().database(seed=7)`` agree.
        """
        if seed is None:
            seed = self.default_seed
        return self._generator(scale, seed)

    def containment_matrix(self, engine=None, jobs=None, timeout_s=None):
        """Pairwise containment of the scenario's named queries.

        :param engine: a :class:`repro.engine.ContainmentEngine` (or
            :class:`repro.engine.ParallelContainmentEngine`) to reuse
            (a fresh one is created otherwise); its default constraints
            hold on the sharded path too.
        :param jobs: when given (> 1), shard across a worker pool via
            :class:`repro.engine.ParallelContainmentEngine`; *timeout_s*
            bounds each check and timed-out entries appear as
            :data:`repro.engine.UNDECIDED`.
        :returns: ``(names, matrix)`` where ``matrix[i][j]`` is True iff
            ``queries[names[j]] ⊑ queries[names[i]]``, and None when the
            pair is incomparable or outside the decidable fragment.
        """
        names = tuple(sorted(self.queries))
        queries = [self.queries[name] for name in names]
        if jobs is not None or timeout_s is not None:
            from repro.engine import ParallelContainmentEngine

            with ParallelContainmentEngine(
                jobs=jobs, timeout_s=timeout_s, engine=engine,
                constraints=getattr(engine, "_constraints", ()),
            ) as parallel:
                return names, parallel.pairwise_matrix(queries, self.schema)
        if engine is None:
            from repro.engine import ContainmentEngine

            engine = ContainmentEngine()
        return names, engine.pairwise_matrix(queries, self.schema)

    def __repr__(self):
        return "Scenario(%s, %d queries)" % (self.name, len(self.queries))


def company_scenario(seed=0):
    """Departments and employees (the OQL classic).

    Queries: group employees under their department; several
    reformulations with known relationships (equivalent, contained,
    incomparable) for exercising the deciders.  *seed* becomes the
    scenario's :attr:`~Scenario.default_seed`.
    """
    schema = {
        "dept": ("dname", "floor"),
        "emp": ("name", "dep", "salary_band"),
    }

    def generate(scale, seed):
        rng = random.Random(seed)
        departments = [
            {"dname": "d%d" % i, "floor": rng.randrange(1, 4)}
            for i in range(2 * scale)
        ]
        employees = [
            {
                "name": "e%d" % i,
                "dep": "d%d" % rng.randrange(2 * scale + 1),  # some dangling
                "salary_band": rng.randrange(3),
            }
            for i in range(6 * scale)
        ]
        return Database.from_dict(
            {"dept": departments, "emp": employees}, schema=_row_types(schema)
        )

    queries = {
        "staff_by_dept": (
            "select [d: x.dname,"
            " staff: select [n: y.name] from y in emp where y.dep = x.dname]"
            " from x in dept"
        ),
        "staff_by_dept_renamed": (
            "select [d: dd.dname,"
            " staff: select [n: ee.name] from ee in emp where ee.dep = dd.dname]"
            " from dd in dept"
        ),
        "staffed_depts_only": (
            "select [d: x.dname,"
            " staff: select [n: y.name] from y in emp where y.dep = x.dname]"
            " from x in dept, w in emp where w.dep = x.dname"
        ),
        "all_staff_under_dept": (
            "select [d: x.dname, staff: select [n: y.name] from y in emp]"
            " from x in dept"
        ),
    }
    return Scenario("company", schema, queries, generate, default_seed=seed)


def orders_scenario(seed=0):
    """Customers, orders, and a gold-tier side table.

    *seed* becomes the scenario's :attr:`~Scenario.default_seed`.
    """
    schema = {
        "orders": ("cust", "item"),
        "catalog": ("item", "category"),
        "gold": ("cust",),
    }

    def generate(scale, seed):
        rng = random.Random(seed)
        customers = ["c%d" % i for i in range(3 * scale)]
        items = ["i%d" % i for i in range(4 * scale)]
        orders = [
            {"cust": rng.choice(customers), "item": rng.choice(items)}
            for __ in range(8 * scale)
        ]
        catalog = [
            {"item": item, "category": "cat%d" % rng.randrange(3)}
            for item in items
            if rng.random() < 0.8
        ]
        gold = [{"cust": c} for c in customers if rng.random() < 0.4]
        return Database.from_dict(
            {"orders": orders, "catalog": catalog, "gold": gold},
            schema=_row_types(schema),
        )

    queries = {
        "basket_per_customer": (
            "select [c: o.cust,"
            " items: select [i: p.item] from p in orders where p.cust = o.cust]"
            " from o in orders"
        ),
        "gold_baskets": (
            "select [c: o.cust,"
            " items: select [i: p.item] from p in orders where p.cust = o.cust]"
            " from o in orders, g in gold where g.cust = o.cust"
        ),
        "catalogued_baskets": (
            "select [c: o.cust,"
            " items: select [i: p.item] from p in orders, k in catalog"
            " where p.cust = o.cust and k.item = p.item]"
            " from o in orders"
        ),
    }
    return Scenario("orders", schema, queries, generate, default_seed=seed)


SCENARIOS = {
    "company": company_scenario,
    "orders": orders_scenario,
}


def scenario_by_name(name, seed=0):
    """Construct a registered scenario by name (CLI entry point).

    :raises ReproError: on an unknown name, listing the known ones.
    """
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ReproError(
            "unknown scenario %r (known: %s)"
            % (name, ", ".join(sorted(SCENARIOS)))
        ) from None
    return factory(seed=seed)
