"""The simulation decision procedure (paper, Section 5).

``Q ⊴ Q'`` (*Q is simulated by Q'*) iff for every database each group of
Q is contained in some group of Q', with the index correspondence chosen
uniformly: at nesting depth *d* the condition has *d+1* quantifier
alternations, e.g. for depth 2::

    ∀I ∃I' ∀S ∀C .  Q1(S,I) ∧ Q2(I,C)  ⟹  Q'1(S,I') ∧ Q'2(I',C)

The paper shows the condition is decidable (its negation falls in Class
1.2 of [19]) and, the new result, NP-complete.  The NP certificate is an
**extended containment mapping**: a homomorphism φ from Q' into the body
of Q augmented with *witness copies*:

* the *generic copy* — Q's full tree body, frozen;
* for every set node *n* of Q, *k* fresh copies of *n*'s full body that
  share exactly the index variables of *n* and of *n*'s parent with the
  generic copy (they are extra rows in the same group).

φ must (1) map every atom of Q' into this augmented body, (2) map Q's
value columns identically onto the generic copy's value columns, and
(3) map each index variable of Q' at node *n* only to values available
when ``I'_n`` is chosen: generic index values along *n*'s chain, witness
values of copies at *n* or its ancestors, and constants — never to
row-private values of the generic copy.

Soundness: pin one satisfying assignment per witness copy (they exist
whenever the group chain is non-empty); the resulting ``I'_n`` is then
uniform across all rows of the group, and φ extends every row assignment
to a proof of membership in the chosen Q'-group.  Completeness: on the
canonical database "generic row + k interchangeable witness rows per
group", an automorphism/pigeonhole argument relocates any semantic
covering onto a certificate, for ``k = |vars(Q')|``.  One copy then
suffices: renaming every witness copy onto copy 0 retracts the k-copy
target onto the one-copy target and keeps conditions (1)–(3), so a
certificate exists for some k ≥ 1 iff it exists for k = 1 (the
retraction lemma, DESIGN.md §2).  The default search therefore runs
once, at k = 1; only a check under a chase hook, whose saturation is
capped, still escalates to the bound.

The procedures here are validated against independent semantic checks in
:mod:`repro.grouping.bruteforce` (see tests).
"""

from repro.errors import ReproError
from repro.cq.terms import Const, is_var
from repro.cq.query import frozen_constant
from repro.cq.homomorphism import compile_target, find_homomorphism

__all__ = [
    "SimulationCertificate",
    "SimulationTarget",
    "simulation_certificate",
    "is_simulated",
    "build_simulation_target",
    "simulation_target",
]


class SimulationCertificate:
    """A successful extended containment mapping.

    Attributes:
        mapping: ``{Var: value}`` over the superquery's variables.
        witnesses: the number *k* of witness copies per node used.
        index_choice: ``{path: tuple-of-values}`` — the (symbolic) group
            correspondence the certificate encodes, evaluated on the
            canonical database.
    """

    __slots__ = ("mapping", "witnesses", "index_choice")

    def __init__(self, mapping, witnesses, index_choice):
        self.mapping = dict(mapping)
        self.witnesses = witnesses
        self.index_choice = dict(index_choice)

    def __repr__(self):
        return "SimulationCertificate(witnesses=%d, vars=%d)" % (
            self.witnesses,
            len(self.mapping),
        )


def _generic_value(var):
    return frozen_constant(var, "@g")


def _witness_value(var, path, copy):
    return frozen_constant(var, "@w:%s:%d" % ("/".join(path), copy))


def build_simulation_target(sub, witnesses, chase=None):
    """Build the augmented body of *sub* used as homomorphism target.

    Returns ``(atoms, available)`` where *atoms* are the ground target
    atoms and *available* maps each path of *sub* to the set of values an
    index variable of the matched superquery node may take at that path
    (generic chain-index values, witness values at the path and its
    ancestors, and all ordinary constants).

    :param chase: optional saturation hook ``atoms -> ChaseResult``
        (the engine passes :meth:`repro.pipeline.stages.Pipeline.chase`
        partially applied to its inclusion dependencies).  Derived
        atoms join the target — more facts to map into, so containment
        *under* the dependencies can hold where plain containment
        fails.  Chase-invented labelled nulls are **not** added to the
        index-value pools: an index choice must stay justified by the
        unconstrained canonical database, which keeps the extension
        sound.
    """
    paths = sub.paths()
    generic = {v: Const(_generic_value(v)) for v in sub.variables()}
    atoms = []
    constants = set()
    for node in sub.nodes():
        for atom in node.own_atoms:
            ground = atom.substitute(generic)
            atoms.append(ground)
            constants.update(
                t.value
                for t, orig in zip(ground.args, atom.args)
                if isinstance(orig, Const)
            )

    # Witness values available at each path: own + ancestors.
    witness_values = {path: set() for path in paths}
    for path, node in paths.items():
        if not path:
            continue  # the root has no index, hence no witness copies
        parent = paths[path[:-1]]
        shared = set(node.index) | set(parent.index)
        body = sub.full_body(path)
        body_vars = sorted({v for atom in body for v in atom.variables()})
        for copy in range(witnesses):
            mapping = {}
            for var in body_vars:
                if var in shared:
                    mapping[var] = generic[var]
                else:
                    mapping[var] = Const(_witness_value(var, path, copy))
            for atom in body:
                atoms.append(atom.substitute(mapping))
            witness_values[path].update(
                mapping[v].value for v in body_vars if v not in shared
            )

    if chase is not None:
        atoms.extend(chase(tuple(atoms)).added)

    # Chain-index generic values available at each path.
    available = {}
    for path, node in paths.items():
        allowed = set(constants)
        chain = path
        while True:
            chain_node = paths[chain]
            allowed.update(_generic_value(v) for v in chain_node.index)
            allowed.update(witness_values.get(chain, ()))
            if not chain:
                break
            chain = chain[:-1]
        available[path] = allowed
    return tuple(atoms), available


class SimulationTarget:
    """A witness-augmented canonical database, ready for search.

    Bundles the ground *atoms* of :func:`build_simulation_target`, the
    per-path *available* index-value pools, and the *compiled* inverted
    index (:class:`repro.cq.propagation.CompiledTarget`) the
    homomorphism search runs on.  Instances are immutable by convention:
    they are cached and shared across certificate searches (the
    containment engine keys them on ``(query, witnesses)``), so callers
    must never mutate ``available`` or ``atoms``.
    """

    __slots__ = ("atoms", "available", "compiled")

    def __init__(self, atoms, available, compiled):
        self.atoms = atoms
        self.available = available
        self.compiled = compiled

    def __repr__(self):
        return "SimulationTarget(atoms=%d, paths=%d)" % (
            len(self.atoms),
            len(self.available),
        )


def simulation_target(sub, witnesses, cache=None, stats=None, chase=None,
                      chase_key=None):
    """The :class:`SimulationTarget` for *sub* with *witnesses* copies.

    :param cache: optional mapping-like store (``get``/``__setitem__``)
        keyed on ``(sub, witnesses)`` — the query's structural identity
        is its fingerprint.  The engine passes its LRU target cache here
        so constrained witness escalation, ``contains_many``,
        ``pairwise_matrix``, and the weak-equivalence truncation sweep
        reuse targets instead of rebuilding them.
    :param stats: optional sink with a ``tally(name)`` method; receives
        ``target_cache_hits`` / ``target_cache_misses`` when *cache* is
        given.
    :param chase: optional saturation hook (see
        :func:`build_simulation_target`).
    :param chase_key: the hook's cache identity (the engine passes its
        inclusion-dependency tuple).  Only when given does the cache key
        grow a third component — unconstrained keys are unchanged, so
        pre-existing persisted targets stay valid.
    """
    key = (sub, witnesses)
    if chase_key is not None:
        key = (sub, witnesses, chase_key)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            if stats is not None:
                stats.tally("target_cache_hits")
            return hit
    atoms, available = build_simulation_target(sub, witnesses, chase=chase)
    target = SimulationTarget(atoms, available, compile_target(atoms))
    if cache is not None:
        if stats is not None:
            stats.tally("target_cache_misses")
        cache[key] = target
    return target


def _pin_values(sub, sup):
    """The value pins of every certificate for ``sub ⊴ sup``, or None.

    Maps each value variable of *sup* to the frozen value of the aligned
    column of *sub* (condition 2 of the module docstring).  Returns None
    when two columns pin one variable to different values, or a constant
    column of *sup* disagrees with *sub*'s: no certificate exists, with
    any number of witness copies.  Reads no target.
    """
    fixed = {}
    sub_paths = sub.paths()
    for path, sup_node in sup.paths().items():
        for (__, sup_term), (___, sub_term) in zip(
            sup_node.values, sub_paths[path].values
        ):
            sub_value = (
                _generic_value(sub_term) if is_var(sub_term) else sub_term.value
            )
            if is_var(sup_term):
                if fixed.setdefault(sup_term, sub_value) != sub_value:
                    return None
            elif sup_term.value != sub_value:
                return None
    return fixed


def _index_pools(sup, available):
    """``{index variable of sup: values it may take}`` (condition 3).

    A variable indexing several nodes takes the intersection of their
    *available* pools (see :func:`build_simulation_target`).
    """
    allowed = {}
    for path, sup_node in sup.paths().items():
        pool = available[path]
        for var in sup_node.index:
            allowed[var] = allowed[var] & pool if var in allowed else set(pool)
    return allowed


def simulation_certificate(sub, sup, witnesses=None, stats=None, cache=None,
                           chase=None, chase_key=None):
    """Find a certificate that ``sub ⊴ sup``, or return None.

    :param sub: the simulated :class:`GroupingQuery` (the "smaller").
    :param sup: the simulating query (the "larger").
    :param witnesses: witness copies per node.  None (the default)
        searches once with one copy, which decides by the retraction
        lemma (DESIGN.md §2); under a chase hook it tries one copy and
        escalates to the completeness bound ``max(1, |vars(sup)|)``
        when that fails.
    :param stats: optional sink with a ``tally(name, amount=1)`` method
        (e.g. :class:`repro.engine.EngineStats`); receives
        ``certificate_searches`` per search over a target and
        ``witness_escalations`` when a constrained check falls back to
        the completeness bound.
    :param cache: optional simulation-target cache (see
        :func:`simulation_target`), shared across the escalation retry
        and across calls.
    :param chase: optional chase hook, with *chase_key* its cache
        identity (see :func:`simulation_target`) — containment under
        inclusion dependencies.

    Value pinning runs first: it reads no target, so a pinning clash
    refutes before any target is built or looked up.
    """
    sub.require_same_shape(sup)
    if witnesses is not None and witnesses < 0:
        raise ReproError("witnesses must be non-negative")
    fixed = _pin_values(sub, sup)
    if fixed is None:
        return None

    def search(copies):
        return _search(sub, sup, fixed, copies, stats, cache, chase, chase_key)

    if witnesses is not None:
        return search(witnesses)
    certificate = search(1)
    bound = max(1, len(sup.variables()))
    if certificate is not None or chase is None or bound == 1:
        return certificate
    # A chase hook caps saturation, so a larger target may truncate
    # differently and the retraction lemma is not claimed: escalate.
    if stats is not None:
        stats.tally("witness_escalations")
    return search(bound)


def _search(sub, sup, fixed, witnesses, stats, cache, chase, chase_key):
    """One certificate search into the *witnesses*-copy target."""
    if stats is not None:
        stats.tally("certificate_searches")
    target = simulation_target(
        sub, witnesses, cache=cache, stats=stats, chase=chase,
        chase_key=chase_key,
    )
    sup_atoms = tuple(a for node in sup.nodes() for a in node.own_atoms)
    mapping = find_homomorphism(
        sup_atoms, target.compiled, fixed=fixed,
        allowed=_index_pools(sup, target.available),
    )
    if mapping is None:
        return None
    # Index variables that occur in no sup atom (possible when an index
    # variable is also a value variable already pinned by `fixed`) are
    # covered; truly unconstrained index variables cannot exist because
    # grouping-query validation requires them to occur in the parent body.
    mapping = dict(mapping)
    for var, value in fixed.items():
        mapping.setdefault(var, value)
    index_choice = {
        path: tuple(mapping.get(v) for v in node.index)
        for path, node in sup.paths().items()
    }
    return SimulationCertificate(mapping, witnesses, index_choice)


def is_simulated(sub, sup, witnesses=None, stats=None, cache=None,
                 chase=None, chase_key=None):
    """True iff ``sub ⊴ sup`` (every group of sub lies in a group of sup,
    on every database — every database *satisfying the dependencies*
    when a chase hook is given)."""
    return (
        simulation_certificate(
            sub, sup, witnesses=witnesses, stats=stats, cache=cache,
            chase=chase, chase_key=chase_key,
        )
        is not None
    )
