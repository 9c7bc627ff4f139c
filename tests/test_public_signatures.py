"""One verdict per check: no public call above the algorithm layer takes
a witness count, a decision method or a timeout policy.

The retraction lemma (DESIGN.md §2) makes one witness copy decide every
unconstrained check, so a witness knob can only add search or, at zero,
return a wrong answer.  The decision method is fixed once, by
``ContainmentEngine(method=...)``; a timed-out check is always
UNDECIDED.  The witness count stays a parameter of the grouping layer,
of the aggregate checks built on it, and of the interpreter's per-pair
bounds, where it is the paper's *k*.
"""

import importlib
import inspect
import pkgutil

import repro

KNOBS = frozenset({"witnesses", "method", "on_timeout"})

#: Packages whose functions keep the paper's witness parameter.
KEPT_PACKAGES = ("repro.grouping", "repro.aggregates")

#: ``(qualified name, parameter)`` pairs outside those packages that
#: keep their knob.
KEPT = frozenset({
    ("repro.engine.core.ContainmentEngine.__init__", "method"),
    ("repro.analysis.interp.pair_certificate", "witnesses"),
    ("repro.analysis.interp.target_row_bounds", "witnesses"),
    ("repro.analysis.interp.component_bounds", "witnesses"),
})


def _public_callables():
    """``(qualified name, function)`` for every public function and
    public method (plus ``__init__``) defined in a ``repro`` module."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            qualified = "%s.%s" % (module.__name__, name)
            if inspect.isfunction(obj):
                yield qualified, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield "%s.%s" % (qualified, attr), member


def test_no_public_decision_knobs():
    found = []
    walked = 0
    for qualified, function in _public_callables():
        walked += 1
        if qualified.startswith(KEPT_PACKAGES):
            continue
        for parameter in inspect.signature(function).parameters:
            if parameter in KNOBS and (qualified, parameter) not in KEPT:
                found.append("%s(%s=)" % (qualified, parameter))
    assert walked > 300
    assert found == []


def test_kept_knobs_are_still_there():
    """The allow-list names live parameters, so it cannot go stale."""
    callables = dict(_public_callables())
    for qualified, parameter in KEPT:
        assert parameter in inspect.signature(callables[qualified]).parameters
