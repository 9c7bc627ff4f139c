"""The restricted chase under linear inclusion dependencies.

Guards the :mod:`repro.constraints` layer in isolation: declaration
parsing/validation, position resolution against the flat index encoding
(sorted attribute order), termination on cyclic-but-linear dependency
sets, soundness of the derived atoms (content-addressed labelled nulls,
ground atoms untouched), deterministic truncation on null-generating
cycles, and byte-identical rederivation.
"""

import pytest

from repro.coql.containment import as_schema
from repro.constraints import (
    InclusionDependency,
    parse_constraint,
    parse_constraints,
    validate_constraints,
)
from repro.constraints.chase import (
    chase_atoms,
    chase_null,
    is_chase_null,
    resolve_dependencies,
)
from repro.cq.terms import Atom, Const
from repro.errors import ParseError, SchemaError

SCHEMA = as_schema({
    "r": {"a": "atom", "b": "atom"},
    "s": {"a": "atom", "b": "atom"},
})


def atom(pred, *values):
    return Atom(pred, tuple(Const(value) for value in values))


class TestDeclarations:
    def test_parse_round_trip(self):
        dep = parse_constraint("r[a,b] -> s[b,a]")
        assert repr(dep) == "r[a,b] -> s[b,a]"
        assert dep == InclusionDependency("r", ("a", "b"), "s", ("b", "a"))
        assert parse_constraint(repr(dep)) == dep

    def test_alternate_arrows(self):
        assert parse_constraint("r[a] => s[a]") == parse_constraint(
            "r[a] ⊆ s[a]"
        )

    @pytest.mark.parametrize("text", [
        "r[a]", "r[a] -> ", "r -> s[a]", "r[] -> s[a]", "[a] -> s[b]",
        "r[a] -> s[a] -> t[a]",
    ])
    def test_malformed_declarations(self, text):
        with pytest.raises(ParseError):
            parse_constraint(text)

    def test_constructor_validation(self):
        with pytest.raises(SchemaError):
            InclusionDependency("r", ("a", "b"), "s", ("a",))
        with pytest.raises(SchemaError):
            InclusionDependency("r", (), "s", ())
        with pytest.raises(SchemaError):
            InclusionDependency("r", ("a", "a"), "s", ("a", "b"))

    def test_parse_constraints_skips_blanks_and_comments(self):
        deps = parse_constraints([
            "", "# a comment", "r[a] -> s[a]", "  ", "s[b] -> r[b]",
        ])
        assert [repr(d) for d in deps] == ["r[a] -> s[a]", "s[b] -> r[b]"]

    def test_validate_against_schema(self):
        deps = parse_constraints(["r[a] -> s[b]"])
        assert validate_constraints(deps, SCHEMA) == deps
        with pytest.raises(SchemaError):
            validate_constraints(parse_constraints(["r[a] -> nope[b]"]),
                                 SCHEMA)
        with pytest.raises(SchemaError):
            validate_constraints(parse_constraints(["r[zz] -> s[b]"]),
                                 SCHEMA)

    def test_declarations_are_immutable_and_hashable(self):
        dep = parse_constraint("r[a] -> s[a]")
        with pytest.raises(AttributeError):
            dep.source = "t"
        assert len({dep, parse_constraint("r[a] -> s[a]")}) == 1


class TestResolution:
    def test_positions_follow_sorted_attribute_order(self):
        # RecordType sorts attributes, so r(a, b) has a at 0, b at 1 no
        # matter the declaration order in the schema text.
        resolved = resolve_dependencies(
            parse_constraints(["r[b] -> s[a]"]), SCHEMA
        )
        ((__, source, source_pos, target, target_pos, width),) = resolved
        assert (source, source_pos) == ("r", (1,))
        assert (target, target_pos, width) == ("s", (0,), 2)

    def test_unknown_names_raise(self):
        with pytest.raises(SchemaError):
            resolve_dependencies(parse_constraints(["q[a] -> s[a]"]), SCHEMA)
        with pytest.raises(SchemaError):
            resolve_dependencies(parse_constraints(["r[c] -> s[a]"]), SCHEMA)


class TestChase:
    def deps(self, *texts):
        return resolve_dependencies(parse_constraints(texts), SCHEMA)

    def test_single_step_adds_null_filled_conclusion(self):
        result = chase_atoms([atom("r", 1, 2)], self.deps("r[a] -> s[b]"))
        assert not result.truncated
        assert len(result.added) == 1
        derived = result.added[0]
        assert derived.pred == "s"
        # b (position 1) carries the mapped value; a (position 0) is a
        # labelled null.
        assert derived.args[1].value == 1
        assert is_chase_null(derived.args[0].value)
        # The original atoms survive as an untouched prefix.
        assert result.atoms[: 1] == (atom("r", 1, 2),)

    def test_restricted_firing_skips_witnessed_conclusions(self):
        result = chase_atoms(
            [atom("r", 1, 2), atom("s", 1, 9)], self.deps("r[a] -> s[a]")
        )
        assert result.added == ()
        assert not result.truncated

    def test_fully_mapped_cycle_terminates(self):
        # r[a] ⊆ s[a] and s[a] ⊆ r[a]: mutually recursive but fully
        # mapped on the cycle positions — the restricted chase reaches
        # a fixpoint after deriving each missing projection once.
        result = chase_atoms(
            [atom("r", 1, 2), atom("s", 3, 4)],
            self.deps("r[a] -> s[a]", "s[a] -> r[a]"),
        )
        assert not result.truncated
        derived = {(a.pred, a.args[0].value) for a in result.added}
        assert derived == {("s", 1), ("r", 3)}
        # Every cycle projection is witnessed exactly once: re-chasing
        # the saturation is a no-op.
        again = chase_atoms(
            result.atoms, self.deps("r[a] -> s[a]", "s[a] -> r[a]")
        )
        assert again.added == ()

    def test_null_generating_cycle_truncates_soundly(self):
        # r[a] ⊆ r[b] keeps inventing fresh a-nulls: the bound cuts the
        # run and flags it, instead of diverging.
        result = chase_atoms(
            [atom("r", 1, 2)], self.deps("r[a] -> r[b]"), max_rounds=4
        )
        assert result.truncated
        assert result.rounds <= 4
        assert all(a.pred == "r" for a in result.added)
        assert all(is_chase_null(a.args[0].value) for a in result.added)

    def test_max_atoms_bound(self):
        result = chase_atoms(
            [atom("r", 1, 2)], self.deps("r[a] -> r[b]"), max_atoms=3
        )
        assert result.truncated
        assert len(result.atoms) <= 3

    def test_rederivation_is_byte_identical(self):
        deps = self.deps("r[a] -> s[b]", "s[a] -> r[a]")
        first = chase_atoms([atom("r", 1, 2), atom("r", 5, 6)], deps)
        second = chase_atoms([atom("r", 1, 2), atom("r", 5, 6)], deps)
        assert repr(first.atoms) == repr(second.atoms)
        assert first.rounds == second.rounds

    def test_null_is_content_addressed(self):
        dep = parse_constraint("r[a] -> s[b]")
        null = chase_null(dep, atom("r", 1, 2), 0)
        assert null == chase_null(dep, atom("r", 1, 2), 0)
        assert null != chase_null(dep, atom("r", 1, 3), 0)
        assert null != chase_null(dep, atom("r", 1, 2), 1)
        assert is_chase_null(null)
        assert not is_chase_null("plain")
        assert not is_chase_null(17)

    def test_arity_mismatch_is_an_error(self):
        with pytest.raises(SchemaError):
            chase_atoms([atom("r", 1)], self.deps("r[b] -> s[a]"))


class TestConstrainedWitnessSchedule:
    """With a chase hook the retraction lemma is not claimed, so a
    constrained check still escalates from one copy to the bound."""

    def test_failing_nested_pair_escalates_once(self):
        from repro.engine import ContainmentEngine

        engine = ContainmentEngine(constraints=(parse_constraint("r[a] -> s[a]"),))
        sub = (
            "select [a: x.a, kids: select [b: y.b] from y in r"
            " where y.a = x.a] from x in r"
        )
        sup = (
            "select [a: x.a, kids: select [b: y.b] from y in r"
            " where y.a = x.a and y.b = x.b] from x in r"
        )
        assert engine.contains(sup, sub, SCHEMA) is False
        stats = engine.stats()
        assert stats.counter("obligations_checked") == 1
        assert stats.counter("witness_escalations") == 1
        assert stats.counter("certificate_searches") == 2
