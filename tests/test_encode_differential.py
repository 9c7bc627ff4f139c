"""Differential test: the encoder's unification, resolved once, against
the lazily resolved one it replaced.

:mod:`tests.reference_encode` keeps the unification that linked
representatives without path compression and looked every term up
through the parent chain.  The live encoder path-compresses and returns
a plain ``{term: representative}`` dict.  On every query both must give
byte-equal encodings or raise the same error: ``prepare`` artifacts are
these encodings, and every key below them digests their content.
"""

import pytest

from repro.errors import ReproError
from repro.coql import encode
from repro.coql.containment import as_schema
from repro.coql.normalize import normalize
from repro.coql.parser import parse_coql
from repro.coql.typecheck import typecheck
from repro.pipeline.fingerprint import fingerprint
from repro.workloads import COQL_SCHEMA, random_coql, random_coql_deep
from tests.reference_encode import encode_query as reference_encode_query
from tests.test_bitset_kernel import CLIQUE_SCHEMA, clique_coql

CORPORA = {
    "deep": lambda: [
        (COQL_SCHEMA, random_coql_deep(seed=seed, depth=depth))
        for depth in (1, 2, 3, 4) for seed in range(300)
    ],
    "random": lambda: [
        (COQL_SCHEMA, random_coql(seed=seed)) for seed in range(300)
    ],
    "cliques": lambda: [
        (CLIQUE_SCHEMA, clique_coql(size, rays))
        for size in range(3, 8) for rays in range(1, 9)
    ],
}


def _encoding(encode_query, text, schema):
    """The digest of *text*'s encoding, or its error."""
    schema = as_schema(schema)
    query = parse_coql(text)
    try:
        typecheck(query, schema)
        encoded = encode_query(normalize(query), schema, "q")
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    return fingerprint((
        encoded.query, encoded.templates, encoded.empty_paths,
        encoded.shape,
    ))


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_encodings_match_the_lazy_unification(corpus):
    queries = CORPORA[corpus]()
    encoded = 0
    for schema, text in queries:
        live = _encoding(encode.encode_query, text, schema)
        assert live == _encoding(reference_encode_query, text, schema), text
        encoded += not isinstance(live, tuple)
    assert encoded > len(queries) // 2


def test_substitution_is_a_resolved_plain_dict(monkeypatch):
    substitutions = []
    unify = encode._Builder._unify

    def recording_unify(self, *args):
        substitution = unify(self, *args)
        substitutions.append(substitution)
        return substitution

    monkeypatch.setattr(encode._Builder, "_unify", recording_unify)
    for schema, text in CORPORA["cliques"]()[:8]:
        _encoding(encode.encode_query, text, schema)
    linked = [s for s in substitutions if s]
    assert linked
    for substitution in linked:
        assert type(substitution) is dict
        # Every term maps to its representative in one step.
        assert not any(value in substitution
                       for value in substitution.values())
