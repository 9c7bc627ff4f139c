"""Differential test: the linear-time COQL parser against its predecessor.

:mod:`tests.reference_coql_parser` is the two-pass parser that
:mod:`repro.coql.parser` replaced.  On every input of a seeded corpus
both must agree exactly: an equal AST with the same node class and the
same ``span`` on every node, or the same exception class, message and
``span``.

The corpus mixes fuzz strings over the grammar's alphabet, seed queries
(``random_coql_deep`` at nesting 1–6, clique queries, hand-written edge
cases) and token-level mutations of every seed.  Nesting stays at most
6 so the reference, exponential in head nesting, finishes.  About 5k
inputs run by default; ``REPRO_SLOW_TESTS=1`` widens the corpus past
50k.  Plain loops, no hypothesis: the slow-sweeps CI leg does not
install it.
"""

import os
import random

from repro.coql.parser import parse_coql
from repro.workloads import random_coql_deep
from tests.reference_coql_parser import _tokenize, parse_coql as reference_parse

SCALE = 10 if os.environ.get("REPRO_SLOW_TESTS") == "1" else 1
FUZZ_STRINGS = 4400 * SCALE
DEEP_SEEDS_PER_DEPTH = 4 * SCALE
MUTATIONS_PER_SEED = 25

#: ``test_parser_fuzz``'s alphabet plus newline, minus, underscore and
#: the ``union`` keyword as one symbol.
ALPHABET = list("qrsxyzXYZ()[]{},.=:123\"' infromselectwher") + [
    "\n", "-", "_", "union",
]

#: Tokens a mutation may insert: every keyword and punctuation mark,
#: identifiers, numbers and strings of each kind.
TOKEN_POOL = [
    "select", "from", "where", "in", "and", "flatten", "union",
    "(", ")", "[", "]", "{", "}", ",", ".", "=", ":",
    "x", "y", "r", "s", "a", "node", "e", "id",
    "0", "-2", "3.5", "-0.25", '"s"', "'t'", '"a\\"b"', "-", "#",
]

EDGE_CASES = [
    "select [from: x.from] from x in r",
    "select [v0: r1.from] from r1 in r",
    "select [select: x.select, in: x.in] from x in r where x.where = x.and",
    "[from: 1, select: 2, union: 3]",
    "select [v: x.a]\nfrom x in r\n  where x.b = 3",
    "select [v: x.a] from x in r\n\n  union select [v: y.k] from y in s",
    "(select x from x in r union select y from y in s) union select z from z in r",
    "select x from x in (r union s)",
    "select [v: x.a] from x in r, x in s",
    "select [v: x.a] from x in r, x in s where",
    "select (select [v: y.b] from y in s, y in r) from x in r where",
    "select [a: 1, a: x.a, a: 2.5] from x in r",
    "flatten(select {x.a} from x in r)",
    "select [v: 'a\\'b', w: \"say \\\"hi\\\"\"] from x in r",
    "select x from x in y, y in r where x.a = y.a and y.b = -7",
    "[1: x, \"s\": y, (: z]",
    "select x from x in r\n\n  trailing tokens",
    "select x from x in r #",
    "  \n  ",
    "select [v: x.a] from x in r where x.a = 1 and",
    "x.1",
    "select x from select in r",
    "{}.a",
    "(x).a",
]


def clique_query(size, rays):
    """The K_size clique pattern over ``node``/``e``, plus a star."""
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
    return "select [c: v0.id] from %s where %s" % (
        ", ".join(gens), " and ".join(conds))


def seed_queries():
    queries = [
        random_coql_deep(seed=seed, depth=depth)
        for depth in range(1, 7)
        for seed in range(DEEP_SEEDS_PER_DEPTH)
    ]
    queries += [clique_query(n, rays) for n in (2, 3, 4) for rays in (1, 2)]
    return queries + EDGE_CASES


def mutate(tokens, rng):
    """One to three token edits, re-joined with random separators.

    Renaming one identifier to another of the query's own usually keeps
    the text parseable while moving names in and out of scope.
    """
    tokens = list(tokens)
    names = [t for t in tokens if t[0].isalpha() or t[0] == "_"]
    for __ in range(rng.randint(1, 3)):
        at = rng.randrange(len(tokens) + 1)
        edit = rng.randrange(6)
        if edit == 0 or not tokens:
            tokens.insert(at, rng.choice(TOKEN_POOL))
            continue
        at = min(at, len(tokens) - 1)
        if edit == 1:
            del tokens[at]
        elif edit == 2:
            tokens[at] = rng.choice(TOKEN_POOL + tokens)
        elif edit == 3 and at + 1 < len(tokens):
            tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
        elif edit == 4 and names:
            named = [i for i, t in enumerate(tokens) if t in names]
            tokens[rng.choice(named or [at])] = rng.choice(names)
        else:
            tokens.insert(at, tokens[at])
    separators = [" "] * 6 + ["\n", "", "  "]
    out = [tokens[0]] if tokens else []
    for token in tokens[1:]:
        out.append(rng.choice(separators))
        out.append(token)
    return "".join(out)


def corpus():
    rng = random.Random(20261017)
    texts = [
        "".join(rng.choice(ALPHABET) for __ in range(rng.randint(0, 40)))
        for __ in range(FUZZ_STRINGS)
    ]
    for query in seed_queries():
        texts.append(query)
        try:
            tokens = _tokenize(query)[0]
        except Exception:
            continue  # an edge case that does not tokenize
        texts.extend(mutate(tokens, rng) for __ in range(MUTATIONS_PER_SEED))
    return texts


def outcome(parse, text):
    try:
        return ("ok", parse(text))
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "span", None))


def same_tree(left, right):
    """Equal nodes, node classes and spans, all the way down."""
    if type(left) is not type(right) or left.span != right.span:
        return False
    if left != right:
        return False
    pairs = zip(left.children(), right.children())
    return all(same_tree(a, b) for a, b in pairs)


def test_parsers_agree_on_every_input():
    parsed = rejected = 0
    for text in corpus():
        expected = outcome(reference_parse, text)
        got = outcome(parse_coql, text)
        if expected[0] == "ok":
            assert got[0] == "ok", (text, got)
            assert same_tree(got[1], expected[1]), text
            parsed += 1
        else:
            assert got == expected, text
            rejected += 1
    # The corpus has the advertised size and exercises both outcomes.
    assert parsed + rejected >= (50_000 if SCALE > 1 else 5_000)
    assert parsed >= 250 * SCALE and rejected >= 4000 * SCALE
