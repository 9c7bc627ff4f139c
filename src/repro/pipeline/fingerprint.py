"""Deterministic, process-portable content fingerprints.

The artifact store (:mod:`repro.pipeline.store`) is content-addressed:
a cached artifact is keyed by a SHA-256 digest of its *inputs*, not by
Python object identity or ``hash()``.  That buys two properties the
old per-engine ``_LRUCache`` tables could not offer:

* **process portability** — ``hash(str)`` is salted per process
  (``PYTHONHASHSEED``), so identity/hash-based keys computed in a
  parallel worker never match the parent's.  A content digest of the
  same query text, schema, and knobs is bit-identical everywhere, which
  is what lets the parent and its pool workers speak about the same
  artifact (and what a future on-disk or cross-run cache would key on).
* **canonical equality** — two structurally equal ASTs produced by
  different code paths (parsed text vs. programmatic construction, with
  or without parser source spans) map to one digest.  Keys over trees
  built in code therefore share one cache entry by construction; a
  query parsed from text is named by its text instead (*keys from
  keys*, below).

The encoding is a tagged, length-prefixed serialization fed to one
incremental hasher: primitives carry a type tag (tuples ``T`` and lists
``L`` are distinct — same contents in a different sequence type is a
different key), sequences their length, and unordered containers
(dicts, sets) are ordered by the digests of their elements so iteration
order never leaks into the key.  Float policy: digests see a canonical
IEEE bit pattern — ``-0.0`` folds into ``+0.0`` (they compare equal
everywhere queries compare values) and every NaN payload folds into one
canonical NaN (so NaN-carrying inputs still key deterministically);
ints and floats keep distinct tags, so ``1`` and ``1.0`` never collide.  Immutable
``__slots__`` value objects (AST nodes, terms, grouping queries, types)
are encoded as their class name plus slot values — skipping the
``_hash`` and ``_digest`` memo slots, a set's ``_order`` memo, a
query's ``_family`` memo and ``_source`` stamp, and the parser-attached
``_span`` metadata, which by design never participate in equality.
Which of these rules applies depends on the class alone, so it is
looked up once per class (:data:`_ENCODERS`); the rules are tried in
the order written here.

Digest memo: the value classes that key derivation walks (COQL
``Expr`` nodes, ``Atom``, ``ConjunctiveQuery``, ``GroupingNode``,
``GroupingQuery``, ``RecordType``, ``SetType``) declare a ``_digest``
slot, filled on an object's first fingerprint and returned on every
later one.  The memo therefore lives and dies with its object: there
is no process-wide table to bound, clear or keep objects alive.  The
slot is never pickled (:class:`repro.pickling.PicklableSlots` skips
it), because a digest restored from disk or shipped to a worker would
outlive a change to this encoder.  Classes without the slot are
encoded afresh on every call.

Keys from keys: a key that names a query or a schema names it by
:func:`identity`, not by its content.  A query parsed from text is
named by the key of that text, which the ``parse`` stage has already
computed to look the text up, so a fresh check digests no tree; a
schema is named by a digest computed once per distinct schema.  Keys
over the grouping queries the front half produces (``nonempty``,
``obligation_verdicts``, ``targets``, ``cost_certificate``) stay
content keys: equal truncations of different pairs share one verdict
only because their contents are equal.
"""

import functools
import hashlib
import struct

__all__ = ["fingerprint", "artifact_key", "identity"]

_UNSET = object()

#: Slot names that are memoization / provenance metadata, never content.
_METADATA_SLOTS = frozenset(
    {"_hash", "_span", "_digest", "_order", "_family", "_source"}
)

#: ``{class: encoder}``: the encoding rule of each class met so far,
#: resolved once by :func:`_encoder_for`, so ``_feed`` dispatches on
#: ``type(obj)`` instead of testing ``isinstance`` rule by rule.  Like
#: :data:`_LAYOUTS`, it needs no bound.
_ENCODERS = {}

#: ``{class: (header, ((slot name, encoded name), ...), memoized)}``:
#: the encoding's per-class constants, derived once from the MRO.
#: *memoized* says whether the class has a ``_digest`` slot.  Classes
#: are few and never change, so the table needs no bound.
_LAYOUTS = {}


def _encoded_str(text):
    data = text.encode("utf-8")
    return b"S" + struct.pack(">I", len(data)) + data


def _layout(klass):
    layout = _LAYOUTS.get(klass)
    if layout is None:
        declared = [
            name
            for base in klass.__mro__
            for name in getattr(base, "__slots__", ())
        ]
        slots = tuple(
            (name, _encoded_str(name))
            for name in dict.fromkeys(declared)
            if name not in _METADATA_SLOTS
        )
        data = ("%s.%s" % (klass.__module__, klass.__qualname__)).encode(
            "utf-8"
        )
        header = b"O" + struct.pack(">I", len(data)) + data
        layout = _LAYOUTS[klass] = (header, slots, "_digest" in declared)
    return layout


def _feed(hasher, obj):
    klass = type(obj)
    try:
        encoder = _ENCODERS[klass]
    except KeyError:
        encoder = _ENCODERS[klass] = _encoder_for(klass)
    encoder(hasher, obj)


def _encoder_for(klass):
    """How to encode instances of *klass*: the first matching rule, in
    the order the encoding has always tested them.  So a ``bool`` is
    not an ``int``, an ``IntEnum`` is one, and a ``namedtuple`` (whose
    class declares ``__slots__ = ()``) is a tuple, not a slots object.
    """
    for base, encoder in _RULES:
        if issubclass(klass, base):
            return encoder
    if hasattr(klass, "__slots__"):
        return _feed_slots
    return _reject


def _feed_none(hasher, obj):
    hasher.update(b"N")


def _feed_bool(hasher, obj):
    hasher.update(b"B1" if obj else b"B0")


def _feed_int(hasher, obj):
    data = repr(obj).encode("ascii")
    hasher.update(b"I" + struct.pack(">I", len(data)) + data)


def _feed_float(hasher, obj):
    # Structurally equal floats must share a digest (the store keys
    # on structure, and -0.0 == 0.0 in every query comparison), and
    # NaN must key deterministically even though NaN != NaN.  So the
    # digest sees a canonical bit pattern: -0.0 is folded into +0.0
    # and every NaN payload into one canonical NaN.
    if obj != obj:  # NaN (any payload, any sign)
        hasher.update(b"F" + struct.pack(">d", float("nan")))
    else:
        hasher.update(b"F" + struct.pack(">d", obj + 0.0))


def _feed_str(hasher, obj):
    hasher.update(_encoded_str(obj))


def _feed_bytes(hasher, obj):
    hasher.update(b"Y" + struct.pack(">I", len(obj)) + obj)


def _feed_tuple(hasher, obj):
    hasher.update(b"T" + struct.pack(">I", len(obj)))
    for item in obj:
        _feed(hasher, item)


def _feed_list(hasher, obj):
    # A distinct tag from tuples: ("a",) and ["a"] are different
    # structures, and sharing the T tag let one artifact alias
    # across kinds whose keys differ only in sequence type.
    hasher.update(b"L" + struct.pack(">I", len(obj)))
    for item in obj:
        _feed(hasher, item)


def _feed_set(hasher, obj):
    hasher.update(b"E" + struct.pack(">I", len(obj)))
    for digest in sorted(_digest(item) for item in obj):
        hasher.update(digest)


def _feed_dict(hasher, obj):
    hasher.update(b"D" + struct.pack(">I", len(obj)))
    for digest in sorted(
        _digest((key, value)) for key, value in obj.items()
    ):
        hasher.update(digest)


def _feed_slots(hasher, obj):
    hasher.update(_slots_digest(obj))


def _reject(hasher, obj):
    raise TypeError(
        "cannot fingerprint %r (no canonical encoding for %s)"
        % (obj, type(obj).__name__)
    )


#: The rules :func:`_encoder_for` tries, in order; a class matching
#: none of them is a slots object or rejected.
_RULES = (
    (type(None), _feed_none),
    (bool, _feed_bool),
    (int, _feed_int),
    (float, _feed_float),
    (str, _feed_str),
    (bytes, _feed_bytes),
    (tuple, _feed_tuple),
    (list, _feed_list),
    (set, _feed_set),
    (frozenset, _feed_set),
    (dict, _feed_dict),
)


def _slots_digest(obj):
    header, slots, memoized = _layout(type(obj))
    if memoized:
        digest = getattr(obj, "_digest", None)
        if digest is not None:
            return digest
    hasher = hashlib.sha256()
    hasher.update(header)
    for slot, encoded_name in slots:
        # Optional slots may never have been filled in.
        value = getattr(obj, slot, _UNSET)
        if value is not _UNSET:
            hasher.update(encoded_name)
            _feed(hasher, value)
    digest = hasher.digest()
    if memoized:
        # Racing threads store the same bytes: the digest is a pure
        # function of the object's immutable content.
        object.__setattr__(obj, "_digest", digest)
    return digest


def _digest(obj):
    hasher = hashlib.sha256()
    _feed(hasher, obj)
    return hasher.digest()


def fingerprint(obj):
    """The hex SHA-256 content digest of *obj*.

    Deterministic across processes, machines, and hash seeds; equal for
    structurally equal objects regardless of how they were built.
    Accepts primitives, (nested) tuples/lists/dicts/sets, and the
    library's immutable ``__slots__`` value classes (AST expressions,
    terms, atoms, grouping queries, record types, ...).
    """
    return _digest(obj).hex()


def artifact_key(kind, *parts):
    """The content-addressed store key for an artifact of *kind*.

    The *kind* participates in the digest, so equal inputs cached under
    different artifact kinds can never collide.
    """
    return fingerprint((kind,) + parts)


def identity(obj):
    """The hex digest by which a key names the query or schema *obj*.

    * A COQL query parsed from text is named by the key of its text,
      ``artifact_key("parse", text)``.  The ``parse`` stage stamps that
      key on every tree it returns, fresh or cached, in the root's
      ``_source`` slot.  :func:`repro.coql.parser.parse_coql` stamps
      the key's parts instead, and they are hashed here on first use, so
      a text keyed by the stage is keyed once.
    * Any other query (one built in code, a union branch, a tree
      unpickled outside the ``parse`` stage) is named by its memoized
      content digest, so equal trees share one name.
    * A normalized schema ``{relation: RecordType}`` is named by the
      digest of its sorted items, computed once per distinct schema.
    """
    if isinstance(obj, dict):
        return _schema_identity(tuple(sorted(obj.items())))
    source = getattr(obj, "_source", None)
    if source is None:
        return fingerprint(obj)
    if type(source) is tuple:
        source = artifact_key(*source)
        # Racing threads store the same key.
        object.__setattr__(obj, "_source", source)
    return source


@functools.lru_cache(maxsize=256)
def _schema_identity(items):
    """:func:`identity` of a schema, by its sorted items (bounded:
    schemas are few, and an evicted one is merely digested again)."""
    return fingerprint(items)
