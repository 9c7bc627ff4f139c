# The isinstance-chain encoder that repro.pipeline.fingerprint's
# per-class dispatch table replaced, kept unchanged as the oracle of
# tests/test_fingerprint_differential.py.  Do not edit it to follow the
# new encoder.  The per-class layouts and the string encoding are the
# live module's: the table changed only how _feed picks a rule.  Both
# encoders read and fill the same _digest memo slots, so a test gives
# each encoder its own freshly built objects.
"""Content fingerprints as the isinstance chain computed them."""

import hashlib
import struct

from repro.pipeline.fingerprint import _UNSET, _encoded_str, _layout


def _feed(hasher, obj):
    if obj is None:
        hasher.update(b"N")
    elif obj is True:
        hasher.update(b"B1")
    elif obj is False:
        hasher.update(b"B0")
    elif isinstance(obj, int):
        data = repr(obj).encode("ascii")
        hasher.update(b"I" + struct.pack(">I", len(data)) + data)
    elif isinstance(obj, float):
        # Structurally equal floats must share a digest (the store keys
        # on structure, and -0.0 == 0.0 in every query comparison), and
        # NaN must key deterministically even though NaN != NaN.  So the
        # digest sees a canonical bit pattern: -0.0 is folded into +0.0
        # and every NaN payload into one canonical NaN.
        if obj != obj:  # NaN (any payload, any sign)
            hasher.update(b"F" + struct.pack(">d", float("nan")))
        else:
            hasher.update(b"F" + struct.pack(">d", obj + 0.0))
    elif isinstance(obj, str):
        hasher.update(_encoded_str(obj))
    elif isinstance(obj, bytes):
        hasher.update(b"Y" + struct.pack(">I", len(obj)) + obj)
    elif isinstance(obj, tuple):
        hasher.update(b"T" + struct.pack(">I", len(obj)))
        for item in obj:
            _feed(hasher, item)
    elif isinstance(obj, list):
        # A distinct tag from tuples: ("a",) and ["a"] are different
        # structures, and sharing the T tag let one artifact alias
        # across kinds whose keys differ only in sequence type.
        hasher.update(b"L" + struct.pack(">I", len(obj)))
        for item in obj:
            _feed(hasher, item)
    elif isinstance(obj, (set, frozenset)):
        hasher.update(b"E" + struct.pack(">I", len(obj)))
        for digest in sorted(_digest(item) for item in obj):
            hasher.update(digest)
    elif isinstance(obj, dict):
        hasher.update(b"D" + struct.pack(">I", len(obj)))
        for digest in sorted(
            _digest((key, value)) for key, value in obj.items()
        ):
            hasher.update(digest)
    elif hasattr(type(obj), "__slots__"):
        hasher.update(_slots_digest(obj))
    else:
        raise TypeError(
            "cannot fingerprint %r (no canonical encoding for %s)"
            % (obj, type(obj).__name__)
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
