"""Pickle support for the immutable ``__slots__`` value classes.

The AST, term, and query classes freeze themselves by overriding
``__setattr__`` to raise — which also breaks pickling, because the
default slot-state restoration calls ``setattr`` on the new instance.
:class:`PicklableSlots` reinstates pickling via ``object.__setattr__``:
instances stay immutable to ordinary code but can cross process
boundaries, which the parallel containment engine
(:mod:`repro.engine.parallel`) relies on to ship queries to its worker
processes and verdicts back.

The mixin contributes no slots of its own, so subclasses keep their
exact memory layout; it collects slot names across the whole MRO, so it
works for any depth of (single-inheritance) subclassing.  Two memo
slots are never pickled:

* ``_digest``, the content-digest memo of
  :mod:`repro.pipeline.fingerprint`: a digest restored in another
  process or from disk would outlive a change to the encoder that
  computed it, so the copy recomputes its own on first use.
* ``_hash``, the ``hash()`` memo: ``str`` hashes are salted per process
  (``PYTHONHASHSEED``), so a hash computed by the writer is wrong in
  every other reader — a loaded object would compare equal to a fresh
  one yet miss it in every set and dict.  A class with the slot defines
  ``_hash_key()``, the value its ``__init__`` hashes, and unpickling
  recomputes the memo from it.  State that still carries a ``_hash``
  (written before the slot was skipped) has it ignored the same way.
"""

__all__ = ["PicklableSlots"]

#: Memo slots that never cross a pickle boundary.
_MEMO_SLOTS = frozenset({"_hash", "_digest"})


class PicklableSlots:
    """Mixin: pickling for immutable classes that block ``__setattr__``."""

    __slots__ = ()

    def __getstate__(self):
        state = {}
        for klass in type(self).__mro__:
            for name in getattr(klass, "__slots__", ()):
                # Optional slots (e.g. the parser-attached source span)
                # may never have been filled in.
                if name not in _MEMO_SLOTS and hasattr(self, name):
                    state[name] = getattr(self, name)
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            if name not in _MEMO_SLOTS:
                object.__setattr__(self, name, value)
        hash_key = getattr(self, "_hash_key", None)
        if hash_key is not None:
            object.__setattr__(self, "_hash", hash(hash_key()))
