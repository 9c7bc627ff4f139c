"""Conjunctive queries with grouping (indexed queries), as trees.

A :class:`GroupingQuery` describes a query whose answer is a nested
relation.  It is a tree of :class:`GroupingNode`; each node corresponds
to one set node of the output type:

* ``values`` — named atomic output columns of the node's element records;
* ``own_atoms`` — the body atoms introduced at this node (the node's
  *full body* is the union of its own atoms and all ancestors' atoms);
* ``index`` — the tuple of variables identifying the node's groups.  The
  index variables must occur in the parent's full body: they are the
  outer variables the nested subquery depends on.  The root has the
  empty index (a single group — the query answer);
* ``children`` — the set-valued components of the element records, one
  child node per component, keyed by attribute label.

Semantics (see :mod:`repro.grouping.semantics`): the group of node *n*
at index value ``ī`` contains one element record per satisfying
assignment of *n*'s full body with the index pinned to ``ī``; the
element's set-valued components are the child groups at the child-index
values under the assignment.

This is exactly the paper's encoding of COQL answers by flat queries
with index variables (Section 5.1): the index plays the role of the
fresh atomic value naming an inner set.
"""

from repro.errors import ReproError, IncomparableQueriesError
from repro.cq.terms import Var, Const, Atom, is_var
from repro.cq.query import ConjunctiveQuery
from repro.pickling import PicklableSlots

__all__ = ["GroupingNode", "GroupingQuery", "truncation_problems"]


class GroupingNode(PicklableSlots):
    """One set node of a grouping-query tree.  Immutable."""

    __slots__ = (
        "label", "own_atoms", "values", "index", "children", "_hash",
        "_digest",
    )

    def __init__(self, label, own_atoms, values, index=(), children=()):
        own_atoms = tuple(own_atoms)
        values = tuple(sorted(dict(values).items()))
        index = tuple(index)
        children = tuple(children)
        if not isinstance(label, str):
            raise ReproError("node label must be a string")
        for atom in own_atoms:
            if not isinstance(atom, Atom):
                raise ReproError("own_atoms must contain atoms, got %r" % (atom,))
        for name, term in values:
            if not isinstance(name, str):
                raise ReproError("value names must be strings")
            if not isinstance(term, (Var, Const)):
                raise ReproError("value terms must be terms, got %r" % (term,))
        for var in index:
            if not is_var(var):
                raise ReproError("index entries must be variables, got %r" % (var,))
        labels = [child.label for child in children]
        if len(set(labels)) != len(labels):
            raise ReproError("duplicate child labels: %r" % (labels,))
        value_names = {name for name, __ in values}
        if value_names & set(labels):
            raise ReproError(
                "child labels clash with value names: %r"
                % (value_names & set(labels),)
            )
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "own_atoms", own_atoms)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "children", children)
        object.__setattr__(
            self, "_hash", hash((label, own_atoms, values, index, children))
        )

    def __setattr__(self, name, value):
        raise AttributeError("GroupingNode is immutable")

    def value_names(self):
        return tuple(name for name, __ in self.values)

    def value_terms(self):
        return tuple(term for __, term in self.values)

    def child(self, label):
        for node in self.children:
            if node.label == label:
                return node
        raise KeyError(label)

    def child_labels(self):
        return tuple(node.label for node in self.children)

    def __eq__(self, other):
        if not isinstance(other, GroupingNode):
            return NotImplemented
        return (
            self.label == other.label
            and self.own_atoms == other.own_atoms
            and self.values == other.values
            and self.index == other.index
            and self.children == other.children
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "GroupingNode(%r, atoms=%d, values=%r, index=%r, children=%r)" % (
            self.label,
            len(self.own_atoms),
            self.value_names(),
            self.index,
            self.child_labels(),
        )


class GroupingQuery(PicklableSlots):
    """A grouping-query tree with validation and traversal helpers."""

    __slots__ = ("name", "root", "_digest")

    def __init__(self, root, name="q"):
        if not isinstance(root, GroupingNode):
            raise ReproError("root must be a GroupingNode")
        if root.index:
            raise ReproError("the root node must have an empty index")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "root", root)
        self._validate(root, ())

    def __setattr__(self, name, value):
        raise AttributeError("GroupingQuery is immutable")

    @staticmethod
    def _validate(node, ancestor_atoms):
        full = tuple(ancestor_atoms) + node.own_atoms
        in_scope = {v for atom in full for v in atom.variables()}
        for __, term in node.values:
            if is_var(term) and term not in in_scope:
                raise ReproError(
                    "value term %r of node %r is not bound by the body"
                    % (term, node.label)
                )
        parent_scope = {v for atom in ancestor_atoms for v in atom.variables()}
        for var in node.index:
            if var not in parent_scope:
                raise ReproError(
                    "index variable %r of node %r does not occur in the "
                    "parent's body" % (var, node.label)
                )
        for child in node.children:
            GroupingQuery._validate(child, full)

    # -- traversal ---------------------------------------------------------

    def nodes(self):
        """All nodes, in pre-order (root first)."""
        out = []

        def walk(node):
            out.append(node)
            for child in node.children:
                walk(child)

        walk(self.root)
        return tuple(out)

    def paths(self):
        """``{path: node}`` where a path is a tuple of labels from the root.

        The root has path ``()``.
        """
        out = {}

        def walk(node, path):
            out[path] = node
            for child in node.children:
                walk(child, path + (child.label,))

        walk(self.root, ())
        return out

    def full_body(self, path):
        """The full body (ancestors + own atoms) of the node at *path*."""
        atoms = []
        node = self.root
        atoms.extend(node.own_atoms)
        for label in path:
            node = node.child(label)
            atoms.extend(node.own_atoms)
        return tuple(atoms)

    def node_at(self, path):
        node = self.root
        for label in path:
            node = node.child(label)
        return node

    def parent_path(self, path):
        if not path:
            raise ReproError("the root has no parent")
        return path[:-1]

    def variables(self):
        """All variables used anywhere in the tree, sorted by name."""
        seen = set()
        for node in self.nodes():
            for atom in node.own_atoms:
                seen.update(atom.variables())
            seen.update(t for __, t in node.values if is_var(t))
            seen.update(node.index)
        return tuple(sorted(seen))

    def depth(self):
        """Nesting depth: 1 for a flat query (root with no children)."""

        def walk(node):
            if not node.children:
                return 1
            return 1 + max(walk(child) for child in node.children)

        return walk(self.root)

    def shape(self):
        """The output shape: value names and child shapes, recursively.

        Two grouping queries are comparable iff their shapes agree.
        """

        def walk(node):
            return (
                node.value_names(),
                tuple((child.label, walk(child)) for child in node.children),
            )

        return walk(self.root)

    def require_same_shape(self, other):
        if self.shape() != other.shape():
            raise IncomparableQueriesError(
                "grouping queries have different output shapes: %r vs %r"
                % (self.shape(), other.shape())
            )

    def to_flat_cq(self, path=()):
        """The node at *path* as a classical CQ ``q(index..., values...)``.

        Useful for the flat (depth-1) special case, where simulation is
        classical containment.
        """
        node = self.node_at(path)
        head = tuple(node.index) + node.value_terms()
        return ConjunctiveQuery(head, self.full_body(path), self.name)

    def rename_apart(self, suffix):
        """A copy with every variable renamed ``X -> X<suffix>``."""
        mapping = {v: Var(v.name + suffix) for v in self.variables()}

        def walk(node):
            return GroupingNode(
                node.label,
                tuple(a.substitute(mapping) for a in node.own_atoms),
                {
                    name: (mapping.get(t, t) if is_var(t) else t)
                    for name, t in node.values
                },
                tuple(mapping[v] for v in node.index),
                tuple(walk(child) for child in node.children),
            )

        return GroupingQuery(walk(self.root), self.name)

    def truncate(self, kept_paths):
        """Prune every set node whose path is not in *kept_paths*.

        *kept_paths* must be prefix-closed, contain the root path ``()``,
        and name only paths of this query — a kept path absent from the
        query, or one whose parent is pruned, would otherwise be dropped
        silently, turning a caller-side mismatch into a wrong truncation
        (and hence a wrong containment obligation).  Used by the COQL
        containment test to generate the per-emptiness-pattern
        simulation obligations.  A pattern that keeps every path returns
        ``self``, so the full obligation reuses the query's memoized
        content digest instead of fingerprinting an equal copy.
        """
        kept = set(kept_paths)
        if kept == self.paths().keys():
            return self
        problems = truncation_problems(self, kept)
        if problems:
            raise ReproError(problems[0][0])

        def walk(node, path):
            children = tuple(
                walk(child, path + (child.label,))
                for child in node.children
                if path + (child.label,) in kept
            )
            return GroupingNode(
                node.label, node.own_atoms, dict(node.values), node.index, children
            )

        return GroupingQuery(walk(self.root, ()), self.name)

    def __eq__(self, other):
        if not isinstance(other, GroupingQuery):
            return NotImplemented
        return self.name == other.name and self.root == other.root

    def __hash__(self):
        return hash((self.name, self.root))

    def __repr__(self):
        return "GroupingQuery(%s, depth=%d, nodes=%d)" % (
            self.name,
            self.depth(),
            len(self.nodes()),
        )


def truncation_problems(query, kept_paths):
    """Validate a truncation pattern without raising.

    Returns a list of ``(message, path)`` problems — *path* is the
    offending kept path (or None for a missing root).  Empty list means
    ``query.truncate(kept_paths)`` will succeed.  :meth:`truncate`
    raises the first problem; the COQL006 analysis rule reports all of
    them as diagnostics.  The checks, in order:

    * the root path ``()`` must be kept (pruning the root is not a
      truncation pattern);
    * every kept path must name a set node of *query* — unknown paths
      would otherwise be dropped silently, turning a caller-side
      mismatch into a wrong containment obligation;
    * the kept set must be prefix-closed — a kept node below a pruned
      parent is unreachable in the truncated tree.
    """
    kept = set(kept_paths)
    problems = []
    if () not in kept:
        problems.append(("kept_paths must contain the root path ()", None))
    own_paths = set(query.paths())
    for path in sorted(kept - own_paths):
        problems.append((
            "kept_paths name set nodes absent from query %s: %r"
            % (query.name, [path]),
            path,
        ))
    for path in sorted(kept):
        if path and path[:-1] not in kept:
            problems.append((
                "kept_paths are not prefix-closed: %r is kept but its "
                "parent %r is pruned" % (path, path[:-1]),
                path,
            ))
    return problems
