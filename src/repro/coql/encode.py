"""Encoding normalized COQL queries as grouping-query trees (Section 5).

A normalized query (``NFSet``) over *flat* input relations becomes a
tree of conjunctive queries with index variables:

* every generator ``g ∈ R`` contributes the atom ``R(g.a1, …, g.ak)``
  (one CQ variable per attribute, in sorted attribute order);
* conditions are compiled away by unification (substituting one side
  into the atoms), preferring outer variables and constants as
  representatives;
* every nested ``NFSet`` in the head becomes a child node whose *index*
  is the tuple of outer CQ variables the child's subtree mentions —
  exactly the fresh "index" value of the paper's flat encoding of
  complex objects;
* nested records in the head are flattened to dotted value names
  (``a.b``), which preserves equality of elements;
* always-empty components (``NFEmpty``) are recorded separately — they
  need no conjunctive query, but the containment test must know where
  they are.

Restrictions (documented in DESIGN.md): input relations must be flat
(apply ``objects.encoding.encode_database`` first, as the paper assumes
in Section 5.1), and a condition *insidely nested* subquery may not
equate two outer paths or an outer path with a constant — such
conditions gate the inner set on the outer binding in a way plain
conjunctive bodies cannot express; :class:`UnsupportedQueryError` is
raised rather than risking a wrong verdict.
"""

from repro.errors import UnsupportedQueryError, TypeCheckError, SchemaError
from repro.cq.terms import Var, Const, Atom
from repro.grouping.query import GroupingNode, GroupingQuery
from repro.coql.normalize import NFConst, NFPath, NFRecord, NFEmpty, NFSet

__all__ = ["EncodedQuery", "encode_query", "paired_encoding", "reconstruct_value"]

#: Template node kinds used to rebuild nested record values from the
#: flattened (dotted) element representation.
VALUE, CHILD, RECORD, EMPTY = "value", "child", "record", "empty"


class EncodedQuery:
    """The result of encoding a normalized COQL query.

    Attributes:
        query: the :class:`GroupingQuery` (None when the whole query is
            always empty).
        templates: ``{path: template}`` describing how a node's element
            records rebuild the original (possibly record-nested) head
            values.  A template is a tuple tree over the kinds
            ``value`` (flat value-column name), ``child`` (child node
            label), ``record`` ({attr: template}), ``empty``.
        empty_paths: paths (in the *full* shape) of always-empty set
            components.
        shape: the full output shape including empty components, used to
            decide comparability.
    """

    __slots__ = ("query", "templates", "empty_paths", "shape")

    def __init__(self, query, templates, empty_paths, shape):
        self.query = query
        self.templates = templates
        self.empty_paths = frozenset(empty_paths)
        self.shape = shape

    @property
    def is_empty(self):
        return self.query is None

    def __repr__(self):
        return "EncodedQuery(empty=%s, empty_paths=%r)" % (
            self.is_empty,
            sorted(self.empty_paths),
        )


def encode_query(nf, schema, name="q"):
    """Encode a normal-form query over a flat *schema*.

    :param nf: an :class:`NFSet` or :class:`NFEmpty`.
    :param schema: ``{relation name: RecordType}`` with atomic attributes.
    :returns: an :class:`EncodedQuery`.
    """
    if isinstance(nf, NFEmpty):
        return EncodedQuery(None, {}, {()}, ("empty",))
    if not isinstance(nf, NFSet):
        raise TypeCheckError("queries must be set-valued, got %r" % (nf,))
    builder = _Builder(schema)
    root, templates, empty_paths, shape = builder.build_root(nf)
    if root is None:
        return EncodedQuery(None, {}, {()}, ("empty",))
    return EncodedQuery(GroupingQuery(root, name), templates, empty_paths, shape)


class _Unsat(Exception):
    """A node's conditions are unsatisfiable: the set is always empty."""


class _Builder:
    def __init__(self, schema):
        self.schema = schema

    def build_root(self, nf):
        templates = {}
        empty_paths = set()
        try:
            root, shape = self._node(nf, "", (), {}, set(), templates, empty_paths)
        except _Unsat:
            return None, {}, {()}, ("empty",)
        return root, templates, empty_paths, shape

    # -- one set node --------------------------------------------------

    def _node(self, nf, label, path, outer_columns, outer_vars, templates,
              empty_paths):
        """Build the GroupingNode for *nf* at *path*.

        :param outer_columns: ``{nf var: {attr: CQ Var}}`` for ancestor
            generators.
        :param outer_vars: set of CQ variables bound by ancestors.
        """
        columns = dict(outer_columns)
        atoms = []
        for var, source in nf.gens:
            if not isinstance(source, str):
                raise UnsupportedQueryError(
                    "generator over nested value %r: encode the input "
                    "database first (objects.encoding.encode_database)"
                    % (source,)
                )
            if source not in self.schema:
                raise SchemaError("unknown relation %s" % source)
            row_type = self.schema[source]
            attrs = row_type.keys()
            for attr in attrs:
                from repro.objects.types import AtomType

                if not isinstance(row_type[attr], AtomType):
                    raise UnsupportedQueryError(
                        "relation %s is nested; apply the Section-5.1 index "
                        "encoding first" % source
                    )
            columns[var] = {a: Var("%s.%s" % (var, a)) for a in attrs}
            atoms.append(Atom(source, tuple(columns[var][a] for a in attrs)))

        substitution = self._unify(nf.conds, columns, outer_vars)
        atoms = [atom.substitute(substitution) for atom in atoms]
        # Propagate the unification into the column map so that head
        # terms and descendant nodes see the representatives.
        columns = {
            var: {a: _substituted(t, substitution) for a, t in splay.items()}
            for var, splay in columns.items()
        }

        values = {}
        children = []
        template, child_nodes = self._head(
            nf.head, path, columns, substitution, outer_vars, values,
            templates, empty_paths,
        )
        templates[path] = template

        # Children: compute index = outer CQ variables the subtree uses.
        own_vars = {v for atom in atoms for v in atom.variables()}
        bound_here = outer_vars | own_vars
        built_children = []
        child_shapes = {}
        for child_label, child_nf in child_nodes:
            child_path = path + (child_label,)
            try:
                child, child_shape = self._node(
                    child_nf, child_label, child_path, columns,
                    bound_here, templates, empty_paths,
                )
            except _Unsat:
                empty_paths.add(child_path)
                templates.setdefault(child_path, (EMPTY,))
                child_shapes[child_label] = (EMPTY,)
                continue
            child_shapes[child_label] = child_shape
            subtree_vars = _subtree_variables(child)
            index = tuple(sorted(v for v in subtree_vars if v in bound_here))
            child = GroupingNode(
                child.label, child.own_atoms, dict(child.values), index,
                child.children,
            )
            built_children.append(child)

        node = GroupingNode(label, atoms, values, (), tuple(built_children))
        shape = _shape_of(template, child_shapes)
        return node, shape

    def _head(self, head, path, columns, substitution, outer_vars, values,
              templates, empty_paths):
        """Flatten the head into value columns, child sets, a template.

        Returns ``(template, [(child label, child NFSet)])``.
        """
        child_nodes = []

        def walk(nf_value, prefix):
            if isinstance(nf_value, NFPath) and not nf_value.attrs:
                # A bare row variable: splay it into its record structure
                # (elements of a flat relation are records of atoms).
                if nf_value.var not in columns:
                    raise TypeCheckError("unbound variable %s" % nf_value.var)
                splay = columns[nf_value.var]
                expanded = NFRecord(
                    {attr: NFPath(nf_value.var, (attr,)) for attr in splay}
                )
                return walk(expanded, prefix)
            if isinstance(nf_value, (NFConst, NFPath)):
                name = ".".join(prefix) if prefix else "__value"
                term = self._term(nf_value, columns)
                values[name] = _substituted(term, substitution)
                return (VALUE, name)
            if isinstance(nf_value, NFRecord):
                fields = {}
                for attr, component in nf_value.fields:
                    fields[attr] = walk(component, prefix + (attr,))
                return (RECORD, tuple(sorted(fields.items())))
            if isinstance(nf_value, NFEmpty):
                label = ".".join(prefix) if prefix else "__set"
                empty_paths.add(path + (label,))
                templates[path + (label,)] = (EMPTY,)
                return (CHILD, label)
            if isinstance(nf_value, NFSet):
                label = ".".join(prefix) if prefix else "__set"
                child_nodes.append((label, nf_value))
                return (CHILD, label)
            raise TypeCheckError("unexpected head value %r" % (nf_value,))

        template = walk(head, ())
        return template, child_nodes

    def _term(self, nf_value, columns):
        if isinstance(nf_value, NFConst):
            return Const(nf_value.value)
        if isinstance(nf_value, NFPath):
            if nf_value.var not in columns:
                raise TypeCheckError("unbound variable %s" % nf_value.var)
            if len(nf_value.attrs) != 1:
                raise UnsupportedQueryError(
                    "path %r does not address an atomic column of a flat "
                    "relation" % (nf_value,)
                )
            attr = nf_value.attrs[0]
            splay = columns[nf_value.var]
            if attr not in splay:
                raise TypeCheckError(
                    "relation row for %s has no attribute %s"
                    % (nf_value.var, attr)
                )
            return splay[attr]
        raise TypeCheckError("not an atomic term: %r" % (nf_value,))

    def _unify(self, conds, columns, outer_vars):
        """Turn equality conditions into a substitution: a plain
        ``{term: representative}`` dict over every linked term.

        Raises :class:`_Unsat` when two distinct constants must be equal
        and :class:`UnsupportedQueryError` when a condition relates two
        outer terms (see module docstring).
        """
        parent = {}

        def find(term):
            root = term
            while root in parent:
                root = parent[root]
            # Path compression.  This walk follows the pointers the first
            # one did, so it ends at the very object found as the root.
            while term is not root:
                parent[term], term = root, parent[term]
            return root

        def rank(term):
            # Higher rank wins as representative.
            if isinstance(term, Const):
                return 2
            return 1 if term in outer_vars else 0

        for left, right in conds:
            left_term = find(self._term(left, columns))
            right_term = find(self._term(right, columns))
            if left_term == right_term:
                continue
            if isinstance(left_term, Const) and isinstance(right_term, Const):
                raise _Unsat()
            if rank(left_term) < rank(right_term):
                left_term, right_term = right_term, left_term
            # left_term is the representative.
            if rank(right_term) >= 1:
                # Both sides are outer terms (or outer/constant): the
                # condition gates the inner set on the outer binding.
                raise UnsupportedQueryError(
                    "condition equates two outer terms (%r = %r) inside a "
                    "nested subquery; outside the implemented fragment"
                    % (left_term, right_term)
                )
            parent[right_term] = left_term

        return {term: find(term) for term in parent}


def _substituted(term, substitution):
    if isinstance(term, Var):
        return substitution.get(term, term)
    return term


def _subtree_variables(node):
    out = set()

    def walk(n):
        for atom in n.own_atoms:
            out.update(atom.variables())
        out.update(t for __, t in n.values if isinstance(t, Var))
        out.update(n.index)
        for child in n.children:
            walk(child)

    walk(node)
    return out


def _shape_of(template, child_shapes):
    kind = template[0]
    if kind == VALUE:
        return ("value", template[1])
    if kind == RECORD:
        return ("record", tuple((k, _shape_of(t, child_shapes))
                                for k, t in template[1]))
    if kind == CHILD:
        return ("set", template[1], child_shapes.get(template[1], (EMPTY,)))
    if kind == EMPTY:
        return (EMPTY,)
    raise TypeCheckError("bad template %r" % (template,))


def shapes_compatible(left, right):
    """Structural comparability of two output shapes.

    An always-empty set component is compatible with any set component —
    the empty set conforms to every set type.
    """
    if left[0] == EMPTY or right[0] == EMPTY:
        # "empty" stands for an always-empty set's (unknown) element
        # shape; it is compatible with anything.
        return True
    if left[0] != right[0]:
        return False
    if left[0] == "value":
        return left[1] == right[1]
    if left[0] == "record":
        if tuple(k for k, __ in left[1]) != tuple(k for k, __ in right[1]):
            return False
        return all(
            shapes_compatible(ls, rs)
            for (__, ls), (___, rs) in zip(left[1], right[1])
        )
    if left[0] == "set":
        return left[1] == right[1] and shapes_compatible(left[2], right[2])
    return False


def paired_encoding(sub_encoded, sup_encoded):
    """Align two encoded queries for containment testing.

    Returns ``(sub_query, sup_query, verdict)``: when *verdict* is not
    None the containment question is already settled (e.g. one side is
    always empty, or the superquery has an always-empty component where
    the subquery does not); otherwise the two returned grouping queries
    have matching shapes, with the subquery's always-empty components
    pruned from both sides.
    """
    if sub_encoded.is_empty:
        return None, None, True  # {} ⊑ anything
    if sup_encoded.is_empty:
        return None, None, False  # a satisfiable body is non-empty somewhere

    sub_query, sup_query = sub_encoded.query, sup_encoded.query
    sub_paths = set(sub_query.paths())
    sup_paths = set(sup_query.paths())

    # Sup-side empty components: sub must be empty there too.
    for path in sup_encoded.empty_paths:
        if path in sub_encoded.empty_paths:
            continue
        if path in sub_paths:
            return None, None, False
        # Component below a sub-side empty component: unreachable, fine.

    # Prune sub-side empty components (and anything below them) from sup.
    keep_sup = {
        p
        for p in sup_paths
        if not any(
            p[: len(e)] == e
            for e in sub_encoded.empty_paths | sup_encoded.empty_paths
        )
    }
    keep_sub = {
        p
        for p in sub_paths
        if not any(p[: len(e)] == e for e in sub_encoded.empty_paths)
    }
    if keep_sub != keep_sup:
        # Shapes disagree beyond empty components.
        return None, None, None if keep_sub <= keep_sup else False
    sub_query = sub_query.truncate(keep_sub)
    sup_query = sup_query.truncate(keep_sup)
    return sub_query, sup_query, None


def reconstruct_value(encoded, groups, path=(), key=()):
    """Rebuild the nested complex-object answer from evaluated groups.

    Inverse of the flattening the encoder performs; used to validate the
    encoder against the direct interpreter.
    """
    from repro.objects.values import Record, CSet

    if encoded.is_empty:
        return CSet()
    query_paths = encoded.query.paths()

    def build_set(p, k):
        node = query_paths[p]
        elements = []
        for values, child_keys in groups[p].get(k, ()):
            named = dict(zip(node.value_names(), values))
            child_key_of = dict(zip(node.child_labels(), child_keys))
            elements.append(build_template(encoded.templates[p], p, named,
                                           child_key_of))
        return CSet(elements)

    def build_template(template, p, named, child_key_of):
        kind = template[0]
        if kind == VALUE:
            return named[template[1]]
        if kind == RECORD:
            return Record(
                {
                    attr: build_template(t, p, named, child_key_of)
                    for attr, t in template[1]
                }
            )
        if kind == CHILD:
            label = template[1]
            child_path = p + (label,)
            if child_path in encoded.empty_paths:
                return CSet()
            return build_set(child_path, child_key_of[label])
        raise TypeCheckError("bad template %r" % (template,))

    return build_set(path, key)
