"""Catalog minimization: pruning mutually redundant views.

A catalog that grows by admitting every missed query accumulates
duplicates — alpha-renamed copies, re-derivable refinements registered
under fresh names.  :class:`CatalogMinimizer` drives the catalog's
pairwise containment matrix (:meth:`ViewCatalog.containment_matrix`)
and drops every view that is *weakly equivalent* to an earlier kept one
(``matrix[i][j] is True and matrix[j][i] is True`` — identity tests, so
an :data:`repro.engine.UNDECIDED` cell can never prove redundancy).

Dropping only mutually contained views is the conservative choice: a
merely contained view still materializes rows its container does not
expose per-row (e.g. after head rebuilding), so it may be the only
sound serving source for some refinement.
"""

__all__ = ["CatalogMinimizer", "MinimizationReport"]


class MinimizationReport:
    """The outcome of one minimization pass.

    Attributes:
        kept: view names retained, in catalog (sorted-name) order.
        removed: ``{dropped name: kept name it is equivalent to}``.
        undecided: pairs ``(i_name, j_name)`` whose matrix cells were
            not both decided (timeouts / fragment limits) — candidates a
            longer-deadline pass might still prune.
    """

    __slots__ = ("kept", "removed", "undecided")

    def __init__(self, kept, removed, undecided):
        self.kept = tuple(kept)
        self.removed = dict(removed)
        self.undecided = tuple(undecided)

    def __repr__(self):
        return "MinimizationReport(kept=%d, removed=%d, undecided=%d)" % (
            len(self.kept), len(self.removed), len(self.undecided),
        )


class CatalogMinimizer:
    """Plan and apply redundant-view pruning for one
    :class:`repro.coql.views.ViewCatalog`."""

    def __init__(self, catalog):
        self._catalog = catalog

    def plan(self, jobs=None, timeout_s=None):
        """Compute a :class:`MinimizationReport` without mutating the
        catalog.

        Earlier names (catalog order is sorted) win ties, so the report
        is deterministic for a given catalog.
        """
        names, matrix = self._catalog.containment_matrix(
            jobs=jobs, timeout_s=timeout_s
        )
        kept = []
        kept_indices = []
        removed = {}
        undecided = []
        for j, name in enumerate(names):
            duplicate_of = None
            for i in kept_indices:
                forward = matrix[i][j]   # views[j] ⊑ views[i]
                backward = matrix[j][i]  # views[i] ⊑ views[j]
                if forward is True and backward is True:
                    duplicate_of = names[i]
                    break
                if not (forward is True or forward is False) or not (
                    backward is True or backward is False
                ):
                    undecided.append((names[i], name))
            if duplicate_of is None:
                kept.append(name)
                kept_indices.append(j)
            else:
                removed[name] = duplicate_of
        return MinimizationReport(kept, removed, undecided)

    def minimize(self, jobs=None, timeout_s=None):
        """Apply :meth:`plan`: remove every redundant view from the
        catalog and return the report."""
        report = self.plan(jobs=jobs, timeout_s=timeout_s)
        for name in report.removed:
            self._catalog.remove(name)
        return report
