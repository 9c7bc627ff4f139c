"""Static analysis (linting) of COQL queries, grounded in the paper.

A rule-based analyzer over the same front end the decision procedures
use.  Each rule has a stable ``COQLnnn`` code, a severity, and the
paper result that grounds it:

========  ========================  ========  ==================================
Code      Name                      Severity  Grounds
========  ========================  ========  ==================================
COQL000   front-end-failure         error*    Sections 3 / 5.1 (parse, type,
                                              encodable fragment)
COQL001   unbound-or-unused-        error*    Section 3 (well-formedness)
          variable
COQL002   unsatisfiable-body        error*    Section 4 ({} ⊑ everything)
COQL003   cartesian-product         warning   Section 5.2 (canonical DBs)
COQL004   empty-set-hazard          warning   Theorem 4.2 (empty-set-free)
COQL005   redundant-subgoal         info      Section 1 (motivating use)
COQL006   bad-truncation-pattern    error     Section 4 (obligations)
COQL007   complexity-budget         warning   Theorem 5.1 (NP-complete)
COQL008   unbounded-fanout-join     warning   Theorem 5.1 (fan-out/nesting)
COQL009   interval-refuted-         warning   Section 4 (relative to a DB)
          condition
COQL010   singleton-generator       info      Section 5.1 (normal form)
COQL011   certified-complexity-     warning   Theorem 5.1 (certified bound)
          budget
========  ========================  ========  ==================================

(*) default; individual findings may downgrade (an encoding failure is
a warning, a nested contradiction is a warning, an unused generator is
a warning).

COQL008–011 are powered by the abstract interpreter of
:mod:`repro.analysis.interp`, which also produces the
:class:`CostCertificate` behind ``repro analyze``.

Entry points: :func:`analyze` for queries, :func:`analyze_truncation`
for truncation patterns; :func:`cost_certificate` /
``ContainmentEngine.cost_certificate`` for cost certificates;
``repro lint`` / ``repro analyze`` on the command line;
``ContainmentEngine(analyze=True)`` to pre-check every ``contains``
call; ``ViewCatalog.lint()`` for catalogs.
"""

from repro.analysis.api import analyze, analyze_truncation
from repro.analysis.context import AnalysisConfig, AnalysisContext
from repro.analysis.diagnostics import (
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    Diagnostic,
    max_severity,
)
from repro.analysis.interp import (
    CostCertificate,
    DatabaseStatistics,
    Interval,
    QueryFacts,
    cost_certificate,
    interpret,
)
from repro.analysis.registry import Rule, all_rules, get_rule, select_rules

__all__ = [
    "analyze",
    "analyze_truncation",
    "AnalysisConfig",
    "AnalysisContext",
    "Diagnostic",
    "ERROR",
    "WARNING",
    "INFO",
    "SEVERITIES",
    "max_severity",
    "Rule",
    "all_rules",
    "get_rule",
    "select_rules",
    "CostCertificate",
    "DatabaseStatistics",
    "Interval",
    "QueryFacts",
    "cost_certificate",
    "interpret",
]
