"""XQuery subset engine and the denial→XQuery translation of section 6.

The paper evaluates its (full and optimized) integrity checks as XQuery
boolean expressions on an XML repository (eXist).  This package
provides the substitute engine: a lexer, parser and evaluator for the
XQuery fragment those checks need —

* FLWOR expressions (``for``/``let``/``where``/``return``),
* quantified expressions (``some``/``every`` ... ``satisfies``),
* path expressions with child/descendant/attribute/parent/self axes,
  name/text/node tests and positional or boolean predicates,
* general and value comparisons, arithmetic, boolean connectives,
* a standard function library (``count``, ``exists``, ``not``, ...),
* element constructors (``<idle/>``),

plus :mod:`repro.xquery.translate`, the section 6 algorithm that turns
Datalog denials into such queries (with ``%x`` placeholders for update
parameters).

Queries are evaluated against a *collection* of documents, mirroring
the paper's setting where constraints span both ``pub.xml`` and
``rev.xml``.
"""

from repro.xquery.parser import parse_query
from repro.xquery.engine import QueryContext, evaluate_query
from repro.xquery.planner import (
    explain_query,
    query_truth_planned,
    unplanned,
)
from repro.xquery.translate import (
    TranslatedQuery,
    translate_denial,
    translate_denials,
)

__all__ = [
    "parse_query",
    "QueryContext",
    "evaluate_query",
    "TranslatedQuery",
    "translate_denial",
    "translate_denials",
    "query_truth_planned",
    "explain_query",
    "unplanned",
]
