"""Cost-based check planner: the layer between optimizer and engine.

The translated integrity checks are existential conjunctive queries
(``some $v1 in s1, ... satisfies F1 and ... and Fk``).  The engine's
frontier evaluation (:mod:`repro.xquery.optimizer`) already pushes
conditions down and hash-joins uncorrelated equalities, but it keeps
the *source order* of the bindings, materializes every intermediate
frontier, and pays an immutable-context copy per candidate tuple.

This module plans and compiles each prepared check instead:

* **statistics** — per-document, per-tag cardinalities and
  distinct-value counts served by the incremental tag index
  (:meth:`repro.xtree.node.Document.tag_count` /
  :meth:`~repro.xtree.node.Document.tag_distinct_count`, maintained
  under the per-document lock), with DTD cardinality bounds
  (:meth:`repro.core.schema.ConstraintSchema.cardinality_priors`) as
  priors for empty or cold documents;
* **planning** — independent quantifier bindings are reordered
  greedily by estimated cardinality x selectivity (hash-joinable
  bindings are discounted by the key's distinct count), conjuncts are
  re-assigned to the earliest position of the chosen order, and
  equality predicates on ``//tag`` steps are turned into value-index
  probes;
* **compilation** — the plan is compiled to Python closures over a
  mutable variable environment and evaluated depth-first with early
  exit: ``some`` stops at the first witness, ``every`` at the first
  counterexample, and binding sources stream through generators
  instead of materializing node sequences.  Constructs outside the
  compiled fragment fall back to :func:`repro.xquery.engine._evaluate`
  through a bridging :class:`~repro.xquery.engine.QueryContext`, so
  planned evaluation is *total*: every query the engine accepts runs,
  with identical verdicts;
* **caching** — plans are cached per (query, document set) and
  revalidated against the documents' revision vector; the compiled
  closures are shared per (query, strategy), so a statistics refresh
  that does not change the chosen order costs only the re-estimate.

Planned evaluation serves *truth* (effective-boolean-value) queries —
the form every integrity check takes.  Sequence order is not part of
that contract: the planner is free to reorder and deduplicate node
sets as long as the verdict (and every count/aggregate feeding it)
matches the unplanned engine, which the differential test suite
asserts verdict-for-verdict.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.analysis.concurrency import make_lock
from repro.errors import XQueryEvaluationError
from repro.testing.failpoints import fail
from repro.xquery import engine, functions
from repro.xquery.ast import (
    AxisStep,
    BinaryOp,
    ContextItem,
    ElementConstructor,
    Expression,
    FLWOR,
    ForClause,
    FunctionCall,
    IfExpr,
    LetClause,
    Literal,
    PathExpr,
    Quantified,
    SequenceExpr,
    TextLiteral,
    UnaryOp,
    VarRef,
    WhereClause,
)
from repro.xquery.engine import QueryContext
from repro.xquery.optimizer import (
    boolean_filter_safe,
    conjuncts,
    focus_free,
    free_variables,
    hash_keys,
    index_dependencies,
    probe_keys,
)
from repro.xquery.values import (
    Sequence,
    UntypedAtomic,
    atomize,
    effective_boolean_value,
    general_compare,
)
from repro.xtree.node import Document, Element, Node, Text

__all__ = [
    "Statistics",
    "columnar_enabled",
    "enabled",
    "explain_query",
    "install_priors",
    "query_truth_planned",
    "unplanned",
    "without_columns",
]


# ---------------------------------------------------------------------------
# Enablement and priors
# ---------------------------------------------------------------------------

_STATE = threading.local()


def enabled() -> bool:
    """Whether planned evaluation is active on this thread."""
    return getattr(_STATE, "enabled", True)


def set_enabled(flag: bool) -> None:
    _STATE.enabled = bool(flag)


@contextmanager
def unplanned():
    """Temporarily route checks through the unplanned engine.

    The ablation switch: benchmarks and the differential suite compare
    the two paths with everything else held equal.
    """
    previous = enabled()
    _STATE.enabled = False
    try:
        yield
    finally:
        _STATE.enabled = previous


def columnar_enabled() -> bool:
    """Whether columnar (vectorized) evaluation is active on this
    thread.  Orthogonal to :func:`enabled`: planned evaluation can run
    with the columnar backend ablated (:func:`without_columns`), and
    :func:`unplanned` disables both."""
    return getattr(_STATE, "columnar", True)


def set_columnar(flag: bool) -> None:
    _STATE.columnar = bool(flag)


@contextmanager
def without_columns():
    """Temporarily ablate the columnar backend (keep planned DOM).

    The second ablation switch: benchmarks compare columnar against
    planned-DOM evaluation with plans, caches and corpus held equal.
    """
    previous = columnar_enabled()
    _STATE.columnar = False
    try:
        yield
    finally:
        _STATE.columnar = previous


#: tag → expected element count from DTD cardinality bounds; consulted
#: only when the live count is zero (empty/cold documents), so it can
#: only ever influence plan *order*, never a verdict
_PRIORS: dict[str, float] = {}  # guarded-by: _PRIORS_LOCK
_PRIORS_LOCK = make_lock("planner.priors")

#: actual-vs-estimated ratio past which an explain run treats a
#: binding's estimate as drifted: the observed cardinality is fed back
#: into the planner and the cached plan for that query is invalidated,
#: so the next evaluation re-plans with the corrected number
REPLAN_DRIFT_THRESHOLD = 8.0

#: drift on tiny scans is noise (a handful of rows reorders nothing
#: and the ratio denominator is ~1); only feed back real volume
_REPLAN_MIN_EXAMINED = 16

_FEEDBACK_CAPACITY = 256

#: (quantified expression, original binding index) → observed source
#: cardinality from a drifted explain run; overrides the statistical
#: estimate (taking the max) until the table is cleared.  Like the
#: priors, feedback can only influence plan *order*, never a verdict.
_FEEDBACK: "OrderedDict[tuple, float]" = \
    OrderedDict()  # guarded-by: _PRIORS_LOCK


def _feedback_estimate(quantified: "Quantified", original_index: int,
                       estimate: float) -> float:
    """Blend an explain-observed cardinality into an estimate."""
    with _PRIORS_LOCK:
        observed = _FEEDBACK.get((quantified, original_index))
    if observed is None:
        return estimate
    return max(estimate, observed)


def note_drift(quantified: "Quantified", original_index: int,
               examined: int) -> None:
    """Record an observed cardinality for a drifted binding.

    Called by :func:`explain_query` when a binding examined far more
    items than estimated; :func:`_choose_order` consults the table on
    every subsequent plan, so the correction takes effect as soon as
    the stale cached plan is invalidated.
    """
    with _PRIORS_LOCK:
        key = (quantified, original_index)
        _FEEDBACK[key] = float(examined)
        _FEEDBACK.move_to_end(key)
        while len(_FEEDBACK) > _FEEDBACK_CAPACITY:
            _FEEDBACK.popitem(last=False)


def install_priors(priors: dict[str, float]) -> None:
    """Merge DTD-derived cardinality priors into the global table.

    Called at checker construction with
    :meth:`~repro.core.schema.ConstraintSchema.cardinality_priors`.
    Merging keeps the larger estimate — priors are order heuristics,
    not invariants, and several schemas may coexist in one process.
    """
    with _PRIORS_LOCK:
        for tag, value in priors.items():
            if value > _PRIORS.get(tag, 0.0):
                _PRIORS[tag] = value


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

class Statistics:
    """Cardinality/selectivity estimates over a document collection.

    Reads go through the per-document lock-protected tag index, so a
    refresh taken while a writer thread is mid-update still observes
    internally consistent buckets.  When a tag has no live elements the
    DTD priors stand in — the cold-start path for freshly created
    documents.
    """

    __slots__ = ("documents", "priors")

    def __init__(self, documents: tuple[Document, ...],
                 priors: dict[str, float] | None = None) -> None:
        fail.point("planner.stats.refresh")
        self.documents = tuple(documents)
        if priors is None:
            with _PRIORS_LOCK:
                priors = dict(_PRIORS)
        self.priors = priors

    def count(self, tag: str) -> float:
        """Estimated number of elements with ``tag`` in the collection."""
        total = 0
        for document in self.documents:
            total += document.tag_count(tag)
        if total:
            return float(total)
        return float(self.priors.get(tag, 0.0))

    def distinct(self, tag: str) -> float:
        """Estimated distinct direct-text values among ``tag`` elements.

        The selectivity denominator for equality predicates keyed on
        the tag's text.
        """
        total = 0
        for document in self.documents:
            total += document.tag_distinct_count(tag)
        if total:
            return float(total)
        prior = self.priors.get(tag, 0.0)
        return max(1.0, prior ** 0.5)

    def revision_vector(self) -> tuple[int, ...]:
        return tuple(document.revision for document in self.documents)


# ---------------------------------------------------------------------------
# Cardinality estimation
# ---------------------------------------------------------------------------

_SIMPLE_STEP_NODETESTS = ("*", "node()", "text()", "position()")


def _estimate(expression: Expression, stats: Statistics,
              anchors: dict[str, str]) -> float:
    return _estimate_any(expression, stats, anchors)[0]


def _estimate_any(expression: Expression, stats: Statistics,
                  anchors: dict[str, str]) -> tuple[float, str | None]:
    """(estimated cardinality, tag the result items range over)."""
    if isinstance(expression, (Literal, TextLiteral, ContextItem)):
        return 1.0, None
    if isinstance(expression, VarRef):
        return 1.0, anchors.get(expression.name)
    if isinstance(expression, PathExpr):
        return _estimate_path(expression, stats, anchors)
    if isinstance(expression, FunctionCall):
        if expression.name == "distinct-values" and expression.args:
            card, anchor = _estimate_any(
                expression.args[0], stats, anchors)
            if anchor is not None:
                card = min(card, stats.distinct(anchor))
            return max(card, 0.0), None
        return 1.0, None
    if isinstance(expression, SequenceExpr):
        return (sum(_estimate(item, stats, anchors)
                    for item in expression.items), None)
    if isinstance(expression, (BinaryOp, UnaryOp, Quantified, IfExpr)):
        return 1.0, None
    return 4.0, None


def _estimate_path(path: PathExpr, stats: Statistics,
                   anchors: dict[str, str]) -> tuple[float, str | None]:
    if path.start is None:
        card, anchor = 1.0, None
        over_documents = True
    elif isinstance(path.start, VarRef):
        card, anchor = 1.0, anchors.get(path.start.name)
        over_documents = False
    elif isinstance(path.start, ContextItem):
        card, anchor = 1.0, None
        over_documents = False
    else:
        card, anchor = _estimate_any(path.start, stats, anchors)
        over_documents = False
    for step, descendant in zip(path.steps, path.descendant_flags):
        nodetest = step.nodetest
        if step.axis == "attribute" or nodetest in ("text()", "position()"):
            pass  # ~one value per context element
        elif step.axis in ("parent", "self"):
            if step.axis == "parent":
                anchor = None
        elif nodetest in ("*", "node()"):
            card *= 4.0
            anchor = None
        else:
            total = stats.count(nodetest)
            if descendant and over_documents:
                card = total
            else:
                parent_total = stats.count(anchor) if anchor else 0.0
                if parent_total > 0.0:
                    card *= total / parent_total
                elif descendant:
                    card *= max(total, 1.0)
                elif total == 0.0:
                    card *= 0.5
                # else: a child step under an unknown anchor — assume
                # the DTD-typical one child per parent
            anchor = nodetest
        over_documents = False
        for predicate in step.predicates:
            probe = _probe_spec(predicate)
            if probe is not None:
                key_tag = _last_named_tag(probe[0]) or anchor
                denominator = stats.distinct(key_tag) if key_tag else 2.0
                card /= max(denominator, 1.0)
            else:
                card *= 0.5
    return max(card, 0.0), anchor


def _last_named_tag(downpath: tuple[tuple[str, str], ...]) -> str | None:
    for axis, nodetest in reversed(downpath):
        if axis == "child" and nodetest != "text()":
            return nodetest
    return None


# ---------------------------------------------------------------------------
# Predicate analysis: EBV-safe filters and value-index probes
# ---------------------------------------------------------------------------

def _ebv_filter_safe(predicate: Expression) -> bool:
    """Predicate applicable element-wise over an index fetch.

    Extends :func:`~repro.xquery.optimizer.boolean_filter_safe` with
    node-producing path predicates: paths whose steps cannot yield bare
    numbers can never trigger the positional rule, so their effective
    boolean value is focus-partitioning-independent too.
    """
    if boolean_filter_safe(predicate):
        return True
    if isinstance(predicate, PathExpr):
        if predicate.start is not None \
                and not isinstance(predicate.start, (ContextItem, VarRef)):
            return False
        return all(step.nodetest != "position()"
                   for step in predicate.steps)
    return False


def _downpath_steps(
        expression: Expression) -> tuple[tuple[str, str], ...] | None:
    """A relative downward path as ((axis, nodetest), ...), or None.

    The shape a per-element key evaluator (:func:`_eval_downpath`)
    supports: child/attribute steps, named or ``text()``, no
    predicates, no descendant jumps.  These paths read only the
    element's own subtree, which is what makes the derived value
    indexes incrementally repairable.
    """
    if not isinstance(expression, PathExpr) \
            or not isinstance(expression.start, ContextItem):
        return None
    if any(expression.descendant_flags):
        return None
    steps: list[tuple[str, str]] = []
    for step in expression.steps:
        if step.predicates:
            return None
        if step.axis == "child":
            if step.nodetest in ("*", "node()", "position()"):
                return None
        elif step.axis == "attribute":
            if step.nodetest == "*":
                return None
        else:
            return None
        steps.append((step.axis, step.nodetest))
    return tuple(steps)


def _eval_downpath(steps: tuple[tuple[str, str], ...],
                   element: Element) -> list:
    current: list = [element]
    for axis, nodetest in steps:
        gathered: list = []
        for item in current:
            if not isinstance(item, Element):
                continue
            if axis == "child":
                if nodetest == "text()":
                    gathered.extend(child for child in item.children
                                    if isinstance(child, Text))
                else:
                    gathered.extend(
                        child for child in item.children
                        if isinstance(child, Element)
                        and child.tag == nodetest)
            else:  # attribute
                value = item.attributes.get(nodetest)
                if value is not None:
                    gathered.append(UntypedAtomic(value))
        current = gathered
    return current


def _downpath_tags(steps: tuple[tuple[str, str], ...]) -> frozenset[str]:
    return frozenset(nodetest for axis, nodetest in steps
                     if axis == "child" and nodetest != "text()")


def _simple_descendant_tag(source: Expression) -> str | None:
    if not isinstance(source, PathExpr) or source.start is not None:
        return None
    if len(source.steps) != 1 or source.descendant_flags != (True,):
        return None
    step = source.steps[0]
    if step.axis != "child" or step.predicates \
            or step.nodetest in _SIMPLE_STEP_NODETESTS:
        return None
    return step.nodetest


def _var_downpath(
        key_side: Expression,
        name: str) -> tuple[tuple[str, str], ...] | None:
    """``key_side`` as a downward path rooted at ``$name``, else None."""
    if not isinstance(key_side, PathExpr) \
            or not isinstance(key_side.start, VarRef) \
            or key_side.start.name != name:
        return None
    relative = PathExpr(ContextItem(), key_side.steps,
                        key_side.descendant_flags)
    return _downpath_steps(relative)


def _probe_spec(
        predicate: Expression
) -> "tuple[tuple[tuple[str, str], ...], Expression] | None":
    """Decompose a predicate into (key downpath, probe expression).

    Recognized forms (``c`` is the candidate element):

    * ``[keypath = rhs]`` — keep ``c`` iff some value of
      ``c/keypath`` general-compares equal to ``rhs``;
    * ``[p1/../pn[inner = rhs]]`` — an existential path whose last
      step carries a single equality predicate; folded into
      ``[p1/../pn/inner = rhs]``, which has the same effective boolean
      value.

    ``rhs`` must be focus-free (same value for every candidate), which
    makes the candidate set answerable by one hash probe into an index
    of all same-tag elements keyed by their downpath values — the
    canonical keys of :func:`repro.xquery.optimizer.hash_keys`
    guarantee probe/scan equivalence.
    """
    if isinstance(predicate, BinaryOp) and predicate.op == "=":
        for key_side, probe_side in ((predicate.left, predicate.right),
                                     (predicate.right, predicate.left)):
            downpath = _downpath_steps(key_side)
            if downpath is not None and focus_free(probe_side):
                return downpath, probe_side
        return None
    if isinstance(predicate, PathExpr) \
            and isinstance(predicate.start, ContextItem) \
            and not any(predicate.descendant_flags):
        outer: list[tuple[str, str]] = []
        steps = predicate.steps
        for step in steps[:-1]:
            if step.axis != "child" or step.predicates \
                    or step.nodetest in _SIMPLE_STEP_NODETESTS:
                return None
            outer.append(("child", step.nodetest))
        last = steps[-1]
        if last.axis != "child" or len(last.predicates) != 1 \
                or last.nodetest in _SIMPLE_STEP_NODETESTS:
            return None
        inner = last.predicates[0]
        if not (isinstance(inner, BinaryOp) and inner.op == "="):
            return None
        folded = _probe_spec(inner)
        if folded is None:
            return None
        inner_path, probe_side = folded
        outer.append(("child", last.nodetest))
        return tuple(outer) + inner_path, probe_side
    return None


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------

_MISSING = object()


class _Runtime:
    """Mutable evaluation state threaded through compiled closures.

    Where the engine copies a frozen context per binding, compiled
    plans share one environment dict and set/restore keys around each
    loop level.  :meth:`context` bridges into the unplanned engine for
    constructs outside the compiled fragment — the engine's
    copy-on-write variable handling makes sharing the dict safe.
    """

    __slots__ = ("documents", "env", "item", "position", "size",
                 "profile", "cache", "backends")

    def __init__(self, documents: tuple[Document, ...],
                 env: dict[str, Sequence]) -> None:
        self.documents = documents
        self.env = env
        self.item: object | None = None
        self.position = 1
        self.size = 1
        #: (quantifier, binding) key → [items examined, tuples passed];
        #: populated by :func:`explain_query` runs only
        self.profile: dict[tuple, list[int]] | None = None
        #: (quantifier index, backend, reason) records; populated when
        #: :func:`explain_query` sets it to a list
        self.backends: list[tuple[int, str, str | None]] | None = None
        #: per-evaluation memo (hash-join/probe indexes): documents
        #: cannot change mid-check, so one lookup per plan node is
        #: enough — the revision-keyed cache is consulted only once
        self.cache: dict = {}

    def context(self) -> QueryContext:
        return QueryContext(self.documents, self.env, self.item,
                            self.position, self.size)


Closure = Callable[[_Runtime], Sequence]
TruthClosure = Callable[[_Runtime], bool]


# ---------------------------------------------------------------------------
# Plan structures
# ---------------------------------------------------------------------------

class _BindingInfo:
    """Explain record for one planned binding."""

    __slots__ = ("name", "source", "kind", "estimate", "original_index",
                 "key")

    def __init__(self, name: str, source: Expression, kind: str,
                 estimate: float, original_index: int,
                 key: tuple) -> None:
        self.name = name
        self.source = source
        self.kind = kind
        self.estimate = estimate
        self.original_index = original_index
        self.key = key


class _QuantifierInfo:
    """Explain record for one planned quantifier."""

    __slots__ = ("index", "kind", "expression", "bindings")

    def __init__(self, index: int, kind: str,
                 expression: Quantified) -> None:
        self.index = index
        self.kind = kind
        self.expression = expression
        self.bindings: list[_BindingInfo] = []


class _Plan:
    """Compilation context: chosen orders, statistics, explain info."""

    __slots__ = ("orders", "stats", "infos")

    def __init__(self, orders: dict[Quantified, tuple[int, ...]],
                 stats: Statistics) -> None:
        self.orders = orders
        self.stats = stats
        self.infos: list[_QuantifierInfo] = []


# ---------------------------------------------------------------------------
# Binding order selection
# ---------------------------------------------------------------------------

def _choose_order(quantified: Quantified,
                  stats: Statistics) -> tuple[int, ...]:
    """Greedy selectivity order for a quantifier's bindings.

    Repeatedly picks, among the bindings whose dependencies are
    satisfied, the one with the smallest effective cost: the estimated
    source cardinality, discounted by the key's distinct count when an
    equality conjunct makes the binding hash-joinable against already
    chosen (or outer) variables.  Reordering is sound because the
    bindings of a quantifier are independent nested loops — only the
    dependency order between correlated sources must be preserved.
    """
    bindings = quantified.bindings
    names = [name for name, _ in bindings]
    name_set = frozenset(names)
    source_deps = [free_variables(source) & name_set
                   for _, source in bindings]
    factors = conjuncts(quantified.condition)
    factor_vars = [free_variables(factor) & name_set for factor in factors]

    chosen: list[int] = []
    chosen_names: set[str] = set()
    anchors: dict[str, str] = {}
    remaining = list(range(len(bindings)))
    while remaining:
        best: tuple[float, int, str | None] | None = None
        for index in remaining:
            if source_deps[index] - chosen_names:
                continue
            name, source = bindings[index]
            card, anchor = _estimate_any(source, stats, anchors)
            card = _feedback_estimate(quantified, index, card)
            cost = card
            if not source_deps[index] and _joinable(
                    name, chosen_names, name_set, factors, factor_vars):
                denominator = stats.distinct(anchor) if anchor else 2.0
                cost = max(card / max(denominator, 1.0), 0.5)
            if best is None or cost < best[0] - 1e-9:
                best = (cost, index, anchor)
        assert best is not None, "binding dependencies form a cycle"
        _, index, anchor = best
        chosen.append(index)
        chosen_names.add(names[index])
        if anchor is not None:
            anchors[names[index]] = anchor
        remaining.remove(index)
    return tuple(chosen)


def _joinable(name: str, chosen_names: set[str],
              name_set: frozenset[str], factors: list[Expression],
              factor_vars: list[frozenset[str]]) -> bool:
    for factor, variables in zip(factors, factor_vars):
        if not (isinstance(factor, BinaryOp) and factor.op == "="):
            continue
        left = free_variables(factor.left) & name_set
        right = free_variables(factor.right) & name_set
        if left == {name} and right <= chosen_names:
            return True
        if right == {name} and left <= chosen_names:
            return True
    return False


def _collect_quantifieds(expression: Expression,
                         found: list[Quantified]) -> None:
    if isinstance(expression, Quantified):
        found.append(expression)
        for _, source in expression.bindings:
            _collect_quantifieds(source, found)
        _collect_quantifieds(expression.condition, found)
    elif isinstance(expression, PathExpr):
        if expression.start is not None:
            _collect_quantifieds(expression.start, found)
        for step in expression.steps:
            for predicate in step.predicates:
                _collect_quantifieds(predicate, found)
    elif isinstance(expression, BinaryOp):
        _collect_quantifieds(expression.left, found)
        _collect_quantifieds(expression.right, found)
    elif isinstance(expression, UnaryOp):
        _collect_quantifieds(expression.operand, found)
    elif isinstance(expression, FunctionCall):
        for argument in expression.args:
            _collect_quantifieds(argument, found)
    elif isinstance(expression, SequenceExpr):
        for item in expression.items:
            _collect_quantifieds(item, found)
    elif isinstance(expression, IfExpr):
        _collect_quantifieds(expression.condition, found)
        _collect_quantifieds(expression.then_branch, found)
        _collect_quantifieds(expression.else_branch, found)
    elif isinstance(expression, FLWOR):
        for clause in expression.clauses:
            if isinstance(clause, (ForClause, LetClause)):
                _collect_quantifieds(clause.source, found)
            else:
                assert isinstance(clause, WhereClause)
                _collect_quantifieds(clause.condition, found)
        _collect_quantifieds(expression.result, found)
    elif isinstance(expression, ElementConstructor):
        for _, value in expression.attributes:
            _collect_quantifieds(value, found)
        for child in expression.children:
            _collect_quantifieds(child, found)


def _strategy_for(expression: Expression,
                  stats: Statistics) -> tuple[tuple, ...]:
    """The stats-dependent part of a plan: every quantifier's order.

    Compiled closures are cached by (query, strategy) — a statistics
    refresh that leaves every order unchanged reuses them as-is.
    """
    quantifieds: list[Quantified] = []
    _collect_quantifieds(expression, quantifieds)
    orders: dict[Quantified, tuple[int, ...]] = {}
    items: list[tuple] = []
    for quantified in quantifieds:
        if quantified in orders:
            continue
        order = _choose_order(quantified, stats)
        orders[quantified] = order
        items.append((quantified, order))
    return tuple(items)


# ---------------------------------------------------------------------------
# Compilation: general expressions
# ---------------------------------------------------------------------------

def _fallback(expression: Expression) -> Closure:
    def run(rt: _Runtime) -> Sequence:
        return engine._evaluate(expression, rt.context())
    return run


def _compile(expression: Expression, pl: _Plan) -> Closure:
    if isinstance(expression, (Literal, TextLiteral)):
        value = expression.value

        def literal(rt: _Runtime) -> Sequence:
            return [value]
        return literal
    if isinstance(expression, VarRef):
        name = expression.name

        def var(rt: _Runtime) -> Sequence:
            try:
                return rt.env[name]
            except KeyError:
                raise XQueryEvaluationError(
                    f"unbound variable ${name}") from None
        return var
    if isinstance(expression, ContextItem):
        def item_fn(rt: _Runtime) -> Sequence:
            if rt.item is None:
                raise XQueryEvaluationError("no context item")
            return [rt.item]
        return item_fn
    if isinstance(expression, SequenceExpr):
        parts = [_compile(item, pl) for item in expression.items]

        def sequence(rt: _Runtime) -> Sequence:
            result: Sequence = []
            for part in parts:
                result.extend(part(rt))
            return result
        return sequence
    if isinstance(expression, PathExpr):
        return _compile_path(expression, pl)
    if isinstance(expression, BinaryOp):
        return _compile_binary(expression, pl)
    if isinstance(expression, UnaryOp):
        operand = _compile(expression.operand, pl)
        negate = expression.op == "-"

        def unary(rt: _Runtime) -> Sequence:
            atoms = atomize(operand(rt))
            if not atoms:
                return []
            value = engine.to_number(atoms[0])
            result = -value if negate else value
            return [int(result)] if float(result).is_integer() \
                else [result]
        return unary
    if isinstance(expression, FunctionCall):
        return _compile_call(expression, pl)
    if isinstance(expression, Quantified):
        truth = _compile_quantified_truth(expression, pl)

        def quantified(rt: _Runtime) -> Sequence:
            return [truth(rt)]
        return quantified
    if isinstance(expression, IfExpr):
        condition = _compile_truth(expression.condition, pl)
        then_branch = _compile(expression.then_branch, pl)
        else_branch = _compile(expression.else_branch, pl)

        def conditional(rt: _Runtime) -> Sequence:
            return then_branch(rt) if condition(rt) else else_branch(rt)
        return conditional
    # FLWOR, element constructors: bridge into the engine
    return _fallback(expression)


def _compile_binary(expression: BinaryOp, pl: _Plan) -> Closure:
    op = expression.op
    if op in ("and", "or"):
        truth = _compile_truth(expression, pl)

        def boolean(rt: _Runtime) -> Sequence:
            return [truth(rt)]
        return boolean
    left = _compile(expression.left, pl)
    right = _compile(expression.right, pl)
    if op in engine._GENERAL_OPS:
        def compare(rt: _Runtime) -> Sequence:
            return [general_compare(op, left(rt), right(rt))]
        return compare
    if op in engine._ARITHMETIC_OPS:
        def arithmetic(rt: _Runtime) -> Sequence:
            return engine._arithmetic(op, left(rt), right(rt))
        return arithmetic
    return _fallback(expression)


def _compile_call(expression: FunctionCall, pl: _Plan) -> Closure:
    name = expression.name
    if name == "position":
        return lambda rt: [rt.position]
    if name == "last":
        return lambda rt: [rt.size]
    args = [_compile(argument, pl) for argument in expression.args]
    if name == "count" and len(args) == 1:
        argument = args[0]
        return lambda rt: [len(argument(rt))]
    if name == "exists" and len(args) == 1:
        argument = args[0]
        return lambda rt: [bool(argument(rt))]
    if name == "empty" and len(args) == 1:
        argument = args[0]
        return lambda rt: [not argument(rt)]
    if name == "not" and len(args) == 1:
        inner = _compile_truth(expression.args[0], pl)
        return lambda rt: [not inner(rt)]
    entry = functions.REGISTRY.get(name)
    if entry is None:
        def unknown(rt: _Runtime) -> Sequence:
            raise XQueryEvaluationError(f"unknown function {name}()")
        return unknown
    implementation, min_arity, max_arity = entry
    if not min_arity <= len(args) <= max_arity:
        count = len(args)

        def bad_arity(rt: _Runtime) -> Sequence:
            raise XQueryEvaluationError(
                f"{name}() expects between {min_arity} and {max_arity} "
                f"arguments, got {count}")
        return bad_arity

    def call(rt: _Runtime) -> Sequence:
        return implementation(*[argument(rt) for argument in args])
    return call


def _compile_truth(expression: Expression, pl: _Plan) -> TruthClosure:
    """Effective-boolean-value closure with short-circuiting."""
    if isinstance(expression, BinaryOp):
        op = expression.op
        if op == "and":
            left = _compile_truth(expression.left, pl)
            right = _compile_truth(expression.right, pl)
            return lambda rt: left(rt) and right(rt)
        if op == "or":
            left = _compile_truth(expression.left, pl)
            right = _compile_truth(expression.right, pl)
            return lambda rt: left(rt) or right(rt)
        if op in engine._GENERAL_OPS:
            left_fn = _compile(expression.left, pl)
            right_fn = _compile(expression.right, pl)
            return lambda rt: general_compare(op, left_fn(rt),
                                              right_fn(rt))
    if isinstance(expression, FunctionCall) and len(expression.args) == 1:
        if expression.name == "not":
            inner = _compile_truth(expression.args[0], pl)
            return lambda rt: not inner(rt)
        if expression.name == "exists":
            inner_fn = _compile(expression.args[0], pl)
            return lambda rt: bool(inner_fn(rt))
        if expression.name == "empty":
            inner_fn = _compile(expression.args[0], pl)
            return lambda rt: not inner_fn(rt)
    if isinstance(expression, Quantified):
        return _compile_quantified_truth(expression, pl)
    if isinstance(expression, IfExpr):
        condition = _compile_truth(expression.condition, pl)
        then_branch = _compile_truth(expression.then_branch, pl)
        else_branch = _compile_truth(expression.else_branch, pl)
        return lambda rt: then_branch(rt) if condition(rt) \
            else else_branch(rt)
    if isinstance(expression, Literal) \
            and isinstance(expression.value, bool):
        value = expression.value
        return lambda rt: value
    fn = _compile(expression, pl)
    return lambda rt: effective_boolean_value(fn(rt))


# ---------------------------------------------------------------------------
# Compilation: paths
# ---------------------------------------------------------------------------

def _compile_start(path: PathExpr, pl: _Plan) -> Closure:
    start = path.start
    if start is None:
        return lambda rt: list(rt.documents)
    return _compile(start, pl)


def _compile_path(path: PathExpr, pl: _Plan) -> Closure:
    start_fn = _compile_start(path, pl)
    step_fns = [
        _compile_step(step, descendant, pl)
        for step, descendant in zip(path.steps, path.descendant_flags)]

    def run(rt: _Runtime) -> Sequence:
        items = start_fn(rt)
        for step_fn in step_fns:
            if not items:
                return items
            items = step_fn(rt, items)
        return items
    return run


def _compile_path_iter(
        path: PathExpr,
        pl: _Plan) -> Callable[[_Runtime], Iterator]:
    """Streaming path evaluation: one item at a time through the steps.

    Used for quantifier binding sources, where an early exit at the
    first witness makes materializing the full node sequence wasted
    work.  Cross-parent deduplication is skipped — duplicates cannot
    change an existential verdict, and downward paths (the translated
    checks' shape) never produce any.
    """
    start_fn = _compile_start(path, pl)
    step_fns = [
        _compile_step(step, descendant, pl)
        for step, descendant in zip(path.steps, path.descendant_flags)]
    depth = len(step_fns)

    def run(rt: _Runtime) -> Iterator:
        def advance(level: int, items: Sequence) -> Iterator:
            if level == depth:
                yield from items
                return
            step_fn = step_fns[level]
            for item in items:
                yield from advance(level + 1, step_fn(rt, [item]))
        yield from advance(0, start_fn(rt))
    return run


def _compile_iter(source: Expression,
                  pl: _Plan) -> Callable[[_Runtime], Iterator]:
    if isinstance(source, PathExpr) and source.start is None \
            and len(source.steps) > 1:
        # absolute multi-step paths can expand large intermediate
        # frontiers — stream them so an early exit stops the walk
        return _compile_path_iter(source, pl)
    # correlated and single-step sources are small (or served whole
    # from the tag index): a materialized list iterates faster than a
    # recursive generator
    fn = _compile(source, pl)
    return lambda rt: iter(fn(rt))


StepClosure = Callable[[_Runtime, Sequence], Sequence]


def _compile_step(step: AxisStep, descendant: bool,
                  pl: _Plan) -> StepClosure:
    generic = _compile_generic_step(step, descendant, pl)
    if not descendant or step.axis != "child" \
            or step.nodetest in _SIMPLE_STEP_NODETESTS:
        return generic
    # ``//tag`` candidate: serve whole-document fetches from the tag
    # index, with an optional value-index probe for a leading equality
    # predicate and element-wise filters for the rest.
    tag = step.nodetest
    predicates = step.predicates
    probe = _probe_spec(predicates[0]) if predicates else None
    rest = predicates[1:] if probe is not None else predicates
    if not all(_ebv_filter_safe(predicate) for predicate in rest):
        return generic
    filters = [_compile_ebv_filter(predicate, pl) for predicate in rest]
    if probe is not None:
        downpath, probe_expr = probe
        probe_fn = _compile(probe_expr, pl)
        deps = tuple(sorted(
            {tag} | _downpath_tags(downpath)
            | _path_dependency_tags(probe_expr)))

        memo_token = object()

        def probe_step(rt: _Runtime, items: Sequence) -> Sequence:
            documents = _documents_only(items)
            if documents is None:
                return generic(rt, items)
            index_map = rt.cache.get(memo_token)
            if index_map is None:
                index_map = _columnar_probe_map(tag, downpath,
                                                documents)
                if index_map is None:
                    index_map = _predicate_index(tag, downpath, deps,
                                                 documents, rt)
                rt.cache[memo_token] = index_map
            matched: Sequence = []
            seen: set[int] = set()
            for key in probe_keys(probe_fn(rt)):
                for element in index_map.get(key, ()):
                    if id(element) not in seen:
                        seen.add(id(element))
                        matched.append(element)
            for filter_fn in filters:
                matched = filter_fn(rt, matched)
            return matched
        return probe_step

    def indexed_step(rt: _Runtime, items: Sequence) -> Sequence:
        documents = _documents_only(items)
        if documents is None:
            return generic(rt, items)
        elements: Sequence = []
        for document in documents:
            elements.extend(document.elements_by_tag(tag))
        for filter_fn in filters:
            elements = filter_fn(rt, elements)
        return elements
    return indexed_step


def _documents_only(items: Sequence) -> "list[Document] | None":
    documents: list[Document] = []
    seen: set[int] = set()
    for item in items:
        if not isinstance(item, Document):
            return None
        if id(item) not in seen:
            seen.add(id(item))
            documents.append(item)
    return documents


def _path_dependency_tags(expression: Expression) -> frozenset[str]:
    tags = index_dependencies(expression)
    return tags if tags is not None else frozenset()


def _compile_ebv_filter(
        predicate: Expression,
        pl: _Plan) -> Callable[[_Runtime, Sequence], Sequence]:
    truth = _compile_truth(predicate, pl)

    def filter_fn(rt: _Runtime, candidates: Sequence) -> Sequence:
        kept: Sequence = []
        saved = rt.item
        try:
            for candidate in candidates:
                rt.item = candidate
                if truth(rt):
                    kept.append(candidate)
        finally:
            rt.item = saved
        return kept
    return filter_fn


def _compile_generic_step(step: AxisStep, descendant: bool,
                          pl: _Plan) -> StepClosure:
    axis, nodetest, predicates = step.axis, step.nodetest, step.predicates
    if not predicates and not descendant:
        if axis == "child" and nodetest not in _SIMPLE_STEP_NODETESTS:
            return _named_child_step(nodetest)
        if axis == "child" and nodetest == "text()":
            return _text_step
        if axis == "child" and nodetest == "position()":
            return _position_step
        if axis == "attribute" and nodetest != "*":
            return _attribute_step(nodetest)
        if axis == "parent":
            return _parent_step

    def run(rt: _Runtime, items: Sequence) -> Sequence:
        if descendant:
            items = engine._descendant_or_self(items)
        context = rt.context() if predicates else None
        result: Sequence = []
        seen: set[int] = set()
        for item in items:
            candidates = engine._axis_candidates(step, item)
            for predicate in predicates:
                candidates = engine._filter_predicate(
                    predicate, candidates, context)
            for candidate in candidates:
                if isinstance(candidate, (Node, Document)):
                    if id(candidate) not in seen:
                        seen.add(id(candidate))
                        result.append(candidate)
                else:
                    result.append(candidate)
        return result
    return run


def _named_child_step(tag: str) -> StepClosure:
    def run(rt: _Runtime, items: Sequence) -> Sequence:
        if len(items) == 1:
            item = items[0]
            if isinstance(item, Element):
                return [child for child in item.children
                        if isinstance(child, Element) and child.tag == tag]
            if isinstance(item, Document):
                return [item.root] if item.root.tag == tag else []
            return []
        result: Sequence = []
        seen: set[int] = set()
        for item in items:
            if id(item) in seen:
                continue
            seen.add(id(item))
            if isinstance(item, Element):
                result.extend(child for child in item.children
                              if isinstance(child, Element)
                              and child.tag == tag)
            elif isinstance(item, Document) and item.root.tag == tag:
                result.append(item.root)
        return result
    return run


def _text_step(rt: _Runtime, items: Sequence) -> Sequence:
    if len(items) == 1:
        item = items[0]
        if isinstance(item, Element):
            return [child for child in item.children
                    if isinstance(child, Text)]
        return []
    result: Sequence = []
    seen: set[int] = set()
    for item in items:
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, Element):
            result.extend(child for child in item.children
                          if isinstance(child, Text))
    return result


def _position_step(rt: _Runtime, items: Sequence) -> Sequence:
    result: Sequence = []
    for item in items:
        if not isinstance(item, Element):
            raise XQueryEvaluationError(
                "position() step requires an element context")
        result.append(item.child_position)
    return result


def _attribute_step(name: str) -> StepClosure:
    def run(rt: _Runtime, items: Sequence) -> Sequence:
        result: Sequence = []
        for item in items:
            if isinstance(item, Element):
                value = item.attributes.get(name)
                if value is not None:
                    result.append(UntypedAtomic(value))
        return result
    return run


def _parent_step(rt: _Runtime, items: Sequence) -> Sequence:
    result: Sequence = []
    seen: set[int] = set()
    for item in items:
        if isinstance(item, (Element, Text)) and item.parent is not None \
                and id(item.parent) not in seen:
            seen.add(id(item.parent))
            result.append(item.parent)
    return result


# ---------------------------------------------------------------------------
# Predicate value indexes
# ---------------------------------------------------------------------------

def _tag_state(documents: "list[Document] | tuple[Document, ...]",
               tags: tuple[str, ...]) -> tuple:
    return tuple(
        (document.uid,
         tuple(document.tag_revision(tag) for tag in tags))
        for document in documents)


class _MergedIndex:
    """Dict-shaped facade over per-document column-store value indexes.

    Serves the planner's probe steps and hash joins with the same
    ``.get(key) → elements`` contract as a built index map, but backed
    by the stores' hook-maintained
    :class:`~repro.relational.columns.PathIndex` buckets — always
    current, never rebuilt per check.
    """

    __slots__ = ("indexes",)

    def __init__(self, indexes: list) -> None:
        self.indexes = indexes

    def get(self, key: tuple, default: Sequence = ()) -> Sequence:
        found: list | None = None
        for index in self.indexes:
            bucket = index.buckets.get(key)
            if bucket:
                if found is None:
                    found = list(bucket.values())
                else:
                    found.extend(bucket.values())
        return default if found is None else found


def _columnar_probe_map(
        tag: str, downpath: tuple[tuple[str, str], ...],
        documents: "list[Document] | tuple[Document, ...]"
) -> "_MergedIndex | None":
    """A store-served index for ``//tag`` keyed by ``downpath``.

    ``None`` when the columnar backend is ablated, any document lacks
    a store, or a store cannot serve (e.g. a crashed rebuild) — the
    caller then builds the index the pre-columnar way.
    """
    if not columnar_enabled():
        return None
    indexes = []
    for document in documents:
        store = document.column_store
        if store is None:
            return None
        try:
            indexes.append(store.value_index(tag, downpath))
        except Exception:
            return None
    return _MergedIndex(indexes)


def _predicate_index(tag: str, downpath: tuple[tuple[str, str], ...],
                     deps: tuple[str, ...],
                     documents: list[Document],
                     rt: _Runtime) -> dict[tuple, list]:
    """Cached index of all ``tag`` elements keyed by downpath values.

    Lives in the engine's bounded :data:`~repro.xquery.engine._INDEX_CACHE`
    next to the hash-join indexes, keyed by the same per-tag revision
    state.
    """
    cache_key = ("predindex", tag, downpath,
                 tuple(d.uid for d in documents),
                 deps, _tag_state(documents, deps))
    cached = engine._INDEX_CACHE.get(cache_key)
    if cached is not None:
        return cached
    index_map: dict[tuple, list] = {}
    for document in documents:
        for element in document.elements_by_tag(tag):
            for value in atomize(_eval_downpath(downpath, element)):
                for key in hash_keys(value):
                    index_map.setdefault(key, []).append(element)
    engine._INDEX_CACHE.put(cache_key, index_map)
    return index_map


# ---------------------------------------------------------------------------
# Compilation: quantifiers
# ---------------------------------------------------------------------------

class _ScanStep:
    __slots__ = ("name", "iterate", "checks", "key")

    def __init__(self, name: str,
                 iterate: Callable[[_Runtime], Iterator],
                 checks: list[TruthClosure], key: tuple) -> None:
        self.name = name
        self.iterate = iterate
        self.checks = checks
        self.key = key

    def items(self, rt: _Runtime) -> Iterator:
        return self.iterate(rt)


class _HashJoinStep:
    __slots__ = ("name", "source", "new_side", "bound_fn", "checks",
                 "key", "columnar_spec")

    def __init__(self, name: str, source: Expression,
                 new_side: Expression, bound_fn: Closure,
                 checks: list[TruthClosure], key: tuple) -> None:
        self.name = name
        self.source = source
        self.new_side = new_side
        self.bound_fn = bound_fn
        self.checks = checks
        self.key = key
        # ``//tag`` source keyed by a downpath of the bound variable:
        # the shape a column-store value index can serve directly
        tag = _simple_descendant_tag(source)
        steps = _var_downpath(new_side, name) if tag is not None \
            else None
        self.columnar_spec = (tag, steps) \
            if tag is not None and steps is not None else None

    def items(self, rt: _Runtime) -> Iterator:
        index_map = rt.cache.get(id(self))
        if index_map is None:
            if self.columnar_spec is not None:
                index_map = _columnar_probe_map(
                    self.columnar_spec[0], self.columnar_spec[1],
                    rt.documents)
            if index_map is None:
                index_map = engine._hash_index(
                    self.name, self.source, self.new_side,
                    rt.context())
            rt.cache[id(self)] = index_map
        seen: set[int] = set()
        for key in probe_keys(self.bound_fn(rt)):
            for item in index_map.get(key, ()):
                if id(item) not in seen:
                    seen.add(id(item))
                    yield item


def _note_backend(rt: _Runtime, index: int, backend: str,
                  reason: str | None) -> None:
    """Record which backend evaluated a quantifier (explain runs)."""
    if rt.backends is not None:
        rt.backends.append((index, backend, reason))


def _compile_quantified_truth(quantified: Quantified,
                              pl: _Plan) -> TruthClosure:
    if quantified.kind == "some":
        return _compile_some(quantified, pl)
    return _compile_every(quantified, pl)


def _compile_some(quantified: Quantified, pl: _Plan) -> TruthClosure:
    order = pl.orders.get(quantified)
    if order is None:  # explain/compile without a precomputed strategy
        order = _choose_order(quantified, pl.stats)
        pl.orders[quantified] = order
    bindings = [quantified.bindings[index] for index in order]
    names = [name for name, _ in bindings]
    name_set = frozenset(name for name, _ in quantified.bindings)
    info = _QuantifierInfo(len(pl.infos), "some", quantified)
    pl.infos.append(info)

    factors = conjuncts(quantified.condition)
    position = {name: index for index, name in enumerate(names)}
    pre_factors: list[Expression] = []
    slots: list[list[Expression]] = [[] for _ in bindings]
    for factor in factors:
        quantifier_vars = free_variables(factor) & name_set
        if not quantifier_vars:
            pre_factors.append(factor)
            continue
        slots[max(position[name] for name in quantifier_vars)].append(
            factor)

    anchors: dict[str, str] = {}
    steps: list = []
    lowspec: list[tuple] = []
    for index, (name, source) in enumerate(bindings):
        estimate, anchor = _estimate_any(source, pl.stats, anchors)
        estimate = _feedback_estimate(quantified, order[index],
                                      estimate)
        if anchor is not None:
            anchors[name] = anchor
        correlated = bool(free_variables(source) & name_set)
        earlier = set(names[:index])
        equality: tuple | None = None
        if not correlated:
            for factor in slots[index]:
                if not (isinstance(factor, BinaryOp)
                        and factor.op == "="):
                    continue
                left_vars = free_variables(factor.left) & name_set
                right_vars = free_variables(factor.right) & name_set
                if left_vars == {name} and right_vars <= earlier:
                    equality = (factor, factor.left, factor.right)
                    break
                if right_vars == {name} and left_vars <= earlier:
                    equality = (factor, factor.right, factor.left)
                    break
        checks = [
            _compile_truth(factor, pl) for factor in slots[index]
            if equality is None or factor is not equality[0]]
        key = (info.index, index)
        if equality is not None:
            step: object = _HashJoinStep(
                name, source, equality[1],
                _compile(equality[2], pl), checks, key)
            kind = "hash join"
        else:
            step = _ScanStep(name, _compile_iter(source, pl), checks,
                             key)
            kind = "correlated scan" if correlated else "scan"
        steps.append(step)
        lowspec.append((name, source, slots[index], equality,
                        correlated))
        info.bindings.append(_BindingInfo(
            name, source, kind, estimate, order[index], key))
    pre_checks = [_compile_truth(factor, pl) for factor in pre_factors]
    depth = len(steps)

    # Lower the same binding order to a vectorized frontier plan; any
    # construct outside the columnar fragment refuses the whole
    # quantifier and the tuple-at-a-time search below stays in charge.
    try:
        from repro.xquery import columnar as _columnar_module
        vector_plan, vector_reason = _columnar_module.lower_some(
            lowspec, name_set, info.index, pl)
    except Exception as error:  # lowering must never break compiling
        _columnar_module = None  # type: ignore[assignment]
        vector_plan, vector_reason = None, f"lowering failed: {error}"
    quantifier_index = info.index

    def truth(rt: _Runtime) -> bool:
        for check in pre_checks:
            if not check(rt):
                return False
        if vector_plan is not None:
            not_ready = vector_plan.ready(rt)
            if not_ready is None:
                try:
                    verdict = vector_plan.run(rt)
                except _columnar_module.Bail as bail:
                    _note_backend(rt, quantifier_index, "planned-DOM",
                                  f"bailed: {bail}")
                else:
                    _note_backend(rt, quantifier_index, "columnar",
                                  None)
                    return verdict
            else:
                _note_backend(rt, quantifier_index, "planned-DOM",
                              not_ready)
        else:
            _note_backend(rt, quantifier_index, "planned-DOM",
                          vector_reason or "not lowered")
        env = rt.env
        profile = rt.profile

        def search(level: int) -> bool:
            if level == depth:
                return True
            step = steps[level]
            name = step.name
            saved = env.get(name, _MISSING)
            counters = None if profile is None \
                else profile.setdefault(step.key, [0, 0])
            try:
                for item in step.items(rt):
                    if counters is not None:
                        counters[0] += 1
                    env[name] = [item]
                    passed = True
                    for check in step.checks:
                        if not check(rt):
                            passed = False
                            break
                    if passed:
                        if counters is not None:
                            counters[1] += 1
                        if search(level + 1):
                            return True
                return False
            finally:
                if saved is _MISSING:
                    env.pop(name, None)
                else:
                    env[name] = saved
        return search(0)
    return truth


def _compile_every(quantified: Quantified, pl: _Plan) -> TruthClosure:
    sources = [(name, _compile_iter(source, pl))
               for name, source in quantified.bindings]
    condition = _compile_truth(quantified.condition, pl)
    depth = len(sources)

    def truth(rt: _Runtime) -> bool:
        env = rt.env

        def check(level: int) -> bool:
            if level == depth:
                return condition(rt)
            name, iterate = sources[level]
            saved = env.get(name, _MISSING)
            try:
                for item in iterate(rt):
                    env[name] = [item]
                    if not check(level + 1):
                        return False
                return True
            finally:
                if saved is _MISSING:
                    env.pop(name, None)
                else:
                    env[name] = saved
        return check(0)
    return truth


# ---------------------------------------------------------------------------
# Plan cache and entry points
# ---------------------------------------------------------------------------

class _PlanEntry:
    __slots__ = ("expression", "documents", "revisions", "strategy",
                 "truth_fn", "infos")

    def __init__(self, expression: Expression,
                 documents: tuple[Document, ...],
                 revisions: tuple[int, ...], strategy: tuple,
                 truth_fn: TruthClosure,
                 infos: list[_QuantifierInfo]) -> None:
        self.expression = expression
        #: weak references only: a cached plan must not keep whole
        #: document trees alive after their owners drop them
        self.documents = tuple(
            weakref.ref(document) for document in documents)
        self.revisions = revisions
        self.strategy = strategy
        self.truth_fn = truth_fn
        self.infos = infos

    def matches(self, documents: tuple[Document, ...]) -> bool:
        """All referents alive and identical to ``documents``.

        A dead referent (or an ``id()`` reused by a new document after
        the original died) dereferences to ``None`` or a different
        object, so the entry fails here and is rebuilt — the weakref
        replaces the strong references that used to pin identity.
        """
        return len(self.documents) == len(documents) and all(
            reference() is document
            for reference, document in zip(self.documents, documents))


_PLAN_LOCK = make_lock("planner.plan_cache")
#: (query, document ids) → _PlanEntry; entries hold only *weak*
#: document references — :meth:`_PlanEntry.matches` detects both dead
#: referents and id-reuse aliasing, so stale entries are rebuilt
#: instead of pinning document trees until LRU eviction
_PLAN_LRU: "OrderedDict[tuple, _PlanEntry]" = \
    OrderedDict()  # guarded-by: _PLAN_LOCK
_PLAN_CAPACITY = 64
#: (query, strategy) → (truth closure, explain infos): compiled
#: closures are document-independent and shared across plan entries
_COMPILED: "OrderedDict[tuple, tuple[TruthClosure, list]]" = \
    OrderedDict()  # guarded-by: _PLAN_LOCK
_COMPILED_CAPACITY = 512


def _compiled_for(expression: Expression, strategy: tuple,
                  stats: Statistics) -> tuple[TruthClosure, list]:
    key = (expression, strategy)
    with _PLAN_LOCK:
        cached = _COMPILED.get(key)
        if cached is not None:
            _COMPILED.move_to_end(key)
            return cached
    pl = _Plan(dict(strategy), stats)
    truth_fn = _compile_truth(expression, pl)
    built = (truth_fn, pl.infos)
    with _PLAN_LOCK:
        _COMPILED[key] = built
        _COMPILED.move_to_end(key)
        while len(_COMPILED) > _COMPILED_CAPACITY:
            _COMPILED.popitem(last=False)
    return built


def _plan_truth(expression: Expression,
                documents: tuple[Document, ...]) -> TruthClosure:
    key = (expression,
           tuple(document.uid for document in documents))
    revisions = tuple(document.revision for document in documents)
    with _PLAN_LOCK:
        entry = _PLAN_LRU.get(key)
        if entry is not None:
            _PLAN_LRU.move_to_end(key)
    if entry is not None and entry.matches(documents):
        if entry.revisions == revisions:
            return entry.truth_fn
        stats = Statistics(documents)
        strategy = _strategy_for(expression, stats)
        if strategy != entry.strategy:
            entry.truth_fn, entry.infos = _compiled_for(
                expression, strategy, stats)
            entry.strategy = strategy
        entry.revisions = revisions
        return entry.truth_fn
    stats = Statistics(documents)
    strategy = _strategy_for(expression, stats)
    truth_fn, infos = _compiled_for(expression, strategy, stats)
    entry = _PlanEntry(expression, documents, revisions, strategy,
                       truth_fn, infos)
    fail.point("planner.plan_cache.insert")
    with _PLAN_LOCK:
        _PLAN_LRU[key] = entry
        _PLAN_LRU.move_to_end(key)
        while len(_PLAN_LRU) > _PLAN_CAPACITY:
            _PLAN_LRU.popitem(last=False)
    return truth_fn


def query_truth_planned(
        query: "Expression | str",
        documents: "list[Document] | tuple[Document, ...] | Document",
        variables: dict[str, Sequence] | None = None) -> bool:
    """Planned, compiled, early-exit truth evaluation of a query.

    The planned counterpart of
    :func:`repro.xquery.engine.query_truth`; verdicts are identical by
    construction (and by the differential suite).
    """
    if isinstance(query, str):
        from repro.xquery.parser import parse_query
        query = parse_query(query)
    if isinstance(documents, Document):
        documents = (documents,)
    else:
        documents = tuple(documents)
    truth_fn = _plan_truth(query, documents)
    rt = _Runtime(documents, dict(variables) if variables else {})
    try:
        return truth_fn(rt)
    except XQueryEvaluationError:
        # Pre-factor hoisting and conjunct reordering can evaluate a
        # factor the engine's fixed nesting order never reaches (empty
        # source, earlier short-circuit).  If that factor raises —
        # division by zero, unknown function — the engine's evaluation
        # order decides whether the error is real, so defer to it.
        from repro.xquery.engine import query_truth
        return query_truth(query, list(documents), variables)


def clear_caches() -> None:
    """Drop every cached plan and compiled closure (tests, benchmarks),
    plus the explain-fed cardinality feedback."""
    with _PLAN_LOCK:
        _PLAN_LRU.clear()
        _COMPILED.clear()
    with _PRIORS_LOCK:
        _FEEDBACK.clear()


# ---------------------------------------------------------------------------
# Explain
# ---------------------------------------------------------------------------

def explain_query(
        query: "Expression | str",
        documents: "list[Document] | Document",
        variables: dict[str, Sequence] | None = None) -> str:
    """Human-readable plan with estimated vs. actual cardinalities.

    Compiles the query fresh against current statistics, runs it once
    in profile mode, and renders each quantifier's chosen binding
    order.  "actual" counts reflect early-exit evaluation: a binding
    that never ran because an earlier one found no candidates (or a
    witness short-circuited the search) reports what it examined, not
    the full cardinality.
    """
    if isinstance(query, str):
        from repro.xquery.parser import parse_query
        query = parse_query(query)
    if isinstance(documents, Document):
        documents = [documents]
    docs = tuple(documents)
    stats = Statistics(docs)
    pl = _Plan(dict(_strategy_for(query, stats)), stats)
    truth_fn = _compile_truth(query, pl)
    rt = _Runtime(docs, dict(variables) if variables else {})
    rt.profile = {}
    rt.backends = []
    fallback_reason: str | None = None
    drifted = False
    try:
        verdict = truth_fn(rt)
    except XQueryEvaluationError as error:
        from repro.xquery.engine import query_truth
        verdict = query_truth(query, list(docs), variables)
        fallback_reason = str(error)
    lines: list[str] = []
    column_bits: list[str] = []
    for document in docs:
        store = document.column_store
        tables = getattr(store, "_tables", None) if store is not None \
            else None
        if tables:
            column_bits.extend(
                f"{document.root.tag}/{tag}={len(tables[tag])}"
                for tag in sorted(tables))
    if column_bits:
        lines.append("columns: " + "  ".join(column_bits))
    for info in pl.infos:
        lines.append(f"{info.kind} quantifier "
                     f"#{info.index + 1}: {render(info.expression)}")
        backend: tuple[str, str | None] | None = None
        for noted_index, noted_backend, noted_reason in rt.backends:
            if noted_index == info.index:
                backend = (noted_backend, noted_reason)
        if backend is None:
            lines.append("  backend: not evaluated")
        elif backend[1] is None:
            lines.append(f"  backend: {backend[0]}")
        else:
            lines.append(f"  backend: {backend[0]} ({backend[1]})")
        for rank, binding in enumerate(info.bindings, start=1):
            counters = rt.profile.get(binding.key, [0, 0])
            moved = "" if binding.original_index == rank - 1 \
                else f"  (was #{binding.original_index + 1})"
            lines.append(
                f"  {rank}. ${binding.name} in "
                f"{render(binding.source)}  [{binding.kind}]"
                f"  est~{binding.estimate:g}"
                f"  examined={counters[0]}  passed={counters[1]}"
                f"{moved}")
            examined = counters[0]
            if examined >= _REPLAN_MIN_EXAMINED \
                    and examined > max(binding.estimate, 1.0) \
                    * REPLAN_DRIFT_THRESHOLD:
                ratio = examined / max(binding.estimate, 1.0)
                note_drift(info.expression, binding.original_index,
                           examined)
                drifted = True
                lines.append(
                    f"     replan: ${binding.name} drift "
                    f"{ratio:.1f}x (est~{binding.estimate:g}, "
                    f"examined {examined}) — observed cardinality "
                    "fed back, cached plan invalidated")
    if drifted:
        # a same-revision cached plan would otherwise keep the stale
        # order forever: evict it so the next evaluation re-plans
        # with the fed-back cardinalities
        with _PLAN_LOCK:
            for key in [cached for cached in _PLAN_LRU
                        if cached[0] == query]:
                del _PLAN_LRU[key]
    if fallback_reason is not None:
        lines.append(
            f"backend: unplanned fallback ({fallback_reason})")
    lines.append(f"verdict: {'true' if verdict else 'false'}")
    return "\n".join(lines)


def render(expression: Expression) -> str:
    """Compact, best-effort text rendering of an AST (for explain)."""
    if isinstance(expression, Literal):
        value = expression.value
        if isinstance(value, bool):
            return "true()" if value else "false()"
        if isinstance(value, str):
            return f'"{value}"'
        return str(value)
    if isinstance(expression, TextLiteral):
        return f'"{expression.value}"'
    if isinstance(expression, VarRef):
        return f"${expression.name}"
    if isinstance(expression, ContextItem):
        return "."
    if isinstance(expression, SequenceExpr):
        return "(" + ", ".join(render(i) for i in expression.items) + ")"
    if isinstance(expression, PathExpr):
        parts: list[str] = []
        if expression.start is None:
            prefix = ""
        elif isinstance(expression.start, ContextItem):
            prefix = "."
        else:
            prefix = render(expression.start)
        for step, descendant in zip(expression.steps,
                                    expression.descendant_flags):
            sep = "//" if descendant else "/"
            if step.axis == "attribute":
                text = "@" + step.nodetest
            elif step.axis == "parent":
                text = ".."
            elif step.axis == "self":
                text = "."
            else:
                text = step.nodetest
            preds = "".join(f"[{render(p)}]" for p in step.predicates)
            parts.append(sep + text + preds)
        rendered = prefix + "".join(parts)
        return rendered[2:] if rendered.startswith("./") else rendered
    if isinstance(expression, BinaryOp):
        return (f"{render(expression.left)} {expression.op} "
                f"{render(expression.right)}")
    if isinstance(expression, UnaryOp):
        return f"{expression.op}{render(expression.operand)}"
    if isinstance(expression, FunctionCall):
        return (expression.name + "("
                + ", ".join(render(a) for a in expression.args) + ")")
    if isinstance(expression, Quantified):
        bindings = ", ".join(
            f"${name} in {render(source)}"
            for name, source in expression.bindings)
        return (f"{expression.kind} {bindings} satisfies "
                f"{render(expression.condition)}")
    if isinstance(expression, IfExpr):
        return (f"if ({render(expression.condition)}) then "
                f"{render(expression.then_branch)} else "
                f"{render(expression.else_branch)}")
    return repr(expression)
