"""Run-time checking strategies.

Three checkers share one interface (``try_execute`` / ``execute``):

* :class:`IntegrityGuard` — the paper's optimized strategy: match the
  update against a registered pattern, instantiate the pre-compiled
  simplified XQuery checks with the update's parameters, evaluate them
  on the *present* documents, and only then apply the update.  Illegal
  updates are never executed (early detection).  Updates that match no
  pattern fall back to the brute-force path, as footnote 4 prescribes.
* :class:`BruteForceChecker` — the un-optimized baseline: apply the
  update, evaluate the full constraints on the updated documents, and
  roll back (compensating action) when a violation appears.
* :class:`DatalogChecker` — evaluates the same (full or simplified)
  denials directly on a shredded fact database; the differential oracle
  for the XQuery engine and the subject of the engine ablation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.analysis.concurrency import make_lock
from repro.core.schema import ConstraintSchema, PatternChecks
from repro.datalog.database import FactDatabase
from repro.datalog.denial import Denial
from repro.datalog.evaluate import denial_holds
from repro.datalog.subst import ParameterBinding
from repro.datalog.terms import Constant, Parameter
from repro.errors import (
    AmbiguousSelectError,
    IntegrityViolationError,
    SchemaError,
    SimplificationError,
    UpdateApplicationError,
)
from repro.relational import incremental
from repro.relational.shredder import shred, subtree_facts
from repro.testing.failpoints import fail
from repro.xquery import planner
from repro.xtree.node import Document, Element
from repro.xupdate.analyze import signature_of
from repro.xupdate.apply import TransactionLog
from repro.xupdate.parser import (
    InsertOperation,
    Operation,
    RemoveOperation,
    parse_modifications,
)


#: parsed-update cache: workloads resubmit structurally identical
#: update documents (benchmark batches, retry loops), and parsing is a
#: fixed per-submission cost.  Caching is safe because operations are
#: frozen dataclasses and the apply path deep-copies inserted content.
_UPDATE_CACHE: "OrderedDict[str, list[Operation]]" = \
    OrderedDict()  # guarded-by: _UPDATE_CACHE_LOCK
_UPDATE_CACHE_LOCK = make_lock("core.update_cache")
_UPDATE_CACHE_CAPACITY = 256


def _parse_update_cached(update: str) -> list[Operation]:
    with _UPDATE_CACHE_LOCK:
        operations = _UPDATE_CACHE.get(update)
        if operations is not None:
            _UPDATE_CACHE.move_to_end(update)
            return list(operations)
    operations = parse_modifications(update)
    with _UPDATE_CACHE_LOCK:
        _UPDATE_CACHE[update] = operations
        _UPDATE_CACHE.move_to_end(update)
        while len(_UPDATE_CACHE) > _UPDATE_CACHE_CAPACITY:
            _UPDATE_CACHE.popitem(last=False)
    return list(operations)


@dataclass
class UpdateDecision:
    """Outcome of submitting an update to a checker."""

    legal: bool
    violated: list[str] = field(default_factory=list)
    #: True when the optimized (pre-update) strategy decided the outcome
    optimized: bool = True
    #: True when the update is now applied to the documents
    applied: bool = False
    #: True when an illegal update was applied and rolled back
    rolled_back: bool = False


def verify_documents(schema: ConstraintSchema,
                     documents: list[Document]) -> list[str]:
    """Names of ``schema``'s constraints violated in ``documents``.

    The full (non-incremental) check every checker exposes as
    ``verify_consistency``, as a free function so it can run against
    *any* consistent document set — the live trees under the store
    lock, or a pinned immutable snapshot with no lock at all.
    Constraints flagged *dead* by the compile-time satisfiability pass
    are skipped (DTD-valid documents cannot violate them).
    """
    violated = []
    for constraint in schema.constraints:
        if constraint.dead:
            continue
        for query in constraint.full_queries:
            if query.parameters:
                raise SimplificationError(
                    "full constraint checks cannot have parameters")
            if query.truth(documents):
                violated.append(constraint.name)
                break
    return violated


class _CheckerBase:
    def __init__(self, schema: ConstraintSchema,
                 documents: list[Document]) -> None:
        self.schema = schema
        self.documents = list(documents)
        #: root tag → document; selects start at the root element, so
        #: this resolves the owning document without probing
        self._documents_by_root: dict[str, Document] = {}
        for document in self.documents:
            tag = document.root.tag
            if tag in self._documents_by_root:
                raise SchemaError(
                    f"two documents share the root tag {tag!r}; selects "
                    "could not be routed to a single document")
            self._documents_by_root[tag] = document
        self._listeners: list = []
        self._pre_commit = None
        self._pre_commit_abort = None
        # seed the check planner's cold-document estimates with the
        # schema's DTD cardinality bounds
        planner.install_priors(schema.cardinality_priors())
        # attach incrementally-maintained column stores so planned
        # checks can lower to the columnar backend
        for document in self.documents:
            incremental.attach(document, schema.relational)

    def subscribe(self, listener) -> None:
        """Register ``listener(update, decision)``, called after every
        :meth:`try_execute` — the hook for trigger-style maintenance
        (the paper's future-work direction): audit logs, materialized
        views, notifications on rejections."""
        self._listeners.append(listener)

    def _notify(self, update: "str | Operation",
                decision: UpdateDecision) -> UpdateDecision:
        for listener in self._listeners:
            listener(update, decision)
        return decision

    def set_pre_commit(self, hook, abort=None) -> None:
        """Register ``hook(update, decision)``, run for every *applied*
        update after it is checked and applied into its transaction log
        but before listeners run and the log commits.

        This is the write-ahead seam: the durable service appends the
        update to its commit log here, so an update a listener observes
        as accepted is already on stable storage (log-then-apply).  An
        exception from the hook aborts the update — the transaction log
        rolls the in-memory application back and the exception
        propagates to the submitter.  ``abort(update)``, when given, is
        called if anything fails *after* the hook ran for an update
        (the hook itself included), so the hook's external effects can
        be reconciled with the rollback.
        """
        self._pre_commit = hook
        self._pre_commit_abort = abort

    def _commit_sequence(self, update: "str | Operation",
                         decision: UpdateDecision,
                         log: TransactionLog) -> UpdateDecision:
        """Pre-commit hook → listeners → log commit, for one decided
        update.  The ordering is load-bearing (see
        :meth:`set_pre_commit`); on failure past the hook the abort
        callback runs before the exception unwinds into the
        transaction-log scope, which performs the in-memory rollback.
        """
        entered = False
        try:
            if decision.applied and self._pre_commit is not None:
                entered = True
                self._pre_commit(update, decision)
            decision = self._notify(update, decision)
            if decision.applied:
                log.commit()
            return decision
        except BaseException:
            if entered and self._pre_commit_abort is not None:
                self._pre_commit_abort(update)
            raise

    def _document_for(self, operation: Operation) -> Document:
        """The document a select path resolves in.

        The select's first step names the document root; the collection
        holds one document per root type.
        """
        select = operation.select
        first = select.lstrip("/").split("/")[0].split("[")[0]
        document = self._documents_by_root.get(first)
        if document is not None:
            return document
        # descendant-anchored selects: try them all
        for document in self.documents:
            try:
                from repro.xupdate.apply import resolve_select
                resolve_select(document, select)
                return document
            except AmbiguousSelectError:
                # the select *does* resolve here, just not uniquely;
                # trying further documents would mask the real problem
                raise
            except UpdateApplicationError:
                continue
        raise UpdateApplicationError(
            f"select {select!r} resolves in none of the documents")

    def _apply(self, log: TransactionLog, operation: Operation) -> None:
        """Resolve the target document and apply ``operation`` into
        ``log``."""
        log.apply(self._document_for(operation), operation)

    def verify_consistency(self) -> list[str]:
        """Names of constraints currently violated (full check).

        Constraints flagged *dead* by the compile-time satisfiability
        pass (no DTD-valid document can violate them, ``XIC105``/
        ``XIC106``) are skipped: the documents are DTD-valid by
        contract, so evaluating those checks is pure waste.
        """
        return verify_documents(self.schema, self.documents)

    def execute(self, update: "str | Operation") -> UpdateDecision:
        """Like :meth:`try_execute` but raises on violation."""
        decision = self.try_execute(update)
        if not decision.legal:
            raise IntegrityViolationError(decision.violated)
        return decision

    def try_execute(self, update: "str | Operation") -> UpdateDecision:
        raise NotImplementedError

    def check_batch(
            self,
            updates: "list[str | Operation]") -> list[UpdateDecision]:
        """Check and apply a sequence of updates, one decision each.

        Semantically identical to calling :meth:`try_execute` in a
        loop — update *k* is checked against the state left by updates
        1..k−1, and an illegal update is rejected without affecting the
        rest.
        """
        return [self.try_execute(update) for update in updates]

    @staticmethod
    def _operations(update: "str | Operation") -> list[Operation]:
        if isinstance(update, str):
            return _parse_update_cached(update)
        return [update]


class BruteForceChecker(_CheckerBase):
    """Apply, check the full constraints, roll back on violation.

    The apply-check sequence runs inside a :class:`TransactionLog`:
    any exception mid-sequence — a later operation's select resolving
    nowhere, a failure inside the consistency check or a listener —
    rolls back every operation already applied, so a failed call never
    leaves the documents partially mutated.
    """

    def try_execute(self, update: "str | Operation") -> UpdateDecision:
        operations = self._operations(update)
        with TransactionLog() as log:
            for operation in operations:
                self._apply(log, operation)
            violated = self.verify_consistency()
            if violated:
                log.rollback()
                return self._notify(update, UpdateDecision(
                    False, violated, optimized=False, applied=False,
                    rolled_back=True))
            decision = self._commit_sequence(
                update,
                UpdateDecision(True, optimized=False, applied=True),
                log)
        return decision

    def check_only(self) -> list[str]:
        """Run the full checks without touching the documents."""
        return self.verify_consistency()


class IntegrityGuard(_CheckerBase):
    """Pre-update checking with the compiled optimized constraints.

    Every apply sequence — the per-operation path, the deferred
    transaction path and the brute-force probes — runs inside a
    :class:`TransactionLog`, so an exception at any point (failed
    select, ambiguous select, violation mid-probe, a raising listener)
    restores the exact pre-call state.
    """

    def try_execute(self, update: "str | Operation") -> UpdateDecision:
        operations = self._operations(update)
        with TransactionLog() as log:
            decision = self._decide(operations, log)
            decision = self._commit_sequence(update, decision, log)
        return decision

    #: the plain sequential loop, bound here so the method has an
    #: entry of its own that tracing and profiling tools can wrap
    check_batch = _CheckerBase.check_batch

    def _decide(self, operations: list[Operation],
                log: TransactionLog) -> UpdateDecision:
        """Check and (when legal) apply, recording undo records in
        ``log``.  The caller owns commit/rollback."""
        if len(operations) > 1:
            transaction = self._try_transaction(operations, log)
            if transaction is not None:
                return transaction
        decision = UpdateDecision(True, optimized=True)
        for operation in operations:
            step = self._check_one(operation)
            if not step.legal:
                step.applied = False
                step.rolled_back = bool(len(log))
                if len(log):
                    log.rollback()
                return step
            decision.optimized = decision.optimized and step.optimized
            fail.point("core.guard.post_check")
            self._apply(log, operation)
        decision.applied = True
        return decision

    def _try_transaction(self, operations: list[Operation],
                         log: TransactionLog) -> UpdateDecision | None:
        """Deferred checking for a registered multi-append transaction.

        The whole operation set is checked *once* against the
        pre-transaction state (definition 2's transaction semantics:
        constraints need not hold between the operations); ``None``
        means no transaction pattern matches and the caller falls back
        to per-operation checking.  A legal transaction is applied into
        ``log``, so a failure on the k-th apply rolls back the first
        k−1 instead of leaving them committed.
        """
        from repro.xupdate.parser import InsertOperation as _Insert
        if not all(isinstance(op, _Insert) and op.kind == "append"
                   for op in operations):
            return None
        try:
            signatures = tuple(
                signature_of(operation, self.schema.relational)
                for operation in operations)
        except SimplificationError:
            return None
        checks = self.schema.checks_for_transaction(signatures)
        if checks is None:
            return None
        bindings = checks.analyzed.bind(
            self.documents, operations,  # type: ignore[arg-type]
            self._document_for)
        violated: list[str] = []
        for check in checks.optimized:
            if check.trivial:
                continue
            for query in check.queries:
                if query.truth(self.documents, bindings):
                    violated.append(check.constraint.name)
                    break
        if checks.fallback:
            probe = self._transaction_probe(
                operations, [c.name for c in checks.fallback])
            violated.extend(probe)
        if violated:
            return UpdateDecision(False, violated, optimized=True)
        fail.point("core.guard.post_check")
        for operation in operations:
            self._apply(log, operation)
        return UpdateDecision(True, optimized=True, applied=True)

    def _transaction_probe(self, operations: list[Operation],
                           only: list[str]) -> list[str]:
        """Apply all, check the given constraints, roll everything back."""
        with TransactionLog() as probe:
            for operation in operations:
                self._apply(probe, operation)
            fail.point("core.guard.probe.mid")
            return [name for name in self.verify_consistency()
                    if name in only]

    def _check_one(self, operation: Operation) -> UpdateDecision:
        if isinstance(operation, RemoveOperation):
            return self._check_removal(operation)
        checks = self._checks_for(operation)
        if checks is None:
            return self._brute_force_probe(operation)
        assert isinstance(operation, InsertOperation)
        document = self._document_for(operation)
        bindings = checks.analyzed.bind(document, operation)
        violated: list[str] = []
        for check in checks.optimized:
            if check.trivial:
                continue
            for query in check.queries:
                if query.truth(self.documents, bindings):
                    violated.append(check.constraint.name)
                    break
        if checks.fallback:
            probe = self._brute_force_probe(
                operation, [c.name for c in checks.fallback])
            violated.extend(probe.violated)
            if not probe.optimized:
                return UpdateDecision(not violated, violated,
                                      optimized=False)
        return UpdateDecision(not violated, violated, optimized=True)

    def _check_removal(self, operation: RemoveOperation) -> UpdateDecision:
        """Deletions against monotone constraints need no check at all.

        Removing tuples cannot create a new satisfying binding for a
        positive denial body with upward-monotone aggregates (see
        repro.simplify.deletion); constraints outside that fragment are
        verified by the brute-force probe.  Safety per constraint is
        decided once, at schema-compile time.
        """
        unsafe = self.schema.deletion_unsafe_constraints()
        if not unsafe:
            return UpdateDecision(True, optimized=True)
        return self._brute_force_probe(operation, only=unsafe)

    def _checks_for(self, operation: Operation) -> PatternChecks | None:
        try:
            signature = signature_of(operation, self.schema.relational)
        except SimplificationError:
            return None
        return self.schema.checks_for(signature)

    def _brute_force_probe(self, operation: Operation,
                           only: list[str] | None = None) -> UpdateDecision:
        """Apply-check-rollback for unrecognized updates (footnote 4).

        The update is applied, the (full) constraints are checked, and
        the update is always rolled back — the caller re-applies it if
        the probe reports legality, keeping a single application path.
        """
        with TransactionLog() as probe:
            self._apply(probe, operation)
            fail.point("core.guard.probe.mid")
            violated = [
                name for name in self.verify_consistency()
                if only is None or name in only
            ]
        return UpdateDecision(not violated, violated, optimized=False)


class DatalogChecker:
    """Direct Datalog evaluation over the shredded fact database."""

    def __init__(self, schema: ConstraintSchema,
                 documents: list[Document]) -> None:
        self.schema = schema
        self.documents = list(documents)
        self.database = FactDatabase()
        for document in documents:
            shred(document, schema.relational, self.database)

    def violated_constraints(self) -> list[str]:
        """Names of constraints violated in the mirrored database."""
        violated = []
        for constraint in self.schema.constraints:
            if constraint.dead:
                continue  # unsatisfiable over DTD-valid documents
            if any(not denial_holds(denial, self.database)
                   for denial in constraint.denials):
                violated.append(constraint.name)
        return violated

    def violation_witnesses(
            self,
            limit_per_constraint: int = 10) -> dict[str, list[dict]]:
        """Violating bindings per constraint, for error reporting.

        Each witness maps the denial's named variables to the values
        that satisfy its body — e.g. the reviewer name and the ids of
        the conflicting nodes.  Anonymous variables are omitted.
        """
        from repro.datalog.evaluate import denial_violations
        from repro.datalog.terms import is_anonymous

        witnesses: dict[str, list[dict]] = {}
        for constraint in self.schema.constraints:
            found: list[dict] = []
            for denial in constraint.denials:
                for substitution in denial_violations(
                        denial, self.database,
                        limit=limit_per_constraint - len(found)):
                    found.append({
                        variable.name: term.value
                        for variable, term in substitution.items()
                        if not is_anonymous(variable)
                        and "#" not in variable.name
                    })
                if len(found) >= limit_per_constraint:
                    break
            if found:
                witnesses[constraint.name] = found
        return witnesses

    def check_denials(self, denials: list[Denial],
                      bindings: dict[str, object]) -> bool:
        """Evaluate simplified denials with instantiated parameters.

        Returns True when some denial is violated.  Node bindings are
        mapped to their node identifiers.
        """
        mapping: dict[Parameter, Constant] = {}
        for name, value in bindings.items():
            if isinstance(value, Element):
                mapping[Parameter(name)] = Constant(value.node_id)
            else:
                mapping[Parameter(name)] = Constant(value)  # type: ignore
        binder = ParameterBinding(mapping)
        for denial in denials:
            instantiated = Denial(tuple(
                binder.apply_literal(literal) for literal in denial.body))
            if not denial_holds(instantiated, self.database):
                return True
        return False

    def mirror_insert(self, inserted_root: Element) -> list:
        """Add the facts of a freshly inserted subtree."""
        facts = subtree_facts(inserted_root, self.schema.relational)
        for predicate, row in facts:
            self.database.add(predicate, row)
        return facts

    def mirror_remove(self, facts: list) -> None:
        for predicate, row in facts:
            self.database.remove(predicate, row)
