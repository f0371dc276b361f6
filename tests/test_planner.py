"""Cost-based check planner: correctness, statistics, and batching.

The contract under test is *verdict equivalence*: every planned,
streamed or batched evaluation returns exactly the verdict of the
unplanned engine — on the running example, on generated corpora, and
on hypothesis-generated documents and updates.  The planner may only
ever change how fast an answer arrives, never the answer.
"""

from __future__ import annotations

import gc
import random
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.guard import IntegrityGuard
from repro.datagen import CorpusSpec, generate_corpus
from repro.datagen.running_example import make_schema, submission_xupdate
from repro.datagen.workload import legal_submission
from repro.service.store import CheckingService
from repro.xquery import parse_query
from repro.xquery.engine import query_truth
from repro.xquery.planner import (
    Statistics,
    clear_caches,
    explain_query,
    query_truth_planned,
    unplanned,
)
from repro.xtree.node import Document, Element, Text
from repro.xtree.serializer import serialize
from repro.xupdate.apply import apply_operation
from repro.xupdate.parser import parse_modifications

SCHEMA = make_schema()

QUERIES = [
    # the running example's conflict check (full form)
    "some $Ir in //rev, $R in $Ir/name/text(), $Is in $Ir/sub, "
    "$Ia in $Is/auts satisfies $R = $Ia/name/text()",
    # the workload check: aggregates over predicated descendant steps
    "some $R in distinct-values(//track/rev/name/text()) satisfies "
    "count(//track[rev[name/text() = $R]]) >= 3 and "
    "count(//rev[name/text() = $R]/sub) > 10",
    # hash-joinable co-author form
    "some $Ir in //rev, $R in $Ir/name/text(), $Ia2 in //aut "
    "satisfies $R = $Ia2/name/text()",
    "every $p in //pub satisfies exists($p/aut)",
    "every $r in //rev satisfies count($r/sub) >= 1",
    "count(//pub) >= 2",
    "exists(//rev[name/text() = 'Alice'])",
    "//track[name/text() = 'Theory']/rev/name/text() = 'Alice'",
    "some $x in //aut satisfies $x/name/text() = //rev/name/text()",
    "empty(//nosuch)",
    "not(exists(//track[name/text() = 'Chemistry']))",
    "some $t in //track, $r in $t/rev satisfies "
    "$t/name/text() = 'Theory' and $r/name/text() = 'Alice'",
    "//pub[aut[name/text() = 'Carol']]/title/text() = 'Mouseton stories'",
    "some $s in //sub satisfies count($s/auts) > 1",
]


def _text_el(tag, value):
    element = Element(tag)
    element.append(Text(value))
    return element


@st.composite
def random_corpora(draw):
    names = ["Ann", "Bob", "Cid"]
    review = Element("review")
    for track_index in range(draw(st.integers(1, 2))):
        track = Element("track")
        track.append(_text_el("name", f"T{track_index}"))
        for _ in range(draw(st.integers(1, 2))):
            rev = Element("rev")
            rev.append(_text_el("name", draw(st.sampled_from(names))))
            for _ in range(draw(st.integers(1, 3))):
                sub = Element("sub")
                sub.append(_text_el("title", "S"))
                for _ in range(draw(st.integers(1, 2))):
                    auts = Element("auts")
                    auts.append(_text_el(
                        "name", draw(st.sampled_from(names))))
                    sub.append(auts)
                rev.append(sub)
            track.append(rev)
        review.append(track)
    dblp = Element("dblp")
    for _ in range(draw(st.integers(0, 3))):
        pub = Element("pub")
        pub.append(_text_el("title", "P"))
        for _ in range(draw(st.integers(1, 2))):
            aut = Element("aut")
            aut.append(_text_el("name", draw(st.sampled_from(names))))
            pub.append(aut)
        dblp.append(pub)
    return Document(dblp), Document(review)


class TestDifferentialQueries:
    @pytest.mark.parametrize("query", QUERIES)
    def test_fixed_queries_agree(self, query, documents):
        expression = parse_query(query)
        assert query_truth_planned(expression, documents) \
            == query_truth(expression, documents)

    @pytest.mark.parametrize("query", QUERIES)
    def test_generated_corpus_agrees(self, query, small_corpus):
        documents = list(small_corpus)
        expression = parse_query(query)
        assert query_truth_planned(expression, documents) \
            == query_truth(expression, documents)

    @given(random_corpora())
    @settings(max_examples=40)
    def test_hypothesis_corpora_agree(self, corpus):
        documents = list(corpus)
        for query in QUERIES:
            expression = parse_query(query)
            assert query_truth_planned(expression, documents) \
                == query_truth(expression, documents), query

    @given(random_corpora())
    @settings(max_examples=25)
    def test_full_constraint_checks_agree(self, corpus):
        documents = list(corpus)
        for constraint in SCHEMA.constraints:
            for query in constraint.full_queries:
                planned = query_truth_planned(
                    query.prepared, documents)
                assert planned == query_truth(
                    query.prepared, documents), constraint.name


def _decision_key(decision):
    return (decision.legal, decision.applied, decision.rolled_back,
            tuple(decision.violated))


def _fresh_documents():
    spec = CorpusSpec(tracks=3, revs_per_track=4, subs_per_rev=3,
                      pubs=20, busy_reviewers=1, seed=42)
    return list(generate_corpus(spec))


def _update_mix(rev_doc, seed):
    rng = random.Random(seed)
    updates = [legal_submission(rev_doc, rng) for _ in range(6)]
    # same-pattern updates with a mix of legal and conflicting authors
    updates.append(submission_xupdate(1, 1, "Sneaky", "Bob"))
    updates.append(submission_xupdate(2, 1, "Fine", "Nobody Known"))
    rng.shuffle(updates)
    return updates


def _multi_submission(parts):
    """One modification document appending several submissions."""
    blocks = []
    for track, rev, title, author in parts:
        select = f"/review/track[{track}]/rev[{rev}]"
        blocks.append(
            f'  <xupdate:append select="{select}">\n'
            f'    <xupdate:element name="sub">\n'
            f'      <title>{title}</title>\n'
            f'      <auts><name>{author}</name></auts>\n'
            f'    </xupdate:element>\n'
            f'  </xupdate:append>')
    return ('<?xml version="1.0"?>\n'
            '<xupdate:modifications version="1.0"\n'
            '    xmlns:xupdate="http://www.xmldb.org/xupdate">\n'
            + "\n".join(blocks)
            + '\n</xupdate:modifications>')


class TestDifferentialUpdates:
    def test_guard_decisions_match_unplanned(self):
        planned_docs = _fresh_documents()
        planned = [
            IntegrityGuard(SCHEMA, planned_docs).try_execute(update)
            for update in _update_mix(planned_docs[1], 11)]
        with unplanned():
            baseline_docs = _fresh_documents()
            baseline = [
                IntegrityGuard(SCHEMA, baseline_docs).try_execute(update)
                for update in _update_mix(baseline_docs[1], 11)]
        assert [_decision_key(d) for d in planned] \
            == [_decision_key(d) for d in baseline]
        assert [serialize(d) for d in planned_docs] \
            == [serialize(d) for d in baseline_docs]

    def test_check_batch_matches_sequential(self):
        batch_docs = _fresh_documents()
        batched = IntegrityGuard(SCHEMA, batch_docs).check_batch(
            _update_mix(batch_docs[1], 23))
        sequential_docs = _fresh_documents()
        guard = IntegrityGuard(SCHEMA, sequential_docs)
        sequential = [guard.try_execute(update)
                      for update in _update_mix(sequential_docs[1], 23)]
        assert [_decision_key(d) for d in batched] \
            == [_decision_key(d) for d in sequential]
        assert [serialize(d) for d in batch_docs] \
            == [serialize(d) for d in sequential_docs]

    @given(st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_check_batch_matches_sequential_random(self, seed):
        batch_docs = _fresh_documents()
        batched = IntegrityGuard(SCHEMA, batch_docs).check_batch(
            _update_mix(batch_docs[1], seed))
        with unplanned():
            baseline_docs = _fresh_documents()
            guard = IntegrityGuard(SCHEMA, baseline_docs)
            baseline = [
                guard.try_execute(update)
                for update in _update_mix(baseline_docs[1], seed)]
        assert [_decision_key(d) for d in batched] \
            == [_decision_key(d) for d in baseline]
        assert [serialize(d) for d in batch_docs] \
            == [serialize(d) for d in baseline_docs]

    def test_check_batch_multi_operation_updates_match_sequential(self):
        # multi-operation updates check operation k after operations
        # 1..k-1 of the same update applied, so mid-batch index
        # rebuilds happen against a partially applied state
        def updates():
            return [
                _multi_submission([(1, 2, "A", "Nobody A"),
                                   (2, 1, "B", "Nobody B")]),
                submission_xupdate(1, 1, "Sneaky", "Bob"),
                _multi_submission([(1, 3, "C", "Nobody C"),
                                   (1, 1, "Own", "Bob")]),
                _multi_submission([(3, 1, "D", "Nobody D"),
                                   (3, 2, "E", "Nobody E")]),
                submission_xupdate(2, 2, "F", "Nobody F"),
                _multi_submission([(2, 1, "G", "Nobody G"),
                                   (2, 3, "H", "Nobody H")]),
            ]
        batch_docs = _fresh_documents()
        batched = IntegrityGuard(SCHEMA, batch_docs).check_batch(
            updates())
        with unplanned():
            baseline_docs = _fresh_documents()
            guard = IntegrityGuard(SCHEMA, baseline_docs)
            baseline = [guard.try_execute(update)
                        for update in updates()]
        assert [_decision_key(d) for d in batched] \
            == [_decision_key(d) for d in baseline]
        assert [serialize(d) for d in batch_docs] \
            == [serialize(d) for d in baseline_docs]

    def test_service_check_batch_commit_log(self):
        documents = _fresh_documents()
        service = CheckingService(SCHEMA, documents)
        decisions = service.check_batch(_update_mix(documents[1], 5))
        committed = service.committed_updates()
        assert len(committed) == sum(1 for d in decisions if d.applied)
        assert [c.sequence for c in committed] \
            == list(range(len(committed)))


class TestStatistics:
    def test_tag_counts_track_mutations(self, rev_doc):
        before = rev_doc.tag_count("rev")
        operation = parse_modifications(
            submission_xupdate(1, 1, "New", "Someone"))[0]
        apply_operation(rev_doc, operation)
        assert rev_doc.tag_count("sub") \
            == len(list(rev_doc.iter_elements("sub")))
        assert rev_doc.tag_count("rev") == before

    def test_distinct_count_invalidates_per_revision(self, rev_doc):
        first = rev_doc.tag_distinct_count("name")
        values = {element.text()
                  for element in rev_doc.iter_elements("name")}
        assert first == len(values)
        operation = parse_modifications(
            submission_xupdate(1, 1, "T", "Completely New Author"))[0]
        apply_operation(rev_doc, operation)
        assert rev_doc.tag_distinct_count("name") == first + 1

    def test_priors_used_for_empty_documents(self):
        empty = Document(Element("review"))
        stats = Statistics((empty,), priors={"rev": 12.0})
        assert stats.count("rev") == 12.0
        assert stats.count("sub") == 0.0

    def test_live_counts_beat_priors(self, rev_doc):
        stats = Statistics((rev_doc,), priors={"rev": 1000.0})
        assert stats.count("rev") \
            == len(list(rev_doc.iter_elements("rev")))

    def test_schema_priors_reflect_dtd_shape(self):
        priors = SCHEMA.cardinality_priors()
        assert priors.get("review") == 1.0
        # tracks contain revs contain subs: expected counts grow down
        # the containment chain
        assert priors["sub"] > priors["rev"] > 0


class TestStatisticsRace:
    """Satellite: a statistics refresh must not race a writer.

    Reader threads hammer the per-tag statistics (counts, distinct
    counts, snapshots) while a writer applies real updates through the
    tag index.  Every read must observe an internally consistent
    bucket — no exceptions, no impossible values.
    """

    def test_stats_reads_race_concurrent_writer(self):
        documents = _fresh_documents()
        rev_doc = documents[1]
        rng = random.Random(3)
        operations = [
            parse_modifications(legal_submission(rev_doc, rng))[0]
            for _ in range(40)]
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    assert rev_doc.tag_count("name") > 0
                    assert rev_doc.tag_distinct_count("name") > 0
                    # the snapshot holds the document lock across both
                    # reads, so count and distinct are consistent
                    snapshot = rev_doc.statistics_snapshot(
                        ["rev", "sub", "name"])
                    for tag, (total, unique, _) in snapshot.items():
                        assert 0 <= unique <= total, tag
                    stats = Statistics(tuple(documents))
                    assert stats.count("sub") >= 0
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for operation in operations:
                apply_operation(rev_doc, operation)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in readers)
        # the final snapshot agrees with a full walk
        assert rev_doc.tag_count("sub") \
            == len(list(rev_doc.iter_elements("sub")))


class TestPlanCache:
    def test_plan_revalidates_after_mutation(self, documents):
        clear_caches()
        query = parse_query(QUERIES[0])
        assert query_truth_planned(query, documents) \
            == query_truth(query, documents)
        rev_doc = documents[1]
        operation = parse_modifications(
            submission_xupdate(1, 1, "T", "Alice"))[0]
        apply_operation(rev_doc, operation)  # Alice reviews herself
        assert query_truth_planned(query, documents) is True
        assert query_truth(query, documents) is True

    def test_unplanned_scope_restores(self, documents):
        with unplanned():
            from repro.xquery import planner
            assert not planner.enabled()
        from repro.xquery import planner
        assert planner.enabled()

    def test_plan_cache_holds_documents_weakly(self):
        clear_caches()
        local_docs = _fresh_documents()
        expression = parse_query("count(//pub) >= 2")
        assert query_truth_planned(expression, local_docs) \
            == query_truth(expression, local_docs)
        references = [weakref.ref(document) for document in local_docs]
        del local_docs
        gc.collect()
        # cached plan entries must not pin the document trees
        assert all(reference() is None for reference in references)


class TestPlannedErrorFallback:
    """Reordering must not surface errors the engine's order avoids."""

    def test_hoisted_factor_error_defers_to_engine(self, documents):
        # the condition has no quantifier variables, so planning hoists
        # it before the (empty) source is ever iterated; the engine
        # never evaluates it and returns a verdict
        query = parse_query("some $x in //nosuch satisfies 1 div 0 = 1")
        assert query_truth(query, documents) is False
        assert query_truth_planned(query, documents) is False

    def test_errors_the_engine_raises_still_raise(self, documents):
        from repro.errors import XQueryEvaluationError
        query = parse_query(
            "some $x in //nosuch satisfies $x/title/text() = 1 div 0")
        with pytest.raises(XQueryEvaluationError):
            query_truth(query, documents)
        with pytest.raises(XQueryEvaluationError):
            query_truth_planned(query, documents)


class TestExplain:
    def test_explain_shows_order_and_cardinalities(self, documents):
        text = explain_query(QUERIES[0], documents)
        assert "some quantifier" in text
        assert "$Ir in //rev" in text
        assert "est~" in text
        assert "examined=" in text
        assert text.endswith("verdict: false")

    def test_explain_marks_hash_joins(self, documents):
        text = explain_query(QUERIES[2], documents)
        assert "[hash join]" in text

    def test_cli_explain_runs(self, capsys):
        from repro import cli
        import os
        corpus = os.path.join(os.path.dirname(__file__), "..",
                              "examples", "corpus")
        code = cli.main([
            "explain",
            "--dtd", os.path.join(corpus, "pub.dtd"),
            "--dtd", os.path.join(corpus, "rev.dtd"),
            "--constraints-file",
            os.path.join(corpus, "constraints.txt"),
            os.path.join(corpus, "submission.xml"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "quantifier" in out
        assert "est~" in out


class TestIndexedSteps:
    """The engine's ``//tag`` steps served by the tag index."""

    def test_indexed_descendant_step_matches_walk(self, documents):
        from repro.xquery.engine import evaluate_query
        indexed = evaluate_query("//rev", documents)
        walked = [element
                  for document in documents
                  for element in document.root.iter_elements("rev")]
        assert indexed == walked

    def test_indexed_predicated_step_matches_walk(self, documents):
        from repro.xquery.engine import evaluate_query
        indexed = evaluate_query(
            "//rev[name/text() = 'Alice']", documents)
        assert [element.tag for element in indexed] == ["rev", "rev"]
        walked = [element
                  for document in documents
                  for element in document.root.iter_elements("rev")
                  if any(child.text() == "Alice"
                         for child in element.children
                         if isinstance(child, Element)
                         and child.tag == "name")]
        assert indexed == walked
