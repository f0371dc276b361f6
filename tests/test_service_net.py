"""End-to-end suite for the networked sharded checking service.

Two populations live here:

* fast, socket-free unit tests of the building blocks (frame codec,
  uid validation, config plumbing) — part of the default tier-1 run;
* ``e2e``-marked tests that spawn real worker processes behind the
  asyncio HTTP edge: the **differential conformance suite** (seeded
  mixed workloads through the HTTP edge with 1, 2 and 4 workers must
  produce verdicts and final document bytes identical to a
  single-process ``CheckingService`` oracle) and the **chaos suite**
  (a worker killed mid-batch by an armed failpoint is restarted by the
  supervisor, recovers from its write-ahead log, and every acknowledged
  update survives).  These run in their own CI leg (``service-e2e``).

The workload reuses the fault-injection harness's step vocabulary
(:func:`repro.testing.harness._make_step`), generated against a twin
corpus so the step text is a pure function of the seed — the property
that makes the oracle comparison exact.
"""

from __future__ import annotations

import json
import random
import socket

import pytest

from repro.datagen import generate_corpus
from repro.datagen.corpus import CorpusSpec
from repro.datagen.running_example import (
    CONFERENCE_WORKLOAD,
    CONFLICT_OF_INTEREST,
    PUB_DTD,
    REV_DTD,
    submission_xupdate,
)
from repro.errors import ReproError, SchemaError
from repro.service.net import (
    HashRing,
    ServerThread,
    ServiceClient,
    ServiceConfig,
)
from repro.service.net.frames import (
    FrameError,
    recv_frame,
    send_frame,
)
from repro.service.net.worker import decision_to_json
from repro.service.store import CheckingService, DocumentStore
from repro.testing.harness import _make_step, _weighted_kinds
from repro.xtree.serializer import serialize
from repro.xupdate.parser import canonical_update_text

e2e = pytest.mark.e2e

#: corpus seed shared by the service config, the oracle and the step
#: generator — all three must see the same initial documents
CORPUS_SEED = 20060328

_SPEC = CorpusSpec(tracks=2, revs_per_track=3, subs_per_rev=2,
                   auts_per_sub=2, pubs=6, auts_per_pub=2,
                   busy_reviewers=1, author_pool=30,
                   seed=CORPUS_SEED)


def _twin_corpus():
    """A fresh parse of the exact corpus the service is seeded with."""
    return generate_corpus(_SPEC)


def make_config(**overrides) -> ServiceConfig:
    pub_doc, rev_doc = _twin_corpus()
    settings = dict(
        dtds=(PUB_DTD, REV_DTD),
        constraints=(CONFLICT_OF_INTEREST, CONFERENCE_WORKLOAD),
        constraint_names=("conflict_of_interest",
                          "conference_workload"),
        patterns=(submission_xupdate(1, 1, "x", "y", kind="append"),
                  submission_xupdate(1, 1, "x", "y", kind="after")),
        documents=(serialize(pub_doc), serialize(rev_doc)),
        snapshot_interval=8)
    settings.update(overrides)
    return ServiceConfig(**settings)


def make_oracle(config: ServiceConfig) -> CheckingService:
    """The single-process twin every service answer is compared to."""
    return CheckingService(config.build_schema(),
                           config.initial_documents())


def workload(seed: int, steps: int):
    """(kind, step) pairs for one seed — deterministic, corpus-pure."""
    _pub_doc, rev_doc = _twin_corpus()
    rng = random.Random(seed)
    kinds = _weighted_kinds(rng, steps)
    return [(kind, _make_step(kind, rev_doc, rng)) for kind in kinds]


# ---------------------------------------------------------------------------
# fast unit tests (tier-1): building blocks, no processes
# ---------------------------------------------------------------------------


class TestUidValidation:
    @pytest.mark.parametrize("uid", [
        "a", "tenant-1", "A.b_c-d", "0" * 64, "track2.shard-7"])
    def test_accepts_path_safe_uids(self, uid):
        assert DocumentStore.validate_uid(uid) == uid

    @pytest.mark.parametrize("uid", [
        "", "..", "../evil", "a/b", "a\\b", ".hidden", "-rf",
        "a" * 65, "sp ace", "uid\x00null", "tab\tbed"])
    def test_rejects_path_unsafe_uids(self, uid):
        with pytest.raises(SchemaError):
            DocumentStore.validate_uid(uid)

    def test_store_validates_its_uid(self, documents):
        assert DocumentStore(documents, uid="group-1").uid == "group-1"
        with pytest.raises(SchemaError):
            DocumentStore(documents, uid="../../escape")


class TestFrames:
    def test_roundtrip_over_a_socketpair(self):
        left, right = socket.socketpair()
        with left, right:
            payload = {"op": "update", "text": "<x>é</x>" * 100}
            send_frame(left, payload)
            assert recv_frame(right) == payload

    def test_clean_eof_decodes_to_none(self):
        left, right = socket.socketpair()
        with right:
            left.close()
            assert recv_frame(right) is None

    def test_eof_mid_frame_raises(self):
        left, right = socket.socketpair()
        with right:
            left.sendall(b"\x00\x00\x01\x00partial")
            left.close()
            with pytest.raises(FrameError):
                recv_frame(right)

    def test_oversized_length_prefix_raises(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(FrameError):
                recv_frame(right)


class TestConfig:
    def test_schema_and_documents_rebuild(self):
        config = make_config()
        schema = config.build_schema()
        assert [c.name for c in schema.constraints] == [
            "conflict_of_interest", "conference_workload"]
        documents = config.initial_documents()
        assert [d.root.tag for d in documents] == ["dblp", "review"]

    def test_config_is_picklable(self):
        import pickle
        config = make_config()
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config


# ---------------------------------------------------------------------------
# e2e: differential conformance against the single-process oracle
# ---------------------------------------------------------------------------


def _oracle_step(oracle: CheckingService, step):
    """Outcome of one step on the oracle, in wire-comparable form."""
    try:
        if step is None:
            return ("read", oracle.snapshot())
        if isinstance(step, list):
            return ("batch", [decision_to_json(d)
                              for d in oracle.check_batch(step)])
        return ("update", decision_to_json(oracle.try_execute(step)))
    except ReproError as error:
        return ("error", type(error).__name__)


def _service_step(client: ServiceClient, uid: str, step):
    """The same step through the HTTP edge, same outcome shape."""
    if step is None:
        status, body = client.read(uid)
        assert status == 200, body
        return ("read", body["documents"])
    if isinstance(step, list):
        status, body = client.check_batch(uid, step)
        if status == 422:
            return ("error", body["code"])
        assert status == 200, body
        return ("batch", body["decisions"])
    status, body = client.update(uid, step)
    if status == 422:
        return ("error", body["code"])
    assert status == 200, body
    return ("update", body["decision"])


@e2e
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_conformance_matches_single_process_oracle(workers, tmp_path):
    """The tentpole acceptance test: for every worker count and every
    seed, verdicts and final bytes through the sharded HTTP edge are
    identical to the single-process service."""
    seeds = [11, 22, 33]
    steps_per_seed = 14
    config = make_config()
    with ServerThread(config, tmp_path / "state",
                      workers=workers) as server:
        client = ServiceClient(server.host, server.port)
        for seed in seeds:
            uid = f"seed-{seed}"
            oracle = make_oracle(config)
            for index, (kind, step) in enumerate(
                    workload(seed, steps_per_seed)):
                expected = _oracle_step(oracle, step)
                actual = _service_step(client, uid, step)
                assert actual == expected, (
                    f"workers={workers} seed={seed} step={index} "
                    f"({kind}): service {actual} != oracle {expected}")
            # end-of-workload battery: consistency verdict, commit
            # log, and the exact final document bytes
            status, body = client.check(uid)
            assert status == 200
            assert body["violations"] == oracle.verify_consistency()
            status, body = client.read(uid, with_log=True)
            assert status == 200
            assert body["documents"] == oracle.snapshot()
            assert body["log"] == [
                canonical_update_text(entry.update)
                for entry in oracle.committed_updates()]
        # every live worker took part and none restarted
        status, body = client.status()
        assert status == 200
        assert body["alive"] == [True] * workers
        assert all(count == 0 for count in body["restarts"].values())
        client.close()


@e2e
def test_worker_enforces_ownership(tmp_path):
    """A frame routed to the wrong worker is refused worker-side: the
    ring is re-derived inside each worker, so a confused router can
    never make two workers serve one uid."""
    uid = "owned-tenant"
    ring = HashRing(range(2))
    owner = ring.owner(uid)
    wrong = 1 - owner
    with ServerThread(make_config(), tmp_path / "state",
                      workers=2) as server:
        path = server.service.supervisor.socket_path(wrong)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30.0)
            sock.connect(path)
            send_frame(sock, {"op": "read", "uid": uid})
            response = recv_frame(sock)
        assert response is not None
        assert response["ok"] is False
        assert response["code"] == "not-owner"
        assert response["owner"] == owner


@e2e
def test_http_edge_validates_uids_and_routes(tmp_path):
    with ServerThread(make_config(), tmp_path / "state",
                      workers=2) as server:
        client = ServiceClient(server.host, server.port)
        status, body = client.read("../escape")
        assert status == 400 and body["code"] == "bad-uid"
        status, body = client.request("/read", {"updates": []})
        assert status == 400 and body["code"] == "bad-uid"
        status, body = client.request("/read", None)
        assert status == 400 and body["code"] == "bad-uid"
        status, body = client.request("/nope", {"uid": "a"})
        assert status == 404 and body["code"] == "not-found"
        status, body = client.request("/update", {"uid": "a"})
        assert status == 400 and body["code"] == "bad-request"
        status, body = client.request("/status", None, method="GET")
        assert status == 200 and body["workers"] == 2
        # arm is refused when test ops are disabled (the default here)
        status, body = client.arm(0, "persistence.pre_fsync=count:1")
        assert status == 403 and body["code"] == "forbidden"
        client.close()


def _raw_exchange(server: ServerThread, data: bytes) -> tuple[int, dict]:
    """Send raw bytes to the edge; read the one reply up to EOF."""
    with socket.create_connection((server.host, server.port),
                                  timeout=30.0) as sock:
        sock.sendall(data)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("ascii")
    assert b"Connection: close" in head
    return int(status_line.split()[1]), json.loads(body)


@e2e
@pytest.mark.parametrize("data", [
    b"GARBAGE\r\n\r\n",
    b"POST /read HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
    b"POST /read HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
], ids=["request-line", "non-integer-length", "negative-length"])
def test_http_edge_answers_malformed_requests_with_400(data, tmp_path):
    # the edge cannot frame what follows, so it answers and closes
    # (the reply reaching EOF is the close)
    with ServerThread(make_config(), tmp_path / "state",
                      workers=1) as server:
        status, body = _raw_exchange(server, data)
    assert status == 400
    assert body["ok"] is False and body["code"] == "bad-request"


@e2e
def test_http_edge_500_names_only_the_error_class(tmp_path, monkeypatch):
    from repro.service.net.http import ShardedService

    async def failing_dispatch(self, method, path, body):
        raise RuntimeError("/private/state/path leaked")

    with ServerThread(make_config(), tmp_path / "state",
                      workers=1) as server:
        monkeypatch.setattr(ShardedService, "_dispatch", failing_dispatch)
        client = ServiceClient(server.host, server.port)
        status, body = client.request("/read", {"uid": "a"})
        client.close()
    assert status == 500
    assert body == {"ok": False, "code": "internal",
                    "error": "RuntimeError"}


# ---------------------------------------------------------------------------
# e2e: chaos — kill a worker mid-batch, supervisor recovers it
# ---------------------------------------------------------------------------


def _other_uid(ring: HashRing, not_owned_by: int) -> str:
    for index in range(1000):
        uid = f"bystander-{index}"
        if ring.owner(uid) != not_owned_by:
            return uid
    raise AssertionError("no uid avoided the owner")  # pragma: no cover


@e2e
@pytest.mark.parametrize("site", [
    "persistence.pre_fsync",
    "persistence.post_append_pre_apply",
    "service.store.pre_commit_append",
])
def test_killed_worker_recovers_with_no_lost_ack(site, tmp_path):
    """Kill-at-failpoint chaos (the PR 8 restart matrix, but through
    the network): a worker dies mid-batch at an instrumented seam, the
    supervisor restarts it, the shard recovers from snapshot + WAL,
    and the per-shard invariant battery holds — acknowledged updates
    are a prefix of the recovered commit log, the recovered state is
    consistent, and a single-process replay of that log reproduces the
    final bytes exactly.  The other worker's shard is untouched."""
    uid = "tenant-chaos"
    ring = HashRing(range(2))
    owner = ring.owner(uid)
    bystander = _other_uid(ring, owner)
    config = make_config(allow_test_ops=True)
    state_dir = tmp_path / "state"
    with ServerThread(config, state_dir, workers=2) as server:
        client = ServiceClient(server.host, server.port)
        acked: list[str] = []
        rev_doc = _twin_corpus()[1]
        rng = random.Random(4242)
        from repro.datagen import legal_submission
        for _ in range(3):
            update = legal_submission(rev_doc, rng, kind="append")
            status, body = client.update(uid, update)
            assert status == 200 and body["decision"]["applied"], body
            acked.append(canonical_update_text(update))
        status, body = client.update(
            bystander, legal_submission(rev_doc, rng, kind="append"))
        assert status == 200 and body["decision"]["applied"], body

        # arm the kill inside the owning worker, then batch into it
        status, body = client.arm(owner, f"{site}=count:2", kill=True)
        assert status == 200 and body["kill"] is True, body
        batch = [legal_submission(rev_doc, rng, kind="append")
                 for _ in range(4)]
        status, body = client.check_batch(uid, batch)
        assert status == 503, body
        assert body["code"] == "worker-restarted", body
        assert body["restarted"] is True, body

        # the read is retried against the restarted worker, which
        # recovers the shard from its WAL on first touch
        status, body = client.read(uid, with_log=True)
        assert status == 200, body
        log = body["log"]
        # invariant: every acknowledged update survived, in order, as
        # a prefix; un-acked batch work may or may not have been
        # logged before the kill (both are valid crash outcomes)
        assert log[:len(acked)] == acked, (
            f"acked updates lost after {site} kill: {log}")
        assert len(log) <= len(acked) + len(batch)

        # recovered shard passes the consistency check
        status, check = client.check(uid)
        assert status == 200 and check["violations"] == [], check

        # single-process oracle replay of the recovered commit log
        # must land on the exact same bytes the service now serves
        oracle = make_oracle(config)
        for entry in log:
            decision = oracle.try_execute(entry)
            assert decision.applied, (site, entry)
        assert body["documents"] == oracle.snapshot()

        # the bystander shard on the surviving worker is untouched
        status, other = client.read(bystander, with_log=True)
        assert status == 200 and len(other["log"]) == 1, other

        # supervisor accounting: one restart, everyone alive again
        status, stat = client.status()
        assert stat["alive"] == [True, True]
        assert stat["restarts"][str(owner)] == 1
        assert stat["restarts"][str(1 - owner)] == 0
        client.close()
        final_documents = body["documents"]
        final_log = log

    # offline half of the battery: the shard directory recovers
    # deterministically with plain CheckingService.recover, byte- and
    # log-identical to what the live service served
    schema = config.build_schema()
    shard = state_dir / f"shard-{uid}"
    for _ in range(2):
        recovered = CheckingService.recover(schema, shard)
        try:
            assert recovered.snapshot() == final_documents
            assert [canonical_update_text(entry.update)
                    for entry in recovered.committed_updates()] \
                == final_log
            assert recovered.verify_consistency() == []
        finally:
            recovered.close()


@e2e
def test_graceful_shutdown_drains_and_preserves_state(tmp_path):
    """A clean stop drains every worker; reopening the same state
    directory recovers every shard with nothing lost."""
    config = make_config()
    state_dir = tmp_path / "state"
    rev_doc = _twin_corpus()[1]
    rng = random.Random(99)
    from repro.datagen import legal_submission
    sent = {}
    with ServerThread(config, state_dir, workers=2) as server:
        client = ServiceClient(server.host, server.port)
        for uid in ("alpha", "beta", "gamma"):
            update = legal_submission(rev_doc, rng, kind="append")
            status, body = client.update(uid, update)
            assert status == 200 and body["decision"]["applied"]
            sent[uid] = canonical_update_text(update)
        client.close()
    # same state dir, fresh processes: everything committed survives
    with ServerThread(config, state_dir, workers=2) as server:
        client = ServiceClient(server.host, server.port)
        for uid, update in sent.items():
            status, body = client.read(uid, with_log=True)
            assert status == 200, body
            assert body["log"] == [update]
        client.close()
