"""Unit tests for the deterministic failpoint registry."""

from __future__ import annotations

import re
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ReproError
from repro.testing.failpoints import (
    SITES,
    FailPointError,
    FailPointRegistry,
    Trigger,
    _arm_from_environment,
    fail,
    parse_schedule,
)

SITE = "xupdate.apply.pre_op"
OTHER = "core.guard.post_check"


class TestTriggerParse:
    def test_count(self):
        trigger = Trigger.parse("count:3")
        assert (trigger.kind, trigger.value) == ("count", 3)
        assert trigger.render() == "count:3"

    def test_every(self):
        trigger = Trigger.parse(" every:2 ")
        assert (trigger.kind, trigger.value) == ("every", 2)

    def test_prob_with_seed(self):
        trigger = Trigger.parse("prob:0.25:7")
        assert (trigger.kind, trigger.value, trigger.seed) == \
            ("prob", 0.25, 7)
        assert trigger.render() == "prob:0.25:7"

    def test_prob_default_seed(self):
        assert Trigger.parse("prob:0.5").seed == 0

    def test_thread_filter_suffix(self):
        trigger = Trigger.parse("count:1@thread=writer-*")
        assert trigger.thread_pattern == "writer-*"
        assert trigger.matches_thread("writer-3")
        assert not trigger.matches_thread("reader-1")
        assert trigger.render() == "count:1@thread=writer-*"

    @pytest.mark.parametrize("bad", [
        "boom:1", "count", "count:0", "count:x", "every:-2",
        "prob:1.5", "prob:0.5:1:2", "count:1@thread=",
    ])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            Trigger.parse(bad)


class TestParseSchedule:
    def test_text_spec(self):
        parsed = parse_schedule(f"{SITE}=count:2; {OTHER}=every:3")
        assert set(parsed) == {SITE, OTHER}
        assert parsed[SITE].kind == "count"
        assert parsed[OTHER].kind == "every"

    def test_dict_spec_with_trigger_objects(self):
        parsed = parse_schedule({SITE: Trigger("count", 1)})
        assert parsed[SITE].kind == "count"

    def test_empty_text_is_empty(self):
        assert parse_schedule("") == {}

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint site"):
            parse_schedule("no.such.site=count:1")

    def test_unknown_site_allowed_when_asked(self):
        parsed = parse_schedule("no.such.site=count:1",
                                known_only=False)
        assert "no.such.site" in parsed

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="site=trigger"):
            parse_schedule("just-a-site")

    def test_catalog_covers_schedules(self):
        # every documented site parses in a schedule
        spec = ";".join(f"{site}=count:1" for site in SITES)
        assert len(parse_schedule(spec)) == len(SITES)

    def test_catalog_matches_instrumented_sites(self):
        # a removed seam must not leave a dead catalog entry (and the
        # schedules validated against it) behind, nor may a new seam
        # go undocumented
        source = Path(repro.__file__).parent
        instrumented = {
            match.group(1)
            for path in source.rglob("*.py")
            for match in re.finditer(r'fail\.point\(\s*"([^"]+)"',
                                     path.read_text(encoding="utf-8"))}
        assert instrumented == set(SITES)


def _hit_n(registry: FailPointRegistry, site: str, n: int) -> list[int]:
    """Hit ``site`` n times; return the 1-based hits that raised."""
    fired = []
    for i in range(1, n + 1):
        try:
            registry.point(site)
        except FailPointError as error:
            assert error.site == site
            fired.append(i)
    return fired


class TestFiring:
    def test_count_fires_once_on_nth_hit(self):
        registry = FailPointRegistry()
        with registry.armed({SITE: "count:3"}) as handle:
            assert _hit_n(registry, SITE, 10) == [3]
            assert handle.hits(SITE) == 10
            assert handle.fires(SITE) == 1
            assert handle.fired(SITE)

    def test_every_fires_periodically(self):
        registry = FailPointRegistry()
        with registry.armed({SITE: "every:2"}) as handle:
            assert _hit_n(registry, SITE, 7) == [2, 4, 6]
            assert handle.counts() == {SITE: (7, 3)}

    def test_prob_is_deterministic_per_arming(self):
        registry = FailPointRegistry()
        runs = []
        for _ in range(2):
            with registry.armed({SITE: "prob:0.4:99"}):
                runs.append(_hit_n(registry, SITE, 50))
        assert runs[0] == runs[1]
        assert runs[0]  # p=.4 over 50 draws: statistically certain

    def test_unarmed_site_is_a_noop(self):
        registry = FailPointRegistry()
        registry.point(SITE)  # nothing armed at all
        with registry.armed({OTHER: "count:1"}):
            registry.point(SITE)  # a different site armed

    def test_error_carries_site_and_hit(self):
        registry = FailPointRegistry()
        with registry.armed({SITE: "count:2"}):
            registry.point(SITE)
            with pytest.raises(FailPointError) as info:
                registry.point(SITE)
        assert info.value.site == SITE
        assert info.value.hit == 2

    def test_not_a_repro_error(self):
        # must propagate like an unforeseen failure, not be swallowed
        # by the library's ReproError handling
        assert not issubclass(FailPointError, ReproError)

    def test_assert_fired(self):
        registry = FailPointRegistry()
        with registry.armed({SITE: "count:1", OTHER: "count:9"}) as fp:
            _hit_n(registry, SITE, 1)
            fp.assert_fired(SITE)
            with pytest.raises(AssertionError, match=OTHER):
                fp.assert_fired()


class TestThreadFilter:
    def test_only_matching_threads_fire(self):
        registry = FailPointRegistry()
        outcomes: dict[str, list[int]] = {}

        def worker(name: str) -> None:
            outcomes[name] = _hit_n(registry, SITE, 4)

        with registry.armed(
                {SITE: "every:1@thread=writer-*"}) as handle:
            _hit_n(registry, SITE, 4)  # main thread: filtered out
            for name in ("writer-1", "reader-1"):
                thread = threading.Thread(
                    target=worker, args=(name,), name=name)
                thread.start()
                thread.join()
            assert outcomes["writer-1"] == [1, 2, 3, 4]
            assert outcomes["reader-1"] == []
            # all 12 hits counted, only the writer's 4 were eligible
            assert handle.hits(SITE) == 12
            assert handle.fires(SITE) == 4


class TestScoping:
    def test_disarmed_on_exit(self):
        registry = FailPointRegistry()
        with registry.armed({SITE: "every:1"}):
            with pytest.raises(FailPointError):
                registry.point(SITE)
        registry.point(SITE)  # no longer armed

    def test_disarmed_on_exception(self):
        registry = FailPointRegistry()
        with pytest.raises(RuntimeError):
            with registry.armed({SITE: "count:1"}):
                raise RuntimeError("boom")
        registry.point(SITE)

    def test_nested_arming_shadows_and_restores(self):
        registry = FailPointRegistry()
        with registry.armed({SITE: "count:5"}) as outer:
            _hit_n(registry, SITE, 2)  # outer counter at 2
            with registry.armed({SITE: "every:1"}) as inner:
                assert _hit_n(registry, SITE, 2) == [1, 2]
                assert inner.fires(SITE) == 2
            # outer arming restored, its counter intact: three more
            # hits reach its count:5 threshold
            assert _hit_n(registry, SITE, 3) == [3]
            assert outer.hits(SITE) == 5
            assert outer.fires(SITE) == 1

    def test_nested_sibling_sites_compose(self):
        registry = FailPointRegistry()
        with registry.armed({SITE: "count:1"}):
            with registry.armed({OTHER: "count:1"}):
                with pytest.raises(FailPointError):
                    registry.point(SITE)
                with pytest.raises(FailPointError):
                    registry.point(OTHER)
            registry.point(OTHER)  # inner gone

    def test_arm_persistent_and_disarm_all(self):
        registry = FailPointRegistry()
        registry.arm_persistent({SITE: "every:1"})
        assert SITE in registry.active_sites()
        with pytest.raises(FailPointError):
            registry.point(SITE)
        registry.disarm_all()
        registry.point(SITE)


class TestEnvironmentArming:
    def test_env_spec_arms(self, monkeypatch):
        registry = FailPointRegistry()
        monkeypatch.setenv("REPRO_FAILPOINTS", f"{SITE}=count:1")
        _arm_from_environment(registry)
        with pytest.raises(FailPointError):
            registry.point(SITE)

    def test_empty_env_is_ignored(self, monkeypatch):
        registry = FailPointRegistry()
        monkeypatch.setenv("REPRO_FAILPOINTS", "  ")
        _arm_from_environment(registry)
        assert registry.active_sites() == {}


class TestNoOpOverhead:
    """The unarmed fast path must stay a single dict lookup.

    The precise numbers live in ``benchmarks/
    test_failpoint_overhead.py``; this is the structural guarantee
    plus a very generous timing smoke so a regression (taking a lock,
    formatting a string) fails even in plain test runs.
    """

    def test_unarmed_registry_is_an_empty_dict(self):
        assert FailPointRegistry()._armed == {}

    def test_global_registry_unarmed_in_test_runs(self):
        assert fail.active_sites() == {}

    def test_unarmed_point_smoke_timing(self):
        registry = FailPointRegistry()
        rounds = 20_000
        start = time.perf_counter()
        for _ in range(rounds):
            registry.point(SITE)
        elapsed = time.perf_counter() - start
        # an empty-dict .get is tens of nanoseconds; 10 µs/call means
        # something structural broke (orders of magnitude of headroom
        # for slow shared CI runners)
        assert elapsed / rounds < 10e-6
