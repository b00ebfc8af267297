"""Tracing core: nesting, attributes, no-op cost.

Tracing is session-global module state, so every test here tears the
session down (the ``obs_session`` fixture) — a leaked enabled tracer would
silently change the timing profile of unrelated tests.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.obs import trace
from repro.obs.trace import span
from repro.stats.kde import AdaptiveKde


@pytest.fixture()
def obs_session():
    obs.enable()
    yield
    obs.disable()


@pytest.fixture(autouse=True)
def _always_clean():
    yield
    if obs.enabled():
        obs.disable()


class TestSpanBasics:
    def test_nesting_builds_parent_links(self, obs_session):
        with span("outer"):
            with span("inner"):
                pass
            with span("inner2"):
                pass
        spans = {s.name: s for s in trace.finished_spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner2"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None

    def test_children_finish_before_parents(self, obs_session):
        with span("outer"):
            with span("inner"):
                pass
        names = [s.name for s in trace.finished_spans()]
        assert names == ["inner", "outer"]

    def test_attributes_at_open_and_via_set(self, obs_session):
        with span("fit", n=1500) as sp:
            sp.set(bandwidth=0.25, converged=True)
        recorded = trace.finished_spans()[-1]
        assert recorded.attributes == {"n": 1500, "bandwidth": 0.25,
                                       "converged": True}

    def test_wall_and_cpu_recorded(self, obs_session):
        with span("sleepy"):
            time.sleep(0.02)
        recorded = trace.finished_spans()[-1]
        assert recorded.wall >= 0.015
        assert recorded.cpu >= 0.0
        assert recorded.start > 0

    def test_exception_records_error_and_propagates(self, obs_session):
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
        recorded = trace.finished_spans()[-1]
        assert recorded.attributes["error"] == "ValueError"

    def test_round_trip_dict(self, obs_session):
        with span("fit", n=3):
            pass
        recorded = trace.finished_spans()[-1]
        clone = trace.Span.from_dict(recorded.to_dict())
        assert clone == recorded


class TestDisabledTracer:
    def test_span_is_shared_noop(self):
        assert not obs.enabled()
        first = span("a", n=1)
        second = span("b")
        assert first is second  # one shared object, no allocation
        with first as sp:
            sp.set(anything=1)
        assert trace.finished_spans() == []

    def test_disable_returns_session_spans(self):
        obs.enable()
        with span("only"):
            pass
        spans, snapshot = obs.disable()
        assert [s.name for s in spans] == ["only"]
        assert snapshot["counters"] == {}
        assert not obs.enabled()

    def test_enable_discards_previous_session(self):
        obs.enable()
        with span("stale"):
            pass
        obs.enable()
        assert trace.finished_spans() == []

    def test_disabled_overhead_is_negligible(self):
        """Disabled spans crossed by one KDE fit must cost < 5% of the fit.

        The fit is timed as-is (it already crosses its disabled
        instrumentation points); a traced run counts how many spans that
        is, and a tight loop prices one disabled crossing.  The product —
        what the instrumentation adds with tracing off — must stay under
        5% of the fit.
        """
        rng = np.random.default_rng(0)
        train = rng.standard_normal((1500, 6))
        query = rng.standard_normal((2000, 6))

        def workload():
            AdaptiveKde(alpha=0.5).fit(train).density(query)

        workload()  # warmup
        start = time.perf_counter()
        workload()
        fit_seconds = time.perf_counter() - start

        obs.enable()
        workload()
        crossings = len(obs.disable()[0])
        assert crossings > 0

        n = 20_000
        start = time.perf_counter()
        for _ in range(n):
            with span("noop", n=n):
                pass
        per_span = (time.perf_counter() - start) / n

        overhead = crossings * per_span
        assert overhead < 0.05 * fit_seconds, (
            f"{crossings} disabled spans cost {overhead * 1e6:.1f} us vs "
            f"KDE fit {fit_seconds * 1e3:.2f} ms"
        )
