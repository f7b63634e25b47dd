"""The metrics registry: instruments, the gate, and the hot-path feeds."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    ITERATION_BUCKETS,
    MetricsRegistry,
    collecting_metrics,
    disable_metrics,
    enable_metrics,
    fold_recorder,
    get_registry,
    metrics_enabled,
    set_registry,
)


@pytest.fixture(autouse=True)
def _gate_closed():
    """Every test starts and ends with collection disabled."""
    assert not metrics_enabled()
    yield
    disable_metrics()


class TestCounter:
    def test_labelled_series_accumulate_independently(self):
        registry = MetricsRegistry()
        runs = registry.counter("runs_total", "Runs.", labelnames=("kind",))
        runs.inc(kind="a")
        runs.inc(2.5, kind="a")
        runs.inc(kind="b")
        assert runs.value(kind="a") == 3.5
        assert runs.value(kind="b") == 1.0
        assert runs.value(kind="never") == 0.0

    def test_rejects_decrease_and_nan(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(-1)
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(float("nan"))

    def test_rejects_wrong_label_set(self):
        counter = MetricsRegistry().counter("c_total", labelnames=("kind",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc()
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(kind="a", extra="b")


class TestGauge:
    def test_set_inc_and_read(self):
        gauge = MetricsRegistry().gauge("g", "Gauge.")
        gauge.set(4.0)
        gauge.inc(-1.5)
        assert gauge.value() == 2.5


class TestHistogram:
    def test_observations_land_in_le_buckets(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            h.observe(value)
        snap = h.snapshot()
        # le semantics: 1.0 lands in the le=1 bucket (bisect_left).
        assert snap["buckets"][1.0] == 2
        assert snap["buckets"][10.0] == 3
        assert snap["buckets"][math.inf] == 4
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(106.5)

    def test_cumulative_buckets_non_decreasing(self):
        h = MetricsRegistry().histogram(
            "h", buckets=ITERATION_BUCKETS, labelnames=("kernel",)
        )
        for value in (1, 3, 7, 7, 120, 10**6):
            h.observe(value, kernel="scalar")
        counts = list(h.snapshot(kernel="scalar")["buckets"].values())
        assert counts == sorted(counts)
        assert counts[-1] == 6

    def test_nan_observations_are_dropped(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0,))
        h.observe(float("nan"))
        h.observe(0.5)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["sum"] == 0.5

    def test_unobserved_series_snapshots_to_zero(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0,))
        assert h.snapshot() == {
            "buckets": {1.0: 0, math.inf: 0},
            "sum": 0.0,
            "count": 0,
        }

    def test_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one bucket"):
            registry.histogram("h0", buckets=())
        with pytest.raises(ValueError, match="strictly"):
            registry.histogram("h1", buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            registry.histogram("h2", buckets=(1.0, math.inf))


class TestRegistry:
    def test_create_or_get_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "Help.", labelnames=("k",))
        again = registry.counter("c_total", "other help", labelnames=("k",))
        assert first is again

    def test_conflicting_reregistration_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", labelnames=("k",))
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m", labelnames=("k",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("m", labelnames=("other",))
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("0bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("fine", labelnames=("bad-label",))
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("fine", labelnames=("__reserved",))

    def test_collect_and_names_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("b_gauge")
        registry.counter("a_total")
        assert registry.names() == ("a_total", "b_gauge")
        assert [f.name for f in registry.collect()] == ["a_total", "b_gauge"]

    def test_snapshot_is_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c_total", "C.", labelnames=("k",)).inc(k="x")
        registry.histogram("h", "H.", buckets=(1.0, 2.0)).observe(1.5)
        snap = registry.snapshot()
        json.dumps(snap)  # raises on anything non-serializable
        assert snap["c_total"]["series"] == [
            {"labels": {"k": "x"}, "value": 1.0}
        ]
        hist = snap["h"]["series"][0]
        assert hist["counts"] == [0, 1, 0]
        assert hist["count"] == 1
        assert snap["h"]["buckets"] == [1.0, 2.0]

    def test_reset_drops_values_keeps_registrations(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        registry.reset()
        assert counter.value() == 0.0
        assert registry.get("c_total") is counter

    def test_get_unknown_raises_keyerror(self):
        with pytest.raises(KeyError):
            MetricsRegistry().get("nope")

    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")

        def worker():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 8000.0


class TestGate:
    def test_disabled_by_default_and_helpers_noop(self):
        from repro import characterize

        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            obs_metrics.record(
                ("repro_sinkhorn_runs_total", ("scalar", "true"), 1.0),
                ("repro_svd_seconds", ("scalar",), 0.01),
                ("repro_characterize_runs_total", ("standard",), 1.0),
            )
            characterize([[1.0, 2.0], [2.0, 1.0]])
            assert registry.names() == ()
        finally:
            set_registry(previous)

    def test_enable_disable_roundtrip(self):
        enable_metrics()
        assert metrics_enabled()
        disable_metrics()
        assert not metrics_enabled()

    def test_collecting_metrics_swaps_and_restores(self):
        original = get_registry()
        fresh = MetricsRegistry()
        with collecting_metrics(fresh) as registry:
            assert registry is fresh
            assert get_registry() is fresh
            assert metrics_enabled()
        assert get_registry() is original
        assert not metrics_enabled()

    def test_collecting_metrics_default_registry(self):
        original = get_registry()
        with collecting_metrics() as registry:
            assert registry is original


class TestHotPathFeeds:
    def test_scalar_sinkhorn_feeds_registry(self):
        from repro.normalize.sinkhorn import sinkhorn_knopp

        with collecting_metrics(MetricsRegistry()) as registry:
            result = sinkhorn_knopp([[1.0, 2.0], [3.0, 4.0]])
        runs = registry.get("repro_sinkhorn_runs_total")
        assert runs.value(kernel="scalar", converged="true") == 1.0
        iters = registry.get("repro_sinkhorn_iterations")
        snap = iters.snapshot(kernel="scalar")
        assert snap["count"] == 1
        assert snap["sum"] == result.iterations
        residual = registry.get("repro_sinkhorn_exit_residual")
        assert residual.snapshot(kernel="scalar")["count"] == 1

    def test_margin_scaling_feeds_margins_kernel(self):
        from repro.normalize.sinkhorn import scale_to_margins

        with collecting_metrics(MetricsRegistry()) as registry:
            scale_to_margins(
                [[1.0, 2.0], [3.0, 4.0]], row_sums=(1, 1), col_sums=(1, 1)
            )
        runs = registry.get("repro_sinkhorn_runs_total")
        assert runs.value(kernel="margins", converged="true") == 1.0

    def test_batched_sinkhorn_feeds_per_slice(self):
        from repro.batch.sinkhorn import standardize_batched

        stack = np.random.default_rng(0).uniform(0.5, 4.0, size=(5, 4, 3))
        with collecting_metrics(MetricsRegistry()) as registry:
            standardize_batched(stack)
        runs = registry.get("repro_sinkhorn_runs_total")
        assert runs.value(kernel="batched", converged="true") == 5.0
        iters = registry.get("repro_sinkhorn_iterations")
        assert iters.snapshot(kernel="batched")["count"] == 5

    def test_characterize_feeds_svd_and_method(self):
        from repro import characterize

        with collecting_metrics(MetricsRegistry()) as registry:
            characterize([[1.0, 2.0], [2.0, 1.0]])
        assert (
            registry.get("repro_characterize_runs_total").value(
                tma_method="standard"
            )
            == 1.0
        )
        svd = registry.get("repro_svd_seconds")
        assert svd.snapshot(kernel="scalar")["count"] == 1

    def test_tma_batched_feeds_svd(self):
        from repro.batch import characterize_ensemble

        stack = np.random.default_rng(3).uniform(0.5, 4.0, size=(4, 3, 5))
        with collecting_metrics(MetricsRegistry()) as registry:
            characterize_ensemble(stack)
        svd = registry.get("repro_svd_seconds")
        assert svd.snapshot(kernel="batched")["count"] == 1

    def test_batched_ensemble_counts_dispatch_paths(self):
        from repro.batch import characterize_ensemble

        stack = np.random.default_rng(1).uniform(0.5, 4.0, size=(6, 4, 4))
        with collecting_metrics(MetricsRegistry()) as registry:
            characterize_ensemble(stack)
        members = registry.get("repro_ensemble_members_total")
        assert members.value(path="batched") == 6.0
        assert registry.get("repro_svd_seconds").snapshot(
            kernel="batched"
        )["count"] >= 1

    def test_robust_outcomes_by_taxonomy_slug(self):
        from repro.batch import characterize_ensemble
        from repro.robust import FaultPlan

        stack = np.random.default_rng(2).uniform(0.5, 4.0, size=(6, 4, 4))
        plan = FaultPlan.random(6, faults="nan=2", seed=0)
        with collecting_metrics(MetricsRegistry()) as registry:
            characterize_ensemble(
                stack, policy="quarantine", fault_plan=plan
            )
        outcomes = registry.get("repro_member_outcomes_total")
        assert outcomes.value(outcome="quarantined") == 2.0
        assert outcomes.value(outcome="fault.nan") == 2.0

    def test_count_member_outcomes_with_explicit_report(self):
        from repro.robust.budget import Budget, Deadline
        from repro.robust.repair import apply_policy

        healthy = np.array([[1.0, 2.0], [3.0, 4.0]])
        faults = {0: ("nan", "x"), 2: ("non-convergent", "y")}
        with collecting_metrics(MetricsRegistry()) as registry:
            report = apply_policy(
                faults,
                policy="repair",
                member=lambda i: healthy,
                splice=lambda i, repaired, standard: None,
                tol=1e-8,
                max_iterations=10_000,
                budget=Budget(),
                deadline=Deadline(None),
            )
        assert report.quarantined == (0,) and report.repaired == (2,)
        outcomes = registry.get("repro_member_outcomes_total")
        assert outcomes.value(outcome="quarantined") == 1.0
        assert outcomes.value(outcome="repaired") == 1.0
        assert outcomes.value(outcome="fault.nan") == 1.0
        assert outcomes.value(outcome="fault.non-convergent") == 1.0


class TestFoldRecorder:
    def test_spans_fold(self):
        from repro.obs import recording, span

        with recording() as rec:
            with span("demo.ok"):
                pass
            with pytest.raises(RuntimeError):
                with span("demo.err"):
                    raise RuntimeError("boom")
        registry = MetricsRegistry()
        fold_recorder(rec, registry=registry)
        assert registry.get("repro_spans_total").value(span="demo.ok") == 1.0
        assert (
            registry.get("repro_span_errors_total").value(span="demo.err")
            == 1.0
        )
        assert (
            registry.get("repro_span_seconds")
            .snapshot(span="demo.ok")["count"]
            == 1
        )

    def test_recording_auto_folds_while_enabled(self):
        from repro import characterize
        from repro.obs import recording

        with collecting_metrics(MetricsRegistry()) as registry:
            with recording():
                characterize([[1.0, 2.0], [2.0, 1.0]])
        spans = registry.get("repro_spans_total")
        assert spans.value(span="measures.characterize") == 1.0

    def test_recording_does_not_fold_while_disabled(self):
        from repro.obs import recording, span

        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with recording():
                with span("demo.step"):
                    pass
            assert "repro_spans_total" not in registry.names()
        finally:
            set_registry(previous)
