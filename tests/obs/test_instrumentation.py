"""The hot paths actually emit spans (end-to-end wiring)."""

import numpy as np
import pytest

import repro
from repro import characterize, recording, standardize
from repro.analysis.independence import independence_study, measure_correlations
from repro.analysis.sensitivity import sensitivity_study
from repro.batch import characterize_ensemble, sinkhorn_knopp_batched
from repro.normalize import sinkhorn_knopp
from repro.scheduling import run_heuristic, simulate_online

ENV = [[1.0, 2.0, 3.0], [2.0, 1.0, 2.0], [3.0, 2.0, 1.0]]


class TestSinkhornSpans:
    def test_scalar_sinkhorn_span(self):
        with recording() as rec:
            result = sinkhorn_knopp(ENV, row_target=1.0)
        (event,) = rec.spans("sinkhorn.scalar")
        assert event.meta["rows"] == 3 and event.meta["cols"] == 3
        assert event.meta["iterations"] == result.iterations
        assert event.meta["converged"] is True
        # residual samples mirror the result's history
        assert event.samples["residual"] == pytest.approx(
            result.residual_history
        )

    def test_batched_sinkhorn_span(self):
        stack = np.stack([np.array(ENV), np.array(ENV) * 2.0])
        with recording() as rec:
            result = sinkhorn_knopp_batched(stack, row_target=1.0)
        (event,) = rec.spans("sinkhorn.batched")
        assert event.meta["slices"] == 2
        assert event.meta["converged_slices"] == 2
        # one occupancy sample per iteration, all values in [1, N]
        occupancy = event.samples["active_slices"]
        assert len(occupancy) == int(np.max(result.iterations))
        assert all(1 <= v <= 2 for v in occupancy)


class TestMeasureSpans:
    def test_characterize_emits_pipeline_spans(self):
        with recording() as rec:
            characterize(ENV)
        stats = rec.summary()
        assert stats.covers("measures.characterize")
        assert stats.covers("sinkhorn")
        assert stats.covers("svd")

    def test_standardize_nested_under_characterize(self):
        with recording() as rec:
            characterize(ENV)
        outer = rec.spans("measures.characterize")[0]
        inner = rec.spans("sinkhorn.scalar")[0]
        assert inner.depth == outer.depth + 1

    def test_standardize_alone_emits_sinkhorn_only(self):
        with recording() as rec:
            standardize(ENV)
        assert rec.spans("sinkhorn.scalar")
        assert not rec.spans("measures.characterize")

    def test_ensemble_spans_and_counters(self):
        stack = np.stack([np.array(ENV), np.eye(3) + 0.5])
        with recording() as rec:
            characterize_ensemble(stack)
        assert rec.spans("batch.characterize_ensemble")
        assert rec.spans("svd.batched")
        (event,) = rec.spans("batch.characterize_ensemble")
        assert event.meta == {
            "slices": 2, "batched_slices": 2, "fallback_slices": 0,
        }


class TestSchedulingSpans:
    def test_run_heuristic_span_and_counter(self):
        with recording() as rec:
            mapping = run_heuristic("min_min", ENV)
        (event,) = rec.spans("scheduling.min_min")
        assert event.meta["tasks"] == 3
        assert event.meta["makespan"] == mapping.makespan
        assert rec.summary().row("scheduling.min_min").totals == {"tasks": 3}

    def test_online_simulation_span(self):
        with recording() as rec:
            res = simulate_online(ENV, [0.0, 0.0, 0.0], policy="mct")
        (event,) = rec.spans("scheduling.online")
        assert event.meta["policy"] == "mct"
        assert event.meta["makespan"] == res.makespan


class TestAnalysisSpans:
    def test_sensitivity_trial_fanout(self):
        with recording() as rec:
            sensitivity_study(
                ENV, noise_levels=(0.05, 0.1), trials=3, seed=0
            )
        assert len(rec.spans("analysis.sensitivity_level")) == 2
        totals = rec.summary().row("analysis.sensitivity_level").totals
        assert totals["trials"] == 6

    def test_independence_fanout(self):
        with recording() as rec:
            independence_study("tma", targets=(0.1, 0.3), seed=0)
        (event,) = rec.spans("analysis.independence")
        assert event.meta["swept"] == "tma"
        assert event.meta["points"] == 2

    def test_correlations_span_counts_samples(self):
        with recording() as rec:
            measure_correlations(samples=5, seed=0)
        (event,) = rec.spans("analysis.correlations")
        assert event.meta == {"samples": 5}


class TestRobustSpans:
    @pytest.mark.parametrize("entry", ["characterize_ensemble", "standardize_batched"])
    def test_apply_policy_span_carries_the_outcomes(self, entry):
        stack = np.stack([np.array(ENV)] * 3)
        stack[1, 0, 0] = np.nan
        stack[2, 1, 1] = -1.0
        with recording() as rec:
            getattr(repro, entry)(stack, policy="quarantine")
        (event,) = rec.spans("robust.apply_policy")
        assert event.meta == {
            "policy": "quarantine",
            "quarantined": 2,
            "repaired": 0,
            "retries": 0,
            "fault.nan": 1,
            "fault.negative": 1,
        }


class TestDisabledIsInert:
    def test_functions_identical_without_recorder(self):
        baseline = characterize(ENV)
        with recording():
            traced_profile = characterize(ENV)
        assert baseline.mph == traced_profile.mph
        assert baseline.tdh == traced_profile.tdh
        assert baseline.tma == traced_profile.tma
