"""The conformance table: every path to (MPH, TDH, TMA) gives one answer.

Rows are corpus x path.  A path is one way the library reaches a
scaling, a standard form or the measures: the scalar functions, their
batched forms and ``.slice(i)``, the three fault policies, the sharded
store under every dispatch mode, a round trip through the HTTP service,
and the documented loop reference core (docs/BACKENDS.md) in place of
the library's Sinkhorn core.  Each path has a kind, and the kind's
scalar path is the reference:
``sinkhorn_knopp`` (row sums 1, column sums T/M), ``standardize``
(Theorem 2's margins), ``mph``/``tdh``/``tma``, or ``characterize``.

``check_row`` applies the same checks to every row:

* agreement: each member's values equal the reference's bit for bit,
  or, on an ``@loop`` row, within the loop core's ``LOOP_TOLERANCE``;
* faults: a robust row names exactly the faulted members, by absolute
  index; their values, and on the profile kind the whole
  ``QuarantineReport``, equal the in-memory run under that policy;
* Theorem 2: a converged scaling has row sums r, column sums c and
  largest singular value sqrt(r c) (1 for the standard form);
* Section VI: no row reports a standard form for a member that
  ``normalizability_report`` rejects, and scalar ``standardize`` and ``tma``
  refuse exactly those members;
* scale invariance: a corpus scaled by 2**960 or 2**-960 gives the
  values of the corpus it scales.

A path without a fault policy runs the members a corpus's ``FaultPlan``
leaves healthy; a robust path runs every member with the plan applied.
``tests/batch/test_differential.py`` and
``tests/shard/test_differential.py`` run rows of this table under
their earlier names, with the checks a row cannot make.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings

import repro.backends as kernels
from repro.backends.base import MEMBER_LAST_MIN, _member_last
from repro.batch import (characterize_ensemble, mph_batched, sinkhorn_knopp_batched,
                         standardize_batched, tdh_batched, tma_batched)
from repro.exceptions import NotNormalizableError
from repro.generate import cvb
from repro.measures import characterize, mph, tdh, tma
from repro.normalize import sinkhorn_knopp, standard_targets, standardize
from repro.robust import FaultPlan
from repro.serve import CharacterizationServer, ServeConfig
from repro.shard import characterize_store, write_store
from repro.spec import load_dataset
from repro.structure import normalizability_report

from .batch.conftest import ecs_stacks

TOL = 1e-8
#: Iteration cap for zero patterns: non-normalizable members run to it.
CAPPED = 500
POLICIES = ("raise", "quarantine", "repair")
SCALING = ("matrix", "row_scale", "col_scale", "iterations", "converged",
           "residual_history")
PROFILE = ("mph", "tdh", "tma", "iterations", "converged")
EXACT = ("iterations", "converged", "batched", "standard")
#: Splits the faults, stragglers and cvb-cov2 stores into 2 to 4 chunks.
BUDGET_MB = 0.04


# -- corpus -----------------------------------------------------------------


@dataclass(eq=False)
class Case:
    stack: np.ndarray
    plan: FaultPlan | None = None
    cap: int = 100_000
    #: The corpus this one rescales by a power of two.
    base: str | None = None
    memo: dict = field(default_factory=dict)

    @property
    def healthy(self) -> np.ndarray:
        faulted = self.plan.members if self.plan else ()
        return np.setdiff1d(np.arange(len(self.stack)), faulted)

    @cached_property
    def section_vi(self) -> list[str | None]:
        """Per member: None when it has a standard form, else why not."""
        reports = [None if (m > 0).all() else normalizability_report(m)
                   for m in self.stack]
        return [None if r is None or r.normalizable
                else "decomposable" if r.feasible else "infeasible"
                for r in reports]

    @cached_property
    def normalizable(self) -> list[bool]:
        return [reason is None for reason in self.section_vi]


def _log_uniform(n, t, m, seed):
    return np.exp(np.random.default_rng(seed).uniform(-2.3, 2.3, (n, t, m)))


def straggler_stack(n_slices=32, n_slow=17, eps=1e-3, seed=5, shape=(8, 8)):
    """``n_slow`` scattered members converge slowly: their off-diagonal
    blocks (4x4 in an (8, 8) member) are scaled by ``eps``.  17 of 32
    keeps the numpy core iterating in place until all but 16 stop, then
    on a compact copy."""
    rng = np.random.default_rng(seed)
    n_rows, n_cols = shape
    stack = rng.uniform(0.5, 10.0, (n_slices, n_rows, n_cols))
    slow = rng.permutation(n_slices)[:n_slow]
    stack[slow[:, None], :n_rows // 2, n_cols // 2:] *= eps
    stack[slow[:, None], n_rows // 2:, :n_cols // 2] *= eps
    return stack


def _faulty():
    """Data faults on members 3, 10, 25 and 27 (three of the four
    8-member shards, the short tail among them), and two valid
    zero-patterned members that take the scalar fallback."""
    stack = _log_uniform(28, 6, 6, seed=42)
    plan = FaultPlan.random(28, faults="nan=2,zero-row=1,zero-col=1", seed=3)
    zeroed = np.setdiff1d(np.arange(28), plan.members)[[1, 17]]
    stack[zeroed, 0, 1] = 0.0
    return Case(stack, plan)


#: Section VI's eq. 10 (no standard form) between two positive members.
EQ10 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
POS3 = np.arange(1.0, 10.0).reshape(3, 3)
#: Fig. 4 A-D: TMA 1; only C (the identity) has a standard form.
FIG4 = np.array([[[10.0, 0.0], [9.0, 1.0]], [[1.0, 0.0], [10.0, 100.0]],
                 [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [9.0, 10.0]]])
POSITIVE = _log_uniform(12, 6, 5, seed=7)

CORPUS = {
    **{name: Case(np.asarray(load_dataset(name).to_ecs())[None])
       for name in ("cint2006rate", "cfp2006rate")},
    "eq10": Case(np.stack([POS3, EQ10, POS3 + 1.0]), cap=CAPPED),
    "fig4-a-d": Case(FIG4, cap=CAPPED),
    "positive": Case(POSITIVE),
    "positive*2**960": Case(POSITIVE * 2.0**960, base="positive"),
    "positive*2**-960": Case(POSITIVE * 2.0**-960, base="positive"),
    "faults": _faulty(),
    "stragglers": Case(straggler_stack()),
    # 192 (16, 8) members, 72 of them slow: the numpy core runs them
    # member-last in place, then member-last on a compact copy of the
    # 72, then C-ordered once fewer than MEMBER_LAST_MIN iterate.
    "threshold": Case(straggler_stack(3 * MEMBER_LAST_MIN, MEMBER_LAST_MIN + 8,
                                      shape=(16, 8))),
    "cvb-cov2": Case(np.stack([
        np.asarray(cvb(16, 8, task_cov=2.0, machine_cov=2.0, seed=s).to_ecs())
        for s in range(8)
    ])),
}


# -- paths ------------------------------------------------------------------
# A runner takes (stack, case, policy) and returns columns aligned with
# the stack's members.


def _scaling(case):
    return dict(require_convergence=False, max_iterations=case.cap)


def _refusing(function, member, **options):
    """``function(member)``, or None when Section VI refuses the member."""
    try:
        return function(member, **options)
    except NotNormalizableError:
        return None


def _per_member(results):
    """Scalar results as columns; a refused member's are NaN."""
    columns = {
        f: [np.nan if r is None else getattr(r, f) for r in results]
        for f in SCALING
    }
    checks = [getattr(r, "max_sum_error", None) for r in results]
    if all(callable(check) for check in checks):  # NormalizationResult
        columns["max_sum_error"] = [check() for check in checks]
    columns["rejected"] = [i for i, r in enumerate(results) if r is None]
    return columns


def _batched(result):
    return {f: getattr(result, f) for f in SCALING + ("report",)}


def _each(function):
    """A runner calling ``function`` on each member."""
    def run(stack, case, policy):
        return _per_member([
            _refusing(function, m, **_scaling(case))
            for m in stack
        ])

    return run


def _sinkhorn_batched(stack, case, policy):
    return _batched(sinkhorn_knopp_batched(stack, **_scaling(case)))


def _sinkhorn_slices(stack, case, policy):
    result = sinkhorn_knopp_batched(stack, **_scaling(case))
    return _per_member([result.slice(i) for i in range(len(stack))])


def _plan(case, policy):
    return {"fault_plan": case.plan} if policy != "raise" else {}


def _standardize_batched(stack, case, policy):
    return _batched(standardize_batched(
        stack, policy=policy, **_scaling(case),
        **_plan(case, policy),
    ))


def _functions(stack, case, policy):
    values = [_refusing(tma, m) for m in stack]
    return {"mph": [mph(m) for m in stack], "tdh": [tdh(m) for m in stack],
            "tma": [np.nan if v is None else v for v in values],
            "rejected": [i for i, v in enumerate(values) if v is None]}


def _functions_batched(stack, case, policy):
    """``tma_batched`` over the members with a standard form."""
    has_form = np.array(case.normalizable)[case.healthy]
    values = np.full(len(stack), np.nan)
    if has_form.any():
        values[has_form] = tma_batched(stack[has_form])
    return {"mph": mph_batched(stack), "tdh": tdh_batched(stack), "tma": values}


def _characterize(stack, case, policy):
    """The columns ``characterize_ensemble`` gives a scalar member."""
    profiles = [characterize(m) for m in stack]
    return {
        "mph": [p.mph for p in profiles],
        "tdh": [p.tdh for p in profiles],
        "tma": [p.tma for p in profiles],
        "iterations": [-1 if p.sinkhorn_iterations is None
                       else p.sinkhorn_iterations for p in profiles],
        "converged": [p.sinkhorn_residual is not None
                      and p.sinkhorn_residual <= TOL for p in profiles],
        "standard": [p.tma_method == "standard" for p in profiles],
    }


def _profile(result):
    return {f: getattr(result, f) for f in PROFILE + ("batched", "report")}


def _ensemble(stack, case, policy):
    return _profile(characterize_ensemble(
        stack, policy=policy, **_plan(case, policy)
    ))


def _store(via="store", **options):
    def run(stack, case, policy):
        kwargs = dict(options, policy=policy, **_plan(case, policy))
        with tempfile.TemporaryDirectory() as tmp:
            store = write_store(Path(tmp) / "store", stack)
            source = str(store.path) if via == "path" else store
            return _profile(characterize_store(source, **kwargs))

    return run


def _served(stack, case, policy):
    """One burst of ``POST /v1/characterize`` requests; a quarantined
    member's answer is its error category."""
    members = case.plan.apply(stack) if case.plan else stack

    async def burst():
        server = CharacterizationServer(ServeConfig(enable_metrics=False))
        return await asyncio.gather(*(
            server.exchange("POST", "/v1/characterize", json.dumps(
                {"matrix": m.tolist(), "policy": policy},
                allow_nan=True,
            ).encode())
            for m in members
        ))

    columns = {f: [] for f in PROFILE + ("batched",)}
    columns["categories"] = {}
    for i, (status, _, body, _) in enumerate(asyncio.run(burst())):
        document = json.loads(body)
        result = document.get("result", {})
        fault = result.get("fault") or document.get("error")
        if fault is not None:
            columns["categories"][i] = fault["category"]
        for f in PROFILE + ("batched",):
            columns[f].append(result.get(f, np.nan))
        assert status == (200 if result else 422), document
    return columns


@dataclass(frozen=True)
class Route:
    kind: str
    run: Callable
    policy: str = "raise"
    #: Runs with the documented loop core in place of the library's.
    loop: bool = False


PATHS = {
    "sinkhorn_knopp": Route("sinkhorn", _each(sinkhorn_knopp)),
    "sinkhorn_knopp_batched": Route("sinkhorn", _sinkhorn_batched),
    "sinkhorn_knopp_batched.slice": Route("sinkhorn", _sinkhorn_slices),
    "standardize": Route("standard", _each(standardize)),
    **{
        f"standardize_batched[{p}]": Route("standard", _standardize_batched, p)
        for p in POLICIES
    },
    "mph/tdh/tma": Route("functions", _functions),
    "mph/tdh/tma_batched": Route("functions", _functions_batched),
    "characterize": Route("profile", _characterize),
    **{
        f"characterize_ensemble[{p}]": Route("profile", _ensemble, p)
        for p in POLICIES
    },
    "store[serial]": Route("profile", _store(chunk_size=8)),
    "store[repair]": Route("profile", _store(chunk_size=8), "repair"),
    "store[pool]": Route("profile", _store(chunk_size=8, n_jobs=2), "quarantine"),
    "store[memory_budget_mb]": Route("profile", _store(memory_budget_mb=BUDGET_MB)),
    "store[one shard]": Route("profile", _store(chunk_size=10**6), "repair"),
    "store[chunk of one]": Route("profile", _store(chunk_size=1), "quarantine"),
    "store[quarantine]": Route("profile", _store(chunk_size=8), "quarantine"),
    "store[path string]": Route("profile", _store("path", chunk_size=8)),
    "served": Route("profile", _served, "quarantine"),
}
PATHS.update({
    f"{name}@loop": replace(PATHS[name], loop=True)
    for name in ("sinkhorn_knopp_batched", "standardize_batched[raise]",
                 "characterize_ensemble[raise]", "store[serial]")
})
REFERENCE = {"sinkhorn": "sinkhorn_knopp", "standard": "standardize",
             "functions": "mph/tdh/tma", "profile": "characterize"}
#: The in-memory run a robust row's faulted members answer to.
POLICY_REFERENCE = {"standard": "standardize_batched",
                    "profile": "characterize_ensemble"}


def run_row(name, case, loop_core=None):
    """``(members, columns)`` of one row, with ``rejected`` as absolute
    member indices; rows on the library's core are memoized.  An
    ``@loop`` row runs with ``loop_core`` substituted for it."""
    row = PATHS[name]
    if not row.loop and name in case.memo:
        return case.memo[name]
    members = case.healthy if row.policy == "raise" else np.arange(len(case.stack))
    if row.loop:
        with loop_core.substituted():
            columns = row.run(case.stack[members], case, row.policy)
    else:
        columns = row.run(case.stack[members], case, row.policy)
    if "rejected" in columns:
        columns["rejected"] = set(members[columns["rejected"]].tolist())
    if "categories" in columns:
        columns["categories"] = {
            int(members[i]): c for i, c in columns["categories"].items()
        }
    if not row.loop:
        case.memo[name] = members, columns
    return members, columns


# -- checks -----------------------------------------------------------------


def _agree(got, want, name, tolerance, where):
    if tolerance == 0 or name in EXACT:
        assert np.array_equal(got, want, equal_nan=True), (where, got, want)
    elif name.endswith("_scale"):  # relative: the scales span decades
        np.testing.assert_allclose(got, want, rtol=tolerance, err_msg=where)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=tolerance, err_msg=where)


def compare(outcome, want, tolerance, where, skip=(), scale_free=False):
    """Each column of ``outcome`` agrees with ``want``'s on every member
    both carry, except ``skip`` and the values ``want`` refused (NaN for
    a rejected member: all its columns, or only ``tma``)."""
    (members, columns), (want_members, want_columns) = outcome, want
    position = {int(m): k for k, m in enumerate(want_members)}
    rejected = want_columns.get("rejected", set())
    for name in set(columns) & set(want_columns) - {"report", "categories", "rejected"}:
        if scale_free and name.endswith("_scale"):
            continue
        for k, m in enumerate(members.tolist()):
            if m in skip or m not in position:
                continue
            got, expected = columns[name][k], want_columns[name][position[m]]
            if m in rejected and np.ndim(expected) == 0 and np.isnan(expected):
                continue
            if scale_free and name == "residual_history":
                got, expected = got[1:], expected[1:]  # the entry residual scales
            _agree(got, expected, name, tolerance, f"{where}: {name}[{m}]")


def expected_faults(case, kind) -> dict[int, str]:
    """The plan's categories and, on the standard kind, the members
    without a standard form or that missed tol at the cap."""
    faults = case.plan.expected_categories() if case.plan else {}
    if kind == "standard":
        members, columns = run_row(REFERENCE[kind], case)
        for k, m in enumerate(members.tolist()):
            if case.section_vi[m]:
                faults[m] = case.section_vi[m]
            elif not columns["converged"][k]:
                faults[m] = "non-convergent"
    return faults


def check_row(case, name, loop_core=None):
    """Every check of the module docstring, on one corpus x path row
    (``loop_core``: the ``loop_core`` fixture, for the ``@loop`` rows)."""
    row = PATHS[name]
    tolerance = loop_core.tolerance if row.loop else 0.0
    members, columns = outcome = run_row(name, case, loop_core)
    where = f"{name} on {case.stack.shape}"

    flagged = {}
    if row.policy != "raise":
        if "categories" in columns:
            flagged = columns["categories"]
        else:
            flagged = {f.index: f.category for f in columns["report"].faults}
        assert flagged == expected_faults(case, row.kind), where
        in_memory = run_row(f"{POLICY_REFERENCE[row.kind]}[{row.policy}]", case)
        if "categories" not in columns:  # the served row has no values for them
            unflagged = set(members.tolist()) - set(flagged)
            compare(outcome, in_memory, 0.0, where, skip=unflagged)
            if row.kind == "profile":
                assert columns["report"] == in_memory[1]["report"], where
    compare(outcome, run_row(REFERENCE[row.kind], case), tolerance, where,
             skip=flagged)
    if case.base is not None:
        base = run_row(REFERENCE[row.kind], CORPUS[case.base])
        compare(outcome, base, tolerance, where + " scaled", scale_free=True)

    rejected = columns.get("rejected", set())
    if "rejected" in columns:  # standardize and tma refuse; Sinkhorn never
        assert rejected == {m for m in members.tolist() if row.kind != "sinkhorn"
                            and not case.normalizable[m]}, where
    for k, m in enumerate(members.tolist()):
        if m in flagged or m in rejected:
            continue
        has_form = case.normalizable[m]
        if "standard" in columns:
            assert columns["standard"][k] == has_form, where
        if "batched" in columns:  # only positive members take the batch
            assert columns["batched"][k] == (case.stack[m] > 0).all(), where
        if row.kind in ("sinkhorn", "standard"):
            if not has_form:
                assert not columns["converged"][k], where
                assert columns["iterations"][k] == case.cap, where
            elif columns["converged"][k]:
                _check_theorem_2(columns["matrix"][k], row.kind, where)
        for f in ("mph", "tdh"):
            if f in columns:
                assert 0.0 < columns[f][k] <= 1.0, where
        if "tma" in columns and (has_form or row.kind == "profile"):
            assert 0.0 <= columns["tma"][k] <= 1.0, where


def _check_theorem_2(matrix, kind, where):
    n_tasks, n_machines = matrix.shape
    r, c = (standard_targets(n_tasks, n_machines) if kind == "standard"
            else (1.0, n_tasks / n_machines))
    assert np.abs(matrix.sum(axis=1) - r).max() <= 2 * TOL, where
    assert np.abs(matrix.sum(axis=0) - c).max() <= 2 * TOL, where
    sigma_1 = np.linalg.svd(matrix, compute_uv=False)[0]
    assert sigma_1 == pytest.approx(np.sqrt(r * c), rel=1e-7), where


# -- the table --------------------------------------------------------------

#: The loop core iterates slice by slice, so it has no half-stack switch
#: for the 17-of-32 stragglers to probe, only their cost.
ROWS = [
    (c, p) for c in CORPUS for p in PATHS
    if not (c == "stragglers" and PATHS[p].loop)
]


@pytest.mark.parametrize("corpus,path", ROWS, ids=[f"{c}-{p}" for c, p in ROWS])
def test_row(corpus, path, loop_core):
    check_row(CORPUS[corpus], path, loop_core)


def test_threshold_corpus_crosses_both_layouts(monkeypatch):
    """One batched run of the threshold corpus scales the whole stack
    member-last, then a member-last compact copy, then C-ordered ones."""
    gathers = []
    working_copy = kernels.working_copy

    def spy(stack, idx=None):
        copy = working_copy(stack, idx)
        gathers.append((len(copy), _member_last(copy)))
        return copy

    monkeypatch.setattr(kernels, "working_copy", spy)
    result = sinkhorn_knopp_batched(CORPUS["threshold"].stack)
    assert _member_last(result.matrix)
    assert any(n >= MEMBER_LAST_MIN and member_last for n, member_last in gathers)
    assert any(n < MEMBER_LAST_MIN and not member_last for n, member_last in gathers)


@pytest.mark.parametrize("positive", [True, False], ids=["positive", "zeros"])
def test_generated_corpus(positive, loop_core):
    """The Hypothesis stacks, every example through every row."""

    @settings(max_examples=15, deadline=None)
    @given(stack=ecs_stacks(positive_only=positive))
    def rows(stack):
        case = Case(stack, cap=100_000 if positive else CAPPED)
        for path in PATHS:
            check_row(case, path, loop_core)

    rows()

