"""Bit-identity pins for every Sinkhorn entry point and for
:func:`repro.characterize`.

Each Sinkhorn case hashes the outputs a run reports — ``matrix``,
``row_scale``, ``col_scale``, ``iterations`` and ``residual_history`` —
with SHA-256.  The digests were recorded while the scalar and batched
paths still ran through separate cores, so they hold the single batched
core to the exact float64 results of both.

Each characterize case hashes every float of the
:class:`~repro.measures.HeterogeneityProfile`, its iteration count,
residual, TMA method and the MP/TD vectors.  Those digests were
recorded while ``characterize`` still re-validated its matrix in every
kernel it called and took singular values from ``scipy.linalg.svdvals``,
so they hold the validate-once path and the one SVD routine to the
same results.

A digest changes only when the numpy reference changes numerically:
update :data:`DIGESTS` or :data:`CHARACTERIZE_DIGESTS` deliberately,
never to make a refactor pass.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import characterize
from repro.batch import standardize_batched
from repro.core import ECSMatrix, ETCMatrix
from repro.normalize import scale_to_margins, sinkhorn_knopp
from repro.normalize.standard_form import standard_targets
from repro.spec import figure8a, figure8b, load_dataset

#: The seeded corpus shapes (square, tall, and a wider 32-task case).
SHAPES = ((8, 8), (12, 5), (32, 16))

#: Matrices per shape in the scalar corpus; slices per batched stack.
SEEDS = (0, 1, 2)
SLICES = 16

#: Section VI's decomposable eq. 10: never converges, so capped runs
#: exercise the iteration budget and a batch whose slices stop apart.
EQ10 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def _matrix(shape, seed):
    return np.random.default_rng(seed).uniform(0.1, 10.0, size=shape)


def _stack(shape, seed):
    return np.random.default_rng(seed).uniform(0.1, 10.0, size=(SLICES, *shape))


def _spec(name):
    return load_dataset(name).to_ecs().values


def _margins(shape, seed):
    rng = np.random.default_rng(seed + 100)
    rows = rng.uniform(0.5, 2.0, size=shape[0])
    cols = rng.uniform(0.5, 2.0, size=shape[1])
    return rows, cols * (rows.sum() / cols.sum())


def _standard(matrix, **kwargs):
    row_target, col_target = standard_targets(*matrix.shape)
    return sinkhorn_knopp(
        matrix, row_target=row_target, col_target=col_target, **kwargs
    )


def _warm(shape, seed):
    stack = _stack(shape, seed)
    cold = standardize_batched(stack)
    noise = np.random.default_rng(seed + 200).uniform(-1.0, 1.0, stack.shape)
    return standardize_batched(stack * (1.0 + 1e-3 * noise), warm_start=cold)


def _capped_stack():
    positive = np.arange(1.0, 10.0).reshape(3, 3)
    return np.stack([positive, EQ10, positive + 1.0, EQ10 + 0.5 * (EQ10 == 0)])


def _cases():
    cases = {}
    for name in ("cint2006rate", "cfp2006rate"):
        cases[f"spec_standard[{name}]"] = lambda n=name: _standard(_spec(n))
    for shape in SHAPES:
        tag = f"{shape[0]}x{shape[1]}"
        for seed in SEEDS:
            key = f"{tag}/{seed}"
            cases[f"sinkhorn_knopp[{key}]"] = (
                lambda s=shape, k=seed: sinkhorn_knopp(_matrix(s, k))
            )
            cases[f"scale_to_margins[{key}]"] = (
                lambda s=shape, k=seed: scale_to_margins(
                    _matrix(s, k), *_margins(s, k)
                )
            )
        cases[f"batched_cold[{tag}]"] = lambda s=shape: standardize_batched(
            _stack(s, 3)
        )
        cases[f"batched_warm[{tag}]"] = lambda s=shape: _warm(s, 4)
    cases["eq10_capped"] = lambda: sinkhorn_knopp(
        EQ10, max_iterations=50, require_convergence=False
    )
    cases["batched_capped"] = lambda: standardize_batched(
        _capped_stack(), max_iterations=50, require_convergence=False
    )
    return cases


CASES = _cases()


def digest(result) -> str:
    """SHA-256 over the five reported outputs of a scaling result."""
    h = hashlib.sha256()
    for name in ("matrix", "row_scale", "col_scale"):
        h.update(np.ascontiguousarray(getattr(result, name), np.float64).tobytes())
    h.update(np.asarray(result.iterations, dtype=np.int64).tobytes())
    h.update(repr(result.residual_history).encode())
    return h.hexdigest()


DIGESTS = {
    "batched_capped": "1318eec5857c62f78e1ce78945411609b71921c3594b5fbd18f3ae279bd851be",
    "batched_cold[12x5]": "3daf6960fe9277567977e69f5546c42fd3ba1378139423741b9e5c1b1fcfa0e5",
    "batched_cold[32x16]": "57109e010af202e9ef1c724a860a61aacbfc2ddfd25ba671794c5b120a72b37e",
    "batched_cold[8x8]": "1bde9e27fd4d49b865be8e719c9d78cc86d0b5657fcb447a14bf3dc1805c31c2",
    "batched_warm[12x5]": "09db14caefd48e716693eda330241581f3f85387b5af633b881992e9fe70257a",
    "batched_warm[32x16]": "b36b444d456588178286793721cf9e6e94e6cfaa3c7f1db34f41e7b71ab6179e",
    "batched_warm[8x8]": "55be148506241678a116a6e58f72cdbb66351c91f52ad8b1fca29a272568d76e",
    "eq10_capped": "e2bc690de1a89e757e73e4f6a5aeb877e2d83d91de8623be342404fdf52c6c51",
    "scale_to_margins[12x5/0]": "8809a7d29fe4bcfa5143ddc3d4cec5b6753c38546ff49ccd38de2ca6f4fa1c41",
    "scale_to_margins[12x5/1]": "6fbf2393b2c33c5538be81d6b86903a981a6ee9da6627f2b3378146eb2e8f9fd",
    "scale_to_margins[12x5/2]": "56f969b485d85bc1600b03ac63295a9f4dc1b8bb53e2956bd42bf81e4c813738",
    "scale_to_margins[32x16/0]": "282684f415734bfe096123afe280f4a20f1da9bc8e8e071fcc1a16638e734545",
    "scale_to_margins[32x16/1]": "b78515130e7acf9ecd916a7ea4163a96c7e9ac7dbe7b4494cd7c295954171a11",
    "scale_to_margins[32x16/2]": "0b6ffd85ca7f862ffbafad828f67296115d12d85d3767b08f2a70b62792b3df4",
    "scale_to_margins[8x8/0]": "ced097252b79ce4a5a72db6c472558bb53e74e05fff953706709a36c77af15c6",
    "scale_to_margins[8x8/1]": "bb0442e26ad690634c2837a782d3dfaa57b7b70e7a5f1325c7b978032b437c5f",
    "scale_to_margins[8x8/2]": "2c5c016db90040cb014eac042b4026dba8d2c407ae34b5a9600caef08322f149",
    "sinkhorn_knopp[12x5/0]": "2300bd036cbee11ced77fed0ab0f5925c8b170a0fb65f789c2ed49b76e89adf7",
    "sinkhorn_knopp[12x5/1]": "d138917be478938d15d4565e8d161d3ff685b0caed2207c7dd97cc32433afefe",
    "sinkhorn_knopp[12x5/2]": "c3b3a9c1b638a824efa9b28c7349d8d69c9c900b783d658f4a6bd149da0dc71a",
    "sinkhorn_knopp[32x16/0]": "d981927a24e1d8f08fee3a762ed5add79c3e09fe6e94c4b9f589082bb0b71635",
    "sinkhorn_knopp[32x16/1]": "f70232df792001c974c76aaf5074cbae927d48bc56b5718013fd3f16a6440d6b",
    "sinkhorn_knopp[32x16/2]": "e42c740fba9a690f0ef33cd7a8cbb470f4f1a81c2865bda26202d3227898d076",
    "sinkhorn_knopp[8x8/0]": "18fac754e64f25dad08ae6c1303c33c62f0c7bc3b3639e320d49b100e0a8cfcc",
    "sinkhorn_knopp[8x8/1]": "5af9301fa22a332f4631f24975738601404be04ed02fa52fde5619eca91476f3",
    "sinkhorn_knopp[8x8/2]": "2fbd89dee103ec186c3708812845cc31d961506fcea930188f8360919276028b",
    "spec_standard[cfp2006rate]": "c595b6898545def4e037e46e3719ddfc692518664a057eff6cce1d7bc4423a47",
    "spec_standard[cint2006rate]": "cef21687a90340371e78b2cc89c4edf0d734e602f733f06413ebec8a15e6eb0c",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_recorded_digest(case):
    assert digest(CASES[case]()) == DIGESTS[case]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


#: Paper Fig. 4 matrix A: no standard form, but an eq. 9 limit.
FIG4_A = np.array([[10.0, 0.0], [9.0, 1.0]])

#: Margins infeasible outright (the last machine runs one task type
#: only), so even the eq. 9 limit is missing and TMA falls back to eq. 5.
NO_LIMIT = np.array(
    [[1.0, 1.0, 2.0], [1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
)

#: The seeded characterize corpus adds the largest library shape.
PROFILE_SHAPES = (*SHAPES, (64, 32))


def _weights(n, seed):
    return np.random.default_rng(seed + 300).uniform(0.5, 2.0, size=n)


def _characterize_cases():
    cases = {}
    for name in ("cint2006rate", "cfp2006rate"):
        cases[f"spec[{name}]"] = lambda n=name: characterize(load_dataset(n))
    cases["figure8a"] = lambda: characterize(figure8a())
    cases["figure8b"] = lambda: characterize(figure8b())
    for shape in PROFILE_SHAPES:
        for seed in SEEDS:
            cases[f"random[{shape[0]}x{shape[1]}/{seed}]"] = (
                lambda s=shape, k=seed: characterize(_matrix(s, k))
            )
    cases["weighted[12x5]"] = lambda: characterize(
        _matrix((12, 5), 0),
        task_weights=_weights(12, 0),
        machine_weights=_weights(5, 1),
    )
    cases["ecs_matrix_weights[8x8]"] = lambda: characterize(
        ECSMatrix(
            _matrix((8, 8), 1),
            task_weights=_weights(8, 2),
            machine_weights=_weights(8, 3),
        )
    )
    cases["ecs_matrix_override[8x8]"] = lambda: characterize(
        ECSMatrix(_matrix((8, 8), 2), task_weights=_weights(8, 4)),
        task_weights=_weights(8, 5),
    )
    cases["etc_matrix[12x5]"] = lambda: characterize(ETCMatrix(_matrix((12, 5), 2)))
    cases["limit[fig4_A]"] = lambda: characterize(FIG4_A)
    cases["limit[eq10]"] = lambda: characterize(EQ10)
    cases["column[fig4_A]"] = lambda: characterize(FIG4_A, tma_fallback="column")
    cases["column[eq10]"] = lambda: characterize(EQ10, tma_fallback="column")
    cases["limit_to_column[no_limit]"] = lambda: characterize(NO_LIMIT)
    return cases


CHARACTERIZE_CASES = _characterize_cases()

#: Every scalar a HeterogeneityProfile reports.
PROFILE_SCALARS = (
    "mph", "tdh", "tma", "machine_r", "machine_g", "machine_cov",
    "task_r", "task_g", "task_cov", "sinkhorn_iterations",
    "sinkhorn_residual", "tma_method", "n_tasks", "n_machines",
)


def _exact(value) -> str:
    """A float's exact bits whatever its Python/numpy type."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return repr(value)


def profile_digest(profile) -> str:
    """SHA-256 over every scalar of a profile and its MP/TD vectors."""
    h = hashlib.sha256()
    for name in ("machine_performance", "task_difficulty"):
        h.update(np.ascontiguousarray(getattr(profile, name), np.float64).tobytes())
    h.update(
        ",".join(_exact(getattr(profile, n)) for n in PROFILE_SCALARS).encode()
    )
    return h.hexdigest()


CHARACTERIZE_DIGESTS = {
    "column[eq10]": "ad44545e8828a4a4368ce8a862fca9df6bbfbaec5dfa041960c91ecd408afd56",
    "column[fig4_A]": "cc80e268ae42d0d1777952bb782c41515fbd386ade6ad92938e02289b2f612ce",
    "ecs_matrix_override[8x8]": "341074bfe693df741cbc0fe93c72d1780b20b5c23a341c9a1d55527a3942051e",
    "ecs_matrix_weights[8x8]": "6bf5c1768aee4289691375bada8c2866e59467e42582d079a625fd40d3c1b4e5",
    "etc_matrix[12x5]": "9561e8f1cda56b558eaf27a0f7bacda2fb1812ac222142f0f5e518a99ca1b2ac",
    "figure8a": "4457f2e654d1976b84eee825bb12771d298bc1e07dc908d087de0b4d7ae063df",
    "figure8b": "79a730a340a22274a7e1e7d687b0894616d1498406055582c0920656033d0d9d",
    "limit[eq10]": "1e61e13d184549d2be141f0a684c784d8ded676c78be1636e62584a6bbe34582",
    "limit[fig4_A]": "8f923fa39f3be167e24cb21f7fd282b7f46e6f71cf61f632e843a132e6b2564b",
    "limit_to_column[no_limit]": "251c96c35cc29c9fb83ca394d670c49c8e37db28553418c20d451e9d8f3c15b4",
    "random[12x5/0]": "3310db67bd61064318944e90baf73e23407167808e2644b80f73d0242aeff5cf",
    "random[12x5/1]": "2f630a7e859a0def241923615e1bb30eaa7b68f170f0ba39bdbb7141fd0bbcf0",
    "random[12x5/2]": "7e090ca946fcb6e385ce236450edeb9274e65c84a3fae0ac6aa08cb4b1bee6d4",
    "random[32x16/0]": "ced0d13121c7efa8f9e9ee24d8520a7a44210178ad50a3df42c405c20c444781",
    "random[32x16/1]": "14f47c8189ff71ef41892218780fbe9782533b4801f49c73ce559fba692b367a",
    "random[32x16/2]": "b82d1b92e688fe3ac9c3cc2554b49f7f5f725a1511a637c9c35347eededc3770",
    "random[64x32/0]": "5eab3d9427b934a6a9606675b710ea3dc09045883a8813b3bb4e5174bbbef6fb",
    "random[64x32/1]": "b612d06dafbda7d08f192eaf1c2da96a3cdf57efbe1f1510ba6a8063911b39b4",
    "random[64x32/2]": "90c6d7db0a0c57d32d6645493e121df69d37c5f53d571d4e71362421734d41df",
    "random[8x8/0]": "e4ff3837785441a7e61bd2099696d3d4822b86644867358665331379a29e04a1",
    "random[8x8/1]": "bd5b2c42132a8eb7381b21c365b6e77b3e5d93d6f0d69076f421ef0a96c29d9c",
    "random[8x8/2]": "910d2d2c7d7dfc508770fd14d0ba930d7220e170e2b51e8065d942cd1c672bb1",
    "spec[cfp2006rate]": "e8f567430b9100af8c29097c2ab4b9a18ebc17e2b0a3febf00a1f340ef044dd0",
    "spec[cint2006rate]": "746e2f246d73de3ff1ccb0d25fa920e868c42163063fbeb1fdc49362429287a6",
    "weighted[12x5]": "dbc998e1e5fd81a67bed8207c12b17a9f3b9c7b4f40de7e45c97a469aabd13ce",
}


@pytest.mark.parametrize("case", sorted(CHARACTERIZE_CASES))
def test_characterize_matches_recorded_digest(case):
    digest_ = profile_digest(CHARACTERIZE_CASES[case]())
    assert digest_ == CHARACTERIZE_DIGESTS[case]


def test_every_characterize_case_is_pinned():
    assert sorted(CHARACTERIZE_DIGESTS) == sorted(CHARACTERIZE_CASES)


# -- ensemble entry points under every fault policy --------------------------
#
# ``characterize_ensemble``, ``standardize_batched`` and
# ``characterize_store`` (serial, three chunks) on one seeded 16x8x8
# stack: fault-free, under four chaos plans, with a zero-patterned member
# that takes the scalar path, and (characterize only) as ragged lists.
# A run that raises is pinned by its exception type and message.  The
# digests were recorded while the quarantine/repair policies still ran
# through a second pipeline beside the ``raise`` one.

POLICIES = ("raise", "quarantine", "repair")
ENSEMBLE_MAX_ITER = 2_000
CHAOS_KINDS = ("nan", "zero-row", "decomposable", "non-convergent")


def _ensemble_inputs():
    """name -> (environments, fault plan, extra characterize kwargs)."""
    from repro.robust import FaultPlan

    stack = _stack((8, 8), 6)
    inputs = {"clean": (stack, None, {})}
    for kind in CHAOS_KINDS:
        plan = FaultPlan.random(16, faults={kind: 3}, seed=11, severity=1e6)
        # Under the default "limit" fallback a decomposable member is
        # healthy; "raise" makes it a fault.
        extra = {"tma_fallback": "raise"} if kind == "decomposable" else {}
        inputs[kind] = (stack, plan, extra)
    inputs["decomposable-limit"] = (stack, inputs["decomposable"][1], {})
    patterned = stack.copy()
    patterned[5, 0, 1] = 0.0
    inputs["zero-pattern"] = (patterned, None, {})
    ragged = [stack[0], stack[1, :6], stack[2, :, :5], stack[3]]
    inputs["ragged"] = (ragged, None, {})
    corrupt = stack[2, :, :5].copy()
    corrupt[1, 1] = np.nan
    inputs["ragged-nan"] = (ragged[:2] + [corrupt, ragged[3]], None, {})
    return inputs


ENSEMBLE_INPUTS = _ensemble_inputs()


def _ensemble_cases():
    from repro.batch import characterize_ensemble
    from repro.shard import characterize_store, write_store

    cases = {}
    for policy in POLICIES:
        for name, (envs, plan, extra) in ENSEMBLE_INPUTS.items():
            options = dict(
                policy=policy,
                fault_plan=plan,
                max_iterations=ENSEMBLE_MAX_ITER,
                **extra,
            )
            cases[f"characterize_ensemble[{policy}/{name}]"] = (
                lambda tmp, e=envs, o=options: characterize_ensemble(e, **o)
            )
            if isinstance(envs, list):
                continue
            cases[f"characterize_store[{policy}/{name}]"] = (
                lambda tmp, e=envs, o=options: characterize_store(
                    write_store(tmp / "store", e), chunk_size=6, **o
                )
            )
            if name == "decomposable-limit":
                continue
            cases[f"standardize_batched[{policy}/{name}]"] = (
                lambda tmp, e=envs, p=policy, f=plan: standardize_batched(
                    e, policy=p, fault_plan=f, max_iterations=ENSEMBLE_MAX_ITER
                )
            )
    return cases


ENSEMBLE_CASES = _ensemble_cases()

ENSEMBLE_COLUMNS = ("mph", "tdh", "tma", "iterations", "converged", "batched")
SCALING_COLUMNS = (
    "matrix", "row_scale", "col_scale", "iterations", "converged", "residual",
)


def run_ensemble_case(case, tmp_path):
    """The case's result, or ``"raises <type>: <message>"``."""
    try:
        return ENSEMBLE_CASES[case](tmp_path)
    except Exception as exc:  # noqa: BLE001 -- a pinned outcome
        return f"raises {type(exc).__name__}: {exc}"


def ensemble_digest(result) -> str:
    """SHA-256 over every column of an ensemble or scaling result and its
    quarantine report, repair labels excepted (see REPAIR_LABELS)."""
    if isinstance(result, str):
        return result
    h = hashlib.sha256()
    if hasattr(result, "mph"):
        columns = ENSEMBLE_COLUMNS
        shape = (result.n_tasks, result.n_machines)
    else:
        columns = SCALING_COLUMNS
        shape = (
            result.residual_history,
            _exact(result.row_target),
            _exact(result.col_target),
        )
    for name in columns:
        h.update(np.ascontiguousarray(getattr(result, name)).tobytes())
    h.update(repr(shape).encode())
    report = getattr(result, "report", None)
    if report is not None:
        faults = [
            (f.index, f.category, f.detail, f.attempts, f.repaired)
            for f in report.faults
        ]
        h.update(repr((report.policy, faults)).encode())
    return h.hexdigest()


ENSEMBLE_DIGESTS = {
    "characterize_ensemble[quarantine/clean]": "31d72fce38f8ddff71c14967a84a738a23f87ba2d979cd6802366664ef191145",
    "characterize_ensemble[quarantine/decomposable-limit]": "6a8678a349f56a40abcb11af085c5d3175396f2373d4dc7a426d2d5663e2a41c",
    "characterize_ensemble[quarantine/decomposable]": "8264d5b736b1bf3f275f6cc0591f539e11ca492121e7cd03896fbb8297e7c215",
    "characterize_ensemble[quarantine/nan]": "6d74c8f9cab43ca3545c601be3fb995e94c2144556aafacb40516a352856b211",
    "characterize_ensemble[quarantine/non-convergent]": "8024d733580a57d5b7f2002e418908acc9e28626785538ada42b64257ccacc5e",
    "characterize_ensemble[quarantine/ragged-nan]": "297b764558c5e1633e7df1161b93260edebb502b1ac8c0c5e49790423a8696e7",
    "characterize_ensemble[quarantine/ragged]": "fd387ade325ff1552d77d90a77f060d77a0476defb53a3f1ff1e77d3108b70ee",
    "characterize_ensemble[quarantine/zero-pattern]": "7949dfbe6792a82ad14166ca04a21ba70984eb7d902984caeb20016650a4a531",
    "characterize_ensemble[quarantine/zero-row]": "87ec658234e84cdbb68f2865f3a1036ddabbe7332bfc41d29e5daf033bd8eedd",
    "characterize_ensemble[raise/clean]": "2ac91043dfcb1407794fe06bdec5e1622b04c999d0ec01d938d4434ed6c9bc36",
    "characterize_ensemble[raise/decomposable-limit]": "bca5201f2cceefccaeee4eef9daaf5d4cca558e7255aa503490009c4b70563db",
    "characterize_ensemble[raise/decomposable]": "raises NotNormalizableError: no standard form exists: the matrix's zero pattern is decomposable (paper Section VI, e.g. its eq. 10); use zeros='limit' for the eq.-9 limit or TMA with method='column'",
    "characterize_ensemble[raise/nan]": "raises MatrixValueError: ECS matrix contains NaN entries",
    "characterize_ensemble[raise/non-convergent]": "1fd7507be7582ba3b1e45740814b09ebbea401a4dcb70e929f9c2885cd27608b",
    "characterize_ensemble[raise/ragged-nan]": "raises MatrixValueError: ECS matrix contains NaN entries",
    "characterize_ensemble[raise/ragged]": "ecafe2454654a34b4f8fa03d757c80e4bcc78cdf83508cc97106839d72681521",
    "characterize_ensemble[raise/zero-pattern]": "981c217b877565878d925b83f6af2bc926a00b44caa60144791854bc11dd9d24",
    "characterize_ensemble[raise/zero-row]": "raises EmptyRowColumnError: ECS matrix has an all-zero row: a task type that no machine can execute",
    "characterize_ensemble[repair/clean]": "4ca5f4f02ed24d27fcd31d36830c0bfe17fd968649e6c94fb08800eccd5f0661",
    "characterize_ensemble[repair/decomposable-limit]": "97323c8acd276644c9982a1f26375ec3d768066eea87bfeea681e4f8dbf7e488",
    "characterize_ensemble[repair/decomposable]": "b56f17f3a878869fc5a2aaf6278eb9c4004c4da899c43ec0940fc76964fe031e",
    "characterize_ensemble[repair/nan]": "1e46201fc8f1908e7aaaf462b97c217123ceabd8aaf8d014ca3b169cac595a84",
    "characterize_ensemble[repair/non-convergent]": "ba3d84b08f2624e53442b5d1f803ec3ad539b5ca6e8f36daa9f78eac6b7c1956",
    "characterize_ensemble[repair/ragged-nan]": "62df38f05f660cf9ce477324f2968bb50e0620f12d2785a05e4fd666822cca1f",
    "characterize_ensemble[repair/ragged]": "e31300c6e039ce96e0f807047e046d0a214c036e3be645d650c95698189c2860",
    "characterize_ensemble[repair/zero-pattern]": "3c2f7f79bd3b07863dd86804027c707ec067c5011e7407244ade67f022b6b801",
    "characterize_ensemble[repair/zero-row]": "27a7dc23be960483c6cebf32a803cab972dccbcd84987f9c4ab40467b52c8fa4",
    "characterize_store[quarantine/clean]": "31d72fce38f8ddff71c14967a84a738a23f87ba2d979cd6802366664ef191145",
    "characterize_store[quarantine/decomposable-limit]": "6a8678a349f56a40abcb11af085c5d3175396f2373d4dc7a426d2d5663e2a41c",
    "characterize_store[quarantine/decomposable]": "8264d5b736b1bf3f275f6cc0591f539e11ca492121e7cd03896fbb8297e7c215",
    "characterize_store[quarantine/nan]": "6d74c8f9cab43ca3545c601be3fb995e94c2144556aafacb40516a352856b211",
    "characterize_store[quarantine/non-convergent]": "8024d733580a57d5b7f2002e418908acc9e28626785538ada42b64257ccacc5e",
    "characterize_store[quarantine/zero-pattern]": "7949dfbe6792a82ad14166ca04a21ba70984eb7d902984caeb20016650a4a531",
    "characterize_store[quarantine/zero-row]": "87ec658234e84cdbb68f2865f3a1036ddabbe7332bfc41d29e5daf033bd8eedd",
    "characterize_store[raise/clean]": "2ac91043dfcb1407794fe06bdec5e1622b04c999d0ec01d938d4434ed6c9bc36",
    "characterize_store[raise/decomposable-limit]": "bca5201f2cceefccaeee4eef9daaf5d4cca558e7255aa503490009c4b70563db",
    "characterize_store[raise/decomposable]": "raises NotNormalizableError: no standard form exists: the matrix's zero pattern is decomposable (paper Section VI, e.g. its eq. 10); use zeros='limit' for the eq.-9 limit or TMA with method='column'",
    "characterize_store[raise/nan]": "raises MatrixValueError: ECS stack contains NaN entries",
    "characterize_store[raise/non-convergent]": "1fd7507be7582ba3b1e45740814b09ebbea401a4dcb70e929f9c2885cd27608b",
    "characterize_store[raise/zero-pattern]": "981c217b877565878d925b83f6af2bc926a00b44caa60144791854bc11dd9d24",
    "characterize_store[raise/zero-row]": "raises MatrixValueError: ECS stack has an all-zero row or column in slice(s) [np.int64(2)]",
    "characterize_store[repair/clean]": "4ca5f4f02ed24d27fcd31d36830c0bfe17fd968649e6c94fb08800eccd5f0661",
    "characterize_store[repair/decomposable-limit]": "97323c8acd276644c9982a1f26375ec3d768066eea87bfeea681e4f8dbf7e488",
    "characterize_store[repair/decomposable]": "b56f17f3a878869fc5a2aaf6278eb9c4004c4da899c43ec0940fc76964fe031e",
    "characterize_store[repair/nan]": "1e46201fc8f1908e7aaaf462b97c217123ceabd8aaf8d014ca3b169cac595a84",
    "characterize_store[repair/non-convergent]": "ba3d84b08f2624e53442b5d1f803ec3ad539b5ca6e8f36daa9f78eac6b7c1956",
    "characterize_store[repair/zero-pattern]": "3c2f7f79bd3b07863dd86804027c707ec067c5011e7407244ade67f022b6b801",
    "characterize_store[repair/zero-row]": "27a7dc23be960483c6cebf32a803cab972dccbcd84987f9c4ab40467b52c8fa4",
    "standardize_batched[quarantine/clean]": "d8f413fdb982b27c5738bacfd15de9431a94c6a796f1e282f80cba1d7079e2f5",
    "standardize_batched[quarantine/decomposable]": "59437487749dbf67f0110097113d5f42eaec7ce13c76a082e5037520bddaf032",
    "standardize_batched[quarantine/nan]": "37d24aa421ec88a62fdbfad623e0e5871775b0ddfd92ec572317ba3ec61fbeed",
    "standardize_batched[quarantine/non-convergent]": "3cd56349bb04d6a5537323dae6229389e96c6c75bcf3dd562d082e662675df65",
    "standardize_batched[quarantine/zero-pattern]": "8be49cfa2e6f252394d1118e224eb9ba730e43eceae8dcf37de5c7506deaf363",
    "standardize_batched[quarantine/zero-row]": "228c8b7a2bfebabd1ddbdced3200ad93c3a845d6a351f746295a78cdab12503b",
    "standardize_batched[raise/clean]": "b6c7faf534d714ef3436e5a3f53861a6f272a482e7cb1965d93f11f99bef6e52",
    "standardize_batched[raise/decomposable]": "raises MatrixValueError: budget/fault_plan require policy='quarantine' or policy='repair'",
    "standardize_batched[raise/nan]": "raises MatrixValueError: budget/fault_plan require policy='quarantine' or policy='repair'",
    "standardize_batched[raise/non-convergent]": "raises MatrixValueError: budget/fault_plan require policy='quarantine' or policy='repair'",
    "standardize_batched[raise/zero-pattern]": "b1fbb60a00b4bffd325238cc796e21fd3450b57b1b83653092e67e24b0cd91a6",
    "standardize_batched[raise/zero-row]": "raises MatrixValueError: budget/fault_plan require policy='quarantine' or policy='repair'",
    "standardize_batched[repair/clean]": "b4a709a283a20d2939bc984505920719ab4fff20e41bbcd0269a553198fcc561",
    "standardize_batched[repair/decomposable]": "8ca9f0468d7ad77b3f400c5fdb83640a3c62921aa61874881541c8ef9f2827ce",
    "standardize_batched[repair/nan]": "101521a15d2f8895b2e3e5521baeaf4bf7ab38b6a4e28b61ca8f2417ac161aca",
    "standardize_batched[repair/non-convergent]": "45a8fdad733676773ee2c95d70002a169ff1b54832eb525b0739d3c004da2b98",
    "standardize_batched[repair/zero-pattern]": "11f251eaea38a5d14bb557704572f8123cf6b6a02b960b152e396b5b8652dd3e",
    "standardize_batched[repair/zero-row]": "dca0fd87b9da821e4b4c670af4131a8f193a59d1eb9ccc3b28b3ae8834459ff4",
}

#: case -> {member: repair label} for every case with a repaired member,
#: kept apart from the digests so a relabelling shows up on its own.
#: The second pipeline labelled standardize_batched's pattern repairs
#: ``pattern:N``; the one ladder labels them ``drop:N``/``add:N`` like
#: characterize_ensemble, with the same repaired matrices.
REPAIR_LABELS = {
    "characterize_ensemble[repair/decomposable]": {2: "drop:7", 8: "drop:7", 13: "drop:7"},
    "characterize_ensemble[repair/non-convergent]": {2: "tol-backoff:1e-07", 8: "tol-backoff:1e-07", 13: "tol-backoff:1e-07"},
    "characterize_ensemble[repair/zero-row]": {2: "add:2", 8: "add:2", 13: "add:2"},
    "characterize_store[repair/decomposable]": {2: "drop:7", 8: "drop:7", 13: "drop:7"},
    "characterize_store[repair/non-convergent]": {2: "tol-backoff:1e-07", 8: "tol-backoff:1e-07", 13: "tol-backoff:1e-07"},
    "characterize_store[repair/zero-row]": {2: "add:2", 8: "add:2", 13: "add:2"},
    "standardize_batched[repair/decomposable]": {2: "drop:7", 8: "drop:7", 13: "drop:7"},
    "standardize_batched[repair/non-convergent]": {2: "tol-backoff:1e-07", 8: "tol-backoff:1e-07", 13: "tol-backoff:1e-07"},
    "standardize_batched[repair/zero-row]": {2: "add:2", 8: "add:2", 13: "add:2"},
}


@pytest.mark.parametrize("case", sorted(ENSEMBLE_CASES))
def test_ensemble_matches_recorded_digest(case, tmp_path):
    result = run_ensemble_case(case, tmp_path)
    assert ensemble_digest(result) == ENSEMBLE_DIGESTS[case]
    report = getattr(result, "report", None)
    labels = {
        f.index: f.repair for f in (report.faults if report else ()) if f.repaired
    }
    assert labels == REPAIR_LABELS.get(case, {})


def test_every_ensemble_case_is_pinned():
    assert sorted(ENSEMBLE_DIGESTS) == sorted(ENSEMBLE_CASES)
