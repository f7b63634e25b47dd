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
        cases[f"spec_float32[{name}]"] = lambda n=name: _standard(
            _spec(n), precision="float32"
        )
    for shape in SHAPES:
        tag = f"{shape[0]}x{shape[1]}"
        for seed in SEEDS:
            key = f"{tag}/{seed}"
            cases[f"sinkhorn_knopp[{key}]"] = (
                lambda s=shape, k=seed: sinkhorn_knopp(_matrix(s, k))
            )
            cases[f"sinkhorn_float32[{key}]"] = (
                lambda s=shape, k=seed: _standard(
                    _matrix(s, k), precision="float32"
                )
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
        cases[f"batched_float32[{tag}]"] = lambda s=shape: standardize_batched(
            _stack(s, 5), precision="float32"
        )
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
    "batched_float32[12x5]": "b72051f73a89600b15059281842edc5d6625f54722de262711d36b3af130fa16",
    "batched_float32[32x16]": "0f81fce3516253d801a22210c8377b3ee53e91d8222a4df0e99b6db6d41a8fe6",
    "batched_float32[8x8]": "dd75301c4df1688644ec6b226831d464aba5b0037c1741493cee83c0273a619c",
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
    "sinkhorn_float32[12x5/0]": "3b846eefc0e9618d7cf2760c55d2366b4415eee7b07b221f25f7a6ef101b8420",
    "sinkhorn_float32[12x5/1]": "7517197599b7af6a8cfec55e7ce7534455e834fc9d3a2dcc9d0092d86b54df8c",
    "sinkhorn_float32[12x5/2]": "00e50f3b524aee277e60c3df965281ffd17c37847a92fda6f9bc42f86af9df13",
    "sinkhorn_float32[32x16/0]": "9be0f887327136aabe9fc7ef62791846be0c935af75add752526674e77816e51",
    "sinkhorn_float32[32x16/1]": "48c3c31237fb97d1b03e8128a5d61b256fe508d2ffef1eaf234be9221091f129",
    "sinkhorn_float32[32x16/2]": "25fa81846591035103d7d1453ad38470e75b0f05b8f71b7227bf25eb47759a0b",
    "sinkhorn_float32[8x8/0]": "544fdbe09d9deca5db48df68ff38efb7747920ee7c2f35da8034e47321184611",
    "sinkhorn_float32[8x8/1]": "250a678ccb93d40d80259d6257cf6c77aad15e6e67951d9f8049e6cbb6818644",
    "sinkhorn_float32[8x8/2]": "2b6e6281764ce1ecd24a074b56a358ced036e474b43e346434d927c4df45287f",
    "sinkhorn_knopp[12x5/0]": "2300bd036cbee11ced77fed0ab0f5925c8b170a0fb65f789c2ed49b76e89adf7",
    "sinkhorn_knopp[12x5/1]": "d138917be478938d15d4565e8d161d3ff685b0caed2207c7dd97cc32433afefe",
    "sinkhorn_knopp[12x5/2]": "c3b3a9c1b638a824efa9b28c7349d8d69c9c900b783d658f4a6bd149da0dc71a",
    "sinkhorn_knopp[32x16/0]": "d981927a24e1d8f08fee3a762ed5add79c3e09fe6e94c4b9f589082bb0b71635",
    "sinkhorn_knopp[32x16/1]": "f70232df792001c974c76aaf5074cbae927d48bc56b5718013fd3f16a6440d6b",
    "sinkhorn_knopp[32x16/2]": "e42c740fba9a690f0ef33cd7a8cbb470f4f1a81c2865bda26202d3227898d076",
    "sinkhorn_knopp[8x8/0]": "18fac754e64f25dad08ae6c1303c33c62f0c7bc3b3639e320d49b100e0a8cfcc",
    "sinkhorn_knopp[8x8/1]": "5af9301fa22a332f4631f24975738601404be04ed02fa52fde5619eca91476f3",
    "sinkhorn_knopp[8x8/2]": "2fbd89dee103ec186c3708812845cc31d961506fcea930188f8360919276028b",
    "spec_float32[cfp2006rate]": "04a15f4d3e7c25b810ccb395e7d9dd0ebe4fb783c7e4880961e3bc0015edcca7",
    "spec_float32[cint2006rate]": "eddb08c9888a9a24dad1753529c6c46ed996a2e66649da26b0a3d1e0bc14a71c",
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
