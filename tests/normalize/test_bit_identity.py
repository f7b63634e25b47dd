"""Bit-identity pins for every Sinkhorn entry point.

Each case hashes the outputs a run reports — ``matrix``, ``row_scale``,
``col_scale``, ``iterations`` and ``residual_history`` — with SHA-256.
The digests were recorded while the scalar and batched paths still ran
through separate cores, so they hold the single batched core to the
exact float64 results of both.  A digest changes only when the numpy
reference changes numerically: update :data:`DIGESTS` deliberately,
never to make a refactor pass.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.batch import standardize_batched
from repro.normalize import scale_to_margins, sinkhorn_knopp
from repro.normalize.standard_form import standard_targets
from repro.spec import load_dataset

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
