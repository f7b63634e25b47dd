"""Request validation and the deterministic wire encoding."""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.export import render_prometheus
from repro.serve import (
    ENDPOINTS,
    SCHEMA,
    CharacterizationServer,
    ProtocolError,
    ServeConfig,
    canonical_options,
    decode_json,
    encode_json,
    error_body,
    json_safe,
    matrix_cache_key,
    parse_request,
    result_body,
)
from repro.spec import load_dataset


def _payload(matrix=None, **options):
    payload = {"matrix": matrix if matrix is not None else [[1.0, 2.0], [3.0, 4.0]]}
    payload.update(options)
    return payload


class TestParseRequest:
    def test_accepts_every_documented_endpoint(self):
        for endpoint in ENDPOINTS:
            request = parse_request(endpoint, _payload())
            assert request.endpoint == endpoint
            assert request.shape == (2, 2)

    def test_matrix_is_float64_c_contiguous(self):
        request = parse_request("characterize", _payload())
        assert request.matrix.dtype == np.float64
        assert request.matrix.flags["C_CONTIGUOUS"]

    def test_canonical_options_are_built_once_and_key_the_same(self):
        request = parse_request("standardize", _payload(tol=1e-6))
        assert request.canonical_options == canonical_options(request.options)
        assert matrix_cache_key(
            request.matrix, endpoint="standardize", options=request.options
        ) == matrix_cache_key(
            request.matrix,
            endpoint="standardize",
            options=request.canonical_options,
        )

    def test_unknown_endpoint_is_404(self):
        with pytest.raises(ProtocolError) as err:
            parse_request("summarize", _payload())
        assert err.value.status == 404

    def test_non_dict_document_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request("characterize", [1, 2, 3])

    def test_missing_matrix_rejected(self):
        with pytest.raises(ProtocolError, match="matrix"):
            parse_request("characterize", {"tol": 1e-8})

    @pytest.mark.parametrize(
        "matrix",
        [
            [],
            [[]],
            [1.0, 2.0],
            [[[1.0]]],
            [[1.0, "x"], [2.0, 3.0]],
            "matrix",
        ],
    )
    def test_malformed_matrices_rejected(self, matrix):
        with pytest.raises(ProtocolError):
            parse_request("characterize", _payload(matrix=matrix))

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request(
                "characterize", _payload(matrix=[[1.0, 2.0], [3.0]])
            )

    def test_nan_matrix_is_accepted_by_the_protocol(self):
        # NaN is a *fault taxonomy* concern (the robust pipeline turns
        # it into a structured `nan` quarantine error), not a protocol
        # violation — the request must parse.
        request = parse_request(
            "characterize",
            _payload(matrix=[[1.0, float("nan")], [1.0, 1.0]]),
        )
        assert math.isnan(request.matrix[0, 1])

    def test_unknown_option_rejected(self):
        with pytest.raises(ProtocolError, match="unknown option"):
            parse_request("characterize", _payload(linger=3))

    def test_options_are_per_endpoint(self):
        parse_request("standardize", _payload(max_iterations=10))
        with pytest.raises(ProtocolError, match="unknown option"):
            parse_request("characterize", _payload(max_iterations=10))

    @pytest.mark.parametrize("tol", [0.0, -1e-8, 1.5, "tight", float("nan")])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ProtocolError):
            parse_request("characterize", _payload(tol=tol))

    @pytest.mark.parametrize("policy", ["raise", "drop", 3])
    def test_bad_policy_rejected(self, policy):
        with pytest.raises(ProtocolError):
            parse_request("characterize", _payload(policy=policy))

    @pytest.mark.parametrize("policy", ["quarantine", "repair"])
    def test_good_policy_accepted(self, policy):
        request = parse_request("characterize", _payload(policy=policy))
        assert request.options["policy"] == policy

    def test_bad_tma_fallback_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request("characterize", _payload(tma_fallback="guess"))

    @pytest.mark.parametrize("value", [0, -3, 2.5, "many", 2**63])
    def test_bad_max_iterations_rejected(self, value):
        with pytest.raises(ProtocolError):
            parse_request("standardize", _payload(max_iterations=value))

    @pytest.mark.parametrize(
        "matrix, names",
        [
            ([["1.5", 2.0], [3.0, 4.0]], "string"),
            ([[1.0, True], [3.0, 4.0]], "boolean"),
            ([[False, False], [False, False]], "boolean"),
            ([["1.5", True], [3, 4]], "string and boolean"),
        ],
    )
    def test_string_and_boolean_entries_are_not_numbers(self, matrix, names):
        # numpy would read "1.5" as 1.5 and true as 1.0.
        with pytest.raises(ProtocolError, match=f"got {names} entries"):
            parse_request("characterize", _payload(matrix=matrix))


def _post(endpoint, body: bytes):
    async def post():
        server = CharacterizationServer(ServeConfig(enable_metrics=False))
        return await server.exchange("POST", f"/v1/{endpoint}", body)

    status, _, answer, _ = asyncio.run(post())
    return status, json.loads(answer)["error"]


class TestMalformedBodiesAnswer400:
    """Each body is a JSON document that parsed, so the answer is a
    structured 400 ``bad-request``, never a 500."""

    def test_string_or_boolean_entry(self):
        body = b'{"matrix": [["1.5", true], [3, 4]]}'
        status, error = _post("characterize", body)
        assert status == 400
        assert error["category"] == "bad-request"
        assert "string and boolean" in error["message"]

    @pytest.mark.parametrize(
        "endpoint, field, document",
        [
            ("characterize", "tol", {"matrix": [[1, 2], [3, 4]], "tol": 10**400}),
            (
                "standardize",
                "deadline_ms",
                {"matrix": [[1, 2], [3, 4]], "deadline_ms": 10**400},
            ),
            ("characterize", "matrix", {"matrix": [[10**400, 2], [3, 4]]}),
        ],
    )
    def test_integer_past_the_float64_range(self, endpoint, field, document):
        status, error = _post(endpoint, json.dumps(document).encode())
        assert status == 400
        assert error["category"] == "bad-request"
        assert f"'{field}'" in error["message"]

    def test_integer_past_the_digit_limit(self):
        body = b'{"matrix": [[1, 2], [3, 4]], "tol": 1' + b"0" * 5000 + b"}"
        status, error = _post("characterize", body)
        assert status == 400
        assert error["category"] == "bad-request"


class TestEncoding:
    def test_encode_is_deterministic_and_sorted(self):
        a = encode_json({"b": 1, "a": 2})
        b = encode_json({"a": 2, "b": 1})
        assert a == b == b'{"a":2,"b":1}\n'

    def test_encode_scrubs_nan_to_null(self):
        # Strict-JSON clients never see a bare NaN token.
        assert encode_json({"x": float("nan")}) == b'{"x":null}\n'

    def test_json_safe_scrubs_non_finite_and_numpy(self):
        cleaned = json_safe(
            {
                "nan": float("nan"),
                "inf": np.float64("inf"),
                "x": np.float64(1.5),
                "n": np.int64(3),
                "flag": np.bool_(True),
                "nested": [np.float64("-inf"), {"y": np.float64(2.0)}],
            }
        )
        assert cleaned == {
            "nan": None,
            "inf": None,
            "x": 1.5,
            "n": 3,
            "flag": True,
            "nested": [None, {"y": 2.0}],
        }

    def test_decode_json_bad_bytes(self):
        with pytest.raises(ProtocolError):
            decode_json(b"{not json")

    def test_deeply_nested_json_is_a_400(self):
        body = b"[" * 50000 + b"]" * 50000
        with pytest.raises(ProtocolError):
            decode_json(body)

        async def post():
            server = CharacterizationServer(ServeConfig(enable_metrics=False))
            return await server.exchange("POST", "/v1/characterize", body)

        status, _, answer, _ = asyncio.run(post())
        assert status == 400
        assert json.loads(answer)["error"]["category"] == "bad-request"

    def test_result_body_roundtrip(self):
        body = result_body("characterize", {"mph": 0.5})
        document = json.loads(body)
        assert document == {
            "schema": SCHEMA,
            "endpoint": "characterize",
            "result": {"mph": 0.5},
        }

    def test_error_body_shape(self):
        document = json.loads(error_body("standardize", "nan", "bad data"))
        assert document["schema"] == SCHEMA
        assert document["error"] == {"category": "nan", "message": "bad data"}


# -- byte pins ---------------------------------------------------------------
#
# SHA-256 digests of response bodies, encoded documents and a metrics
# exposition, recorded before the renderer and the metrics registry were
# optimized.  The serving benchmark compares answers with a fresh server
# running the same code, so it cannot see a rendering drift; these pins
# can.  Update a digest deliberately, never to make a refactor pass.
# The bodies that carry a TMA were re-pinned when eq. 8 began taking the
# Gram spectrum of standard forms (TMA moved by at most 1.7e-16; every
# other field held).


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _served_matrices() -> dict[str, np.ndarray]:
    matrices = {
        name: load_dataset(name).to_ecs().values
        for name in ("cint2006rate", "cfp2006rate")
    }
    matrices["rand8x8"] = np.random.default_rng(81).uniform(0.5, 10.0, (8, 8))
    matrices["rand5x4"] = np.random.default_rng(54).uniform(0.5, 10.0, (5, 4))
    return matrices


def _served_bodies() -> dict[str, tuple[int, bytes]]:
    """``endpoint/matrix`` → (status, body), every request in one burst;
    ``quarantined`` is a NaN 8×8 batched next to ``rand8x8``."""
    nan = np.random.default_rng(88).uniform(0.5, 10.0, (8, 8))
    nan[3, 4] = np.nan
    requests = {
        f"{endpoint}/{name}": (endpoint, {"matrix": matrix.tolist()})
        for endpoint in ENDPOINTS
        for name, matrix in _served_matrices().items()
    }
    requests["quarantined"] = ("characterize", {"matrix": nan.tolist()})

    async def burst():
        server = CharacterizationServer(ServeConfig(enable_metrics=False))
        return await asyncio.gather(
            *(
                server.exchange(
                    "POST",
                    f"/v1/{endpoint}",
                    json.dumps(payload, allow_nan=True).encode(),
                )
                for endpoint, payload in requests.values()
            )
        )

    answers = asyncio.run(burst())
    return {
        key: (status, body)
        for key, (status, _ct, body, _h) in zip(requests, answers)
    }


SERVED_DIGESTS = {
    "characterize/cint2006rate": "3bbf9b67c0373d40babc3a8d405b49f06965856cdcc4717f242fca712dc1035d",
    "characterize/cfp2006rate": "1d7872b4f5847d7f2843d719a8cd0ec3d5265df91ce6f381ba603df2c1b92390",
    "characterize/rand8x8": "c345c2550d7830da0b85fb75c0c40effa2ffc4991b64aca0d2f29f8edb500962",
    "characterize/rand5x4": "d3119ee36662c6f9cc45b6de8926f9fbc18fc50b7d7b3ad48ab3d671b6ab7bdf",
    "standardize/cint2006rate": "c6c7c091fa59c9ef2c5dcac45c13068d4c87192d7811e7bad006b1d3c4b565b8",
    "standardize/cfp2006rate": "8a8d0e325b5afbc1fe7410e4af85ef0437fbe43096381c34bbe7058848ea37b9",
    "standardize/rand8x8": "eec1f69ac7e77ab66cd359650565bbf45d0bcc868e511bc9fee3f1399a4aa61d",
    "standardize/rand5x4": "54d9c91b0e75887ac1ab02919032a491da90c39642a652069756134dea7a5a2b",
    "recommend-heuristic/cint2006rate": "c9daee3a5a92916282b9d7b3b4ae5e4037c4a00fb3a24415a76705e722a5411b",
    "recommend-heuristic/cfp2006rate": "6bff3846fdee210cdff3dc802370cfbf83d631c01b9b38ef734331e26c8f000b",
    "recommend-heuristic/rand8x8": "d4aef14e54ebe3deb17a9e04caaa253e959ae40d87ca921fe758e66371cbfe07",
    "recommend-heuristic/rand5x4": "c58b80b338df7a85fdc76fe19b32dded5f412c3f163aeafbe31f7549df00a681",
    "quarantined": "85d9f86ded701de50ffae53440c9ba1cf89e67ecdbe4293787549fb19845b974",
}

ENCODE_CASES = {
    "non_finite": {
        "vector": np.array([1.5, np.nan, np.inf, -np.inf]),
        "matrix": np.array([[np.nan, 2.0], [3.0, -np.inf]]),
        "float32": np.array([0.1, np.nan], dtype=np.float32),
        "zero_d": np.array(np.nan),
    },
    "finite_float": {
        "vector": np.linspace(0.1, 2.0, 7),
        "matrix": np.random.default_rng(3).uniform(size=(3, 4)),
        "float32": np.array([0.1, 0.2], dtype=np.float32),
        "zero_d": np.array(2.5),
        "empty": np.array([]),
    },
    "int_bool": {
        "int64": np.arange(6, dtype=np.int64).reshape(2, 3),
        "int32": np.array([-1, 7], dtype=np.int32),
        "uint8": np.array([1, 255], dtype=np.uint8),
        "bool": np.array([[True, False], [False, True]]),
    },
    "scalars": {
        "float64": np.float64(0.1),
        "float32": np.float32(0.1),
        "int64": np.int64(-4),
        "bool": np.bool_(False),
        "nan": np.float64("nan"),
        "inf": np.float32("inf"),
        "python": [1, 2.5, True, None, "text"],
    },
    "nested": {
        "tuple": (1, (2.5, np.float64(3.0)), [np.array([1.0, np.nan]), (np.int32(2),)]),
        "dicts": {"a": {"b": (np.array([[1, 2]]), np.array([0.5]))}},
    },
}

ENCODE_DIGESTS = {
    "non_finite": "95bb274ac8bf2a0b0553b680ed91fd0eb45f2c7f549cc7662f2c804c8641e661",
    "finite_float": "98701af4a86a095400f8ccce55ddfdca6030d79bd23b3e26e286a2da82028d58",
    "int_bool": "e41f2eac459c669c25c09cc4ae41aa9bc08c45676fb57161db5efe87ee7de34f",
    "scalars": "7d035eee60c6d6a001e4b68b86d5efc3b476d9fade6dd2705ed8e88336f6366d",
    "nested": "96428d7023f6b03dfdecf38c2990f16ca59ca06d8bd708cf202ced87c39bcaab",
}


def _sinkhorn_runs(kernel, iterations, residual, converged) -> list:
    return [
        update
        for its, res, ok in zip(iterations, residual, converged)
        for update in (
            ("repro_sinkhorn_runs_total", (kernel, "true" if ok else "false"), 1.0),
            ("repro_sinkhorn_iterations", (kernel,), its),
            ("repro_sinkhorn_exit_residual", (kernel,), res),
        )
    ]


def _helper_sequence(registry) -> None:
    """A fixed record into every declared family of ``registry``."""
    record = registry.record
    record(*_sinkhorn_runs("scalar", [7], [3e-9], [True]))
    record(*_sinkhorn_runs("margins", [100_000], [0.25], [False]))
    record(*_sinkhorn_runs(
        "batched", [5, 9, 12, 700], [1e-9, 2.5e-9, np.nan, 0.1],
        [True, True, False, False],
    ))
    record(
        ("repro_svd_seconds", ("scalar",), 2.5e-5),
        ("repro_svd_seconds", ("batched",), 0.003),
        ("repro_ensemble_members_total", ("batched",), 14),
        ("repro_ensemble_members_total", ("fallback",), 2),
        ("repro_ensemble_members_total", ("batched",), 3),
        ("repro_member_outcomes_total", ("quarantined",), 2),
        ("repro_member_outcomes_total", ("repaired",), 1),
        ("repro_member_outcomes_total", ("fault.nan",), 1),
        ("repro_member_outcomes_total", ("fault.non-convergent",), 2),
        ("repro_backend_dispatch_total", ("numpy", "sinkhorn_batched"), 1.0),
        ("repro_backend_warm_start_total", ("batched", "converged"), 1.0),
        ("repro_characterize_runs_total", ("standard",), 1.0),
        ("repro_characterize_runs_total", ("limit",), 1.0),
    )
    recorder = SimpleNamespace(
        events=[
            SimpleNamespace(name="demo.ok", wall_s=0.004, error=None),
            SimpleNamespace(name="demo.err", wall_s=0.25, error="boom"),
        ],
    )
    obs_metrics.fold_recorder(recorder, registry=registry)
    exemplar = {"trace_id": "ab" * 16}
    for wall_s, source in ((0.0021, "batched"), (0.4, "cold"), (3e-5, "cache-memory")):
        record(
            ("repro_serve_requests_total", ("characterize", "200"), 1.0),
            ("repro_serve_request_seconds", ("characterize", source), wall_s, exemplar),
        )
    record(
        ("repro_serve_requests_total", ("standardize", "422"), 1.0),
        ("repro_serve_request_seconds", ("standardize", "error"), 0.0015),
        ("repro_serve_scrapes_total", ("metrics", "200"), 1.0),
        ("repro_serve_scrape_seconds", ("metrics",), 0.0004),
        ("repro_serve_scrapes_total", ("healthz", "503"), 1.0),
        ("repro_serve_scrape_seconds", ("healthz",), 2e-5),
        ("repro_serve_coalesce_batch_size", ("characterize",), 16),
        ("repro_serve_coalesce_batch_size", ("standardize",), 6),
        ("repro_serve_kernel_invocations_total", ("characterize",), 1.0),
        *(("repro_serve_cache_events_total", (event,), 1.0)
          for event in ("miss", "store", "hit-memory", "hit-memory")),
        ("repro_serve_quarantined_total", ("characterize", "nan"), 1.0),
        ("repro_serve_admitted_total", ("characterize",), 1.0),
        ("repro_serve_shed_total", ("standardize", "queue-full"), 1.0),
        ("repro_serve_deadline_exceeded_total", ("characterize", "coalesce"), 1.0),
        ("repro_serve_drain_total", ("started",), 1.0),
        ("repro_serve_admission_limit", ("characterize",), 48),
        ("repro_serve_admission_limit", ("characterize",), 33.5),
        ("repro_shard_chunks_total", ("serial",), 1.0),
        ("repro_shard_members_total", ("serial",), 64),
        ("repro_shard_chunk_seconds", ("serial",), 0.012),
        ("repro_shard_dispatch_total", ("primary",), 1.0),
        ("repro_shard_dispatch_total", ("winner_backup",), 1.0),
    )


def _exposition_without_exemplars(registry) -> bytes:
    text = render_prometheus(registry)
    return re.sub(r" # \{[^\n]*", "", text).encode("utf-8")


PROMETHEUS_DIGEST = (
    "2deaaea008f2b296eab1e0ff7b161e2a04c131466cdfccc409f15d5a7aa9e0eb"
)


class TestBytePins:
    def test_served_bodies(self):
        bodies = _served_bodies()
        assert bodies["quarantined"][0] == 422
        assert {status for key, (status, _b) in bodies.items()
                if key != "quarantined"} == {200}
        got = {key: _digest(body) for key, (_s, body) in bodies.items()}
        assert got == SERVED_DIGESTS

    def test_encoded_documents(self):
        got = {
            name: _digest(encode_json(document))
            for name, document in ENCODE_CASES.items()
        }
        assert got == ENCODE_DIGESTS

    def test_metrics_exposition(self):
        registry = obs_metrics.MetricsRegistry()
        _helper_sequence(registry)
        assert _digest(_exposition_without_exemplars(registry)) == PROMETHEUS_DIGEST
