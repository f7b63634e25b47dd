"""Tests of the benchmark suite itself: ``pytest benchmarks/suite``.

Runs use ``--scale smoke``, so each takes a few seconds.
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke(workload: str, trace: int, out: Path | None = None, cwd=ROOT):
    command = [sys.executable, str(cwd / "benchmarks" / "suite" / "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--scale", "smoke"]
    if out is not None:
        command += ["--out", str(out)]
    return subprocess.run(command, capture_output=True, text=True, timeout=170,
                          cwd=cwd)


def smoke_run(workload: str, tmp_path: Path, **overrides) -> workloads.Outcome:
    """One smoke-scale workload run in this process."""
    scale = workloads.SCALES["smoke"]
    arguments = dict(workload=workload, seed=3, seconds=0.5, scale=scale,
                     work=tmp_path, src=ROOT / "src")
    arguments.update(overrides)
    return workloads.WORKLOADS[workload](workloads.Run(**arguments))


def test_declared_names_units_and_bounds():
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    targets = [target for _layer, target in spans.HOOKS]
    assert len(targets) == len(set(targets))
    assert {layer for layer, _ in spans.HOOKS} == set(spans.LAYERS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_emits_exactly_the_declared_metrics(workload, trace, tmp_path):
    done = smoke(workload, trace, tmp_path / "record.json")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())
    else:
        assert last["metrics"]["trace.attributed_share"]["value"] >= 0.9
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["scale"] == "smoke" and len(record["runs"]) == 1


def test_corrupted_response_byte_counts_as_a_failure(tmp_path, monkeypatch):
    fire = workloads.fire
    bursts = []

    async def corrupt_fourth(server, sent):
        answers = await fire(server, sent)
        bursts.append(answers)
        if len(bursts) == 4:  # the second timed burst, after two warm-ups
            answers = [(status, body[:-2] + bytes([body[-2] ^ 1]) + body[-1:], done)
                       for status, body, done in answers]
        return answers

    monkeypatch.setattr(workloads, "fire", corrupt_fourth)
    out = smoke_run("serve_mix", tmp_path)
    assert len(bursts) > 4
    assert all(status == 200 for status, _b, _d in bursts[3])
    # Every burst has a seeded sample of 1 in 16 checked.
    assert out.failed == workloads.BURST_WIDTH // 16
    assert out.attempted > 4 * workloads.BURST_WIDTH


def test_timings_come_from_the_quicker_half_at_the_reference_speed(monkeypatch):
    # The probe ran twice as long as on the reference host in its
    # quicker half: the host ran at half speed.
    probes = iter([2.0, 2.0, 9.0, 2.0, 9.0])
    monkeypatch.setattr(workloads, "host_probe",
                        lambda: next(probes) * workloads.REFERENCE_PROBE_S)
    blocks = workloads.Blocks(size=1)
    for seconds in (1.0, 1.1, 5.0, 0.9, 7.0):
        blocks.add(seconds, 10, [seconds / 10] * 10)
        blocks.end_unit()
    for scaled, speed in ((True, 0.5), (False, 1.0)):
        out = workloads.Outcome()
        workloads.put_timing(out, blocks, "calls", scaled=scaled)
        assert out.extra["host_speed"] == pytest.approx(0.5)
        assert out.metrics["latency_p50_ms"] == pytest.approx(100.0 * speed)
        assert out.metrics["latency_p90_ms"] == pytest.approx(110.0 * speed)
        assert out.metrics["members_per_s"] == pytest.approx(30 / 3.0 / speed)


def test_removed_function_is_reported_absent(tmp_path, monkeypatch):
    import repro.scheduling.selection as selection

    monkeypatch.delattr(selection, "recommend_from_measures")
    tracer = spans.Tracer()
    target = "repro.scheduling.selection:recommend_from_measures"
    assert tracer.status[target].startswith("absent")
    out = smoke_run("library_scalar", tmp_path, tracer=tracer)
    assert out.metrics["trace.absent_hooks"] == 1
    assert out.failed == 0 and out.metrics["trace.attributed_share"] > 0.9


def test_golden_copy_matches_the_library_tests():
    path = ROOT / "tests" / "batch" / "test_golden_spec.py"
    spec = importlib.util.spec_from_file_location("golden_spec", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert workloads.GOLDEN == module.GOLDEN
    assert workloads.PIN_ATOL == module.PIN_ATOL


def _set(tmp_path, name, scale, values):
    runs = [
        {"workload": "library_scalar", "trace": 0,
         "metrics": {"latency_p50_ms": {"value": v, "unit": "ms"}}}
        for v in values
    ]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"scale": scale, "runs": runs}))
    return str(path)


@pytest.mark.parametrize("a, b, status, code", [
    ([1.0, 1.01, 0.99, 1.0, 1.0], [1.02, 1.0, 1.01, 0.99, 1.0], "ok", 0),
    ([1.0, 1.01, 0.99, 1.0, 1.0], [1.3, 1.31, 1.29, 1.3, 1.3], "regressed", 1),
    ([1.0, 1.5, 0.6, 1.2, 0.8], [1.3, 1.0, 1.6, 0.9, 1.2], "unresolved", 0),
    ([1.0, 1.5, 0.6, 1.2, 0.8], [0.3, 0.31, 0.29, 0.3, 0.3], "better", 0),
])
def test_compare_rows(tmp_path, capsys, a, b, status, code):
    assert run.compare(_set(tmp_path, "a", "full", a),
                       _set(tmp_path, "b", "full", b)) == code
    row = [line for line in capsys.readouterr().out.splitlines()
           if "latency_p50_ms" in line]
    assert row[0].split()[-1] == status


def test_compare_refuses_mixed_scales(tmp_path):
    assert run.compare(_set(tmp_path, "a", "full", [1.0]),
                       _set(tmp_path, "b", "smoke", [1.0])) == 2


def test_smoke_run_leaves_git_status_clean():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")

    def status():
        return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout

    before = status()
    for workload in ("serve_mix", "ensemble_store"):
        assert smoke(workload, 1).returncode == 0
    assert status() == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = smoke("library_scalar", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
