"""Golden-output tests for the repro-hc CLI.

Unlike tests/test_cli.py (presence checks), these pin the exact text
and JSON schema of the deterministic subcommands — `measures`,
`sensitivity` and the new `profile` — so output-format regressions
show up as diffs.  Timing numbers are inherently non-deterministic, so
the profile assertions pin the table *structure* (rows, columns,
counters) rather than the millisecond values.
"""

import json

import pytest

from repro import ETCMatrix, save_etc_csv
from repro.cli import main
from repro.shard import plan_shards

GOLDEN_MEASURES = """\
HC environment: 3 task types x 2 machines
  MPH = 0.9516   (R=0.9516, G=0.9516, COV=0.0248)
  TDH = 0.8944   (R=0.8000, G=0.8944, COV=0.0913)
  TMA = 0.2722   [standard form]
  standard form: 7 iterations, residual 4.64e-09
"""

#: Keys (and value types) of `repro-hc measures --json`.
MEASURES_JSON_SCHEMA = {
    "n_tasks": int,
    "n_machines": int,
    "mph": float,
    "tdh": float,
    "tma": float,
    "tma_method": str,
    "machine_r": float,
    "machine_g": float,
    "machine_cov": float,
    "task_r": float,
    "task_g": float,
    "task_cov": float,
    "sinkhorn_iterations": int,
}

#: Keys (and value types) of `repro-hc profile --json`.
PROFILE_JSON_SCHEMA = {
    "file": str,
    "n_tasks": int,
    "n_machines": int,
    "measures": dict,
    "best_heuristic": str,
    "spans": list,
    "counters": dict,
}

SPAN_ROW_SCHEMA = {
    "name": str,
    "count": int,
    "total_s": float,
    "mean_s": float,
    "p50_s": float,
    "p95_s": float,
    "p99_s": float,
    "max_s": float,
    "cpu_s": float,
}


#: Keys (and value types) of `repro-hc characterize --store --json`.
CHARACTERIZE_STORE_JSON_SCHEMA = {
    "file": str,
    "members": int,
    "policy": str,
    "mph": list,
    "tdh": list,
    "tma": list,
    "converged": list,
    "shards": dict,
    "quarantined": list,
    "repaired": list,
    "categories": dict,
}


@pytest.fixture
def etc_csv(tmp_path):
    path = tmp_path / "env.csv"
    save_etc_csv(
        ETCMatrix(
            [[10.0, 5.0], [4.0, 8.0], [6.0, 6.0]],
            task_names=["a", "b", "c"],
        ),
        path,
    )
    return str(path)


class TestMeasuresGolden:
    def test_text_output_exact(self, etc_csv, capsys):
        assert main(["measures", etc_csv]) == 0
        assert capsys.readouterr().out == GOLDEN_MEASURES

    def test_json_schema(self, etc_csv, capsys):
        assert main(["measures", etc_csv, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == set(MEASURES_JSON_SCHEMA)
        for key, typ in MEASURES_JSON_SCHEMA.items():
            assert isinstance(doc[key], typ), (key, doc[key])


class TestSensitivityGolden:
    def test_deterministic_table(self, etc_csv, capsys):
        argv = [
            "sensitivity", etc_csv,
            "--trials", "4", "--noise", "0.05,0.1", "--seed", "7",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second  # fixed seed => byte-identical table
        lines = first.strip().splitlines()
        assert lines[0].split() == [
            "sigma", "mean|dMPH|", "mean|dTDH|", "mean|dTMA|",
            "max|dMPH|", "max|dTDH|", "max|dTMA|",
        ]
        assert len(lines) == 3  # header + one row per noise level
        assert lines[1].startswith("0.050") and lines[2].startswith("0.100")


class TestProfileGolden:
    def test_text_output_structure(self, etc_csv, capsys):
        assert main(["profile", etc_csv, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        # the characterize header comes first, then the span table
        assert out.startswith("HC environment: 3 task types x 2 machines")
        assert "best heuristic: " in out
        header_line = next(
            line for line in out.splitlines() if line.startswith("span")
        )
        assert header_line.split() == [
            "span", "count", "total", "mean", "p50", "p95", "p99",
            "max", "cpu",
        ]
        for expected in (
            "measures.characterize",
            "sinkhorn.scalar",
            "svd.scalar",
            "scheduling.min_min",
            "counter scheduling.decisions",
        ):
            assert expected in out, expected

    def test_json_schema(self, etc_csv, capsys):
        assert main(["profile", etc_csv, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == set(PROFILE_JSON_SCHEMA)
        for key, typ in PROFILE_JSON_SCHEMA.items():
            assert isinstance(doc[key], typ), (key, doc[key])
        assert set(doc["measures"]) == {"mph", "tdh", "tma"}
        for row in doc["spans"]:
            assert set(row) == set(SPAN_ROW_SCHEMA)
            for key, typ in SPAN_ROW_SCHEMA.items():
                assert isinstance(row[key], typ), (key, row)
        names = {row["name"] for row in doc["spans"]}
        assert any(n.startswith("sinkhorn") for n in names)
        assert any(n.startswith("svd") for n in names)
        assert any(n.startswith("scheduling") for n in names)
        assert doc["counters"]["scheduling.decisions"] > 0

    def test_dataset_name_accepted(self, capsys):
        assert main(["profile", "cint2006rate"]) == 0
        out = capsys.readouterr().out
        assert "12 task types x 5 machines" in out
        assert "sinkhorn.scalar" in out

    def test_trace_output_jsonl(self, etc_csv, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["profile", etc_csv, "-o", str(trace)]) == 0
        assert f"trace events written to {trace}" in capsys.readouterr().out
        records = [
            json.loads(line)
            for line in trace.read_text().strip().splitlines()
        ]
        assert all("type" in r for r in records)
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert "sinkhorn.scalar" in span_names

    def test_missing_file_exit_code(self, capsys):
        assert main(["profile", "/nonexistent.csv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_recorder_left_behind(self, etc_csv, capsys):
        from repro.obs import current_recorder

        assert main(["profile", etc_csv]) == 0
        capsys.readouterr()
        assert current_recorder() is None


class TestCharacterizeStoreGolden:
    """`characterize --store`: out-of-core transcript and flag guards."""

    @pytest.fixture
    def store_path(self, tmp_path):
        from repro.generate import random_ecs_store

        random_ecs_store(tmp_path / "store", 12, 3, 2, seed=5)
        return str(tmp_path / "store")

    def test_text_transcript(self, store_path, capsys):
        argv = ["characterize", "--store", store_path, "--chunk-size", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second  # store + seedless run => deterministic
        lines = first.splitlines()
        estimate = plan_shards(12, 3, 2, chunk_size=5).estimated_peak_bytes
        assert lines[0] == (
            "3 shard(s) x 5 member(s) over 12 "
            f"(no budget, est. peak {estimate / 2**20:.3g} MB)"
        )
        assert lines[1].startswith("12 environments (3x2): MPH ")
        assert lines[2] == "quarantine report: all members healthy"

    def test_memory_budget_summary_line(self, store_path, capsys):
        argv = [
            "characterize", "--store", store_path, "--memory-budget", "1",
        ]
        assert main(argv) == 0
        plan = plan_shards(12, 3, 2, memory_budget_bytes=2**20)
        assert capsys.readouterr().out.splitlines()[0] == (
            "1 shard(s) x 12 member(s) over 12 (1 MB budget, "
            f"est. peak {plan.estimated_peak_bytes / 2**20:.3g} MB)"
        )

    def test_json_schema(self, store_path, capsys):
        argv = [
            "characterize", "--store", store_path,
            "--memory-budget", "1", "--json",
        ]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == set(CHARACTERIZE_STORE_JSON_SCHEMA)
        for key, typ in CHARACTERIZE_STORE_JSON_SCHEMA.items():
            assert isinstance(doc[key], typ), (key, doc[key])
        assert doc["file"] == store_path
        assert doc["members"] == 12
        assert len(doc["mph"]) == 12
        assert doc["converged"] == [True] * 12
        assert doc["shards"] == {
            "count": 1,
            "chunk_size": 12,
            "memory_budget_bytes": 2**20,
            "estimated_peak_bytes": plan_shards(
                12, 3, 2, memory_budget_bytes=2**20
            ).estimated_peak_bytes,
        }

    def test_matches_in_memory_pipeline(self, store_path, capsys):
        from repro.batch import characterize_ensemble
        from repro.shard import open_store

        argv = [
            "characterize", "--store", store_path,
            "--chunk-size", "5", "--json",
        ]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        whole = characterize_ensemble(
            open_store(store_path).read(0, 12), policy="quarantine"
        )
        assert doc["mph"] == [float(v) for v in whole.mph]
        assert doc["tma"] == [float(v) for v in whole.tma]

    def test_file_and_store_conflict(self, etc_csv, store_path, capsys):
        argv = ["characterize", etc_csv, "--store", store_path]
        assert main(argv) == 2
        assert "not both" in capsys.readouterr().err

    def test_store_flags_require_store(self, etc_csv, capsys):
        argv = ["characterize", etc_csv, "--memory-budget", "8"]
        assert main(argv) == 2
        assert "--store" in capsys.readouterr().err

    def test_missing_file_and_store(self, capsys):
        assert main(["characterize"]) == 2
        assert "--store" in capsys.readouterr().err
