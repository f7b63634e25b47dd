"""End-to-end tests for the repro-hc command-line interface."""

import json

import pytest

from repro import ETCMatrix, save_etc_csv
from repro.cli import build_parser, main


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


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0


class TestMeasures:
    def test_text_output(self, etc_csv, capsys):
        assert main(["measures", etc_csv]) == 0
        out = capsys.readouterr().out
        assert "MPH" in out and "TMA" in out

    def test_json_output(self, etc_csv, capsys):
        assert main(["measures", etc_csv, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_tasks"] == 3
        assert 0 <= doc["tma"] <= 1

    def test_missing_file(self, capsys):
        assert main(["measures", "/nonexistent.csv"]) == 2
        assert "error" in capsys.readouterr().err


class TestDataset:
    def test_list(self, capsys):
        assert main(["dataset", "--list"]) == 0
        out = capsys.readouterr().out
        assert "cint2006rate" in out and "cfp2006rate" in out

    def test_named(self, capsys):
        assert main(["dataset", "cint2006rate"]) == 0
        assert "12 task types" in capsys.readouterr().out

    def test_unknown(self, capsys):
        assert main(["dataset", "nope"]) == 2

    def test_unknown_prints_its_message(self, capsys):
        from repro.spec import list_datasets

        assert main(["dataset", "nope"]) == 2
        available = ", ".join(list_datasets())
        assert capsys.readouterr().err == (
            f"error: unknown dataset 'nope'; available: {available}\n"
        )


class TestGenerate:
    def test_generate_and_remeasure(self, tmp_path, capsys):
        out_path = str(tmp_path / "gen.csv")
        code = main(
            [
                "generate", "--tasks", "5", "--machines", "4",
                "--mph", "0.6", "--tdh", "0.8", "--tma", "0.2",
                "--seed", "3", "-o", out_path,
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["measures", out_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mph"] == pytest.approx(0.6, abs=1e-6)
        assert doc["tdh"] == pytest.approx(0.8, abs=1e-6)
        assert doc["tma"] == pytest.approx(0.2, abs=1e-3)

    def test_impossible_targets_exit_code(self, tmp_path, capsys):
        assert (
            main(
                [
                    "generate", "--tasks", "2", "--machines", "9",
                    "--tma", "0.99", "-o", str(tmp_path / "x.csv"),
                ]
            )
            == 2
        )


class TestWhatif:
    def test_both_axes(self, etc_csv, capsys):
        assert main(["whatif", etc_csv]) == 0
        out = capsys.readouterr().out
        assert "drop task a" in out
        assert "drop machine m1" in out
        assert out.count("drop") == 5  # 3 tasks + 2 machines

    def test_single_axis(self, etc_csv, capsys):
        assert main(["whatif", etc_csv, "--axis", "tasks"]) == 0
        out = capsys.readouterr().out
        assert "drop machine" not in out


class TestCluster:
    def test_cluster_output(self, tmp_path, capsys):
        path = str(tmp_path / "affine.csv")
        save_etc_csv(
            ETCMatrix(
                [[1.0, 9.0], [9.0, 1.0]],
                task_names=["a", "b"],
                machine_names=["x", "y"],
            ),
            path,
        )
        assert main(["cluster", path]) == 0
        out = capsys.readouterr().out
        assert "affinity group" in out
        assert "group 0" in out and "group 1" in out

    def test_explicit_cluster_count(self, etc_csv, capsys):
        assert main(["cluster", etc_csv, "--clusters", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("group") >= 2

    def test_bad_cluster_count(self, etc_csv, capsys):
        assert main(["cluster", etc_csv, "--clusters", "99"]) == 2


class TestSensitivity:
    def test_table_output(self, etc_csv, capsys):
        assert (
            main(
                [
                    "sensitivity", etc_csv,
                    "--trials", "3", "--noise", "0.05,0.1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sigma" in out
        assert len(out.strip().splitlines()) == 3


class TestReport:
    def test_report_output(self, etc_csv, capsys):
        assert main(["report", etc_csv, "--name", "demo"]) == 0
        out = capsys.readouterr().out
        assert "# Heterogeneity report: demo" in out
        assert "## Measures" in out
        assert "Highest-impact removals" in out

    def test_no_whatif_flag(self, etc_csv, capsys):
        assert main(["report", etc_csv, "--no-whatif"]) == 0
        out = capsys.readouterr().out
        assert "Highest-impact removals" not in out


class TestRecommend:
    def test_recommendation_printed(self, etc_csv, capsys):
        assert main(["recommend", etc_csv]) == 0
        out = capsys.readouterr().out
        assert out.startswith("recommended: ")
        assert "reason:" in out

    def test_check_ranking(self, etc_csv, capsys):
        assert main(["recommend", etc_csv, "--check", "--total", "20"]) == 0
        out = capsys.readouterr().out
        assert "<- recommended" in out
        assert "ratio=" in out


class TestCharacterize:
    def test_healthy_ensemble(self, etc_csv, capsys):
        assert main(["characterize", etc_csv, "--members", "6"]) == 0
        out = capsys.readouterr().out
        assert "6 environments" in out
        assert "all members healthy" in out

    def test_injected_faults_text(self, etc_csv, capsys):
        assert (
            main(
                [
                    "characterize", etc_csv,
                    "--members", "6",
                    "--inject-faults", "nan=1,zero-row=1",
                    "--fault-seed", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 quarantined" in out
        assert "nan" in out and "empty-line" in out

    def test_injected_faults_json(self, etc_csv, capsys):
        assert (
            main(
                [
                    "characterize", etc_csv,
                    "--members", "8",
                    "--inject-faults", "nan=1",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["members"] == 8
        assert doc["policy"] == "quarantine"
        assert list(doc["injected"].values()) == ["nan"]
        assert doc["quarantined"] == [int(k) for k in doc["injected"]]
        (bad,) = doc["quarantined"]
        assert doc["mph"][bad] is None  # NaN serializes as null
        assert sum(v is None for v in doc["mph"]) == 1

    def test_repair_policy(self, etc_csv, capsys):
        assert (
            main(
                [
                    "characterize", etc_csv,
                    "--members", "6",
                    "--policy", "repair",
                    "--inject-faults", "zero-row=1",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["repaired"] == [int(k) for k in doc["injected"]]
        assert doc["quarantined"] == []
        assert all(v is not None for v in doc["mph"])

    def test_raise_policy_fails_on_fault(self, etc_csv, capsys):
        assert (
            main(
                [
                    "characterize", etc_csv,
                    "--members", "4",
                    "--policy", "raise",
                    "--inject-faults", "nan=1",
                ]
            )
            == 2
        )
        assert "error" in capsys.readouterr().err

    def test_dataset_name_as_input(self, capsys):
        assert (
            main(["characterize", "cint2006rate", "--members", "4"]) == 0
        )
        assert "4 environments" in capsys.readouterr().out

    def test_bad_fault_spec(self, etc_csv, capsys):
        assert (
            main(
                [
                    "characterize", etc_csv,
                    "--inject-faults", "meteor=1",
                ]
            )
            == 2
        )
        assert "error" in capsys.readouterr().err


class TestProfileEnsemble:
    def test_profile_with_ensemble_counters(self, etc_csv, capsys):
        assert main(["profile", etc_csv, "--ensemble", "4"]) == 0
        out = capsys.readouterr().out
        assert "ensemble:" in out
        assert (
            "totals batch.characterize_ensemble: batched_slices=4 "
            "fallback_slices=0 slices=4"
        ) in out

    def test_profile_with_chaos_counters(self, etc_csv, capsys):
        assert (
            main(
                [
                    "profile", etc_csv,
                    "--ensemble", "6",
                    "--policy", "quarantine",
                    "--inject-faults", "nan=1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert (
            "totals robust.apply_policy: fault.nan=1 quarantined=1 "
            "repaired=0 retries=0"
        ) in out


class TestSchedule:
    def test_schedule_output(self, etc_csv, capsys):
        assert main(["schedule", etc_csv, "--total", "12"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out
        assert "min_min" in out

    def test_heuristic_subset(self, etc_csv, capsys):
        assert (
            main(["schedule", etc_csv, "--heuristics", "mct,olb"]) == 0
        )
        out = capsys.readouterr().out
        assert "mct" in out and "olb" in out
        assert "min_min" not in out
