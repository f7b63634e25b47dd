"""Tests for comparison tables."""

import pytest

from repro.analysis import comparison_table, format_table
from repro.spec import cfp2006rate, cint2006rate


class TestComparisonTable:
    def test_default_columns(self):
        rows = comparison_table(
            {"cint": cint2006rate(), "cfp": cfp2006rate()}
        )
        assert [r["name"] for r in rows] == ["cint", "cfp"]
        assert set(rows[0]) == {"name", "mph", "tdh", "tma"}

    def test_fig2_style_columns(self):
        rows = comparison_table(
            {"cint": cint2006rate()},
            columns=("mph", "machine_r", "machine_g", "machine_cov"),
        )
        assert rows[0]["machine_r"] == pytest.approx(0.4515, abs=1e-3)

    def test_unknown_column_refused_before_any_profile(self, monkeypatch):
        import repro.analysis.compare as compare

        def refuse(matrix):
            raise AssertionError("characterized before the columns were checked")

        monkeypatch.setattr(compare, "characterize", refuse)
        with pytest.raises(ValueError, match="'nope'"):
            comparison_table({"cint": cint2006rate()}, columns=("mph", "nope"))

    def test_values_match_characterize(self):
        from repro.measures import characterize

        rows = comparison_table({"cint": cint2006rate()})
        profile = characterize(cint2006rate())
        assert rows[0]["mph"] == pytest.approx(profile.mph)
        assert rows[0]["tma"] == pytest.approx(profile.tma)


class TestFormatTable:
    def test_alignment_and_header(self):
        rows = comparison_table({"cint": cint2006rate()})
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "mph" in lines[0]
        assert len(lines) == 3  # header, rule, one row

    def test_precision(self):
        rows = [{"name": "x", "value": 1.0 / 3.0}]
        assert "0.33" in format_table(rows, precision=2)
        assert "0.3333" in format_table(rows, precision=4)

    def test_empty(self):
        assert format_table([]) == "(empty table)"

    def test_non_float_columns(self):
        text = format_table([{"name": "a", "count": 3}])
        assert "3" in text
