"""Shared benchmark fixtures.

Every benchmark regenerates its paper artifact (table or figure series)
and persists it under ``benchmarks/results/`` so the harness output
survives pytest's capture; the asserted claims mirror the paper's
qualitative statements, and the ``benchmark`` fixture times the
underlying computation.  Benchmarks that also produce machine-readable
numbers pass them as ``data=`` and get a ``<name>.json`` sibling next
to the text table.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def write_result(results_dir):
    """Persist a regenerated table: ``write_result("fig2", text)``.

    ``write_result("fig2", text, data={...})`` additionally writes the
    JSON-safe ``data`` document to ``results/fig2.json``.
    """

    def _write(name: str, text: str, data=None) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text.rstrip() + "\n", encoding="utf-8")
        if data is not None:
            (results_dir / f"{name}.json").write_text(
                json.dumps(data, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        # Also echo so `pytest -s benchmarks/` shows the tables inline.
        print(f"\n=== {name} ===\n{text}")

    return _write
