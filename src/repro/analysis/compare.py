"""Comparing heterogeneous computing environments.

The paper's stated purpose is "to provide heterogeneity measures that
can be used as a standard way to compare different heterogeneous
computing environments"; this module is that comparison layer:

* :func:`comparison_table` / :func:`format_table` — the Fig. 2 / 6–8
  presentation (named environments → measure table);
* :func:`measure_distance` — distance between two environments in
  (MPH, TDH, TMA) space;
* :func:`equivalent_up_to_scaling` — the *exact* equivalence the
  standard form induces: two environments are scaling-equivalent
  (``B = D1 A D2``) iff their standard forms coincide, i.e. they
  describe the same affinity structure in different units/weights;
* :func:`rank_by_similarity` — order a corpus by measure distance to a
  reference environment.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Mapping, Sequence

import numpy as np

from ..measures.report import HeterogeneityProfile, characterize
from ..normalize.standard_form import standardize

__all__ = [
    "comparison_table",
    "format_table",
    "measure_distance",
    "equivalent_up_to_scaling",
    "rank_by_similarity",
]

_DEFAULT_COLUMNS = ("mph", "tdh", "tma")
_PROFILE_FIELDS = tuple(f.name for f in fields(HeterogeneityProfile))


def comparison_table(
    environments: Mapping[str, object],
    *,
    columns: Sequence[str] = _DEFAULT_COLUMNS,
) -> list[dict]:
    """Characterize several environments into table rows.

    Parameters
    ----------
    environments : mapping of name → matrix
        Each value is anything :func:`repro.measures.characterize`
        accepts.
    columns : sequence of str
        Attributes of :class:`~repro.measures.HeterogeneityProfile`
        to include (e.g. ``("mph", "machine_r", "machine_g",
        "machine_cov")`` reproduces the Fig. 2 layout).

    Returns
    -------
    list of dict
        One row per environment with ``"name"`` plus the requested
        columns.

    Raises
    ------
    ValueError
        When a column is not a profile field, before any environment
        is characterized.
    """
    unknown = [c for c in columns if c not in _PROFILE_FIELDS]
    if unknown:
        raise ValueError(
            f"unknown column(s) {unknown}; choose from {', '.join(_PROFILE_FIELDS)}"
        )
    rows = []
    for name, matrix in environments.items():
        profile = characterize(matrix)
        row: dict = {"name": name}
        for column in columns:
            row[column] = getattr(profile, column)
        rows.append(row)
    return rows


def format_table(rows: Sequence[Mapping], *, precision: int = 4) -> str:
    """Render rows (from :func:`comparison_table`) as aligned text.

    Floats are fixed-precision; the first column is left-aligned,
    numeric columns right-aligned.
    """
    if not rows:
        return "(empty table)"
    columns = list(rows[0].keys())

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    rendered = [[fmt(row[c]) for c in columns] for row in rows]
    widths = [
        max([len(columns[i])] + [len(line[i]) for line in rendered])
        for i in range(len(columns))
    ]
    header = "  ".join(
        columns[i].ljust(widths[i]) if i == 0 else columns[i].rjust(widths[i])
        for i in range(len(columns))
    )
    lines = [header, "  ".join("-" * w for w in widths)]
    for line in rendered:
        lines.append(
            "  ".join(
                line[i].ljust(widths[i]) if i == 0 else line[i].rjust(widths[i])
                for i in range(len(columns))
            )
        )
    return "\n".join(lines)


def measure_distance(a, b, *, weights: Sequence[float] = (1.0, 1.0, 1.0)) -> float:
    """Weighted Euclidean distance between two environments in
    (MPH, TDH, TMA) space.

    Since all three measures live on comparable [0, 1]-ish scales, the
    unweighted distance is a reasonable default similarity notion;
    ``weights`` re-balances the axes when one aspect matters more; it
    must be three finite, non-negative numbers (``ValueError``
    otherwise, before either environment is characterized).

    Examples
    --------
    >>> measure_distance([[1.0, 1.0], [1.0, 1.0]],
    ...                  [[1.0, 1.0], [1.0, 1.0]])
    0.0
    """
    w = _distance_weights(weights)
    return _distance(characterize(a), characterize(b), w)


def _distance_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (3,) or not np.isfinite(w).all() or (w < 0).any():
        raise ValueError("weights must be three finite, non-negative numbers")
    return w


def _distance(pa, pb, w: np.ndarray) -> float:
    diff = np.array(
        [pa.mph - pb.mph, pa.tdh - pb.tdh, pa.tma - pb.tma]
    )
    return float(np.sqrt(np.sum(w * diff**2)))


def equivalent_up_to_scaling(a, b, *, tol: float = 1e-6) -> bool:
    """True when ``b`` is a row/column rescaling of ``a``.

    ``B = D1 A D2`` for positive diagonal ``D1, D2`` holds iff the two
    standard forms coincide (Theorem 1's uniqueness) — the environments
    have identical affinity structure and differ only in machine speeds
    / task difficulties / units.  Matrices of different shapes are
    never equivalent; zero patterns are compared under the eq.-9 limit.

    Examples
    --------
    >>> import numpy as np
    >>> a = np.array([[1.0, 2.0], [3.0, 1.0]])
    >>> b = 5.0 * a * np.array([[2.0], [0.5]])    # row scaling + units
    >>> equivalent_up_to_scaling(a, b)
    True
    >>> c = a.copy(); c[0, 0] = 9.0               # changed cross ratio
    >>> equivalent_up_to_scaling(a, c)
    False
    """
    arr_a = np.asarray(a, dtype=np.float64)
    arr_b = np.asarray(b, dtype=np.float64)
    if arr_a.shape != arr_b.shape:
        return False
    std_a = standardize(arr_a, zeros="limit").matrix
    std_b = standardize(arr_b, zeros="limit").matrix
    return bool(np.allclose(std_a, std_b, atol=tol))


def rank_by_similarity(
    reference, candidates: Mapping[str, object],
    *, weights: Sequence[float] = (1.0, 1.0, 1.0),
) -> list[tuple[str, float]]:
    """Order named environments by measure distance to ``reference``.

    Returns ``[(name, distance), ...]`` ascending — the first entry is
    the candidate most like the reference.  The intended use is exactly
    the paper's heuristic-selection workflow: find the studied
    environment nearest to yours and adopt its known-good mapper.
    """
    w = _distance_weights(weights)
    profile = characterize(reference)
    ranked = [
        (name, _distance(profile, characterize(env), w))
        for name, env in candidates.items()
    ]
    ranked.sort(key=lambda pair: pair[1])
    return ranked
