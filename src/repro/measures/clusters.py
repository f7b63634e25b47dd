"""Affinity structure extraction: *which* tasks prefer *which* machines.

TMA quantifies how much task-machine affinity an environment has; this
module answers the follow-up question the measure immediately raises —
what the affinity groups are.  The machinery is spectral co-clustering
on the standard-form ECS matrix:

* Theorem 2 pins σ₁ = 1 with uniform singular vectors, so the leading
  pair carries no grouping information;
* the *non-maximum* singular pairs (exactly the ones TMA averages) are
  the affinity structure: tasks and machines are embedded by the next
  ``r`` singular vectors, scaled by their singular values, and
  co-clustered with a deterministic seeded k-means.

For a block environment (each task group fast on its own machine
group) the embedding separates the blocks perfectly; for a rank-1
environment (TMA = 0) there is nothing to embed and a single cluster is
reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import MatrixValueError
from ..normalize.standard_form import DEFAULT_TOL, standardize
from .affinity import _tma_column

__all__ = ["AffinityClusters", "affinity_clusters"]


@dataclass(frozen=True)
class AffinityClusters:
    """Joint task/machine affinity grouping.

    Attributes
    ----------
    task_labels : numpy.ndarray of int, shape (T,)
        Cluster id per task type.
    machine_labels : numpy.ndarray of int, shape (M,)
        Cluster id per machine; ids are shared with ``task_labels`` —
        task cluster ``c`` prefers machine cluster ``c``.
    n_clusters : int
    singular_values : numpy.ndarray
        Full descending singular spectrum of the standard form (σ₁ ≈ 1).
    strength : float
        Mean of the non-maximum singular values — i.e. the TMA, the
        amount of structure the clustering explains.
    """

    task_labels: np.ndarray
    machine_labels: np.ndarray
    n_clusters: int
    singular_values: np.ndarray
    strength: float

    def task_groups(self) -> list[list[int]]:
        """Task indices per cluster id."""
        return [
            np.nonzero(self.task_labels == c)[0].tolist()
            for c in range(self.n_clusters)
        ]

    def machine_groups(self) -> list[list[int]]:
        """Machine indices per cluster id."""
        return [
            np.nonzero(self.machine_labels == c)[0].tolist()
            for c in range(self.n_clusters)
        ]


def _kmeans(points: np.ndarray, n_clusters: int, *, seed: int = 0,
            iterations: int = 100) -> np.ndarray:
    """Deterministic Lloyd's k-means (k-means++-style seeding)."""
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    # k-means++ seeding.
    centers = [points[int(rng.integers(n))]]
    for _ in range(n_clusters - 1):
        dist = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = dist.sum()
        if total <= 0:
            centers.append(points[int(rng.integers(n))])
            continue
        centers.append(points[int(rng.choice(n, p=dist / total))])
    centers = np.array(centers)
    labels = np.zeros(n, dtype=np.intp)
    for _ in range(iterations):
        dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)
        if (new_labels == labels).all() and _ > 0:
            break
        labels = new_labels
        for c in range(n_clusters):
            members = points[labels == c]
            if members.size:
                centers[c] = members.mean(axis=0)
    return labels


def affinity_clusters(
    matrix,
    *,
    n_clusters: int | None = None,
    significance: float = 0.15,
    tol: float = DEFAULT_TOL,
    zeros: str = "limit",
    seed: int = 0,
) -> AffinityClusters:
    """Extract the task/machine affinity groups of an environment.

    Parameters
    ----------
    matrix : ECSMatrix, ETCMatrix or array-like
        The environment.
    n_clusters : int, optional
        Number of groups.  Default: one more than the number of
        singular values exceeding ``significance`` (each significant
        non-maximum singular pair separates one more group), capped at
        ``min(T, M)``.
    significance : float
        Threshold (relative to σ₁ = 1) above which a non-maximum
        singular value counts as structure.
    tol, zeros
        Standard-form controls (``zeros="limit"`` so environments with
        incompatibilities still cluster).
    seed : int
        k-means seeding (deterministic by default).

    Examples
    --------
    A two-block environment separates perfectly:

    >>> import numpy as np
    >>> block = np.array([
    ...     [9.0, 9.0, 0.1, 0.1],
    ...     [9.0, 9.0, 0.1, 0.1],
    ...     [0.1, 0.1, 9.0, 9.0],
    ...     [0.1, 0.1, 9.0, 9.0],
    ... ])
    >>> clusters = affinity_clusters(block)
    >>> clusters.n_clusters
    2
    >>> bool(clusters.task_labels[0] == clusters.machine_labels[0])
    True
    >>> bool(clusters.task_labels[0] != clusters.task_labels[2])
    True
    """
    import scipy.linalg  # loaded on first use; ``import repro`` skips it

    standard = standardize(matrix, tol=tol, zeros=zeros)
    u, s, vt = scipy.linalg.svd(standard.matrix, full_matrices=False)
    n_tasks, n_machines = standard.matrix.shape
    limit = min(n_tasks, n_machines)
    strength = float(_tma_column(s[None])[0])

    significant = int(np.sum(s[1:] > significance))
    if n_clusters is None:
        n_clusters = min(significant + 1, limit)
    if n_clusters < 1 or n_clusters > limit:
        raise MatrixValueError(
            f"n_clusters must be in [1, {limit}], got {n_clusters}"
        )
    if n_clusters == 1:
        return AffinityClusters(
            task_labels=np.zeros(n_tasks, dtype=np.intp),
            machine_labels=np.zeros(n_machines, dtype=np.intp),
            n_clusters=1,
            singular_values=s,
            strength=strength,
        )

    # Joint embedding from the non-maximum singular pairs (skip the
    # uniform Theorem-2 pair), weighted by singular value.
    r = max(1, n_clusters - 1)
    task_embed = u[:, 1 : 1 + r] * s[1 : 1 + r]
    machine_embed = vt[1 : 1 + r, :].T * s[1 : 1 + r]
    points = np.vstack([task_embed, machine_embed])
    labels = _kmeans(points, n_clusters, seed=seed)
    task_labels = labels[:n_tasks]
    machine_labels = labels[n_tasks:]

    # Relabel so cluster ids are deterministic (order of first task
    # appearance) and shared sensibly between sides.
    remap: dict[int, int] = {}
    for label in list(task_labels) + list(machine_labels):
        if label not in remap:
            remap[label] = len(remap)
    task_labels = np.array([remap[l] for l in task_labels], dtype=np.intp)
    machine_labels = np.array(
        [remap[l] for l in machine_labels], dtype=np.intp
    )
    return AffinityClusters(
        task_labels=task_labels,
        machine_labels=machine_labels,
        n_clusters=n_clusters,
        singular_values=s,
        strength=strength,
    )
