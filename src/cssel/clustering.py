"""Estimate a feature partition when none is supplied.

Correlation-distance single linkage with a merge cutoff, plus a minor-allele
frequency screen for binary designs.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .core import ClusterPartition
from .data import DataSet, center_and_scale


class ConstantColumn(ValueError):
    """A column has zero variance, so its correlations are undefined."""

    def __init__(self, columns):
        self.columns = tuple(int(j) for j in columns)
        super().__init__(f"constant column(s) {self.columns}; screen them out first")


def correlation_distance_matrix(data: DataSet) -> np.ndarray:
    """D_jk = 1 - |centered Pearson correlation|, exactly symmetric."""
    s = center_and_scale(data.X, data.y, center=True)
    if s.zero_norm.size:
        raise ConstantColumn(s.zero_norm)
    corr = s.U.T @ s.U
    D = 1.0 - np.abs(corr)
    D = np.clip(D, 0.0, 1.0)
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return D


def single_linkage_clusters(D: np.ndarray, cutoff: float) -> ClusterPartition:
    """Connected components of the graph with edges where D < cutoff.

    Equivalent to cutting the single-linkage dendrogram at `cutoff`.  Merges
    use a strict inequality; cutoffs above 1 behave like 1.
    """
    D = np.asarray(D, dtype=float)
    p = D.shape[0]
    if D.shape != (p, p):
        raise ValueError("distance matrix must be square")
    if not np.allclose(D, D.T, atol=0.0):
        raise ValueError("distance matrix must be symmetric")
    if cutoff <= 0.0:
        raise ValueError("cutoff must be positive")
    cutoff = min(float(cutoff), 1.0)
    adj = csr_matrix((D < cutoff).astype(np.int8))
    n_comp, labels = connected_components(adj, directed=False)
    groups: list[list[int]] = [[] for _ in range(n_comp)]
    for j, lab in enumerate(labels):
        groups[lab].append(j)
    groups.sort(key=lambda g: g[0])
    return ClusterPartition(clusters=tuple(tuple(g) for g in groups))


def maf_screen(binary_matrix: np.ndarray, threshold: float = 0.01) -> tuple[int, ...]:
    """Columns whose minor-category frequency reaches the threshold.

    Keeps column j when min(mean_j, 1 - mean_j) >= threshold.
    """
    M = np.asarray(binary_matrix)
    if M.ndim != 2:
        raise ValueError("binary matrix must be 2-D")
    bad = (M != 0) & (M != 1)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"non-binary entry {M[i, j]!r} at row {i}, column {j}")
    means = M.astype(float).mean(axis=0)
    maf = np.minimum(means, 1.0 - means)
    return tuple(int(j) for j in np.flatnonzero(maf >= threshold))
