"""Estimate a feature partition when none is supplied.

Correlation-distance single linkage with a merge cutoff, plus a minor-allele
frequency screen for binary designs.  correlation_clusters computes the
correlations one block of BLOCK columns at a time and keeps only the pairs
closer than the cutoff, so no p x p matrix is formed; the dense
correlation_distance_matrix and single_linkage_clusters are the reference
it is tested against.
"""

from __future__ import annotations

import numpy as np

from .core import ClusterPartition
from .data import DataSet, center_and_scale

BLOCK = 256  # columns of correlations computed per product


class ConstantColumn(ValueError):
    """A column has zero variance, so its correlations are undefined."""

    def __init__(self, columns):
        self.columns = tuple(int(j) for j in columns)
        super().__init__(f"constant column(s) {self.columns}; screen them out first")


def _scaled_columns(data: DataSet) -> np.ndarray:
    s = center_and_scale(data.X, data.y, center=True)
    if s.zero_norm.size:
        raise ConstantColumn(s.zero_norm)
    return s.U


def _distances(corr: np.ndarray) -> np.ndarray:
    """1 - |corr| clipped to [0, 1], in place."""
    np.abs(corr, out=corr)
    np.subtract(1.0, corr, out=corr)
    return np.clip(corr, 0.0, 1.0, out=corr)


def _symmetrize(D: np.ndarray) -> None:
    """D = (D + D^T) / 2 in place, for a square D."""
    D[...] = 0.5 * (D + D.T)


def _check_cutoff(cutoff: float) -> float:
    if not cutoff > 0.0:
        raise ValueError("cutoff must be positive")
    return min(float(cutoff), 1.0)


def correlation_distance_matrix(data: DataSet) -> np.ndarray:
    """D_jk = 1 - |centered Pearson correlation|, exactly symmetric."""
    U = _scaled_columns(data)
    D = _distances(U.T @ U)
    _symmetrize(D)
    np.fill_diagonal(D, 0.0)
    return D


def correlation_clusters(data: DataSet, cutoff: float) -> ClusterPartition:
    """single_linkage_clusters(correlation_distance_matrix(data), cutoff),
    without the p x p matrix.

    Columns a:b of the distances come from one product U[:, a:]^T U[:, a:b]
    with the same per-entry arithmetic as the dense matrix, its diagonal
    square symmetrized; below the square each pair is computed once.  Pairs
    closer than the cutoff are kept as edges.  When p fits in one block that
    product is U^T U itself.  Memory is O(np + BLOCK p + edges).
    """
    U = _scaled_columns(data)
    cutoff = _check_cutoff(cutoff)
    p = U.shape[1]
    edges = [_block_edges(U, a, min(a + BLOCK, p), cutoff) for a in range(0, p, BLOCK)]
    heads, tails = (np.concatenate(e) for e in zip(*edges))
    return _partition(p, heads, tails)


def _block_edges(U: np.ndarray, a: int, b: int, cutoff: float):
    """The pairs (j, k), j > k, a <= k < b, at distance below the cutoff."""
    D = _distances(U[:, a:].T @ U[:, a:b])
    _symmetrize(D[: b - a])
    # row i of D is column a + i, column t is column a + t
    i, t = np.nonzero(D < cutoff)
    below = i > t
    return i[below] + a, t[below] + a


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
    cutoff = _check_cutoff(cutoff)
    heads, tails = np.nonzero(np.triu(D < cutoff, 1))
    return _partition(p, heads, tails)


def component_labels(p: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Connected components of nodes 0..p-1 joined by edges heads[e]-tails[e]:
    each node's label is the smallest node of its component.

    Hook and jump (Shiloach and Vishkin 1982): pointer-jump every node to
    the root of its tree, then hook each root that an edge joins to a
    smaller root under the smallest such root; repeat until no edge joins
    two trees.  A root always hooks under a smaller node, so the trees stay
    acyclic and each component's root is its smallest node.  Hooking under
    the smallest root, not any smaller one, keeps the rounds few: about
    log2 p on shuffled chains, trees and random graphs, and two on a star
    whose centre is its largest node, which any-smaller-root hooking
    merges one leaf per round.
    """
    parent = np.arange(p)
    heads = np.asarray(heads, dtype=np.intp)
    tails = np.asarray(tails, dtype=np.intp)
    while True:
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        ru, rv = parent[heads], parent[tails]
        joins = ru != rv
        if not joins.any():
            return parent
        heads, tails, ru, rv = heads[joins], tails[joins], ru[joins], rv[joins]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))


def _partition(p: int, heads: np.ndarray, tails: np.ndarray) -> ClusterPartition:
    labels = component_labels(p, heads, tails)
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return ClusterPartition(
        clusters=tuple(tuple(g.tolist()) for g in np.split(order, cuts))
    )


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
