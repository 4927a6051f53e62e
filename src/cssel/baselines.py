"""Comparator methods: the prototype lasso and the simple-average cluster
representative lasso.

Plain stability selection (Meinshausen & Buehlmann; Shah & Samworth) needs
no function of its own: it is cluster stability selection with singleton
clusters, so its proportions are core.feature_proportions of the selection
matrix that core.run_base_selections returns.  The marginal prototypes take
their centering and column norms from data.center_and_scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClusterPartition
from .data import DataSet, center_and_scale
from .lasso import TIE_REL, LassoPath, fit_lasso_path


@dataclass(frozen=True)
class PrototypeMap:
    """One representative feature per cluster, chosen by marginal correlation.

    tie_flags marks clusters where the argmax was not unique (lowest index
    wins); excluded lists zero-variance members that never competed.
    """

    prototypes: tuple[int, ...]
    tie_flags: tuple[bool, ...]
    excluded: tuple[tuple[int, ...], ...]


def marginal_prototypes(data: DataSet, partition: ClusterPartition) -> PrototypeMap:
    """Pick each cluster's member with the largest |corr(X_j, y)|; members
    within a relative TIE_REL of it tie, and the lowest index wins."""
    s = center_and_scale(data.X, data.y, center=True)
    if not s.y.any():
        raise ValueError("response is constant; marginal correlations undefined")
    # |corr(X_j, y)| up to the positive factor 1 / ||y - mean(y)||
    corr = np.abs(s.U.T @ s.y)
    dead_cols = set(s.zero_norm.tolist())

    prototypes = []
    ties = []
    excluded = []
    for c in partition.clusters:
        dead = tuple(j for j in c if j in dead_cols)
        live = [j for j in c if j not in dead_cols]
        if not live:
            raise ValueError(f"cluster {c} has no non-constant member")
        vals = corr[live]
        winners = np.asarray(live)[vals >= vals.max() * (1.0 - TIE_REL)]
        prototypes.append(int(winners.min()))
        ties.append(len(winners) > 1)
        excluded.append(dead)
    return PrototypeMap(
        prototypes=tuple(prototypes),
        tie_flags=tuple(ties),
        excluded=tuple(excluded),
    )


def protolasso(
    data: DataSet, partition: ClusterPartition, first_k: int | None = None
) -> tuple[LassoPath, PrototypeMap]:
    """Lasso path on one prototype column per cluster.

    Path feature indices refer to clusters (position in the prototype list),
    not to original columns; translate through the returned PrototypeMap.
    first_k stops the path as in fit_lasso_path.
    """
    proto = marginal_prototypes(data, partition)
    reduced = DataSet(
        X=data.X[:, list(proto.prototypes)], y=data.y, center=data.center
    )
    return fit_lasso_path(reduced, first_k=first_k), proto


def average_representatives(data: DataSet, partition: ClusterPartition) -> np.ndarray:
    """One simple-average column per cluster, raw columns, no rescaling."""
    reps = np.empty((data.n, partition.K))
    for k, c in enumerate(partition.clusters):
        reps[:, k] = data.X[:, list(c)].mean(axis=1)
    return reps


def cluster_rep_lasso(
    data: DataSet, partition: ClusterPartition, first_k: int | None = None
) -> LassoPath:
    """Lasso path on simple-average cluster representatives.

    Path feature indices refer to clusters in partition order; first_k stops
    the path as in fit_lasso_path.
    """
    reduced = DataSet(
        X=average_representatives(data, partition), y=data.y, center=data.center
    )
    return fit_lasso_path(reduced, first_k=first_k)
