"""Comparator methods: the prototype lasso and the simple-average cluster
representative lasso, whose columns come from evaluation.build_design.

Plain stability selection (Meinshausen & Buehlmann; Shah & Samworth) needs
no function of its own: it is cluster stability selection with singleton
clusters, so its proportions are core.feature_proportions of the selection
matrix that core.run_base_selections returns.  The marginal prototypes, one
column index per cluster, take their centering and column norms from
data.center_and_scale.
"""

from __future__ import annotations

import numpy as np

from .core import ClusterPartition
from .data import DataSet, center_and_scale
from .evaluation import build_design
from .lasso import TIE_REL, LassoPath, fit_lasso_path


def marginal_prototypes(
    data: DataSet, partition: ClusterPartition
) -> tuple[int, ...]:
    """Each cluster's member with the largest |corr(X_j, y)|, in partition
    order.  Members within a relative TIE_REL of it tie, and the lowest index
    wins; constant members never compete."""
    s = center_and_scale(data.X, data.y, center=True)
    if not s.y.any():
        raise ValueError("response is constant; marginal correlations undefined")
    # |corr(X_j, y)| up to the positive factor 1 / ||y - mean(y)||
    corr = np.abs(s.U.T @ s.y)
    dead_cols = set(s.zero_norm.tolist())

    prototypes = []
    for c in partition.clusters:
        live = [j for j in c if j not in dead_cols]
        if not live:
            raise ValueError(f"cluster {c} has no non-constant member")
        vals = corr[live]
        winners = np.asarray(live)[vals >= vals.max() * (1.0 - TIE_REL)]
        prototypes.append(int(winners.min()))
    return tuple(prototypes)


def protolasso(
    data: DataSet, partition: ClusterPartition, first_k: int | None = None
) -> tuple[LassoPath, tuple[int, ...]]:
    """Lasso path on one prototype column per cluster, and the prototypes.

    Path feature indices refer to clusters (position in the prototype
    tuple), not to original columns; prototypes[k] is cluster k's column.
    first_k stops the path as in fit_lasso_path.
    """
    prototypes = marginal_prototypes(data, partition)
    reduced = DataSet(X=data.X[:, list(prototypes)], y=data.y, center=data.center)
    return fit_lasso_path(reduced, first_k=first_k), prototypes


def cluster_rep_lasso(
    data: DataSet, partition: ClusterPartition, first_k: int | None = None
) -> LassoPath:
    """Lasso path on simple-average cluster representatives.

    The columns are evaluation.build_design's uniform-weight averages of the
    raw members, the same columns the cluster representative lasso is refit
    on.  Path feature indices refer to clusters in partition order; first_k
    stops the path as in fit_lasso_path.
    """
    uniform = [(c, np.full(len(c), 1.0 / len(c))) for c in partition.clusters]
    reduced = DataSet(
        X=build_design(data.X, uniform), y=data.y, center=data.center
    )
    return fit_lasso_path(reduced, first_k=first_k)
