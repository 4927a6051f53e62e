"""Comparator methods: marginal prototypes, the prototype lasso and the
simple-average representative lasso.  Plain stability selection is CSS with
singleton clusters; test_acceptance::test_11 checks that reduction."""

import numpy as np
import pytest

from cssel.baselines import (
    cluster_rep_lasso,
    marginal_prototypes,
    protolasso,
)
from cssel.core import ClusterPartition
from cssel.data import DataSet
from cssel.lasso import fit_lasso_path
from cssel.simgen import gen_sparse_instance


def instance(seed, n=50, p=5, strong=(0,)):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[list(strong)] = 2.0
    y = X @ beta + 0.5 * rng.standard_normal(n)
    return DataSet(X=X, y=y)


def test_marginal_prototypes_pick_strongest_member():
    rng = np.random.default_rng(6)
    n = 200
    z = rng.standard_normal(n)
    X = np.column_stack(
        [
            z + 0.1 * rng.standard_normal(n),  # best proxy for y
            z + 1.0 * rng.standard_normal(n),
            rng.standard_normal(n),
        ]
    )
    y = z + 0.2 * rng.standard_normal(n)
    part = ClusterPartition(clusters=((0, 1), (2,)))
    assert marginal_prototypes(DataSet(X=X, y=y), part) == (0, 2)


def test_marginal_prototypes_flag_ties_and_exclude_constants():
    rng = np.random.default_rng(7)
    n = 50
    x = rng.standard_normal(n)
    X = np.column_stack([x, x.copy(), np.full(n, 3.0), rng.standard_normal(n)])
    y = x + 0.1 * rng.standard_normal(n)
    # the lowest index wins the tie of columns 0 and 1; constant column 2
    # never competes, and column 3 is its own cluster's only member
    part = ClusterPartition(clusters=((0, 1, 2), (3,)))
    assert marginal_prototypes(DataSet(X=X, y=y), part) == (0, 3)
    part = ClusterPartition(clusters=((1, 2), (0,), (3,)))
    assert marginal_prototypes(DataSet(X=X, y=y), part) == (1, 0, 3)
    # 3 x2 + 1 ties with x2 up to rounding, so the lower index 1 wins in
    # every design, also in the 12 where rounding gives x2 the larger value
    rng = np.random.default_rng(5)
    part = ClusterPartition(clusters=((0,), (1, 2), tuple(range(3, 12))))
    for n in range(30, 70):
        X = rng.standard_normal((n, 12))
        X[:, 1] = 3 * X[:, 2] + 1
        y = X[:, 2] + rng.standard_normal(n)
        assert marginal_prototypes(DataSet(X=X, y=y), part)[1] == 1


def test_marginal_prototypes_reject_degenerate_inputs():
    n = 30
    rng = np.random.default_rng(8)
    X = np.column_stack([np.full(n, 1.0), rng.standard_normal(n)])
    y = rng.standard_normal(n)
    part = ClusterPartition(clusters=((0,), (1,)))
    with pytest.raises(ValueError):
        marginal_prototypes(DataSet(X=X, y=y), part)  # all-constant cluster
    good = DataSet(X=rng.standard_normal((n, 2)), y=np.full(n, 2.0))
    with pytest.raises(ValueError):
        marginal_prototypes(good, part)  # constant response


def test_protolasso_runs_on_prototype_columns():
    data = instance(9, n=80, p=6, strong=(0, 3))
    part = ClusterPartition(clusters=((0, 1), (2, 3), (4, 5)))
    path, prototypes = protolasso(data, part)
    assert prototypes == marginal_prototypes(data, part)
    assert len(prototypes) == part.K
    reduced = DataSet(X=data.X[:, list(prototypes)], y=data.y)
    direct = fit_lasso_path(reduced)
    assert path.knots[0][0] == direct.knots[0][0]
    assert path.knots[0][2] == direct.knots[0][2]
    assert all(0 <= k[2] < part.K for k in path.knots)


def test_first_k_stops_the_reduced_paths_on_a_prefix():
    """first_k passes through to the path: the stopped path is the full
    path's first knots, with the same first k entrants, as the studies read
    them."""
    inst = gen_sparse_instance(0, 0)
    part = ClusterPartition(clusters=inst.truth.clusters)
    full_proto, prototypes = protolasso(inst.data, part)
    stopped_proto, stopped_prototypes = protolasso(inst.data, part, first_k=11)
    assert stopped_prototypes == prototypes
    crl = cluster_rep_lasso(inst.data, part)
    stopped_crl = cluster_rep_lasso(inst.data, part, first_k=11)
    for full, stopped in ((full_proto, stopped_proto), (crl, stopped_crl)):
        assert len(stopped.knots) < len(full.knots)
        assert stopped.knots == full.knots[: len(stopped.knots)]
        assert stopped.entry_order()[:11] == full.entry_order()[:11]


def test_cluster_rep_lasso_matches_manual_reduction():
    data = instance(11, n=60, p=6, strong=(0, 1))
    part = ClusterPartition(clusters=((0, 1), (2, 3), (4, 5)))
    path = cluster_rep_lasso(data, part)
    means = [data.X[:, list(c)] @ np.full(len(c), 1.0 / len(c)) for c in part.clusters]
    manual = fit_lasso_path(DataSet(X=np.column_stack(means), y=data.y))
    assert path.knots == manual.knots
