"""Comparator methods: SS/MB proportions, prototypes, average-rep lasso."""

import numpy as np
import pytest

from cssel import lasso
from cssel.baselines import (
    average_representatives,
    cluster_rep_lasso,
    marginal_prototypes,
    protolasso,
    stability_selection_mb,
    stability_selection_ss,
)
from cssel.core import (
    ClusterPartition,
    HalfSampleFailure,
    feature_proportions,
    run_base_selections,
)
from cssel.data import DataSet
from cssel.lasso import ConvergenceFailure, fit_lasso_at, fit_lasso_path
from cssel.simgen import gen_sparse_instance
from cssel.subsampling import draw_complementary_pairs, draw_half_samples, restrict


def instance(seed, n=50, p=5, strong=(0,)):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[list(strong)] = 2.0
    y = X @ beta + 0.5 * rng.standard_normal(n)
    return DataSet(X=X, y=y)


def test_ss_single_lambda_equals_union_proportions():
    # with one lambda the max-over-lambdas rule and the union rule coincide,
    # so SS proportions must reproduce the feature proportions exactly
    data = instance(0, n=60, p=6, strong=(0, 1))
    plan = draw_complementary_pairs(data.n, B=5, seed=3)
    lam = 0.15
    props = stability_selection_ss(data, plan, (lam,))
    S = run_base_selections(data, plan, lambdas=(lam,))
    np.testing.assert_array_equal(props, feature_proportions(S))


def test_ss_max_rule_and_union_dominance():
    data = instance(1, n=60, p=6, strong=(0, 1))
    plan = draw_complementary_pairs(data.n, B=4, seed=5)
    lambdas = (0.3, 0.08)
    combined = stability_selection_ss(data, plan, lambdas)
    per_lam = [stability_selection_ss(data, plan, (lam,)) for lam in lambdas]
    np.testing.assert_array_equal(combined, np.maximum(*per_lam))
    union = feature_proportions(run_base_selections(data, plan, lambdas=lambdas))
    assert np.all(union >= combined - 1e-15)


def test_ss_threads_do_not_change_proportions():
    data = instance(2, n=50, p=5)
    plan = draw_complementary_pairs(data.n, B=6, seed=1)
    one = stability_selection_ss(data, plan, (0.2, 0.05), threads=1)
    four = stability_selection_ss(data, plan, (0.2, 0.05), threads=4)
    np.testing.assert_array_equal(one, four)


def test_mb_counts_unpaired_subsamples():
    data = instance(3, n=40, p=4)
    subs = draw_half_samples(data.n, B=6, seed=2)
    lam = 0.2
    props = stability_selection_mb(data, subs, (lam,))
    counts = np.zeros(data.p)
    for rows in subs:
        for j in fit_lasso_at(restrict(data, rows), lam).support:
            counts[j] += 1
    np.testing.assert_array_equal(props, counts / len(subs))


def test_mb_validates_subsamples():
    data = instance(4, n=40, p=4)
    with pytest.raises(ValueError):
        stability_selection_mb(data, [], (0.1,))
    with pytest.raises(ValueError):
        stability_selection_mb(data, [np.arange(5)], (0.1,))  # needs n//2 rows
    subs = draw_half_samples(data.n, B=2, seed=0)
    with pytest.raises(ValueError):
        stability_selection_mb(data, subs, ())


def test_solver_failure_is_labeled(monkeypatch):
    data = instance(5, n=40, p=4)
    plan = draw_complementary_pairs(data.n, B=2, seed=0)

    def failed_certificate(*args):
        raise ConvergenceFailure(1.0, None)

    monkeypatch.setattr(lasso, "kkt_residual", failed_certificate)
    with pytest.raises(HalfSampleFailure) as info:
        stability_selection_ss(data, plan, (0.1,))
    assert info.value.pair == 0 and info.value.half == "A"
    with pytest.raises(HalfSampleFailure) as info:
        stability_selection_mb(data, draw_half_samples(data.n, B=2, seed=0), (0.1,))
    assert info.value.pair == 0 and info.value.half == "subsample"


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
    proto = marginal_prototypes(DataSet(X=X, y=y), part)
    assert proto.prototypes == (0, 2)
    assert proto.tie_flags == (False, False)
    assert proto.excluded == ((), ())


def test_marginal_prototypes_flag_ties_and_exclude_constants():
    rng = np.random.default_rng(7)
    n = 50
    x = rng.standard_normal(n)
    X = np.column_stack([x, x.copy(), np.full(n, 3.0), rng.standard_normal(n)])
    y = x + 0.1 * rng.standard_normal(n)
    part = ClusterPartition(clusters=((0, 1, 2), (3,)))
    proto = marginal_prototypes(DataSet(X=X, y=y), part)
    assert proto.prototypes[0] == 0  # lowest index wins the tie
    assert proto.tie_flags == (True, False)
    assert proto.excluded == ((2,), ())
    # 3 x0 + 1 ties with x0 up to rounding, so it is flagged in every design
    rng = np.random.default_rng(5)
    part = ClusterPartition(clusters=((0, 1, 2), tuple(range(3, 12))))
    for n in range(30, 70):
        X = rng.standard_normal((n, 12))
        X[:, 2] = 3 * X[:, 0] + 1
        proto = marginal_prototypes(DataSet(X=X, y=X[:, 0] + rng.standard_normal(n)), part)
        assert proto.prototypes[0] == 0
        assert proto.tie_flags == (True, False)


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
    path, proto = protolasso(data, part)
    assert len(proto.prototypes) == part.K
    reduced = DataSet(X=data.X[:, list(proto.prototypes)], y=data.y)
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
    full_proto, proto = protolasso(inst.data, part)
    stopped_proto, stopped_map = protolasso(inst.data, part, first_k=11)
    assert stopped_map == proto
    crl = cluster_rep_lasso(inst.data, part)
    stopped_crl = cluster_rep_lasso(inst.data, part, first_k=11)
    for full, stopped in ((full_proto, stopped_proto), (crl, stopped_crl)):
        assert len(stopped.knots) < len(full.knots)
        assert stopped.knots == full.knots[: len(stopped.knots)]
        assert stopped.entry_order()[:11] == full.entry_order()[:11]


def test_average_representatives_are_column_means():
    data = instance(10, n=30, p=5)
    part = ClusterPartition(clusters=((0, 2), (1, 3, 4)))
    reps = average_representatives(data, part)
    np.testing.assert_allclose(reps[:, 0], data.X[:, [0, 2]].mean(axis=1))
    np.testing.assert_allclose(reps[:, 1], data.X[:, [1, 3, 4]].mean(axis=1))


def test_cluster_rep_lasso_matches_manual_reduction():
    data = instance(11, n=60, p=6, strong=(0, 1))
    part = ClusterPartition(clusters=((0, 1), (2, 3), (4, 5)))
    path = cluster_rep_lasso(data, part)
    manual = fit_lasso_path(
        DataSet(X=average_representatives(data, part), y=data.y)
    )
    assert path.knots == manual.knots
