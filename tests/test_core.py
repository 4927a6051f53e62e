"""Cluster stability selection: partitions, proportions, weights, full runs."""

import numpy as np
import pytest

from cssel import core, lasso
from cssel.core import (
    ClusterPartition,
    CssResult,
    HalfSampleFailure,
    cluster_proportions,
    compute_weights,
    feature_proportions,
    run_base_selections,
    run_css,
    select_top_s,
    simultaneous_cluster_proportions,
    summarize_records,
)
from cssel.data import DataSet
from cssel.lasso import ConvergenceFailure, cross_validate_lambda, fit_lasso_at
from cssel.subsampling import draw_complementary_pairs, restrict


def small_instance(seed, n=60, p=6, strong=(0, 1)):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[list(strong)] = 2.0
    y = X @ beta + 0.5 * rng.standard_normal(n)
    return DataSet(X=X, y=y)


def selections(p, *halves):
    """(len(halves), p) selection matrix: row i marks the features of halves[i].

    Rows come in plan order, half A of pair b in row 2b and Ac in row 2b + 1.
    """
    S = np.zeros((len(halves), p), dtype=bool)
    for row, feats in zip(S, halves):
        row[list(feats)] = True
    return S


# partitions


def test_partition_rejects_malformed_clusters():
    with pytest.raises(ValueError):
        ClusterPartition(clusters=())
    with pytest.raises(ValueError):
        ClusterPartition(clusters=((0, 1), ()))
    with pytest.raises(ValueError):
        ClusterPartition(clusters=((0, 1, 1),))
    with pytest.raises(ValueError):
        ClusterPartition(clusters=((0, 1), (1, 2)))
    # gap: feature 1 missing
    with pytest.raises(ValueError):
        ClusterPartition(clusters=((0,), (2,)))
    with pytest.raises(ValueError):
        ClusterPartition(clusters=((0,), (1,)), names=("only-one",))


def test_partition_sorts_members_and_maps_features():
    part = ClusterPartition(clusters=((2, 0), (1, 3, 4)))
    assert part.clusters == ((0, 2), (1, 3, 4))
    assert part.K == 2 and part.p == 5


def test_singleton_partition_covers_every_feature():
    part = ClusterPartition.singletons(4)
    assert part.clusters == ((0,), (1,), (2,), (3,))


# proportions


def test_feature_proportions_count_hits_over_all_halves():
    S = selections(4, {0, 1}, {0}, {0, 2}, set())
    props = feature_proportions(S)
    assert props.tolist() == [0.75, 0.25, 0.25, 0.0]
    with pytest.raises(ValueError):
        feature_proportions(np.zeros((0, 4), dtype=bool))
    with pytest.raises(ValueError):
        feature_proportions(S[0])  # one row, not a matrix


def test_cluster_proportions_use_any_member_rule():
    part = ClusterPartition(clusters=((0, 1), (2,)))
    S = selections(3, {0}, {1}, {0, 1}, {2})
    cp = cluster_proportions(S, part)
    # cluster 0 is hit whenever either member appears
    assert cp.tolist() == [0.75, 0.25]
    with pytest.raises(ValueError):
        cluster_proportions(S[:, :2], part)  # a column per feature required
    with pytest.raises(ValueError):
        cluster_proportions(S[:0], part)


def test_simultaneous_proportions_need_hits_in_both_halves():
    part = ClusterPartition(clusters=((0, 1), (2,)))
    # pair 0: different members still count for the cluster
    S = selections(3, {0}, {1}, {0, 2}, {2})
    sp = simultaneous_cluster_proportions(S, part)
    assert sp.tolist() == [0.5, 0.5]
    cp = cluster_proportions(S, part)
    assert np.all(sp <= cp + 1e-15)


def test_simultaneous_proportions_reject_odd_row_count():
    part = ClusterPartition.singletons(1)
    with pytest.raises(ValueError, match="even"):
        simultaneous_cluster_proportions(selections(1, {0}), part)
    with pytest.raises(ValueError, match="even"):
        simultaneous_cluster_proportions(selections(1, {0}, {0}, {0}), part)


def reference_proportions(S, partition):
    """The per-half set loops that the array reductions replaced."""
    halves = [
        (i // 2, "A" if i % 2 == 0 else "Ac", frozenset(np.flatnonzero(row).tolist()))
        for i, row in enumerate(S)
    ]
    counts = np.zeros(S.shape[1])
    for _, _, sel in halves:
        for j in sel:
            counts[j] += 1
    sets = [set(c) for c in partition.clusters]
    hits = np.zeros(partition.K)
    for _, _, sel in halves:
        for k, members in enumerate(sets):
            if sel & members:
                hits[k] += 1
    by_pair: dict = {}
    for b, tag, sel in halves:
        by_pair.setdefault(b, {})[tag] = sel
    both = np.zeros(partition.K)
    for slot in by_pair.values():
        for k, members in enumerate(sets):
            if (slot["A"] & members) and (slot["Ac"] & members):
                both[k] += 1
    return counts / len(halves), hits / len(halves), both / len(by_pair)


def test_reductions_match_per_half_set_loops():
    rng = np.random.default_rng(13)
    S = rng.uniform(size=(40, 12)) < 0.25
    S[6] = False  # a half that selects nothing
    part = ClusterPartition(clusters=((0, 5, 7), (1,), (2, 3, 4, 8, 9), (6,), (10, 11)))
    feat, clus, both = reference_proportions(S, part)
    assert np.array_equal(feature_proportions(S), feat)
    assert np.array_equal(cluster_proportions(S, part), clus)
    assert np.array_equal(simultaneous_cluster_proportions(S, part), both)
    assert 0 < both.min() and clus.max() < 1  # neither reduction is trivial


# weights


def test_compute_weights_by_scheme():
    props = np.array([0.8, 0.2, 0.0, 0.5])
    w, flag = compute_weights(props, (0, 1), "weighted")
    assert not flag
    np.testing.assert_allclose(w, [0.8, 0.2])
    w, flag = compute_weights(props, (0, 1, 2), "simple")
    assert not flag
    np.testing.assert_allclose(w, [1 / 3, 1 / 3, 1 / 3])
    w, flag = compute_weights(props, (0, 1, 3), "sparse")
    assert not flag
    np.testing.assert_allclose(w, [1.0, 0.0, 0.0])


def test_compute_weights_flag_uninformative_clusters():
    props = np.array([0.0, 0.0, 0.6])
    w, flag = compute_weights(props, (0, 1), "weighted")
    assert flag
    np.testing.assert_allclose(w, [0.5, 0.5])
    w, flag = compute_weights(props, (0, 1), "sparse")
    assert flag  # argmax over an all-zero cluster carries no information
    np.testing.assert_allclose(w, [0.5, 0.5])
    # sparse splits ties uniformly over the argmax
    w, flag = compute_weights(np.array([0.4, 0.4, 0.1]), (0, 1, 2), "sparse")
    assert not flag
    np.testing.assert_allclose(w, [0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        compute_weights(props, (0, 1), "softmax")
    with pytest.raises(ValueError):
        compute_weights(props, (), "simple")


# ranking helpers


def test_select_top_s_returns_none_on_boundary_tie():
    props = np.array([0.9, 0.5, 0.5, 0.1])
    assert select_top_s(props, 1) == (0,)
    assert select_top_s(props, 2) is None  # 0.5 tie straddles the cut
    assert select_top_s(props, 3) == (0, 1, 2)
    assert select_top_s(props, 4) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        select_top_s(props, 0)
    with pytest.raises(ValueError):
        select_top_s(props, 5)


# base selections


def test_base_selections_are_ordered_and_match_per_lambda_solver():
    data = small_instance(2, n=50, p=5)
    plan = draw_complementary_pairs(data.n, B=4, seed=7)
    lambdas = (0.3, 0.08)
    S = run_base_selections(data, plan, lambdas=lambdas)
    assert S.shape == (8, data.p) and S.dtype == bool
    for i, row in enumerate(S):
        rows = plan.pairs[i // 2][i % 2]  # row 2b is half A, 2b + 1 is Ac
        half = restrict(data, rows)
        direct = set()
        for lam in lambdas:
            direct |= fit_lasso_at(half, lam).support
        assert set(np.flatnonzero(row).tolist()) == direct


def test_base_selections_validate_arguments(monkeypatch):
    """Exactly one of lambdas and first_k names the base, and every bad
    argument is rejected before any half is cut."""
    data = small_instance(3, n=30, p=4)
    plan = draw_complementary_pairs(data.n, B=2, seed=0)
    cut = []
    monkeypatch.setattr(core, "restrict", lambda *args: cut.append(args))
    with pytest.raises(ValueError, match="exactly one of lambdas and first_k"):
        run_base_selections(data, plan, lambdas=(0.1,), first_k=2)
    with pytest.raises(ValueError, match="exactly one of lambdas and first_k"):
        run_base_selections(data, plan)
    with pytest.raises(ValueError, match="nonempty"):
        run_base_selections(data, plan, lambdas=())
    with pytest.raises(ValueError, match="first_k must be positive"):
        run_base_selections(data, plan, first_k=0)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            run_base_selections(data, plan, lambdas=(0.1, bad))
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_base_selections(data, plan, lambdas=(0.1,), threads=0)
    assert cut == []


def test_one_shot_lambda_iterables_run_like_tuples():
    """Regression: the emptiness check used up an iterator of lambdas, and
    every half then failed on an empty lambda list."""
    data = small_instance(3, n=40, p=5)
    plan = draw_complementary_pairs(data.n, B=3, seed=2)
    expected = run_base_selections(data, plan, lambdas=(0.1, 0.05))
    got = run_base_selections(data, plan, lambdas=iter([0.1, 0.05]))
    assert np.array_equal(got, expected)
    part = ClusterPartition.singletons(data.p)
    res = run_css(data, part, "simple", B=3, seed=2, lambdas=(l for l in (0.1, 0.05)))
    assert res.lambdas == (0.1, 0.05)
    assert np.array_equal(res.feature_props, feature_proportions(expected))


def test_first_k_base_caps_selection_size():
    data = small_instance(4, n=60, p=6)
    plan = draw_complementary_pairs(data.n, B=3, seed=1)
    S = run_base_selections(data, plan, first_k=2)
    assert len(S) == 6
    assert all(S.sum(axis=1) <= 2)
    assert any(S.sum(axis=1) == 2)
    # with no lambdas, the result names the first-k-path base
    res = summarize_records(
        ClusterPartition.singletons(data.p), S, "simple", lambdas=None, seed=1
    )
    assert res.to_json_dict()["base"] == "first-k-path"


def test_half_sample_failure_names_the_half(monkeypatch):
    data = small_instance(6, n=30, p=4)
    plan = draw_complementary_pairs(data.n, B=2, seed=0)

    def failed_certificate(*args):
        raise ConvergenceFailure(1.0, None)

    monkeypatch.setattr(lasso, "kkt_residual", failed_certificate)
    with pytest.raises(HalfSampleFailure) as info:
        run_base_selections(data, plan, lambdas=(0.1,))
    assert info.value.pair == 0 and info.value.half == "A"
    assert "pair 0" in str(info.value)


@pytest.mark.parametrize("center", [False, True])
def test_zero_norm_column_in_a_half_counts_as_not_selected(center):
    """Regression: column 5 holds three ones and is all zero on 5 of the 100
    halves, where scaling raised and the run stopped (pair 13, Ac).  Those
    halves now leave it unselected, with the supports of the design
    without it."""
    rng = np.random.default_rng(0)
    X = (rng.random((200, 20)) < 0.3).astype(float)
    X[:, 5] = 0.0
    X[[3, 50, 120], 5] = 1.0
    y = X[:, :4].sum(axis=1) + X[:, 5] + rng.standard_normal(200)
    data = DataSet(X=X, y=y, center=center)
    plan = draw_complementary_pairs(200, 50, 1)
    lam = cross_validate_lambda(data)
    S = run_base_selections(data, plan, lambdas=(lam,))
    zero = [i for i, (_, rows) in enumerate(plan.halves()) if not X[rows, 5].any()]
    assert len(zero) == 5 and not S[zero, 5].any()
    for i in zero:
        half = restrict(data, plan.halves()[i][1])
        rest = DataSet(X=np.delete(half.X, 5, axis=1), y=half.y, center=center)
        assert np.flatnonzero(np.delete(S[i], 5)).tolist() == sorted(
            fit_lasso_at(rest, lam).support
        )


def test_threads_do_not_change_records():
    data = small_instance(7, n=60, p=6)
    plan = draw_complementary_pairs(data.n, B=6, seed=3)
    one = run_base_selections(data, plan, lambdas=(0.2, 0.05), threads=1)
    four = run_base_selections(data, plan, lambdas=(0.2, 0.05), threads=4)
    assert np.array_equal(one, four)


# full runs


def test_run_css_produces_consistent_result():
    data = small_instance(8, n=80, p=6, strong=(0, 1))
    part = ClusterPartition(clusters=((0, 1), (2, 3), (4,), (5,)))
    res = run_css(data, part, scheme="weighted", B=8, seed=4, lambdas=(0.15,))
    assert isinstance(res, CssResult)
    assert res.feature_props.shape == (6,)
    assert res.cluster_props.shape == (4,)
    # any-member rule: a cluster is hit at least as often as each member
    for k, c in enumerate(part.clusters):
        assert res.cluster_props[k] >= res.feature_props[list(c)].max() - 1e-15
    for w in res.weights:
        assert np.all(w >= 0) and w.sum() == pytest.approx(1.0)
    # the strong pair dominates
    assert res.cluster_props[0] == max(res.cluster_props)


def test_run_css_defaults_to_cv_lambda_on_full_data():
    data = small_instance(9, n=60, p=5)
    res = run_css(data, ClusterPartition.singletons(5), "simple", B=3, seed=11)
    assert res.lambdas is not None and len(res.lambdas) == 1
    assert res.lambdas[0] == cross_validate_lambda(data, seed=11)


def test_run_css_rejects_partition_size_mismatch():
    data = small_instance(10, n=30, p=4)
    with pytest.raises(ValueError):
        run_css(data, ClusterPartition.singletons(3), "simple", B=2)


def test_result_serialization_round_trip():
    data = small_instance(11, n=50, p=5)
    part = ClusterPartition(clusters=((0, 1), (2,), (3, 4)), names=("a", "b", "c"))
    res = run_css(data, part, scheme="sparse", B=4, seed=5, lambdas=(0.2,))
    d = res.to_json_dict()
    assert d["scheme"] == "sparse" and d["B"] == 4 and d["seed"] == 5
    assert d["base"] == "fixed-lambda-set" and d["lambdas"] == [0.2]
    assert d["clusters"] == [[0, 1], [2], [3, 4]]
    assert d["cluster_names"] == ["a", "b", "c"]
    assert d["feature_props"] == res.feature_props.tolist()
    assert d["kept_features"] == [list(res.kept_features(k)) for k in range(3)]
    rows = res.csv_rows()
    assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
    for j, k, pi, theta, w in rows:
        assert pi == res.feature_props[j]
        assert theta == res.cluster_props[k]
        assert (w > 0) == (j in res.kept_features(k))


def test_weight_fallback_marks_never_selected_clusters():
    part = ClusterPartition(clusters=((0, 1), (2,)))
    S = selections(3, {2}, {2})
    res = summarize_records(part, S, "weighted", lambdas=(0.1,), seed=0)
    assert res.weight_fallback == (True, False)
    np.testing.assert_allclose(res.weights[0], [0.5, 0.5])
