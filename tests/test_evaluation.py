"""Refit scoring and the stability metric."""

import csv

import numpy as np
import pytest

from cssel.data import DataSet
from cssel.evaluation import (
    METHOD_SIZE_HEADER,
    Z_95,
    build_design,
    nogueira_stability,
    nogueira_stability_ci,
    refit_and_mse,
    selection_matrix,
    write_method_size_csv,
)
from cssel.lasso import RankDeficient


def make_data(seed, n=40, p=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    mu = 1.5 * X[:, 0] - 2.0 * X[:, 2]
    y = mu + 0.3 * rng.standard_normal(n)
    return DataSet(X=X, y=y), mu


def test_build_design_mixes_raw_and_weighted_columns():
    X = np.arange(12.0).reshape(4, 3)
    out = build_design(X, [2, ((0, 1), (0.25, 0.75))])
    np.testing.assert_allclose(out[:, 0], X[:, 2])
    np.testing.assert_allclose(out[:, 1], 0.25 * X[:, 0] + 0.75 * X[:, 1])
    assert build_design(X, []).shape == (4, 0)
    with pytest.raises(ValueError):
        build_design(X, [((0, 1), (1.0,))])


def test_refit_matches_hand_ols():
    train, _ = make_data(0)
    rng = np.random.default_rng(1)
    test_X = rng.standard_normal((25, train.p))
    test_mu = 1.5 * test_X[:, 0] - 2.0 * test_X[:, 2]
    cols = [0, 2]
    got = refit_and_mse(train, cols, test_X, test_mu)
    design = np.column_stack([np.ones(train.n), train.X[:, cols]])
    coef, *_ = np.linalg.lstsq(design, train.y, rcond=None)
    pred = np.column_stack([np.ones(25), test_X[:, cols]]) @ coef
    assert got == pytest.approx(float(np.mean((pred - test_mu) ** 2)), rel=1e-12)


def test_refit_rebuilds_representatives_on_test_rows():
    train, _ = make_data(2)
    rng = np.random.default_rng(3)
    test_X = rng.standard_normal((30, train.p))
    test_mu = test_X[:, 0] + test_X[:, 1]
    spec = [((0, 1), (0.5, 0.5)), 3]
    got = refit_and_mse(train, spec, test_X, test_mu)
    design = np.column_stack(
        [np.ones(train.n), 0.5 * train.X[:, 0] + 0.5 * train.X[:, 1], train.X[:, 3]]
    )
    coef, *_ = np.linalg.lstsq(design, train.y, rcond=None)
    test_design = np.column_stack(
        [np.ones(30), 0.5 * test_X[:, 0] + 0.5 * test_X[:, 1], test_X[:, 3]]
    )
    pred = test_design @ coef
    assert got == pytest.approx(float(np.mean((pred - test_mu) ** 2)), rel=1e-12)


def test_refit_validates_shapes():
    train, _ = make_data(4, n=10, p=3)
    test_X = np.zeros((5, 3))
    with pytest.raises(ValueError):
        refit_and_mse(train, [0], np.zeros((5, 2)), np.zeros(5))
    with pytest.raises(ValueError):
        refit_and_mse(train, [0], test_X, np.zeros(4))
    wide, _ = make_data(5, n=4, p=3)
    with pytest.raises(ValueError):
        refit_and_mse(wide, [0, 1, 2, ((0, 1), (0.5, 0.5))], test_X, np.zeros(5))


def test_refit_reports_dependent_columns_in_spec_indexing():
    train, _ = make_data(6)
    test_X = np.zeros((5, train.p))
    with pytest.raises(RankDeficient) as info:
        refit_and_mse(train, [1, 1], test_X, np.zeros(5))
    # indices refer to positions in the column spec, the intercept excluded
    assert set(info.value.columns) <= {0, 1}
    assert info.value.columns


def test_selection_matrix_builds_indicators():
    S = selection_matrix([{0, 2}, (1,), frozenset()], p=3)
    np.testing.assert_array_equal(
        S, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    )
    with pytest.raises(ValueError):
        selection_matrix([{0}], p=2)
    with pytest.raises(ValueError):
        selection_matrix([{0}, {3}], p=3)


def test_identical_nonempty_runs_score_one():
    S = selection_matrix([{0, 2}] * 6, p=4)
    assert nogueira_stability(S) == 1.0


def test_stability_undefined_for_empty_or_full_selections():
    assert nogueira_stability(np.zeros((3, 4))) is None
    assert nogueira_stability(np.ones((3, 4))) is None
    assert nogueira_stability_ci(np.zeros((3, 4))) is None
    with pytest.raises(ValueError):
        nogueira_stability(np.array([[0.0, 0.5], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        nogueira_stability(np.array([1.0, 0.0]))


def test_disjoint_runs_score_minus_one():
    S = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert nogueira_stability(S) == pytest.approx(-1.0)


def test_random_selections_score_near_zero():
    rng = np.random.default_rng(7)
    M, p, k = 600, 40, 20
    S = np.zeros((M, p))
    for i in range(M):
        S[i, rng.choice(p, size=k, replace=False)] = 1.0
    phi = nogueira_stability(S)
    assert abs(phi) < 0.05


def test_stability_ci_brackets_the_estimate():
    rng = np.random.default_rng(8)
    S = (rng.uniform(size=(50, 10)) < 0.4).astype(float)
    est, lo, hi = nogueira_stability_ci(S)
    assert lo <= est <= hi
    assert est == nogueira_stability(S)


def test_stability_ci_z_is_the_normal_0975_quantile():
    from scipy.special import ndtri

    assert Z_95 == float(ndtri(0.975))


def test_stability_ci_upper_end_is_cut_at_one():
    # nine runs pick feature 0 and one picks feature 1: the normal interval
    # runs past 1 (to about 1.098), which the metric cannot exceed
    S = selection_matrix([{0}] * 9 + [{1}], 100)
    est, lo, hi = nogueira_stability_ci(S)
    assert lo < est < 1.0
    assert hi == 1.0


def test_method_size_csv_leaves_none_empty(tmp_path):
    rows = [
        ("css-weighted", 3, 0.5, 0.01, 0.9, 0.85, 0.95, 100),
        ("lasso", 2, 0.7, 0.02, None, None, None, 0),
    ]
    out = tmp_path / "report.csv"
    write_method_size_csv(out, rows)
    with open(out, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == list(METHOD_SIZE_HEADER)
    assert got[1] == ["css-weighted", "3", "0.5", "0.01", "0.9", "0.85", "0.95", "100"]
    assert got[2] == ["lasso", "2", "0.7", "0.02", "", "", "", "0"]
