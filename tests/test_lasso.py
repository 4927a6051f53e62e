"""Solver tests: homotopy path vs coordinate descent, KKT certification,
closed-form first knot and CV contracts."""

import importlib
import inspect
import pkgutil
import types
import warnings

import numpy as np
import pytest

import cssel
from cssel import core, lasso
from cssel.data import DataSet
from cssel.lasso import (
    KKT_TOL,
    ConvergenceFailure,
    InsufficientPath,
    LassoPath,
    _border,
    _ols_solve,
    cross_validate_lambda,
    default_lambda_grid,
    fit_lasso_at,
    fit_lasso_path,
    fixed_lambda_supports,
    kkt_residual,
    lambda_max,
)
from cssel.oracle import vote_splitting_interval
from cssel.simgen import gen_sparse_instance, gen_two_proxy_instance
from cssel.subsampling import draw_complementary_pairs, restrict


def kkt_violation_oracle(X, y, coef, lam):
    """Subgradient conditions evaluated from scratch on raw arrays."""
    X = np.asarray(X, float)
    n = len(y)
    norms = np.sqrt((X**2).sum(axis=0))
    c = X.T @ (y - X @ coef) / (n * norms)
    worst = 0.0
    for j in range(X.shape[1]):
        if coef[j] != 0.0:
            worst = max(worst, abs(c[j] - lam * np.sign(coef[j])))
        else:
            worst = max(worst, max(0.0, abs(c[j]) - lam))
    return worst


def random_instance(rng, n, p, sparsity=3, noise=0.5):
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    live = rng.choice(p, size=min(sparsity, p), replace=False)
    beta[live] = rng.standard_normal(live.size) * 2
    y = X @ beta + noise * rng.standard_normal(n)
    return DataSet(X=X, y=y)


def test_single_column_path_has_one_knot():
    """p=1: the only knot is |x^T y| / (n ||x||), feature 0 enters."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(12)
    y = 2.0 * x + 0.1 * rng.standard_normal(12)
    data = DataSet(X=x[:, None], y=y)
    path = fit_lasso_path(data)
    assert len(path.knots) == 1
    lam, event, j = path.knots[0]
    assert event == "enter" and j == 0
    assert lam == pytest.approx(abs(x @ y) / (12 * np.linalg.norm(x)), abs=1e-15)
    assert path.completed


def test_orthonormal_columns_enter_by_correlation():
    """With orthonormal scaled columns the entry order follows |X_j^T y|."""
    rng = np.random.default_rng(1)
    M = np.linalg.qr(rng.standard_normal((30, 6)))[0]
    y = rng.standard_normal(30)
    data = DataSet(X=M, y=y)
    path = fit_lasso_path(data)
    expected = list(np.argsort(-np.abs(M.T @ y)))
    assert path.entry_order() == expected


def test_first_knot_equals_lambda_max_formula():
    """Path first knot reproduces max_j |X_j^T y| / (n ||X_j||) exactly."""
    rng = np.random.default_rng(2)
    for _ in range(50):
        data = random_instance(rng, 25, 8)
        lam1 = max(
            abs(data.X[:, j] @ data.y) / (data.n * np.linalg.norm(data.X[:, j]))
            for j in range(data.p)
        )
        path = fit_lasso_path(data)
        assert path.lambda_1 == pytest.approx(lam1, rel=1e-14)
        assert lambda_max(data) == pytest.approx(lam1, rel=1e-14)


def test_path_knots_satisfy_kkt():
    """Every knot coefficient vector passes the subgradient check."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        data = random_instance(rng, 30, 10)
        path = fit_lasso_path(data)
        for (lam, _, _), coef in zip(path.knots, path.knot_coefs):
            assert kkt_violation_oracle(data.X, data.y, coef, lam) < 1e-8


def test_path_matches_coordinate_descent_between_knots():
    """Dual-route check: interpolated path equals the fixed-lambda solver."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        data = random_instance(rng, 30, 10)
        path = fit_lasso_path(data)
        lams = [k[0] for k in path.knots] + [path.terminal_lambda]
        for hi, lo in zip(lams[:-1], lams[1:]):
            lam = lo + 0.37 * (hi - lo)
            if lam <= 0:
                continue
            interp = path.coefficients_at(lam)
            fit = fit_lasso_at(data, lam)
            assert np.max(np.abs(interp - fit.coefficients)) < 1e-6
            assert kkt_violation_oracle(data.X, data.y, fit.coefficients, lam) < 1e-8


def test_inactive_subgradients_bounded_on_fits():
    """|s_j| = |c_j|/lambda stays within 1 + 1e-8 for inactive features."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        data = random_instance(rng, 40, 12)
        lam = 0.4 * lambda_max(data)
        fit = fit_lasso_at(data, lam)
        norms = np.sqrt((data.X**2).sum(axis=0))
        c = data.X.T @ (data.y - data.X @ fit.coefficients) / (data.n * norms)
        inactive = fit.coefficients == 0.0
        assert np.all(np.abs(c[inactive]) / lam <= 1 + 1e-8)


def test_lambda_above_max_gives_zero():
    rng = np.random.default_rng(6)
    data = random_instance(rng, 20, 5)
    fit = fit_lasso_at(data, lambda_max(data) * 1.0001)
    assert not fit.support
    assert np.all(fit.coefficients == 0.0)


def test_lambda_zero_equals_unpenalized_least_squares():
    """lambda=0 with n > p and full rank recovers plain OLS (no intercept)."""
    rng = np.random.default_rng(7)
    data = random_instance(rng, 40, 6)
    fit = fit_lasso_at(data, 0.0)
    ols = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
    assert np.max(np.abs(fit.coefficients - ols)) < 1e-8


def test_fit_deterministic():
    rng = np.random.default_rng(8)
    data = random_instance(rng, 30, 10)
    lam = 0.3 * lambda_max(data)
    a = fit_lasso_at(data, lam)
    b = fit_lasso_at(data, lam)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_scale_equivariance_of_entry_order():
    """Multiplying a column by a positive constant keeps the entry order."""
    rng = np.random.default_rng(9)
    data = random_instance(rng, 30, 8)
    order = fit_lasso_path(data).entry_order()
    X2 = data.X.copy()
    X2[:, 3] *= 7.5
    X2[:, 5] *= 0.02
    order2 = fit_lasso_path(DataSet(X=X2, y=data.y)).entry_order()
    assert order == order2


def test_duplicate_columns_enter_once_at_the_lowest_index(monkeypatch):
    """Columns 0 and 1 are equal and tie at the first knot: column 0 enters,
    its copy is kept out, and the path runs to lambda 0 without descent."""
    rng = np.random.default_rng(10)
    x = rng.standard_normal(20)
    X = np.column_stack([x, x, rng.standard_normal(20)])
    data = DataSet(X=X, y=x + 0.01 * rng.standard_normal(20))
    calls = count_descent_calls(monkeypatch)
    path = fit_lasso_path(data)
    assert path.completed and path.entry_order() == [0, 2]
    assert not path.knot_coefs[:, 1].any() and path.terminal_coefs[1] == 0.0
    for (lam, _, _), coef in zip(path.knots, path.knot_coefs):
        assert kkt_residual(data, coef, lam) <= KKT_TOL
    assert kkt_residual(data, path.coefficients_at(0.0), 0.0) <= KKT_TOL
    assert calls == []


def test_independent_tied_features_enter_at_one_knot():
    """Orthogonal columns tied at the first knot (0 and 1) or further down
    (1 and 2) both enter, each with its own knot at the same lambda; the
    interpolation is KKT-exact above, at and below the repeated knot."""
    X = np.eye(6)[:, :4] * (1, 2, 3, 4)
    for y, pair in (((1, 1, 0.5, 0.2, 0, 0), (0, 1)), ((2, 1, 1, 0.3, 0, 0.1), (1, 2))):
        data = DataSet(X=X, y=np.array(y, dtype=float))
        path = fit_lasso_path(data)
        assert path.completed and sorted(path.entry_order()) == [0, 1, 2, 3]
        tied = [(lam, j) for lam, _, j in path.knots if j in pair]
        assert [j for _, j in tied] == list(pair) and tied[0][0] == tied[1][0]
        lams = [k[0] for k in path.knots]
        assert all(a >= b for a, b in zip(lams, lams[1:]))
        queries = lams + [0.5 * (hi + lo) for hi, lo in zip(lams, lams[1:])]
        queries += [0.5 * lams[-1], 0.0, tied[0][0] * (1 + 1e-6), tied[0][0] * (1 - 1e-6)]
        for lam in queries:
            assert kkt_residual(data, path.coefficients_at(lam), lam) <= KKT_TOL


def test_entry_order_prefix_and_reentry():
    """Entry-order prefix; a dropped-and-re-entered feature counts once, and
    first_entrants raises when the whole path has too few entrants."""
    two = DataSet(X=np.eye(4)[:, :2], y=np.array([1.0, 0.5, 0.0, 0.0]))
    template = fit_lasso_path(two)
    made = LassoPath(
        knots=((1.0, "enter", 2), (0.8, "enter", 0), (0.5, "enter", 1)),
        knot_coefs=np.zeros((3, 3)),
        terminal_lambda=0.5,
        terminal_coefs=np.zeros(3),
    )
    assert made.entry_order()[:2] == [2, 0]
    reentry = LassoPath(
        knots=(
            (1.0, "enter", 2),
            (0.9, "drop", 2),
            (0.7, "enter", 0),
            (0.6, "enter", 2),
        ),
        knot_coefs=np.zeros((4, 3)),
        terminal_lambda=0.6,
        terminal_coefs=np.zeros(3),
    )
    assert reentry.entry_order() == [2, 0]
    assert core.first_entrants(two, 2) == template.entry_order() == [0, 1]
    with pytest.raises(InsufficientPath):
        core.first_entrants(two, 3)


def test_path_drop_events_are_recorded_consistently():
    """Any drop is preceded by an unmatched enter; knot lambdas decrease."""
    rng = np.random.default_rng(11)
    seen_drop = False
    for _ in range(40):
        data = random_instance(rng, 25, 12, sparsity=6, noise=1.5)
        path = fit_lasso_path(data)
        lams = [k[0] for k in path.knots]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        open_set = set()
        for _, event, j in path.knots:
            if event == "enter":
                assert j not in open_set
                open_set.add(j)
            else:
                seen_drop = True
                assert j in open_set
                open_set.remove(j)
    assert seen_drop, "no drop event observed; widen the search"


def test_dropped_feature_reenters_on_same_segment():
    """A dropped feature can re-enter before any other event intervenes."""
    rng = np.random.default_rng(92)
    n, p = 25, 8
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p) * (rng.uniform(size=p) < 0.5)
    y = X @ beta + 0.5 * rng.standard_normal(n)
    data = DataSet(X=X, y=y)
    path = fit_lasso_path(data)
    pairs = [
        (a, b)
        for a, b in zip(path.knots, path.knots[1:])
        if a[1] == "drop" and b[1] == "enter" and a[2] == b[2]
    ]
    assert pairs, "instance no longer exhibits a same-segment re-entry"
    drop_knot, enter_knot = pairs[0]
    assert enter_knot[0] < drop_knot[0] * (1 - 1e-9)
    # below the re-entry the interpolated path must still solve the problem
    for lam in np.geomspace(enter_knot[0] * 0.95, enter_knot[0] * 0.2, 6):
        interp = path.coefficients_at(lam)
        assert kkt_violation_oracle(data.X, data.y, interp, lam) < 1e-8
        fit = fit_lasso_at(data, lam, max_iter=100000)
        assert np.max(np.abs(interp - fit.coefficients)) < 1e-6


def test_cv_singleton_grid_returns_it():
    """y = 0 gives lambda_max = 0, so the default grid is the single
    lambda 0, and CV returns it."""
    rng = np.random.default_rng(12)
    data = DataSet(X=rng.standard_normal((30, 5)), y=np.zeros(30))
    assert np.array_equal(default_lambda_grid(data), [0.0])
    assert cross_validate_lambda(data, folds=5) == 0.0


def test_cv_prefers_large_lambda_on_pure_noise():
    """With y independent of X the chosen lambda sits in the grid's top half."""
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        X = rng.standard_normal((40, 10))
        y = rng.standard_normal(40)
        data = DataSet(X=X, y=y)
        grid = default_lambda_grid(data)
        lam = cross_validate_lambda(data, folds=5, seed=seed)
        if lam >= np.median(grid):
            hits += 1
    assert hits >= 12  # >= 60% of seeds


def test_cv_recovers_strong_signal():
    """A strong single feature survives refitting at the CV lambda."""
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        X = rng.standard_normal((60, 8))
        y = 10.0 * X[:, 3] + 0.1 * rng.standard_normal(60)
        data = DataSet(X=X, y=y)
        lam = cross_validate_lambda(data, folds=5, seed=seed)
        if 3 in fit_lasso_at(data, lam).support:
            hits += 1
    assert hits >= 19  # >= 95% of seeds


def test_cv_ties_break_toward_larger_lambda(monkeypatch):
    """Duplicated grid values cannot occur, but equal errors pick larger lam."""
    rng = np.random.default_rng(13)
    X = rng.standard_normal((24, 3))
    y = rng.standard_normal(24)
    data = DataSet(X=X, y=y)
    big = lambda_max(data) * 50
    grid = np.array([4 * big, 2 * big, big])
    monkeypatch.setattr(lasso, "default_lambda_grid", lambda _: grid)
    lam = cross_validate_lambda(data, folds=4)
    assert lam == 4 * big  # all three give the null model, tie -> largest


def test_cv_constant_response_fold_is_fine(monkeypatch):
    """A constant-y fold must not divide by anything: plain squared error."""
    rng = np.random.default_rng(14)
    X = rng.standard_normal((12, 2))
    y = np.ones(12)
    monkeypatch.setattr(lasso, "default_lambda_grid", lambda _: np.array([0.5, 0.1]))
    lam = cross_validate_lambda(DataSet(X=X, y=y), folds=3)
    assert lam in (0.5, 0.1)


def test_centered_cv_ignores_constant_shifts():
    """center=True: shifting y and every column leaves the CV choice alone."""
    rng = np.random.default_rng(30)
    data = random_instance(rng, 60, 8, sparsity=3)
    centered = DataSet(X=data.X, y=data.y, center=True)
    shifted = DataSet(X=data.X + 3.0, y=data.y - 7.0, center=True)
    for seed in range(3):
        lam = cross_validate_lambda(centered, folds=5, seed=seed)
        assert cross_validate_lambda(shifted, folds=5, seed=seed) == pytest.approx(
            lam, rel=1e-12
        )


def test_centered_solver_routes_agree():
    """center=True: path and coordinate descent still agree between knots."""
    rng = np.random.default_rng(19)
    X = rng.standard_normal((30, 6)) + 5.0
    y = X @ np.array([1.0, -2, 0, 0, 0.5, 0]) + rng.standard_normal(30) + 10
    data = DataSet(X=X, y=y, center=True)
    path = fit_lasso_path(data)
    lams = [k[0] for k in path.knots]
    for hi, lo in zip(lams[:-1], lams[1:]):
        lam = 0.5 * (hi + lo)
        fit = fit_lasso_at(data, lam)
        assert np.max(np.abs(path.coefficients_at(lam) - fit.coefficients)) < 1e-6


def test_convergence_failure_reports_residual():
    rng = np.random.default_rng(20)
    data = random_instance(rng, 30, 10)
    with pytest.raises(ConvergenceFailure) as exc:
        fit_lasso_at(data, 0.001 * lambda_max(data), max_iter=1)
    assert exc.value.residual > 0
    assert exc.value.iterations == 1


def test_rejects_nonfinite_input():
    X = np.ones((4, 2))
    X[0, 0] = np.nan
    with pytest.raises(ValueError):
        DataSet(X=X, y=np.zeros(4))


def test_zero_norm_column_rejected_at_solve_time():
    """Descent divides by the Gram diagonal and rejects a zero column; the
    path keeps it at 0, so it counts as not selected."""
    X = np.column_stack([np.zeros(6), np.arange(6.0)])
    data = DataSet(X=X, y=np.arange(6.0) + np.array([0.5, -0.5, 0, 0, 0.5, -0.5]))
    with pytest.raises(ValueError, match="zero norm"):
        fit_lasso_at(data, 0.1)
    path = fit_lasso_path(data)
    assert path.completed and path.entry_order() == [1]
    assert path.coefficients_at(0.0)[0] == 0.0
    assert fixed_lambda_supports(data, (0.1, 0.0)).tolist() == [[False, True]] * 2


def test_stop_lambda_truncates_path_exactly():
    """Truncated paths share the full path's knots and values down to the stop."""
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(15):
        data = random_instance(rng, 30, 10)
        full = fit_lasso_path(data)
        lams = [k[0] for k in full.knots]
        if len(lams) < 4:
            continue
        stop = 0.5 * (lams[2] + lams[3])
        part = fit_lasso_path(data, stop_lambda=stop)
        assert part.terminal_lambda == stop
        assert not part.completed
        assert part.knots == full.knots[: len(part.knots)]
        gap = part.coefficients_at(stop) - full.coefficients_at(stop)
        assert np.max(np.abs(gap)) < 1e-12
        with pytest.raises(ValueError, match="below the computed path end"):
            part.coefficients_at(0.5 * stop)
        checked += 1
    assert checked >= 10


def test_nan_penalties_are_rejected(monkeypatch):
    """NaN fails every comparison, so the sign checks must not let it through."""
    data = random_instance(np.random.default_rng(22), 30, 5)
    for bad in (np.nan, -1.0):
        with pytest.raises(ValueError, match="nonnegative"):
            fit_lasso_path(data, stop_lambda=bad)
        with pytest.raises(ValueError, match="nonnegative"):
            fit_lasso_at(data, bad)
    monkeypatch.setattr(lasso, "kkt_residual", lambda *args: np.nan)
    with pytest.raises(ConvergenceFailure):
        fit_lasso_at(data, 0.1)
    path = fit_lasso_path(data)
    for bad in (np.nan, [0.1, np.nan], -1.0):
        with pytest.raises(ValueError, match="nonnegative"):
            path.coefficients_at(bad)


def test_infinite_penalty_gives_the_zero_fit_without_warnings():
    """The KKT residual signs lambda by copysign, so an infinite lambda never
    meets an inf * 0 product on the zero coefficients."""
    data = random_instance(np.random.default_rng(0), 30, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_lasso_at(data, np.inf)
    assert np.all(fit.coefficients == 0.0) and fit.support == frozenset()
    assert fit.kkt == 0.0


def test_stop_lambda_above_first_knot_yields_empty_path():
    rng = np.random.default_rng(22)
    data = random_instance(rng, 20, 5)
    path = fit_lasso_path(data, stop_lambda=2 * lambda_max(data))
    assert path.knots == ()
    assert not path.completed
    assert np.all(path.coefficients_at(3 * lambda_max(data)) == 0.0)


def test_tall_design_path_runs_to_zero():
    """n > p: the path ends unpenalized and matches least squares there."""
    rng = np.random.default_rng(23)
    for _ in range(10):
        data = random_instance(rng, 50, 7)
        path = fit_lasso_path(data)
        assert path.completed
        assert path.terminal_lambda == 0.0
        ols = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
        assert np.max(np.abs(path.coefficients_at(0.0) - ols)) < 1e-8


def test_cv_picks_a_grid_value_on_tied_columns():
    """Duplicate columns tie every fold path; CV reads each fold off its
    path and must still pick a grid value."""
    rng = np.random.default_rng(24)
    x = rng.standard_normal(40)
    X = np.column_stack([x, x, rng.standard_normal((40, 2))])
    y = x + 0.3 * rng.standard_normal(40)
    data = DataSet(X=X, y=y)
    lam = cross_validate_lambda(data, folds=5, seed=3)
    assert lam in default_lambda_grid(data)


def linear_scan_coefficients(path, lam):
    """The knot-by-knot interpolation that coefficients_at must reproduce."""
    if not path.knots or lam >= path.knots[0][0]:
        return np.zeros(path.terminal_coefs.shape[0])
    lams = [k[0] for k in path.knots]
    for i in range(len(lams) - 1):
        if lam >= lams[i + 1]:
            lo, hi = lams[i + 1], lams[i]
            t = 0.0 if hi == lo else (hi - lam) / (hi - lo)
            return (1 - t) * path.knot_coefs[i] + t * path.knot_coefs[i + 1]
    lo, hi = path.terminal_lambda, lams[-1]
    t = 1.0 if hi == lo else (hi - lam) / (hi - lo)
    return (1 - t) * path.knot_coefs[-1] + t * path.terminal_coefs


def test_coefficients_at_equals_linear_scan():
    """Binary search over the knots gives the linear scan's vectors exactly,
    one lambda at a time and as one decreasing array of them."""
    rng = np.random.default_rng(25)
    for stop in (0.0, 0.3):
        data = random_instance(rng, 30, 10)
        path = fit_lasso_path(data, stop_lambda=stop * lambda_max(data))
        lams = [k[0] for k in path.knots]
        queries = lams + [0.5 * (hi + lo) for hi, lo in zip(lams, lams[1:])]
        queries += [path.terminal_lambda, 0.5 * (lams[-1] + path.terminal_lambda)]
        queries += [2 * lams[0]]
        queries = np.sort(queries)[::-1]
        rows = path.coefficients_at(queries)
        assert rows.shape == (queries.size, data.p)
        for lam, row in zip(queries, rows):
            scan = linear_scan_coefficients(path, lam)
            assert np.array_equal(row, scan)
            assert np.array_equal(path.coefficients_at(lam), scan)
        if path.terminal_lambda > 0:
            for below in (0.5 * path.terminal_lambda, queries * 0.5):
                with pytest.raises(ValueError, match="below the computed path end"):
                    path.coefficients_at(below)


def run_csv_halves(instance_seed, plan_seed, B=50):
    """Half samples of `css run` on a sparse-design instance and its CV lambda."""
    data = gen_sparse_instance(instance_seed, 0).data
    lam = cross_validate_lambda(data, folds=10, seed=plan_seed)
    plan = draw_complementary_pairs(data.n, B, plan_seed)
    return [[restrict(data, rows) for rows in pair] for pair in plan.pairs], lam


def test_just_entered_feature_does_not_drop_at_its_entry_knot():
    """Regression: feature 9 entered and 'dropped' 1.4e-12 later in lambda.

    The spurious drop left the path off the solution down to the CV lambda
    (KKT residual 8.5e-5 there, feature 9 missing from the support).
    """
    halves, lam = run_csv_halves(11, 0)
    half = halves[0][1]
    path = fit_lasso_path(half, stop_lambda=lam)
    for a, b in zip(path.knots, path.knots[1:]):
        assert not (a[1] == "enter" and b[1] == "drop" and a[2] == b[2])
    coef = path.coefficients_at(lam)
    assert kkt_residual(half, coef, lam) <= KKT_TOL
    assert coef[9] != 0.0
    assert np.max(np.abs(coef - fit_lasso_at(half, lam).coefficients)) < 1e-6


def test_run_csv_half_sample_paths_solve_at_cv_lambda():
    """50 half samples, one of which the spurious drop used to break."""
    halves, lam = run_csv_halves(4, 4)
    for pair in halves[25:]:
        for half in pair:
            path = fit_lasso_path(half, stop_lambda=lam)
            assert kkt_residual(half, path.coefficients_at(lam), lam) <= KKT_TOL


def test_path_with_drops_and_reentries_matches_descent():
    """Refactoring after drops keeps the path on the solution between knots."""
    rng = np.random.default_rng(34)
    data = random_instance(rng, 30, 20, sparsity=10, noise=2.0)
    path = fit_lasso_path(data)
    events = [e for _, e, _ in path.knots]
    entered = [j for _, e, j in path.knots if e == "enter"]
    assert events.count("drop") >= 3
    assert len(entered) - len(set(entered)) >= 3
    lams = [k[0] for k in path.knots] + [path.terminal_lambda]
    for hi, lo in zip(lams[:-1], lams[1:]):
        lam = 0.5 * (hi + lo)
        fit = fit_lasso_at(data, lam, max_iter=100000)
        assert np.max(np.abs(path.coefficients_at(lam) - fit.coefficients)) < 1e-6


def count_descent_calls(monkeypatch) -> list:
    """Patch lasso._cd_solve to record each call; returns the record."""
    calls = []
    solve = lasso._cd_solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(lasso, "_cd_solve", counted)
    return calls


def test_wide_half_sample_path_runs_past_n_active(monkeypatch):
    """p > n: with n features active the next event is a drop, and the path
    runs on to lambda 0 with n nonzeros; no coordinate descent is needed
    above or below the first knot with n active."""
    half = restrict(gen_sparse_instance(0, 0).data, range(10))
    path = fit_lasso_path(half)
    assert path.completed
    assert np.count_nonzero(path.terminal_coefs) == half.n
    active = np.cumsum([1 if e == "enter" else -1 for _, e, _ in path.knots])
    lam_n = path.knots[int(np.argmax(active == half.n))][0]
    lambdas = (2 * lam_n, 0.9 * lam_n)
    supports = [fit_lasso_at(half, lam).support for lam in lambdas]
    calls = count_descent_calls(monkeypatch)
    rows = fixed_lambda_supports(half, lambdas)  # lambdas are decreasing
    for row, support in zip(rows, supports):
        assert set(np.flatnonzero(row).tolist()) == support
    assert calls == []


@pytest.mark.parametrize("center", [False, True])
def test_wide_cv_reads_every_fold_off_the_path(monkeypatch, center):
    """Regression: 90x120 training folds whose paths stopped at n active
    features were solved by descent down the whole grid, 77 s for one fold.
    Every fold now runs its path to the grid's bottom, KKT-exact."""
    base = gen_sparse_instance(7, 0).data
    noise = np.random.default_rng(0).standard_normal((100, 20))
    data = DataSet(X=np.column_stack([base.X[:100], noise]), y=base.y[:100], center=center)
    paths = []
    fit = lasso.fit_lasso_path

    def recorded(fold, **kwargs):
        paths.append((fold, fit(fold, **kwargs)))
        return paths[-1][1]

    monkeypatch.setattr(lasso, "fit_lasso_path", recorded)
    calls = count_descent_calls(monkeypatch)
    assert cross_validate_lambda(data) > 0.0
    assert calls == [] and len(paths) == 10
    grid = default_lambda_grid(data)
    for fold, path in paths:
        for lam, coef in zip(grid, path.coefficients_at(grid)):
            assert kkt_residual(fold, coef, lam) <= KKT_TOL


def test_coefficients_at_reads_a_grid_on_tall_data(monkeypatch):
    rng = np.random.default_rng(27)
    data = random_instance(rng, 60, 8)
    grid = np.geomspace(lambda_max(data), 0.01 * lambda_max(data), 12)
    calls = count_descent_calls(monkeypatch)
    path = fit_lasso_path(data, stop_lambda=grid[-1])
    assert path.completed or path.terminal_lambda <= grid[-1]
    coefs = path.coefficients_at(grid)
    assert calls == []
    for lam, coef in zip(grid, coefs):
        assert kkt_residual(data, coef, lam) <= KKT_TOL
        fit = fit_lasso_at(data, lam)
        assert np.max(np.abs(coef - fit.coefficients)) < 1e-6


def test_coefficients_at_reads_a_grid_past_a_tie(monkeypatch):
    """Columns 0 and 1 are equal: the grid, down to lambda 0, is read off
    one path that keeps the copy out."""
    rng = np.random.default_rng(28)
    x = rng.standard_normal(30)
    X = np.column_stack([x, x, rng.standard_normal((30, 3))])
    data = DataSet(X=X, y=x + 0.3 * rng.standard_normal(30))
    grid = np.append(default_lambda_grid(data), 0.0)
    calls = count_descent_calls(monkeypatch)
    coefs = fit_lasso_path(data, stop_lambda=grid[-1]).coefficients_at(grid)
    assert coefs.shape == (grid.size, data.p) and not coefs[:, 1].any()
    for lam, coef in zip(grid, coefs):
        assert kkt_residual(data, coef, lam) <= KKT_TOL
    assert calls == []


def test_coefficients_at_reads_a_grid_past_a_dependent_entrant(monkeypatch):
    """Column 2 = column 0 + column 1: the third of them to reach the
    boundary lies in the span of the other two and is kept out, so the path
    completes and no grid lambda needs descent."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 6))
    X[:, 2] = X[:, 0] + X[:, 1]
    data = DataSet(X=X, y=X[:, 0] + 0.5 * X[:, 1] + X[:, 3] + 0.3 * rng.standard_normal(30))
    calls = count_descent_calls(monkeypatch)
    path = fit_lasso_path(data)
    assert path.completed and np.count_nonzero(path.terminal_coefs[:3]) == 2
    grid = np.append(default_lambda_grid(data), 0.0)
    for lam, coef in zip(grid, path.coefficients_at(grid)):
        assert kkt_residual(data, coef, lam) <= KKT_TOL
    assert calls == []


def sparse_with_copy(d):
    """gen_sparse_instance(0, 0) with a copy of column d as column 100."""
    data = gen_sparse_instance(0, 0).data
    return DataSet(X=np.column_stack([data.X, data.X[:, d]]), y=data.y)


def test_cv_on_a_duplicated_column_reads_every_fold_off_the_path(monkeypatch):
    """Regression: one copied column tied every fold's path, and 10-fold CV
    re-solved all 100 grid points of every fold by descent (150 s)."""
    data = sparse_with_copy(0)
    path = fit_lasso_path(data)
    assert path.completed and 100 not in path.entry_order()
    calls = count_descent_calls(monkeypatch)
    assert cross_validate_lambda(data) > 0.0
    assert calls == []


@pytest.mark.parametrize("d", [0, 10])
def test_first_k_path_base_never_selects_a_copy(d):
    """The path stops only once its k-th distinct entrant is bordered, so a
    copy kept out of the path is never among the first k."""
    data = sparse_with_copy(d)
    plan = draw_complementary_pairs(data.n, 50, 0)
    S = core.run_base_selections(data, plan, first_k=5)
    assert S.sum(axis=1).tolist() == [5] * len(S)
    assert not S[:, 100].any()


def test_fixed_lambda_supports_ignore_order_and_repeats():
    rng = np.random.default_rng(29)
    data = random_instance(rng, 50, 10, sparsity=5)
    lam1 = lambda_max(data)
    ordered = (0.5 * lam1, 0.1 * lam1, 0.02 * lam1)
    shuffled = (ordered[1], ordered[2], ordered[0], ordered[1])
    rows = fixed_lambda_supports(data, ordered)
    assert rows.shape == (len(ordered), data.p) and rows.dtype == bool
    np.testing.assert_array_equal(fixed_lambda_supports(data, shuffled), rows)
    for row, lam in zip(rows, ordered):  # one row per distinct lambda, largest first
        assert set(np.flatnonzero(row).tolist()) == fit_lasso_at(data, lam).support


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_fixed_lambda_supports_certify_every_row(monkeypatch, bad):
    """One kkt_residual call over rows and their lambdas returns the largest
    per-row violation, so one bad row among several lambdas fails."""
    rng = np.random.default_rng(29)
    data = random_instance(rng, 50, 10, sparsity=5)
    grid = np.array([0.5, 0.1, 0.02]) * lambda_max(data)
    rows = fit_lasso_path(data).coefficients_at(grid)
    assert kkt_residual(data, rows, grid) <= KKT_TOL
    bent = rows.copy()
    bent[bad, np.argmax(np.abs(bent[bad]))] *= 1.01
    worst = max(kkt_violation_oracle(data.X, data.y, b, l) for b, l in zip(bent, grid))
    assert worst > KKT_TOL
    assert kkt_residual(data, bent, grid) == pytest.approx(worst, rel=1e-9)

    read = LassoPath.coefficients_at

    def bent_read(path, lam):
        out = read(path, lam)
        out[bad, np.argmax(np.abs(out[bad]))] *= 1.01
        return out

    monkeypatch.setattr(LassoPath, "coefficients_at", bent_read)
    with pytest.raises(ConvergenceFailure) as info:
        fixed_lambda_supports(data, grid)
    assert info.value.residual == pytest.approx(worst, rel=1e-9)


def test_bordered_factor_matches_cholesky_and_flags_dependence():
    """Bordering with stored Gram columns, one entrant at a time, equals a
    fresh factorization; a column in the span of the earlier ones has a
    pivot of at most rounding size and leaves the factor as it was."""
    rng = np.random.default_rng(26)
    U = rng.standard_normal((12, 6))
    G = U.T @ U
    L = np.zeros((0, 0), order="F")
    for k in range(6):
        L, info = _border(L, G[:k, k], G[k, k])
        assert info == 0
    assert np.max(np.abs(L - np.linalg.cholesky(G))) < 1e-12
    e = np.eye(4)[:, [0, 0]]
    G = e.T @ e
    L, info = _border(np.zeros((0, 0), order="F"), G[:0, 0], G[0, 0])
    assert info == 0
    grown, info = _border(L, G[:1, 1], G[1, 1])
    assert info == 1 and grown is L
    # An exact copy of a unit column: its pivot rounds to about 1e-16, of
    # either sign, and must be flagged all the same.
    U /= np.linalg.norm(U, axis=0)
    G = U.T @ U
    L = np.linalg.cholesky(G).copy(order="F")
    for j in range(6):
        grown, info = _border(L, G[:, j], G[j, j])
        assert info == 1 and grown is L


def test_first_entrants_lengthen_past_a_drop(monkeypatch):
    """A drop before the k-th entrant: the early-stopped path runs on past
    it and still names the full path's first k features, from one path."""
    data = random_instance(np.random.default_rng(20), 30, 20, sparsity=6, noise=1.5)
    full = fit_lasso_path(data)
    k = [e for _, e, _ in full.knots].index("drop") + 1
    assert len({j for _, _, j in full.knots[:k]}) < k
    fit, calls = core.fit_lasso_path, []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return fit(*args, **kwargs)

    monkeypatch.setattr(core, "fit_lasso_path", counted)
    for kk in range(1, len(full.entry_order()) + 1):
        calls.clear()
        assert core.first_entrants(data, kk) == full.entry_order()[:kk]
        assert len(calls) == 1
    with pytest.raises(InsufficientPath):
        core.first_entrants(data, data.p + 1)


def two_proxy_half(pair, tag, center=False):
    """A 2500-row half of the theorem31 design (n=5000, band midpoint)."""
    band = vote_splitting_interval(5000, 1.0)
    inst = gen_two_proxy_instance(5000, 1.0, 0.5 * (band[0] + band[1]), 0, index=0)
    rows = draw_complementary_pairs(5000, 50, 0).pairs[pair, {"A": 0, "Ac": 1}[tag]]
    half = restrict(inst.data, rows)
    return DataSet(X=half.X, y=half.y, center=center)


def test_half_layout_leaves_orders_and_supports_unchanged():
    """restrict cuts halves column-major.  A C-order copy of the same half,
    a two-proxy one and a sparse one, gives the same first-k entry order
    and the same fixed-lambda supports; their floats may differ in the last
    bits, so only orders and supports are compared."""
    sparse = gen_sparse_instance(0, 0).data
    sparse_rows = draw_complementary_pairs(sparse.n, 1, 0).pairs[0, 0]
    for half, k in ((two_proxy_half(0, "A"), 2), (restrict(sparse, sparse_rows), 10)):
        copy = DataSet(X=np.ascontiguousarray(half.X), y=half.y, center=half.center)
        assert half.X.flags.f_contiguous and copy.X.flags.c_contiguous
        order = fit_lasso_path(half, first_k=k).entry_order()
        assert len(order) >= k
        assert fit_lasso_path(copy, first_k=k).entry_order() == order
        grid = default_lambda_grid(half)
        supports = fixed_lambda_supports(half, grid)
        assert supports.any()
        assert np.array_equal(fixed_lambda_supports(copy, grid), supports)


@pytest.mark.parametrize("center", [False, True])
def test_tall_two_proxy_half_path_is_exact(center):
    """n=2500, p=3 with two nearly collinear proxies: every knot passes the
    KKT check and the path agrees with descent between knots.  Below the
    last knot the problem is too ill-conditioned for descent to pin the
    coefficients to 1e-6, so there the interpolation's KKT residual is
    checked instead."""
    half = two_proxy_half(0, "A", center)
    path = fit_lasso_path(half)
    assert path.completed and len(path.knots) >= 3
    for (lam, _, _), coef in zip(path.knots, path.knot_coefs):
        assert kkt_residual(half, coef, lam) <= KKT_TOL
    lams = [k[0] for k in path.knots]
    for hi, lo in zip(lams[:-1], lams[1:]):
        lam = 0.5 * (hi + lo)
        gap = path.coefficients_at(lam) - fit_lasso_at(half, lam).coefficients
        assert np.max(np.abs(gap)) < 1e-6
    lam = 0.5 * lams[-1]
    assert kkt_residual(half, path.coefficients_at(lam), lam) <= KKT_TOL


def test_tall_half_entrant_does_not_drop_at_its_entry_knot():
    """Regression: on this half the path recorded proxy 1 entering at
    lambda=1.2208212616e-08 and dropping 1.6e-9 lower in relative terms."""
    half = two_proxy_half(7, "A")
    path = fit_lasso_path(half)
    for a, b in zip(path.knots, path.knots[1:]):
        assert not (a[1] == "enter" and b[1] == "drop" and a[2] == b[2])
    assert path.entry_order() == [0, 2, 1]
    lam = 0.5 * path.knots[-1][0]
    assert kkt_residual(half, path.coefficients_at(lam), lam) <= KKT_TOL


def sparse_halves():
    """The 100 uncentered 100x100 halves of the quick-start data."""
    data = gen_sparse_instance(0, 0).data
    plan = draw_complementary_pairs(data.n, 50, 0)
    return [restrict(data, rows) for _, rows in plan.halves()]


@pytest.mark.parametrize("lam", [1e-7, 1e-8, 0.0])
def test_bottom_of_the_path_passes_its_kkt_check(lam):
    """Regression: near lambda 0, rounding put a dropped feature's entry root
    just past a relative cut below its drop knot, so it re-entered with the
    sign it had dropped with (pair 14, A: KKT residual 2.0e-7 at 1e-7).
    With that root masked exactly, every half's support is certified."""
    for half in sparse_halves():
        fixed_lambda_supports(half, [lam])


def test_full_sparse_half_paths_are_certified_at_every_knot():
    """Each of the 100 halves' paths runs to lambda 0 and passes the KKT
    check at every knot and at its end."""
    for half in sparse_halves():
        path = fit_lasso_path(half)
        assert path.completed
        lams = np.array([k[0] for k in path.knots] + [0.0])
        coefs = np.vstack([path.knot_coefs, path.terminal_coefs])
        assert kkt_residual(half, coefs, lams) <= KKT_TOL


def copied_halves(sign):
    """The 100 halves of the quick-start data with columns 0-19 appended as
    copies (sign 1) or negated copies (sign -1): 100x120."""
    data = gen_sparse_instance(0, 0).data
    data = DataSet(X=np.hstack([data.X, sign * data.X[:, :20]]), y=data.y)
    plan = draw_complementary_pairs(data.n, 50, 0)
    return [restrict(data, rows) for _, rows in plan.halves()]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_copies_of_a_dropped_feature_do_not_enter_at_its_drop(sign):
    """Regression: a copy kept out while its original was active sits on the
    original's boundary when the original drops, so it entered at once,
    rounding just below the drop knot, and its coefficient took the other
    sign (3, 9, 46, 84 and 6 of the 100 halves failed their KKT check at
    these lambdas, lambda_max being 0.092).  Its root there is masked like
    the dropped feature's own; a negated copy's on the other boundary."""
    for half in copied_halves(sign):
        fixed_lambda_supports(half, [3e-4, 1e-4, 1e-5, 1e-7, 0.0])


def names_read(fn) -> set:
    """Global names read by a function's code, nested code included."""
    names, stack = set(), [fn.__code__]
    while stack:
        code = stack.pop()
        names |= set(code.co_names)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return names


def test_only_lasso_binds_coordinate_descent():
    """Every fixed-lambda support outside cssel.lasso goes through
    fixed_lambda_supports; coordinate descent stays the independent check,
    and inside cssel.lasso only fit_lasso_at calls it.  No module has a
    path-tie exception left to fall back on."""
    descent = {"fit_lasso_at": lasso.fit_lasso_at, "_cd_solve": lasso._cd_solve}
    for info in pkgutil.iter_modules(cssel.__path__):
        module = importlib.import_module(f"cssel.{info.name}")
        assert "PathTie" not in vars(module), f"{module.__name__} binds PathTie"
        if module is lasso:
            continue
        for name, fn in descent.items():
            assert name not in vars(module), f"{module.__name__} binds {name}"
            assert all(value is not fn for value in vars(module).values())
    functions = [f for f in vars(lasso).values() if inspect.isfunction(f)]
    callers = {f.__name__ for f in functions if "_cd_solve" in names_read(f)}
    assert callers == {"fit_lasso_at"}


def _qr_ols_solve(design, y):
    """Reference: _ols_solve through scipy.linalg.qr, Q and all."""
    from scipy.linalg import qr

    n, m = design.shape
    _, R, piv = qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = max(n, m) * np.finfo(float).eps * diag[0]
    rank = int(np.sum(diag > tol))
    if rank < m:
        return np.zeros(m), tuple(int(k) for k in piv[rank:])
    return np.linalg.lstsq(design, y, rcond=None)[0], None


@pytest.mark.parametrize("shape", ["full", "duplicate", "wide"])
def test_ols_solve_matches_scipy_pivoted_qr(shape):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 6) if shape != "wide" else (5, 8))
    if shape == "duplicate":
        X[:, 4] = X[:, 1]
    design = np.column_stack([np.ones(len(X)), X])
    y = rng.standard_normal(len(X))
    coef, offending = _ols_solve(design, y)
    ref_coef, ref_offending = _qr_ols_solve(design, y)
    assert offending == ref_offending
    assert (offending is None) == (shape == "full")
    assert np.array_equal(coef, ref_coef)
    design[2, 3] = np.nan
    with pytest.raises(ValueError):
        _ols_solve(design, y)
