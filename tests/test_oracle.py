"""Closed-form risk, interval, and knot formulas checked against independent
recomputation, Monte Carlo, and the path solver."""

import math

import numpy as np
import pytest

from cssel.data import DataSet
from cssel.lasso import fit_lasso_path
from cssel.oracle import (
    C2_MAX,
    ProxyModelParams,
    error_bound_rhs,
    first_knot_closed_form,
    ideal_risk,
    min_weighted_risk,
    optimal_weights,
    proxy_noise_variance,
    risk_single_feature,
    risk_weighted_rep,
    second_knot_closed_form,
    two_proxy_correlation_matrix,
    vote_splitting_interval,
)
from cssel.simgen import gen_two_proxy_instance


def params(n=200, q=2, p=4, beta_Z=1.5, betas=(1.0, 0.7), zetas=(0.3, 0.6), eps=1.0):
    return ProxyModelParams(
        n=n, q=q, p=p, beta_Z=beta_Z, betas=tuple(betas),
        sigma_zeta_sq=tuple(zetas), sigma_eps_sq=eps,
    )


def test_proxy_risk_formula_value():
    """Independent recomputation of ((n-1)/(n-2))(b^2 s/(1+s) + sum b^2 + eps)."""
    pm = params()
    for j, s in [(0, 0.3), (1, 0.6)]:
        base = sum(b * b for b in pm.betas) + pm.sigma_eps_sq
        expected = (199 / 198) * (1.5**2 * s / (1 + s) + base)
        assert risk_single_feature(pm, j) == pytest.approx(expected, rel=1e-14)


def test_direct_feature_risk_formula_value():
    pm = params()
    base = sum(b * b for b in pm.betas) + pm.sigma_eps_sq
    for k, beta_k in [(2, 1.0), (3, 0.7)]:
        expected = (199 / 198) * (1.5**2 + base - beta_k**2)
        assert risk_single_feature(pm, k) == pytest.approx(expected, rel=1e-14)


def test_zero_noise_proxy_risk_equals_ideal():
    pm = params(zetas=(0.0, 0.6))
    assert risk_single_feature(pm, 0) == pytest.approx(ideal_risk(pm), rel=1e-14)


def test_proxy_beats_direct_iff_threshold():
    """R(proxy j) < R(direct k) exactly when beta_Z^2/beta_k^2 > 1 + zeta_j^2."""
    for beta_Z in (0.8, 1.0, 1.2, 1.5, 2.0):
        for zeta in (0.05, 0.2, 0.44, 1.0):
            for beta_k in (0.7, 1.0, 1.3):
                pm = params(beta_Z=beta_Z, betas=(beta_k, 0.5), zetas=(zeta, 0.9))
                lhs = risk_single_feature(pm, 0) < risk_single_feature(pm, 2)
                rhs = beta_Z**2 / beta_k**2 > 1 + zeta
                assert lhs == rhs


def test_proxy_risk_monte_carlo():
    """Small-scale simulation of the out-of-sample OLS risk hits the formula."""
    from cssel.simgen import gen_proxy_instance

    pm = params(n=100, q=1, p=2, beta_Z=1.5, betas=(1.0,), zetas=(0.2346,), eps=1.0)
    reps = 3000
    errs = np.empty(reps)
    for r in range(reps):
        inst = gen_proxy_instance(pm, seed=17, index=r)
        test = gen_proxy_instance(pm, seed=17, index=(1 << 40) + r, n_rows=10)
        u = inst.data.X[:, 0]
        slope = float(u @ inst.data.y) / float(u @ u)
        pred = slope * test.data.X[:, 0]
        errs[r] = np.mean((test.data.y - pred) ** 2)
    se = errs.std(ddof=1) / math.sqrt(reps)
    assert abs(errs.mean() - risk_single_feature(pm, 0)) < 3 * se


def test_optimal_weights_examples_and_zero_variance_limit():
    assert np.allclose(optimal_weights((1.0, 1.0, 1.0)), [1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(optimal_weights((1.0, 2.0)), [2 / 3, 1 / 3])
    w = optimal_weights((0.4, 0.0, 0.9))
    assert np.array_equal(w, [0.0, 1.0, 0.0])
    w2 = optimal_weights((0.0, 0.5, 0.0))
    assert np.array_equal(w2, [0.5, 0.0, 0.5])


def test_weighted_risk_reduces_to_single_feature():
    pm = params(q=1, p=3, betas=(1.0, 0.7), zetas=(0.31,))
    assert risk_weighted_rep(pm, (1.0,)) == pytest.approx(
        risk_single_feature(pm, 0), rel=1e-14
    )


def test_min_weighted_risk_closed_form():
    pm = params()
    expected = ideal_risk(pm) + (199 / 198) * 1.5**2 / (1 + 1 / 0.3 + 1 / 0.6)
    assert min_weighted_risk(pm) == pytest.approx(expected, rel=1e-14)
    assert risk_weighted_rep(pm, optimal_weights(pm.sigma_zeta_sq)) == pytest.approx(
        expected, rel=1e-14
    )


def test_optimal_weights_beat_random_simplex_points():
    rng = np.random.default_rng(5)
    pm = params(q=3, p=5, zetas=(0.2, 0.5, 1.1), betas=(0.8, 0.6))
    best = min_weighted_risk(pm)
    for _ in range(200):
        w = rng.dirichlet(np.ones(3))
        assert risk_weighted_rep(pm, w) >= best - 1e-12


def test_projected_gradient_vanishes_at_optimal_weights():
    """Finite-difference gradient projected onto the simplex is ~0 at w*."""
    pm = params(q=3, p=5, zetas=(0.25, 0.4, 0.9), betas=(1.0, 0.5))
    w = optimal_weights(pm.sigma_zeta_sq)
    h = 1e-7
    grad = np.empty(3)
    for j in range(3):
        up, dn = w.copy(), w.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (risk_weighted_rep(pm, up / up.sum())
                   - risk_weighted_rep(pm, dn / dn.sum())) / (2 * h)
    projected = grad - grad.mean()
    assert np.max(np.abs(projected)) < 1e-6


def test_more_proxies_reduce_min_risk():
    for zetas in [(0.3,), (0.3, 0.8), (0.3, 0.8, 1.5)]:
        pm_small = params(q=len(zetas), p=len(zetas) + 2, zetas=zetas)
        pm_big = params(q=len(zetas) + 1, p=len(zetas) + 3, zetas=zetas + (2.0,))
        assert min_weighted_risk(pm_big) < min_weighted_risk(pm_small)


def test_min_risk_tends_to_ideal_as_noise_vanishes():
    gaps = []
    for scale in (1.0, 0.1, 0.01, 0.001):
        pm = params(zetas=(0.3 * scale, 0.6 * scale))
        gaps.append(min_weighted_risk(pm) - ideal_risk(pm))
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-2


def test_noise_variance_formula():
    assert proxy_noise_variance(5000) == pytest.approx(
        1 / (5000 * math.log(5000)), rel=1e-15
    )
    with pytest.raises(ValueError):
        proxy_noise_variance(1)
    # shrinks faster than 1/n, so the second proxy's knot noise grows with n
    scaled = [n * proxy_noise_variance(n) for n in (100, 1000, 5000, 10**5, 10**6)]
    assert all(a > b for a, b in zip(scaled, scaled[1:]))


def test_band_midpoint_gives_proxy_then_direct_entry():
    # Inside the band the first entrant is a proxy and the direct feature
    # (column 2) enters second; the other proxy's knot falls far below.
    n = 5000
    lo, hi = vote_splitting_interval(n, 1.0)
    beta_Z = 0.5 * (lo + hi)
    reps = 200
    hits = 0
    for i in range(reps):
        inst = gen_two_proxy_instance(n, 1.0, beta_Z, seed=0, index=i)
        first2 = fit_lasso_path(inst.data, first_k=2).entry_order()[:2]
        hits += first2 in ([0, 2], [1, 2])
    assert hits / reps >= 0.80, f"proxy-then-direct in {hits}/{reps} paths"


def test_interval_bounds_and_shape():
    band = vote_splitting_interval(5000, 1.0)
    assert band is not None
    lo, hi = band
    assert lo == pytest.approx(1 + 10 / math.sqrt(5000 * math.log(5000)), rel=1e-15)
    expected_hi = 1 + 1.9 * math.sqrt(3 / C2_MAX) * math.log(5000) ** 0.75 / math.sqrt(5000)
    assert hi == pytest.approx(expected_hi, rel=1e-15)
    assert 1 < lo < hi
    big = vote_splitting_interval(10**6, 1.0)
    assert big is not None and big[0] < big[1] < 2


def test_interval_rejects_bad_inputs():
    with pytest.raises(ValueError):
        vote_splitting_interval(99, 1.0)
    with pytest.raises(ValueError):
        vote_splitting_interval(5000, 1.0, c2=0.0)
    with pytest.raises(ValueError):
        vote_splitting_interval(5000, 1.0, c2=C2_MAX * 1.01)


def test_correlation_matrix_structure():
    C = two_proxy_correlation_matrix(1.5, 0.05, 1.0)
    assert C.shape == (4, 4)
    assert np.array_equal(C, C.T)
    assert np.allclose(np.diag(C), 1.0)
    assert C[0, 1] == pytest.approx(1 / 1.05, rel=1e-15)
    assert C[0, 2] == 0.0
    var_y = 1.5**2 + 2.0
    assert C[0, 3] == pytest.approx(1.5 / math.sqrt(var_y * 1.05), rel=1e-15)
    assert C[2, 3] == pytest.approx(1 / math.sqrt(var_y), rel=1e-15)


def test_first_knot_simple_cases():
    y = np.array([1.0, 2.0, 0.5, -0.3])
    X = np.column_stack([y, np.array([1.0, -1, 1, -1]), np.array([0.0, 0, 1, -1.0])])
    X[:, 1] -= X[:, 1] @ y / (y @ y) * y  # make column 1 orthogonal to y
    data = DataSet(X=X, y=y)
    lam1, winners = first_knot_closed_form(data)
    assert winners == (0,)
    assert lam1 == pytest.approx(np.linalg.norm(y) / 4, rel=1e-12)
    lam_scaled, winners_scaled = first_knot_closed_form(DataSet(X=X, y=3 * y))
    assert winners_scaled == (0,)
    assert lam_scaled == pytest.approx(3 * lam1, rel=1e-12)


def test_knot_formulas_match_path_solver():
    """First and second knots agree with the homotopy on random 3-feature data."""
    rng = np.random.default_rng(8)
    second_checked = 0
    for _ in range(250):
        X = rng.standard_normal((25, 3))
        # positive coefficients keep the first entrant's correlation with y
        # positive most of the time, the event the displayed formula assumes
        y = X @ (0.3 + np.abs(rng.standard_normal(3))) + 0.5 * rng.standard_normal(25)
        data = DataSet(X=X, y=y)
        path = fit_lasso_path(data, first_k=2)
        lam1, winners = first_knot_closed_form(data)
        assert path.knots[0][0] == pytest.approx(lam1, abs=1e-10 * max(1, lam1))
        assert path.knots[0][2] in winners
        if len(path.knots) < 2 or path.knots[1][1] != "enter":
            continue
        sk = second_knot_closed_form(data, path.knots[0][2])
        cand = {c.feature: c for c in sk.candidates}[path.knots[1][2]]
        if not cand.flags_pass:
            continue
        assert sk.second_feature == path.knots[1][2]
        assert sk.second_lambda == pytest.approx(
            path.knots[1][0], abs=1e-8 * max(1, lam1)
        )
        second_checked += 1
    assert second_checked >= 120


def test_second_knot_orthogonal_feature_is_zero():
    rng = np.random.default_rng(9)
    x1 = rng.standard_normal(50)
    y = 2.0 * x1
    x2 = rng.standard_normal(50)
    x2 -= (x2 @ x1 / (x1 @ x1)) * x1
    x2 -= (x2 @ y / (y @ y)) * y
    data = DataSet(X=np.column_stack([x1, x2, rng.standard_normal(50)]), y=y)
    sk = second_knot_closed_form(data, 0)
    cand = {c.feature: c for c in sk.candidates}[1]
    assert cand.value == pytest.approx(0.0, abs=1e-12)


def test_second_knot_duplicate_entrant_flagged():
    """X_j equal to the entrant: the 1 - r_fj denominator guard must trip."""
    rng = np.random.default_rng(10)
    x1 = rng.standard_normal(30)
    data = DataSet(
        X=np.column_stack([x1, x1, rng.standard_normal(30)]),
        y=x1 + 0.1 * rng.standard_normal(30),
    )
    sk = second_knot_closed_form(data, 0)
    cand = {c.feature: c for c in sk.candidates}[1]
    assert not cand.denom_ok
    assert not cand.flags_pass


def test_error_bound_values_and_limits():
    assert error_bound_rhs(0.5, 1.0, 10.0) == pytest.approx(5.0, rel=1e-15)
    assert error_bound_rhs(0.3, 0.8, 6.0) == pytest.approx(0.3 / 0.6 * 6.0, rel=1e-14)
    assert error_bound_rhs(0.5, 0.5 + 1e-14, 1.0) == math.inf


def test_error_bound_rejects_invalid_tau():
    with pytest.raises(ValueError):
        error_bound_rhs(0.5, 0.4, 1.0)  # the bound needs tau > 1/2
