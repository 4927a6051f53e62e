"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its numeric target and, where one applies, its runtime
budget.  The heavy simulation studies run once per session and are shared
by every test that reads them.  Tests 03 and 04 assert the documented
two-proxy entry-order targets for the pinned design; their assertion
messages carry the measured frequencies in full.
"""

import json
import math
import time

import numpy as np
import pytest

from cssel.cli import main
from cssel.core import (
    ClusterPartition,
    feature_proportions,
    run_base_selections,
    run_css,
)
from cssel.data import DataSet
from cssel.evaluation import nogueira_stability, selection_matrix
from cssel.lasso import fit_lasso_at, fit_lasso_path
from cssel.oracle import (
    ProxyModelParams,
    first_knot_closed_form,
    ideal_risk,
    min_weighted_risk,
    optimal_weights,
    risk_single_feature,
    risk_weighted_rep,
    second_knot_closed_form,
)
from cssel.simgen import EVAL_STREAM_OFFSET, gen_proxy_instance
from cssel.studies import run_design_studies, run_study
from cssel.subsampling import draw_complementary_pairs, restrict

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def two_proxy_study():
    t0 = time.perf_counter()
    result = run_study("theorem31", reps=400, seed=0)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sparse_design_studies():
    """The sparse and averaging studies from one shared replication pass,
    with the wall time of that one call."""
    t0 = time.perf_counter()
    results = run_design_studies(("sparse", "averaging"), reps=100, seed=0, test_n=2000)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sparse_study(sparse_design_studies):
    (sparse, _), elapsed = sparse_design_studies
    return sparse, elapsed


@pytest.fixture(scope="module")
def averaging_study(sparse_design_studies):
    (_, averaging), _ = sparse_design_studies
    return averaging


@pytest.fixture(scope="module")
def weighted_study():
    return run_study("weighted", reps=100, seed=0, test_n=2000)


def kkt_gap(data, coef, lam):
    """Subgradient violation computed from scratch, no solver internals."""
    norms = np.linalg.norm(data.X, axis=0)
    c = (data.X / norms).T @ (data.y - data.X @ coef) / data.n
    gap = np.maximum(np.abs(c) - lam, 0.0)
    act = coef != 0.0
    gap[act] = np.abs(c[act] - lam * np.sign(coef[act]))
    return float(gap.max())


def test_01_path_and_descent_solvers_agree():
    budget = 30.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        # tall designs keep the Gram well conditioned, so descent can reach
        # coefficient-level agreement, not just a small subgradient residual
        n = int(rng.integers(30, 51))
        p = int(rng.integers(2, 21))
        X = rng.standard_normal((n, p))
        mask = rng.uniform(size=p) < 0.4
        y = X @ (rng.standard_normal(p) * mask) + 0.5 * rng.standard_normal(n)
        data = DataSet(X=X, y=y)
        path = fit_lasso_path(data)
        lam1 = path.lambda_1
        hi = 0.97 * lam1
        lo = max(1e-3 * lam1, 1.03 * path.terminal_lambda)
        assert lo < hi
        for lam in np.geomspace(hi, lo, 20):
            from_path = path.coefficients_at(lam)
            fit = fit_lasso_at(data, lam, max_iter=100000)
            assert np.max(np.abs(from_path - fit.coefficients)) <= 1e-6
            assert kkt_gap(data, fit.coefficients, lam) <= 1e-8
            assert kkt_gap(data, from_path, lam) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"solver comparison took {elapsed:.1f}s"


def test_02_knot_closed_forms_match_path():
    rng = np.random.default_rng(202)
    flagged = {2: 0, 3: 0}
    for p, trials in ((3, 500), (2, 200)):
        for _ in range(trials):
            n = int(rng.integers(15, 41))
            X = rng.standard_normal((n, p))
            y = X @ rng.standard_normal(p) + 0.5 * rng.standard_normal(n)
            data = DataSet(X=X, y=y)
            path = fit_lasso_path(data, first_k=2)
            lam1, winners = first_knot_closed_form(data)
            assert abs(path.knots[0][0] - lam1) <= 1e-10 * max(1.0, lam1)
            assert path.knots[0][2] in winners
            if len(path.knots) < 2 or path.knots[1][1] != "enter":
                continue
            sk = second_knot_closed_form(data, path.knots[0][2])
            cand = {c.feature: c for c in sk.candidates}[path.knots[1][2]]
            if not cand.flags_pass:
                continue
            assert sk.second_feature == path.knots[1][2]
            assert abs(sk.second_lambda - path.knots[1][0]) <= 1e-8 * max(1.0, lam1)
            flagged[p] += 1
    assert flagged[3] >= 50 and flagged[2] >= 20


def test_03_two_proxy_entry_order_frequencies(two_proxy_study):
    result, elapsed = two_proxy_study
    assert elapsed < 300.0, f"study took {elapsed:.0f}s"
    s = result.summary
    f02 = s["freq_first_proxy0_then_direct"]
    f12 = s["freq_first_proxy1_then_direct"]
    table = {(r[0], r[1]): r[3] for r in result.entrant_rows}
    counts = {(r[0], r[1]): r[2] for r in result.entrant_rows}
    c02, c12 = counts.get((0, 2), 0), counts.get((1, 2), 0)
    problems = []
    if not 0.33 <= f02 <= 0.55:
        problems.append(f"freq(proxy0 then direct)={f02:.3f} outside [0.33, 0.55]")
    # The proxies are exchangeable: given c02 + c12, c02 is Binomial(., 1/2),
    # so c02 - c12 has standard deviation sqrt(c02 + c12).  Allow 3 SE.
    if abs(c02 - c12) > 3.0 * math.sqrt(c02 + c12):
        problems.append(
            f"proxy asymmetry |{c02}-{c12}| > 3 sqrt({c02 + c12}) counts"
        )
    if f02 + f12 < 0.80:
        problems.append(f"freq(either proxy then direct)={f02 + f12:.3f} < 0.80")
    assert not problems, "; ".join(problems) + f"; full entrant table {table}"


def test_04_two_proxy_selection_proportions(two_proxy_study):
    result, _ = two_proxy_study
    s = result.summary
    props = s["mean_feature_props"]
    frac = s["frac_proxy_cluster_ge_direct"]
    problems = []
    if props[0] > 0.62:
        problems.append(f"mean proxy-0 proportion {props[0]:.3f} > 0.62")
    if props[1] > 0.62:
        problems.append(f"mean proxy-1 proportion {props[1]:.3f} > 0.62")
    if props[2] < 0.85:
        problems.append(f"mean direct proportion {props[2]:.3f} < 0.85")
    if frac < 0.95:
        problems.append(f"proxy cluster >= direct in {frac:.3f} of reps < 0.95")
    assert not problems, "; ".join(problems)


def _refit_mse_one_column(u, y, u_test, y_test):
    # no-intercept refit: risk of predicting fresh rows with (u'y/u'u) * u
    slope = float(u @ y) / float(u @ u)
    return float(np.mean((y_test - slope * u_test) ** 2))


RISK_GRID = (
    ProxyModelParams(n=100, q=1, p=2, beta_Z=1.5, betas=(1.0,),
                     sigma_zeta_sq=(0.2346,), sigma_eps_sq=1.0),
    ProxyModelParams(n=100, q=2, p=4, beta_Z=2.0, betas=(0.8, -0.6),
                     sigma_zeta_sq=(0.3, 0.9), sigma_eps_sq=0.5),
    ProxyModelParams(n=50, q=3, p=5, beta_Z=1.0, betas=(1.2, 0.4),
                     sigma_zeta_sq=(0.1, 0.5, 1.5), sigma_eps_sq=2.0),
    ProxyModelParams(n=200, q=2, p=3, beta_Z=0.7, betas=(1.0,),
                     sigma_zeta_sq=(0.05, 0.05), sigma_eps_sq=1.0),
    ProxyModelParams(n=100, q=4, p=6, beta_Z=2.5, betas=(0.5, 0.5),
                     sigma_zeta_sq=(0.2, 0.4, 0.8, 1.6), sigma_eps_sq=1.0),
)


def test_05_risk_formulas_match_monte_carlo():
    budget = 180.0
    reps = 20000
    t0 = time.perf_counter()
    for point, pm in enumerate(RISK_GRID):
        w_arb = np.arange(pm.q, 0, -1, dtype=float)
        w_arb /= w_arb.sum()
        w_star = optimal_weights(pm.sigma_zeta_sq)
        betas = np.asarray(pm.betas)
        targets = {
            "proxy": risk_single_feature(pm, 0),
            "direct": risk_single_feature(pm, pm.q),
            "latent": ideal_risk(pm),
            "mixed": risk_weighted_rep(pm, w_arb),
            "optimal": min_weighted_risk(pm),
        }
        errs = {k: np.empty(reps) for k in targets}
        for r in range(reps):
            tr = gen_proxy_instance(pm, seed=500 + point, index=r)
            te = gen_proxy_instance(
                pm, seed=500 + point, index=EVAL_STREAM_OFFSET + r, n_rows=10
            )
            z_tr = (tr.mu - tr.data.X[:, pm.q:] @ betas) / pm.beta_Z
            z_te = (te.mu - te.data.X[:, pm.q:] @ betas) / pm.beta_Z
            cols = {
                "proxy": (tr.data.X[:, 0], te.data.X[:, 0]),
                "direct": (tr.data.X[:, pm.q], te.data.X[:, pm.q]),
                "latent": (z_tr, z_te),
                "mixed": (tr.data.X[:, :pm.q] @ w_arb, te.data.X[:, :pm.q] @ w_arb),
                "optimal": (tr.data.X[:, :pm.q] @ w_star, te.data.X[:, :pm.q] @ w_star),
            }
            for k, (u, ut) in cols.items():
                errs[k][r] = _refit_mse_one_column(u, tr.data.y, ut, te.data.y)
        for k, target in targets.items():
            e = errs[k]
            se = float(e.std(ddof=1)) / math.sqrt(reps)
            assert abs(e.mean() - target) <= 3.0 * se, (
                f"point {point} {k}: mc {e.mean():.5f} vs formula {target:.5f} "
                f"(se {se:.5f})"
            )

    # risk-order thresholds flip exactly at the stated signal ratios
    for s_z in (0.2, 0.7, 1.6):
        for scale in (0.8, 0.999, 1.001, 1.3):
            beta_Z = math.sqrt(scale * (1.0 + s_z))
            pm = ProxyModelParams(n=100, q=1, p=2, beta_Z=beta_Z, betas=(1.0,),
                                  sigma_zeta_sq=(s_z,), sigma_eps_sq=1.0)
            proxy_wins = risk_single_feature(pm, 0) < risk_single_feature(pm, 1)
            assert proxy_wins == (scale > 1.0)
    for zetas in ((0.3, 0.6), (0.2, 0.5, 1.1)):
        total_inv = sum(1.0 / s for s in zetas)
        thr = (1.0 + total_inv) / total_inv
        for scale in (0.8, 0.999, 1.001, 1.3):
            beta_Z = math.sqrt(scale * thr)
            pm = ProxyModelParams(
                n=100, q=len(zetas), p=len(zetas) + 1, beta_Z=beta_Z,
                betas=(1.0,), sigma_zeta_sq=zetas, sigma_eps_sq=1.0,
            )
            rep_wins = min_weighted_risk(pm) < risk_single_feature(pm, pm.q)
            assert rep_wins == (scale > 1.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"risk verification took {elapsed:.1f}s"


def test_06_optimal_weights_are_stationary():
    pm = ProxyModelParams(n=200, q=3, p=5, beta_Z=1.5, betas=(1.0, 0.5),
                          sigma_zeta_sq=(0.3, 0.7, 1.2), sigma_eps_sq=1.0)
    w_star = optimal_weights(pm.sigma_zeta_sq)
    h = 1e-5
    grad = np.empty(pm.q)
    for i in range(pm.q):
        d = -np.full(pm.q, 1.0 / pm.q)
        d[i] += 1.0  # sum-preserving direction
        grad[i] = (
            risk_weighted_rep(pm, w_star + h * d)
            - risk_weighted_rep(pm, w_star - h * d)
        ) / (2.0 * h)
    assert float(np.linalg.norm(grad)) <= 1e-6
    best = min_weighted_risk(pm)
    rng = np.random.default_rng(606)
    for _ in range(200):
        w = rng.dirichlet(np.ones(pm.q))
        assert risk_weighted_rep(pm, w) >= best - 1e-12


def test_07_selection_error_bound_holds(two_proxy_study):
    result, _ = two_proxy_study
    bc = result.summary["bound_check"]
    assert bc["tau"] == 0.8
    assert bc["eval_reps"] == 200 and bc["pilot_reps"] == 50
    gap = bc["mean_gap_lhs_minus_rhs"]
    assert gap <= 3.0 * bc["se_gap"], (
        f"selected-count mean {bc['mean_selected_low']:.3f} exceeds bound "
        f"{bc['mean_rhs']:.3f} by more than 3 SE (gap {gap:.4f})"
    )


def test_08_sparse_scheme_beats_plain_stability_selection(sparse_study):
    result, elapsed = sparse_study
    assert elapsed < 900.0, f"study took {elapsed:.0f}s"
    s = result.summary
    comp = s["css_sparse_vs_ss"]
    assert len(comp) >= 5, f"too few defined sizes: {sorted(comp)}"
    for size, c in sorted(comp.items()):
        assert c["mean"] >= c["se"], (
            f"size {size}: mse gap {c['mean']:.4f} < 1 se {c['se']:.4f}"
        )
    frac = s["proxy_props_below_top_signal_frac"]
    assert frac >= 0.80, f"vote-splitting pattern in only {frac:.2f} of reps"
    stab = s["mean_stability_sizes_2_8"]
    assert stab["css-sparse"] >= stab["lasso"], (
        f"stability {stab['css-sparse']:.3f} < lasso {stab['lasso']:.3f}"
    )


def test_09_averaging_schemes_improve_mse(averaging_study, weighted_study):
    avg = averaging_study.summary
    for key in ("css_simple_vs_css_sparse", "css_weighted_vs_css_sparse"):
        comp = avg[key]
        assert len(comp) >= 5, f"{key}: too few defined sizes {sorted(comp)}"
        for size, c in sorted(comp.items()):
            assert c["mean"] >= c["se"], (
                f"{key} size {size}: gap {c['mean']:.4f} < 1 se {c['se']:.4f}"
            )
    wgt = weighted_study.summary
    comp = wgt["css_weighted_vs_css_simple"]
    assert len(comp) >= 5
    assert all(c["mean"] >= 0.0 for c in comp.values()), (
        f"weighted scheme worse than simple somewhere: {comp}"
    )
    n_beat = sum(1 for c in comp.values() if c["mean"] >= c["se"])
    assert n_beat >= 4, f"weighted beats simple by 1 se at only {n_beat} sizes"
    stabs = wgt["mean_stability_sizes_2_8"]
    assert abs(stabs["css-weighted"] - stabs["css-simple"]) <= 0.02, stabs


def test_10_stability_metric_calibration():
    S = selection_matrix([{1, 4, 7}] * 25, p=12)
    assert nogueira_stability(S) == 1.0
    rng = np.random.default_rng(1010)
    M, p, k = 1000, 30, 10
    R = np.zeros((M, p))
    for i in range(M):
        R[i, rng.choice(p, size=k, replace=False)] = 1.0
    phi = nogueira_stability(R)
    assert abs(phi) <= 0.05, f"null stability {phi:.4f}"


def test_11_reductions_to_plain_stability_selection():
    """CSS with singleton clusters is plain stability selection: its
    proportions equal the fraction of the 2B halves whose coordinate-descent
    support, solved independently of the homotopy route, holds each feature."""

    def descent_proportions(data, plan, lam):
        hits = np.zeros(data.p)
        for _, rows in plan.halves():
            hits[list(fit_lasso_at(restrict(data, rows), lam).support)] += 1
        return hits / (2 * plan.B)

    rng = np.random.default_rng(1111)
    for seed in (0, 1, 2):
        n, p = 60, 8
        X = rng.standard_normal((n, p))
        y = X @ np.array([2.0, -1.5, 0, 0, 1.0, 0, 0, 0]) + 0.5 * rng.standard_normal(n)
        data = DataSet(X=X, y=y)
        plan = draw_complementary_pairs(n, B=20, seed=seed)
        lam = 0.2
        res = run_css(
            data, ClusterPartition.singletons(p), scheme="simple",
            B=20, seed=seed, lambdas=(lam,),
        )
        ss = descent_proportions(data, plan, lam)
        assert np.array_equal(res.cluster_props, ss)
        assert np.array_equal(res.feature_props, ss)
        # union over a lambda set dominates every per-lambda maximum
        lambdas = (0.3, 0.1, 0.05)
        union = feature_proportions(
            run_base_selections(data, plan, lambdas=lambdas)
        )
        per_lam_max = np.max([descent_proportions(data, plan, l) for l in lambdas], axis=0)
        assert np.all(union >= per_lam_max)


def test_12_outputs_identical_across_thread_counts(tmp_path):
    rng = np.random.default_rng(1212)
    n = 50
    X = rng.standard_normal((n, 5))
    y = 2.0 * X[:, 0] - X[:, 1] + 0.5 * rng.standard_normal(n)
    np.savetxt(tmp_path / "x.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y[:, None], delimiter=",")

    def run_out(name, threads):
        out = tmp_path / name
        code = main([
            "run", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
            "--out", str(out), "--B", "8", "--seed", "3",
            "--threads", str(threads), "--tau", "0.6",
        ])
        assert code == 0
        return out

    a, b = run_out("t1", 1), run_out("t4", 4)
    for name in ("css_result.json", "css_result.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def sim_out(name, threads):
        out = tmp_path / name
        code = main([
            "simulate", "--study", "theorem31", "--reps", "2", "--seed", "3",
            "--threads", str(threads), "--out", str(out),
        ])
        assert code == 0
        return out

    s1, s2 = sim_out("s1", 1), sim_out("s2", 2)
    for name in ("report.csv", "summary.json", "entrants.csv"):
        assert (s1 / name).read_bytes() == (s2 / name).read_bytes()
    with open(s1 / "summary.json") as fh:
        assert json.load(fh)["seed"] == 3
