"""Simulation generators: determinism, moments, truth metadata, CSV dump."""

import csv
import hashlib
import math

import numpy as np
import pytest

from cssel.oracle import (
    ProxyModelParams,
    proxy_noise_variance,
    two_proxy_correlation_matrix,
    vote_splitting_interval,
)
from cssel.simgen import (
    EVAL_STREAM_OFFSET,
    SimInstance,
    SimTruth,
    gen_proxy_instance,
    gen_sparse_instance,
    gen_two_proxy_instance,
    gen_weighted_instance,
    instance_to_csv,
)


def pooled(gen_one, reps, n):
    """Stack replications row-wise for moment checks."""
    Xs, mus, ys = [], [], []
    for i in range(reps):
        inst = gen_one(0, i, n)
        Xs.append(inst.data.X)
        mus.append(inst.mu)
        ys.append(inst.data.y)
    return np.vstack(Xs), np.concatenate(mus), np.concatenate(ys)


def test_instances_are_pure_functions_of_seed_and_index():
    a = gen_sparse_instance(5, 3, n=50)
    b = gen_sparse_instance(5, 3, n=50)
    np.testing.assert_array_equal(a.data.X, b.data.X)
    np.testing.assert_array_equal(a.data.y, b.data.y)
    c = gen_sparse_instance(5, 4, n=50)
    d = gen_sparse_instance(6, 3, n=50)
    assert not np.array_equal(a.data.X, c.data.X)
    assert not np.array_equal(a.data.X, d.data.X)


def test_sparse_design_moments():
    X, mu, _ = pooled(gen_sparse_instance, reps=20, n=500)
    weak = 1.0 / np.sqrt(np.arange(1, 11, dtype=float))
    # recover the latent Z from mu and the weak-signal block
    z = (mu - X[:, 10:20] @ weak) / 1.5
    assert abs(z.mean()) < 0.05 and abs(z.var() - 1.0) < 0.05
    cov = np.cov(X[:, :10].T)
    off = cov[~np.eye(10, dtype=bool)]
    assert abs(np.diag(cov).mean() - 1.0) < 0.03  # 0.81 + 0.09 + 0.1
    assert abs(off.mean() - 0.9) < 0.03
    for j in range(10):
        assert abs(np.cov(X[:, j], z)[0, 1] - 0.9) < 0.05
    # weak and noise blocks are independent unit normals
    assert abs(np.cov(X[:, 10:20].T)[~np.eye(10, dtype=bool)].mean()) < 0.02
    assert abs(X[:, 20:].var() - 1.0) < 0.02


def test_weighted_design_moments():
    X, mu, _ = pooled(gen_weighted_instance, reps=20, n=500)
    cov = np.cov(X[:, :15].T)
    strong = cov[:5, :5][~np.eye(5, dtype=bool)]
    weakp = cov[5:15, 5:15][~np.eye(10, dtype=bool)]
    cross = cov[:5, 5:15]
    assert abs(np.diag(cov).mean() - 1.0) < 0.03
    assert abs(strong.mean() - 0.81) < 0.03
    assert abs(weakp.mean() - 0.25) < 0.03
    assert abs(cross.mean() - 0.45) < 0.03
    weak = 1.0 / np.sqrt(np.arange(1, 11, dtype=float))
    z = (mu - X[:, 15:25] @ weak) / 1.5
    assert abs(z.var() - 1.0) < 0.05


def test_noise_level_fixes_snr_at_three():
    inst = gen_sparse_instance(1, 0, n=300)
    assert inst.truth.snr == 3.0
    expected = float(inst.mu @ inst.mu) / (300 * 3.0)
    assert inst.truth.sigma_eps_sq == pytest.approx(expected, rel=1e-12)
    resid = inst.data.y - inst.mu
    # realized noise variance is near the stated level
    assert resid.var() == pytest.approx(inst.truth.sigma_eps_sq, rel=0.25)


def test_sparse_truth_metadata():
    inst = gen_sparse_instance(2, 0, n=60)
    t = inst.truth
    assert t.beta_Z == 1.5
    assert t.proxy_columns == tuple(range(10))
    assert t.clusters[0] == tuple(range(10))
    assert len(t.clusters) == 91
    assert t.betas[:10] == (0.0,) * 10
    assert t.betas[10] == 1.0 and t.betas[19] == pytest.approx(1 / math.sqrt(10))
    assert all(b == 0.0 for b in t.betas[20:])


def test_two_proxy_matches_population_correlations():
    n = 500
    beta_Z = 1.9
    rows = 120_000
    inst = gen_two_proxy_instance(n, 1.0, beta_Z, seed=3, n_rows=rows)
    M = np.column_stack([inst.data.X, inst.data.y])
    emp = np.corrcoef(M.T)
    pop = two_proxy_correlation_matrix(beta_Z, proxy_noise_variance(n), 1.0)
    # entrywise 3 SE with SE at most (1 - r^2) / sqrt(rows)
    assert np.max(np.abs(emp - pop)) < 3.0 / math.sqrt(rows)
    assert inst.truth.betas == (0.0, 0.0, 1.0)
    assert inst.truth.clusters == ((0, 1), (2,))


def test_two_proxy_warns_outside_the_band():
    lo, hi = vote_splitting_interval(5000, 1.0)
    mid = 0.5 * (lo + hi)
    with pytest.warns(UserWarning, match="outside the vote-splitting band"):
        gen_two_proxy_instance(5000, 1.0, 0.5, seed=0, n_rows=20)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gen_two_proxy_instance(5000, 1.0, mid, seed=0, n_rows=20)


def test_proxy_model_draw_matches_parameters():
    params = ProxyModelParams(
        n=400,
        q=3,
        p=5,
        beta_Z=2.0,
        betas=(1.0, -0.5),
        sigma_zeta_sq=(0.1, 0.4, 0.9),
        sigma_eps_sq=0.5,
    )
    Xs, mus = [], []
    for i in range(50):
        inst = gen_proxy_instance(params, seed=4, index=i)
        assert inst.data.X.shape == (400, 5)
        assert inst.truth.betas == (0.0, 0.0, 0.0, 1.0, -0.5)
        assert inst.truth.clusters == ((0, 1, 2), (3,), (4,))
        Xs.append(inst.data.X)
        mus.append(inst.mu)
    X = np.vstack(Xs)
    mu = np.concatenate(mus)
    cov = np.cov(X[:, :3].T)
    np.testing.assert_allclose(
        np.diag(cov), 1.0 + np.array([0.1, 0.4, 0.9]), atol=0.05
    )
    assert abs(cov[0, 1] - 1.0) < 0.05 and abs(cov[1, 2] - 1.0) < 0.05
    # mu = beta_Z Z + direct part, so Var(mu) = 4 + 1 + 0.25
    assert abs(mu.var() - 5.25) < 0.15


def test_eval_rows_override_keeps_nominal_noise_level():
    params = ProxyModelParams(
        n=300, q=2, p=3, beta_Z=1.0, betas=(1.0,),
        sigma_zeta_sq=(0.2, 0.2), sigma_eps_sq=1.0,
    )
    inst = gen_proxy_instance(params, seed=5, index=0, n_rows=37)
    assert inst.data.n == 37 and inst.mu.shape == (37,)
    with pytest.raises(ValueError):
        gen_proxy_instance(params, seed=5, index=0, n_rows=0)


def test_instance_validation():
    inst = gen_sparse_instance(6, 0, n=30)
    with pytest.raises(ValueError):
        SimInstance(data=inst.data, mu=inst.mu[:-1], truth=inst.truth)
    bad_truth = SimTruth(
        beta_Z=1.0, betas=(0.0,), proxy_columns=(0,), clusters=((0,),),
        sigma_eps_sq=1.0, snr=None,
    )
    with pytest.raises(ValueError):
        SimInstance(data=inst.data, mu=inst.mu, truth=bad_truth)


def test_csv_dump_round_trips_exactly(tmp_path):
    inst = gen_two_proxy_instance(200, 1.0, 1.6, seed=7)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    instance_to_csv(inst, xp, yp)
    with open(xp, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "x2"]
    X = np.array([[float(v) for v in r] for r in rows[1:]])
    np.testing.assert_array_equal(X, inst.data.X)
    with open(yp, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y"]
    np.testing.assert_array_equal(
        np.array([float(r[0]) for r in rows[1:]]), inst.data.y
    )


# Row counts around one draw block of rng.standard_normal (1,024 rows), and
# the studies' 10,000-row test sets.
PIN_ROWS = (2, 3, 1023, 1024, 1025, 10000)
PIN_PROXY = ProxyModelParams(
    n=100, q=3, p=5, beta_Z=1.0, betas=(1.2, 0.4),
    sigma_zeta_sq=(0.5, 1.0, 2.0), sigma_eps_sq=1.0,
)
PINNED_DRAWS = {
    "sparse": lambda seed, rows: gen_sparse_instance(seed, 3, n=rows),
    "weighted": lambda seed, rows: gen_weighted_instance(seed, 3, n=rows),
    "two_proxy": lambda seed, rows: gen_two_proxy_instance(
        200, 1.0, 1.5, seed, index=3, n_rows=rows
    ),
    "proxy": lambda seed, rows: gen_proxy_instance(PIN_PROXY, seed, 3, n_rows=rows),
}


def test_draws_are_pinned():
    """X, y and mu of every generator are frozen bit for bit, for row counts
    on both sides of a draw block: a change to how they are drawn would
    change every seeded study output."""
    digests = {}
    for name, draw in PINNED_DRAWS.items():
        digest = hashlib.sha256()
        for seed in (0, 1, 7):
            for rows in PIN_ROWS:
                inst = draw(seed, rows)
                for a in (inst.data.X, inst.data.y, inst.mu):
                    digest.update(np.ascontiguousarray(a).tobytes())
        digests[name] = digest.hexdigest()
    assert digests == {
        "sparse": "441756abe81e80466892949064c55f78f08c536a1549b48202922ead0b62e8a2",
        "weighted": "35c29d7485e664281b5dcf626f8cd21b37f89a2ca0c697af8f59d4517b66d775",
        "two_proxy": "a3aac832b76235f567499e13e3464d351bfb022193fc3c9dc89df89457d1e31e",
        "proxy": "0116ef425b97c35ca22b83151a9a49286b0f04ebcb47ea36611db991b7421f2b",
    }


def test_test_set_draw_holds_little_beyond_its_matrix(traced_peak):
    """A studies' 10,000-row test set is drawn straight into X, block by
    block: the draw's traced peak stays within 1.25 times X itself."""
    inst, peak = traced_peak(
        lambda: gen_sparse_instance(5, EVAL_STREAM_OFFSET, n=10000)
    )
    assert peak <= 1.25 * inst.data.X.nbytes
