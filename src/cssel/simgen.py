"""Seeded generators for the simulation designs used in tests and studies.

Every generator is a pure function of (seed, index, parameters): replication
``index`` draws from its own random stream, so instances can be produced in
any order or in parallel and still come out bit-identical.  Each instance
carries the latent mean ``mu`` and enough generative metadata to score
selections against the truth.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import DataSet
from .oracle import ProxyModelParams, proxy_noise_variance, vote_splitting_interval
from .rng import (
    DOMAIN_SIM_PROXY,
    DOMAIN_SIM_SPARSE,
    DOMAIN_SIM_TWO_PROXY,
    DOMAIN_SIM_WEIGHTED,
    standard_normal,
    stream_rng,
)

# Replication index offsets reserved for auxiliary draws, so evaluation and
# pilot data never share a stream with training replication i.
EVAL_STREAM_OFFSET = 1 << 40
PILOT_STREAM_OFFSET = 1 << 41

SNR_DEFAULT = 3.0


@dataclass(frozen=True)
class SimTruth:
    """Generative metadata of one simulated instance."""

    beta_Z: float
    betas: tuple[float, ...]
    proxy_columns: tuple[int, ...]
    clusters: tuple[tuple[int, ...], ...]
    sigma_eps_sq: float
    snr: float | None

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(
            self, "proxy_columns", tuple(int(j) for j in self.proxy_columns)
        )
        object.__setattr__(
            self, "clusters", tuple(tuple(int(j) for j in c) for c in self.clusters)
        )


@dataclass(frozen=True)
class SimInstance:
    data: DataSet
    mu: np.ndarray
    truth: SimTruth

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.shape != (self.data.n,):
            raise ValueError("mu must have one value per row")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
        if len(self.truth.betas) != self.data.p:
            raise ValueError("truth.betas must have one entry per feature")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


def _truth_clusters(proxy_block: int, p: int) -> tuple[tuple[int, ...], ...]:
    """One cluster for the leading proxy block, singletons elsewhere."""
    rest = tuple((j,) for j in range(proxy_block, p))
    return (tuple(range(proxy_block)),) + rest


def _weak_signal_betas() -> np.ndarray:
    return 1.0 / np.sqrt(np.arange(1, 11, dtype=float))


def _finish_instance(rng, mu, X, truth_kwargs, snr) -> SimInstance:
    n = mu.shape[0]
    sigma_eps_sq = float(mu @ mu) / (n * snr)
    y = mu + math.sqrt(sigma_eps_sq) * standard_normal(rng, n)
    truth = SimTruth(sigma_eps_sq=sigma_eps_sq, snr=snr, **truth_kwargs)
    return SimInstance(data=DataSet(X=X, y=y), mu=mu, truth=truth)


def gen_sparse_instance(seed: int, index: int, n: int = 200) -> SimInstance:
    """One replication of the sparse design.

    100 features: columns 0..9 are proxies 0.9 Z + 0.3 W + sqrt(0.1) noise
    (pairwise covariance 0.9, covariance 0.9 with Z), columns 10..19 are
    independent weak signals with coefficients 1/sqrt(1)..1/sqrt(10), columns
    20..99 pure noise.  mu = 1.5 Z + signal part; the response noise level is
    set from the realized mu so the signal-to-noise ratio is exactly 3.
    """
    rng = stream_rng(seed, DOMAIN_SIM_SPARSE, index)
    z = standard_normal(rng, n)
    w = standard_normal(rng, n)
    # Each block is drawn straight into its columns of X.  Scaling the noise
    # and adding the shared part in place gives the same IEEE sums as
    # 0.9 z + 0.3 w + sqrt(0.1) noise.
    X = np.empty((n, 100))
    proxies = standard_normal(rng, out=X[:, :10])
    proxies *= math.sqrt(0.1)
    proxies += 0.9 * z[:, None] + 0.3 * w[:, None]
    standard_normal(rng, out=X[:, 10:20])
    standard_normal(rng, out=X[:, 20:])
    weak = _weak_signal_betas()
    mu = 1.5 * z + X[:, 10:20] @ weak
    betas = np.zeros(100)
    betas[10:20] = weak
    return _finish_instance(
        rng,
        mu,
        X,
        dict(
            beta_Z=1.5,
            betas=tuple(betas),
            proxy_columns=tuple(range(10)),
            clusters=_truth_clusters(10, 100),
        ),
        SNR_DEFAULT,
    )


def gen_weighted_instance(seed: int, index: int, n: int = 200) -> SimInstance:
    """One replication of the mixed-quality proxy design.

    100 features: columns 0..4 strong proxies 0.9 Z + sqrt(0.19) noise
    (correlation 0.9 with Z), columns 5..14 weak proxies 0.5 Z + sqrt(0.75)
    noise (correlation 0.5), columns 15..24 weak signals with coefficients
    1/sqrt(j), columns 25..99 pure noise.  All 15 proxies form one true
    cluster; strong and weak proxies correlate at 0.45 through the shared Z.
    """
    rng = stream_rng(seed, DOMAIN_SIM_WEIGHTED, index)
    z = standard_normal(rng, n)
    X = np.empty((n, 100))  # drawn in place, as in gen_sparse_instance
    strong = standard_normal(rng, out=X[:, :5])
    strong *= math.sqrt(0.19)
    strong += 0.9 * z[:, None]
    weak_proxies = standard_normal(rng, out=X[:, 5:15])
    weak_proxies *= math.sqrt(0.75)
    weak_proxies += 0.5 * z[:, None]
    standard_normal(rng, out=X[:, 15:25])
    standard_normal(rng, out=X[:, 25:])
    weak = _weak_signal_betas()
    mu = 1.5 * z + X[:, 15:25] @ weak
    betas = np.zeros(100)
    betas[15:25] = weak
    return _finish_instance(
        rng,
        mu,
        X,
        dict(
            beta_Z=1.5,
            betas=tuple(betas),
            proxy_columns=tuple(range(15)),
            clusters=_truth_clusters(15, 100),
        ),
        SNR_DEFAULT,
    )


def gen_two_proxy_instance(
    n: int,
    sigma_eps_sq: float,
    beta_Z: float,
    seed: int,
    index: int = 0,
    n_rows: int | None = None,
    check_interval: bool = True,
) -> SimInstance:
    """The three-feature vote-splitting design.

    Columns 0 and 1 are proxies Z + noise whose variance is the n-indexed
    proxy_noise_variance(n) = 1/(n log n); column 2 is an independent signal
    with coefficient 1; y = beta_Z Z + X_2 + eps.  check_interval warns when
    beta_Z lies outside vote_splitting_interval(n, sigma_eps_sq), whose lower
    end is 1 + 10/sqrt(n log n).  The theorem's own text is not in this
    repository (see the README).  n_rows draws a different number of rows
    while keeping the noise variance tied to the nominal n (used for
    half-size pilot draws).
    """
    if sigma_eps_sq < 0:
        raise ValueError("sigma_eps_sq must be nonnegative")
    var_zeta = proxy_noise_variance(n)
    rows = n if n_rows is None else int(n_rows)
    if rows < 1:
        raise ValueError("n_rows must be positive")
    if check_interval:
        band = vote_splitting_interval(n, sigma_eps_sq)
        if band is None or not band[0] < beta_Z < band[1]:
            warnings.warn(
                f"beta_Z={beta_Z} outside the vote-splitting band {band} for n={n}",
                stacklevel=2,
            )
    rng = stream_rng(seed, DOMAIN_SIM_TWO_PROXY, index)
    z = standard_normal(rng, rows)
    zeta = math.sqrt(var_zeta) * standard_normal(rng, (rows, 2))
    x3 = standard_normal(rng, rows)
    eps = math.sqrt(sigma_eps_sq) * standard_normal(rng, rows)
    X = np.column_stack([z + zeta[:, 0], z + zeta[:, 1], x3])
    mu = beta_Z * z + x3
    truth = SimTruth(
        beta_Z=beta_Z,
        betas=(0.0, 0.0, 1.0),
        proxy_columns=(0, 1),
        clusters=((0, 1), (2,)),
        sigma_eps_sq=sigma_eps_sq,
        snr=None,
    )
    return SimInstance(data=DataSet(X=X, y=mu + eps), mu=mu, truth=truth)


def gen_proxy_instance(
    params: ProxyModelParams, seed: int, index: int = 0, n_rows: int | None = None
) -> SimInstance:
    """A draw from the general proxy model behind the risk formulas.

    Columns 0..q-1 are Z + noise with the given per-proxy variances; columns
    q..p-1 are independent standard normal signals with the given
    coefficients; y = beta_Z Z + direct part + eps.  n_rows overrides the
    row count for independent test copies.
    """
    rows = params.n if n_rows is None else int(n_rows)
    if rows < 1:
        raise ValueError("n_rows must be positive")
    rng = stream_rng(seed, DOMAIN_SIM_PROXY, index)
    z = standard_normal(rng, rows)
    sd = np.sqrt(np.asarray(params.sigma_zeta_sq))
    proxies = z[:, None] + sd * standard_normal(rng, (rows, params.q))
    direct = standard_normal(rng, (rows, params.p - params.q))
    X = np.column_stack([proxies, direct]) if params.p > params.q else proxies
    betas = np.asarray(params.betas)
    mu = params.beta_Z * z + (direct @ betas if betas.size else 0.0)
    eps = math.sqrt(params.sigma_eps_sq) * standard_normal(rng, rows)
    full_betas = np.zeros(params.p)
    full_betas[params.q :] = betas
    truth = SimTruth(
        beta_Z=params.beta_Z,
        betas=tuple(full_betas),
        proxy_columns=tuple(range(params.q)),
        clusters=_truth_clusters(params.q, params.p),
        sigma_eps_sq=params.sigma_eps_sq,
        snr=None,
    )
    return SimInstance(data=DataSet(X=X, y=mu + eps), mu=mu, truth=truth)


def instance_to_csv(inst: SimInstance, x_path, y_path, mu_path=None) -> None:
    """Write an instance's X, y, and optionally mu as headed CSV files."""
    with open(x_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(inst.data.p)])
        writer.writerows(inst.data.X.tolist())
    with open(y_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"])
        writer.writerows([[v] for v in inst.data.y.tolist()])
    if mu_path is not None:
        with open(mu_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mu"])
            writer.writerows([[v] for v in inst.mu.tolist()])
