"""Closed-form reference quantities used as test oracles.

Prediction risks of single-feature and weighted-representative OLS refits in
the proxy generative model, the optimal representative weights, the interval
of signal strengths that guarantees proxy vote splitting, exact expressions
for the first two lasso path knots on small designs, and the error-control
bounds for thresholded cluster selection.  Everything here is plain
arithmetic on model parameters; nothing fits data except the knot formulas,
which read sample correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataSet

# Largest admissible concentration constant (e-1)/(8e^2), used as default.
C2_MAX = (math.e - 1.0) / (8.0 * math.e**2)


@dataclass(frozen=True)
class ProxyModelParams:
    """Parameters of the proxy generative model.

    Features 0..q-1 are proxies X_j = Z + zeta_j with Var(zeta_j) =
    sigma_zeta_sq[j]; features q..p-1 are independent standard normal with
    direct coefficients `betas`; y = beta_Z * Z + sum(betas * X_direct) +
    eps, Var(eps) = sigma_eps_sq.
    """

    n: int
    q: int
    p: int
    beta_Z: float
    betas: tuple[float, ...]
    sigma_zeta_sq: tuple[float, ...]
    sigma_eps_sq: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("risk formulas need n >= 3")
        if self.q < 1:
            raise ValueError("need at least one proxy")
        if self.p < self.q:
            raise ValueError("p must be >= q")
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(
            self, "sigma_zeta_sq", tuple(float(s) for s in self.sigma_zeta_sq)
        )
        if len(self.betas) != self.p - self.q:
            raise ValueError(f"need {self.p - self.q} direct coefficients")
        if len(self.sigma_zeta_sq) != self.q:
            raise ValueError(f"need {self.q} proxy noise variances")
        values = (self.beta_Z, *self.betas, *self.sigma_zeta_sq, self.sigma_eps_sq)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("model parameters must be finite")
        if any(s < 0 for s in self.sigma_zeta_sq) or self.sigma_eps_sq < 0:
            raise ValueError("variances must be nonnegative")


def _factor(params: ProxyModelParams) -> float:
    return (params.n - 1.0) / (params.n - 2.0)


def ideal_risk(params: ProxyModelParams) -> float:
    """Risk of regressing on the latent signal itself."""
    return _factor(params) * (sum(b**2 for b in params.betas) + params.sigma_eps_sq)


def risk_single_feature(params: ProxyModelParams, j: int) -> float:
    """Out-of-sample risk of a one-column OLS refit on feature j (0-based).

    A proxy pays beta_Z^2 * s/(1+s) for its noise variance s plus the whole
    direct signal; a direct feature pays beta_Z^2 plus the other direct
    coefficients.
    """
    if not 0 <= j < params.p:
        raise ValueError(f"feature {j} out of range for p={params.p}")
    base = sum(b**2 for b in params.betas) + params.sigma_eps_sq
    if j < params.q:
        s = params.sigma_zeta_sq[j]
        return _factor(params) * (params.beta_Z**2 * s / (1.0 + s) + base)
    bj = params.betas[j - params.q]
    return _factor(params) * (params.beta_Z**2 + base - bj**2)


def optimal_weights(sigma_zeta_sq) -> np.ndarray:
    """Inverse-variance weights minimizing the representative's risk.

    Zero-variance proxies receive all the weight (split equally when several
    are exactly zero), the documented limit of the inverse-variance rule.
    """
    s = np.asarray(sigma_zeta_sq, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("need a nonempty variance vector")
    if np.any(s < 0):
        raise ValueError("variances must be nonnegative")
    zero = s == 0.0
    if zero.any():
        w = zero / zero.sum()
        return w.astype(float)
    inv = 1.0 / s
    return inv / inv.sum()


def risk_weighted_rep(params: ProxyModelParams, w) -> float:
    """Risk of the OLS refit on the weighted proxy average sum w_j X_j."""
    w = np.asarray(w, dtype=float)
    if w.shape != (params.q,):
        raise ValueError(f"weights must have length q={params.q}")
    if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must lie on the simplex")
    s = float(np.sum(w**2 * np.asarray(params.sigma_zeta_sq)))
    base = sum(b**2 for b in params.betas) + params.sigma_eps_sq
    return _factor(params) * (params.beta_Z**2 * s / (1.0 + s) + base)


def min_weighted_risk(params: ProxyModelParams) -> float:
    """Closed form of risk_weighted_rep at the optimal weights."""
    if any(s == 0.0 for s in params.sigma_zeta_sq):
        return ideal_risk(params)
    total_inv = sum(1.0 / s for s in params.sigma_zeta_sq)
    return ideal_risk(params) + _factor(params) * params.beta_Z**2 / (1.0 + total_inv)


def proxy_noise_variance(n: int) -> float:
    """Variance sigma_zeta^2 = 1 / (n log n) of each proxy's noise at size n.

    Its square root sigma_zeta sets the lower end 1 + 10 sigma_zeta of
    vote_splitting_interval.  The theorem's own text is not in this
    repository; this is the reading under which the generator, the band and
    the promised entry order agree (see the README).
    """
    if n < 2:
        raise ValueError("n too small")
    return 1.0 / (n * math.log(n))


def vote_splitting_interval(
    n: int, sigma_eps_sq: float, c2: float = C2_MAX
) -> tuple[float, float] | None:
    """Signal-strength interval guaranteeing the two-proxy entry behavior.

    For beta_Z in the interval, the lasso's first entrant is one of the two
    proxies (splitting the vote) while the direct feature still enters
    second with high probability.  The lower end is 1 + 10 sigma_zeta with
    sigma_zeta^2 = proxy_noise_variance(n); the upper end is
    1 + 1.9 sqrt((2 + sigma_eps_sq) / c2) (log n)^(3/4) / sqrt(n).  The
    theorem's own constants are not in this repository.  Returns None when
    the interval is empty.
    """
    if n < 100:
        raise ValueError("interval formula requires n >= 100")
    if not 0.0 < c2 <= C2_MAX + 1e-15:
        raise ValueError(f"c2 must lie in (0, {C2_MAX}]")
    if not 0 <= sigma_eps_sq < math.inf:
        raise ValueError("sigma_eps_sq must be finite and nonnegative")
    lo = 1.0 + 10.0 * math.sqrt(proxy_noise_variance(n))
    hi = 1.0 + 1.9 * math.sqrt((2.0 + sigma_eps_sq) / c2) * math.log(n) ** 0.75 / math.sqrt(n)
    if lo >= hi:
        return None
    return lo, hi


def two_proxy_correlation_matrix(
    beta_Z: float, sigma_zeta_sq: float, sigma_eps_sq: float
) -> np.ndarray:
    """Population correlations of (X1, X2, X3, y) in the two-proxy design.

    X1, X2 = Z + noise(sigma_zeta_sq); X3 independent standard normal;
    y = beta_Z Z + X3 + eps.
    """
    var_y = beta_Z**2 + 1.0 + sigma_eps_sq
    r_py = beta_Z / math.sqrt(var_y * (1.0 + sigma_zeta_sq))
    r_3y = 1.0 / math.sqrt(var_y)
    r_12 = 1.0 / (1.0 + sigma_zeta_sq)
    C = np.eye(4)
    C[0, 1] = C[1, 0] = r_12
    C[0, 3] = C[3, 0] = r_py
    C[1, 3] = C[3, 1] = r_py
    C[2, 3] = C[3, 2] = r_3y
    return C


def _uncentered_corr(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def first_knot_closed_form(data: DataSet) -> tuple[float, tuple[int, ...]]:
    """lambda_1 = max_j |X_j^T y| / (n ||X_j||) and its argmax features.

    Ties within 1e-12 relative are all reported.
    """
    X, y, n = data.X, data.y, data.n
    norms = np.sqrt((X**2).sum(axis=0))
    if np.any(norms == 0.0):
        raise ValueError("zero-norm column")
    vals = np.abs(X.T @ y) / (n * norms)
    lam1 = float(vals.max())
    if lam1 == 0.0:
        return 0.0, tuple(range(data.p))
    winners = tuple(int(j) for j in np.flatnonzero(vals >= lam1 * (1 - 1e-12)))
    return lam1, winners


@dataclass(frozen=True)
class KnotCandidate:
    """One feature's would-be second knot and the validity of its formula.

    value is max over both sign branches of
    (||y||/n) (r_jy - r_fj r_fy) / (s - r_fj); the displayed closed form is
    the +1 branch, valid when the numerator is nonnegative (then it is the
    max), the denominator is nondegenerate, and the first entrant's
    correlation with y is positive.
    """

    feature: int
    value: float
    numerator_nonneg: bool
    denom_ok: bool
    first_corr_positive: bool

    @property
    def flags_pass(self) -> bool:
        return self.numerator_nonneg and self.denom_ok and self.first_corr_positive


@dataclass(frozen=True)
class SecondKnot:
    candidates: tuple[KnotCandidate, ...]
    second_feature: int | None
    second_lambda: float


def second_knot_closed_form(data: DataSet, entered: int) -> SecondKnot:
    """Closed-form candidates for the second path knot after `entered`.

    The predicted second entrant is the argmax candidate with positive knot
    value; each candidate carries flags telling whether the displayed
    single-branch formula applies to it.
    """
    X, y, n = data.X, data.y, data.n
    if not 0 <= entered < data.p:
        raise ValueError("entered feature out of range")
    r_fy = _uncentered_corr(X[:, entered], y)
    ynorm = float(np.linalg.norm(y))
    cands = []
    for j in range(data.p):
        if j == entered:
            continue
        r_jy = _uncentered_corr(X[:, j], y)
        r_fj = _uncentered_corr(X[:, entered], X[:, j])
        numer = r_jy - r_fj * r_fy
        best = -math.inf
        for sgn in (1.0, -1.0):
            denom = sgn - r_fj
            if abs(denom) > 1e-12:
                best = max(best, ynorm / n * numer / denom)
        cands.append(
            KnotCandidate(
                feature=j,
                value=best,
                numerator_nonneg=numer >= 0.0,
                denom_ok=abs(1.0 - r_fj) > 1e-12,
                first_corr_positive=r_fy > 0.0,
            )
        )
    defined = [c for c in cands if math.isfinite(c.value) and c.value > 0.0]
    if defined:
        winner = max(defined, key=lambda c: c.value)
        second, lam2 = winner.feature, winner.value
    else:
        second, lam2 = None, 0.0
    return SecondKnot(tuple(cands), second, lam2)


def error_bound_rhs(theta: float, tau: float, expected_base: float) -> float:
    """Error-control bound for thresholded cluster selection.

    For tau in (1/2, 1]: the upper bound theta/(2 tau - 1) * E on the
    expected count of selected low-probability clusters.  A degenerate
    denominator returns +inf.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if expected_base < 0:
        raise ValueError("expected count must be nonnegative")
    if not 0.5 < tau <= 1.0:
        raise ValueError("selected-count bound needs tau in (1/2, 1]")
    denom = 2.0 * tau - 1.0
    if denom < 1e-12:
        return math.inf
    return theta / denom * expected_base
