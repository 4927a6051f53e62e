"""Prediction and stability scoring for selection methods.

OLS refit on selected columns (raw features or weighted cluster
representatives), squared error against the latent mean, and the Nogueira
stability metric with its normal-approximation confidence interval.  The
refits' pivoted QR is lasso's dgeqp3; scipy.special loads only for the
interval's z value.
"""

from __future__ import annotations

import csv

import numpy as np

from .data import DataSet
from .lasso import RankDeficient, _ols_solve

# A column spec is either a raw feature index or a (members, weights) pair
# describing a weighted-average representative column.


def build_design(X: np.ndarray, columns) -> np.ndarray:
    """Materialize column specs against a raw data matrix.

    The one builder of cluster representative columns: the refits here and
    baselines.cluster_rep_lasso take theirs from it.
    """
    X = np.asarray(X, dtype=float)
    cols = []
    for spec in columns:
        if isinstance(spec, (int, np.integer)):
            cols.append(X[:, int(spec)])
        else:
            members, weights = spec
            members = [int(j) for j in members]
            w = np.asarray(weights, dtype=float)
            if w.shape != (len(members),):
                raise ValueError("one weight per member required")
            cols.append(X[:, members] @ w)
    if not cols:
        return np.zeros((X.shape[0], 0))
    return np.column_stack(cols)


def refit_and_mse(train: DataSet, columns, test_X, test_mu) -> float:
    """OLS refit on the training columns, scored against the latent test mean.

    Representative columns are rebuilt on the test rows with the same
    training-derived weights.  Returns mean over test rows of (yhat - mu)^2.
    """
    test_X = np.asarray(test_X, dtype=float)
    test_mu = np.asarray(test_mu, dtype=float)
    if test_X.ndim != 2 or test_X.shape[1] != train.p:
        raise ValueError("test_X must be 2-D with the training column count")
    if test_mu.shape != (test_X.shape[0],):
        raise ValueError("test_mu must have one value per test row")
    design = np.column_stack([np.ones(train.n), build_design(train.X, columns)])
    if design.shape[1] > train.n:
        raise ValueError("more refit columns than training rows")
    coef, offending = _ols_solve(design, train.y)
    if offending is not None:
        raise RankDeficient(tuple(k - 1 for k in offending if k > 0))
    test_design = np.column_stack(
        [np.ones(test_X.shape[0]), build_design(test_X, columns)]
    )
    pred = test_design @ coef
    return float(np.mean((pred - test_mu) ** 2))


def selection_matrix(selections, p: int) -> np.ndarray:
    """Stack selected-feature sets into an M x p binary indicator matrix."""
    rows = []
    for sel in selections:
        row = np.zeros(p, dtype=float)
        for j in sel:
            if not 0 <= int(j) < p:
                raise ValueError(f"feature {j} out of range for p={p}")
            row[int(j)] = 1.0
        rows.append(row)
    if len(rows) < 2:
        raise ValueError("stability needs at least two runs")
    return np.asarray(rows)


def _check_selection_matrix(S) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] < 2:
        raise ValueError("selection matrix must be 2-D with at least two rows")
    if not np.all((S == 0.0) | (S == 1.0)):
        raise ValueError("selection matrix entries must be 0 or 1")
    return S


def nogueira_stability(S) -> float | None:
    """Nogueira's stability of an M x p selection matrix.

    1 means every run selected the same nonempty, non-full set; 0 is the
    expected value for a null method choosing sets at random.  None when the
    average set size is 0 or p, where the metric is undefined.
    """
    S = _check_selection_matrix(S)
    M, p = S.shape
    k_bar = float(S.sum(axis=1).mean())
    if k_bar == 0.0 or k_bar == p:
        return None
    p_hat = S.mean(axis=0)
    s_sq = M / (M - 1) * p_hat * (1.0 - p_hat)
    return float(1.0 - s_sq.mean() / ((k_bar / p) * (1.0 - k_bar / p)))


def nogueira_stability_ci(
    S, level: float = 0.95
) -> tuple[float, float, float] | None:
    """(estimate, lo, hi) by the metric's influence-function variance.

    The normal interval is cut at 1, which the metric cannot exceed.  Its z
    value comes from scipy.special's ndtri, imported here on first use.
    """
    from scipy.special import ndtri

    S = _check_selection_matrix(S)
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    phi_hat = nogueira_stability(S)
    if phi_hat is None:
        return None
    M, p = S.shape
    k = S.sum(axis=1)
    k_bar = float(k.mean())
    p_hat = S.mean(axis=0)
    v_rand = (k_bar / p) * (1.0 - k_bar / p)
    inner = (
        (S * p_hat).mean(axis=1)
        - k * k_bar / p**2
        - (phi_hat / 2.0) * (2.0 * k * k_bar / p**2 - k / p - k_bar / p + 1.0)
    )
    phi_i = inner / v_rand
    var = 4.0 / M**2 * float(((phi_i - phi_i.mean()) ** 2).sum())
    z = float(ndtri(0.5 + level / 2.0))
    half = z * np.sqrt(var)
    return phi_hat, phi_hat - half, min(phi_hat + half, 1.0)


METHOD_SIZE_HEADER = (
    "method",
    "size",
    "mse_mean",
    "mse_se",
    "stability",
    "stability_ci_lo",
    "stability_ci_hi",
    "n_defined",
)


def write_method_size_csv(path, rows) -> None:
    """Per-(method, size) summary CSV; None fields are left empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METHOD_SIZE_HEADER)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
