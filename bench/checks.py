"""Output checks of the three workloads.

Each check is either a computation made apart from the program or a
property the method must have; none compares against stored output.  A
check raises CheckFailed naming the first violation.
"""

from __future__ import annotations

import math

import numpy as np

PROXY_BLOCK = list(range(10))  # the sparse design's ten proxies of Z


class CheckFailed(AssertionError):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_css_result(doc: dict, B: int, tau: float) -> None:
    """Properties of a `css run --auto-cluster --scheme weighted --tau` result."""
    halves = 2 * B
    clusters = doc["clusters"]
    props = np.asarray(doc["feature_props"], dtype=float)
    cprops = np.asarray(doc["cluster_props"], dtype=float)
    weights = doc["weights"]
    _require(len(cprops) == len(clusters) == len(weights), "one entry per cluster")

    _require(
        PROXY_BLOCK in clusters,
        f"the proxy block {PROXY_BLOCK} is not one cluster: {clusters[:3]}",
    )
    proxy_cluster = clusters.index(PROXY_BLOCK)
    selected = doc["selection"]["clusters"]
    _require(proxy_cluster in selected, "the proxy cluster is not selected")

    for name, values in (("feature", props), ("cluster", cprops)):
        counts = values * halves
        off = np.abs(counts - np.round(counts))
        _require(
            np.all(off <= 1e-9),
            f"{name} proportion {values[int(np.argmax(off))]!r} is not a "
            f"multiple of 1/{halves}",
        )

    for k, members in enumerate(clusters):
        member = props[members]
        _require(
            member.max() - 1e-12 <= cprops[k] <= member.sum() + 1e-12,
            f"cluster {k}: proportion {cprops[k]!r} outside "
            f"[{member.max()!r}, {member.sum()!r}]",
        )
        total = member.sum()
        expect = (
            member / total if total > 0 else np.full(len(members), 1.0 / len(members))
        )
        _require(
            np.allclose(weights[k], expect, rtol=0.0, atol=1e-12),
            f"cluster {k}: weights {weights[k]} are not the normalised "
            f"member proportions {expect.tolist()}",
        )

    expect_sel = [k for k in range(len(clusters)) if cprops[k] >= tau]
    _require(
        sorted(selected) == expect_sel,
        f"selection {sorted(selected)} differs from {{k : theta_k >= {tau}}} = "
        f"{expect_sel}",
    )


def kkt_residual(X: np.ndarray, y: np.ndarray, coef: np.ndarray, lam: float) -> float:
    """Largest violation of the lasso optimality conditions at coef.

    The objective is (1/2n)||y - sum_j b_j X_j/||X_j|| ||^2 + lam ||b||_1 on
    uncentered data, with coef = b / ||X_j|| on the original basis.
    """
    norms = np.linalg.norm(X, axis=0)
    U = X / norms
    b = coef * norms
    grad = U.T @ (y - U @ b) / X.shape[0]
    active = b != 0.0
    viol = np.maximum(np.abs(grad) - lam, 0.0)
    viol[active] = np.abs(grad[active] - lam * np.sign(b[active]))
    return float(viol.max())


def check_cd_supports(doc: dict, solutions, B: int, kkt_tol: float = 1e-7) -> None:
    """Proportions recomputed from independent fixed-lambda solutions.

    solutions lists one (X_half, y_half, coefficients) per half sample, in
    plan order, solved at the result's lambda by coordinate descent.  Each
    is first confirmed by this module's own KKT check.
    """
    lam = float(doc["lambdas"][0])
    counts = np.zeros(len(doc["feature_props"]))
    for i, (X, y, coef) in enumerate(solutions):
        resid = kkt_residual(X, y, coef, lam)
        _require(resid <= kkt_tol, f"half {i}: KKT residual {resid:.3e} at {lam!r}")
        counts[np.flatnonzero(coef)] += 1
    _require(len(solutions) == 2 * B, f"{len(solutions)} halves for B={B}")
    recomputed = counts / (2 * B)
    props = np.asarray(doc["feature_props"], dtype=float)
    diff = np.flatnonzero(recomputed != props)
    _require(
        diff.size == 0,
        "proportions differ from the fixed-lambda solutions at features "
        f"{diff.tolist()}: {props[diff].tolist()} vs {recomputed[diff].tolist()}",
    )


def two_proxy_band(n: int, sigma_eps_sq: float) -> tuple[float, float]:
    """The vote-splitting band as the README states it, with c2 = (e-1)/(8e^2)."""
    c2 = (math.e - 1.0) / (8.0 * math.e**2)
    lo = 1.0 + 10.0 / math.sqrt(n * math.log(n))
    hi = 1.0 + 1.9 * math.sqrt((2.0 + sigma_eps_sq) / c2) * math.log(n) ** 0.75 / math.sqrt(n)
    return lo, hi


def check_two_proxy(summary: dict, entrant_rows, reps: int) -> None:
    """Properties of a `theorem31` study result."""
    lo, hi = two_proxy_band(summary["n"], summary["sigma_eps_sq"])
    mid = 0.5 * (lo + hi)
    _require(
        abs(summary["beta_Z"] - mid) <= 1e-12 * mid,
        f"beta_Z {summary['beta_Z']!r} is not the band midpoint {mid!r}",
    )
    total = sum(int(row[2]) for row in entrant_rows)
    _require(total == reps, f"entrant counts sum to {total}, not {reps}")
    props = summary["mean_feature_props"]
    _require(
        abs(sum(props) - 2.0) <= 1e-12,
        f"mean feature proportions sum to {sum(props)!r}, not 2",
    )
    cluster = summary["mean_cluster_props"][0]
    for j in (0, 1):
        _require(
            cluster >= props[j] - 1e-12,
            f"proxy cluster proportion {cluster!r} below proxy {j}'s {props[j]!r}",
        )


def lasso_size1_mse(instances, tests) -> float:
    """Mean test MSE of OLS on the lasso's first entrant, one per replication.

    The first entrant is the column with the largest |X_j^T y| / ||X_j||;
    the refit has an intercept and is scored against the latent test mean.
    """
    mses = []
    for inst, test in zip(instances, tests):
        X, y = inst.data.X, inst.data.y
        j = int(np.argmax(np.abs(X.T @ y) / np.linalg.norm(X, axis=0)))
        design = np.column_stack([np.ones(len(y)), X[:, j]])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        pred = coef[0] + coef[1] * test.data.X[:, j]
        mses.append(float(np.mean((pred - test.mu) ** 2)))
        del inst, test  # free this test set before the next is made
    return float(np.mean(mses))


def check_sparse(rows, reps: int, lasso_mse: float) -> None:
    """Properties of a `sparse` study report; lasso_mse from lasso_size1_mse."""
    by_key = {(row[0], row[1]): row for row in rows}
    reported = by_key[("lasso", 1)][2]
    _require(
        reported is not None and abs(reported - lasso_mse) <= 1e-9 * lasso_mse,
        f"lasso size-1 MSE {reported!r}, recomputed {lasso_mse!r}",
    )
    for method, size, _, _, est, lo, hi, n_defined in rows:
        _require(
            n_defined <= reps, f"{method} size {size}: n_defined {n_defined} > {reps}"
        )
        if est is not None:
            _require(
                lo <= est <= hi <= 1.0,
                f"{method} size {size}: stability interval ({lo!r}, {est!r}, "
                f"{hi!r}) is not ordered within 1",
            )
