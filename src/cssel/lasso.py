"""Lasso solvers with L2 column scaling.

The objective throughout is

    min_b  (1/2n) || y - sum_j (X_j / ||X_j||_2) b_j ||^2  +  lambda ||b||_1

i.e. the penalty applies to coefficients of norm-scaled columns.  Columns are
scaled internally; every public result reports coefficients on the original
column basis (divide by the norm), so predictions are plain X @ coef.  No
centering happens unless the DataSet carries center=True, in which case X and
y are mean-centered first and coefficients apply to centered columns.

Two independent routes solve the same problem: a homotopy that tracks the
exact piecewise-linear solution path in lambda (knot by knot), and cyclic
coordinate descent at a fixed lambda.  They are kept separate so each can
certify the other.  The homotopy is the only production solver: it takes
tied entrants together and keeps out entrants in the span of the active
columns, so it runs on duplicated and collinear columns too.  The package
reads every support at a given lambda off fixed_lambda_supports;
fit_lasso_at, descent from zero, is the independent check on it.

The four LAPACK routines used here (dpotrf, dpotrs and dtrtrs in the path,
dgeqp3 in the least-squares refit) come from scipy's _flapack extension,
which _scipy.load_extension loads without the scipy.linalg package init.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._scipy import load_extension
from .data import DataSet, center_and_scale
from .rng import DOMAIN_CV, stream_rng
from .subsampling import restrict

_flapack = load_extension("linalg", "_flapack")
dpotrf, dpotrs, dtrtrs, dgeqp3 = (
    _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs, _flapack.dgeqp3
)

KKT_TOL = 1e-8
CD_TOL = 1e-10
GRID_POINTS = 100  # lambdas in default_lambda_grid, the grid of every CV
TIE_REL = 1e-12
PIVOT_REL = 1e-10
_BOTH_SIGNS = np.array([[1.0], [-1.0]])  # the entry roots' sign rows, +1 first


class ConvergenceFailure(Exception):
    """A solution failed its KKT check.

    iterations counts the coordinate-descent sweeps of fit_lasso_at, and is
    None for a solution read off the path by fixed_lambda_supports.
    """

    def __init__(self, residual: float, iterations: int | None):
        self.residual = float(residual)
        self.iterations = iterations
        msg = f"KKT residual {residual:.3e}"
        if iterations is not None:
            msg = f"no convergence after {iterations} sweeps; {msg}"
        super().__init__(msg)


class InsufficientPath(Exception):
    """The path ended before the requested number of entries."""


class RankDeficient(Exception):
    """A least-squares design has linearly dependent columns."""

    def __init__(self, columns: tuple[int, ...]):
        self.columns = tuple(int(c) for c in columns)
        super().__init__(f"design is rank deficient; dependent columns {self.columns}")


def lambda_max(data: DataSet) -> float:
    """Smallest lambda with all-zero solution: max_j |X_j^T y| / (n ||X_j||)."""
    s = center_and_scale(data.X, data.y, data.center)
    return float(np.max(np.abs(s.U.T @ s.y)) / data.n)


def kkt_residual(data: DataSet, coefficients: np.ndarray, lam) -> float:
    """Max violation of the subgradient conditions at `coefficients`.

    For active j the stationarity gap |X_j^T r / (n||X_j||) - lam*sign(b_j)|,
    for inactive j the excess max(0, |X_j^T r| / (n||X_j||) - lam).
    coefficients is one vector at lam, or one row per lambda of an array lam,
    for which the data are scaled once and the largest violation returned.
    """
    U, y, _, _, norms, _ = center_and_scale(data.X, data.y, data.center)
    b = np.atleast_2d(np.asarray(coefficients, dtype=float))
    lams = np.asarray(lam, dtype=float).reshape(-1, 1)
    c = (U.T @ (y[:, None] - U @ (b * norms).T)).T / data.n
    active = b != 0.0
    viol = np.maximum(np.abs(c) - lams, 0.0)
    # copysign, not lams * sign(b): an infinite lam times a zero sign is NaN
    viol[active] = np.abs(c - np.copysign(lams, b))[active]
    return float(viol.max()) if viol.size else 0.0


@dataclass(frozen=True)
class LassoPath:
    """Exact solution path, recorded knot by knot.

    knots: (lambda, event, feature) with event "enter" or "drop", lambdas
    non-increasing: features that tie enter at one lambda, each with its own
    knot and the same coefficient row.  knot_coefs holds the coefficient
    vector (original basis) at each knot.  The final linear segment runs from
    the last knot down to terminal_lambda with terminal_coefs there: 0 for a
    full path, stop_lambda for a truncated one, else the last knot's lambda
    (a first_k stop).  coefficients_at reads the path at one lambda or at a
    whole grid in one call; queries below terminal_lambda are invalid.
    """

    knots: tuple[tuple[float, str, int], ...]
    knot_coefs: np.ndarray
    terminal_lambda: float
    terminal_coefs: np.ndarray

    @property
    def completed(self) -> bool:
        """The path reaches the unpenalized end, lambda 0."""
        return self.terminal_lambda == 0.0

    @property
    def lambda_1(self) -> float:
        return self.knots[0][0] if self.knots else 0.0

    @cached_property
    def _knot_lambdas(self) -> np.ndarray:
        return np.array([k[0] for k in self.knots])

    def entry_order(self) -> list[int]:
        """Features by first entry, drops and re-entries ignored."""
        seen: list[int] = []
        for _, event, j in self.knots:
            if event == "enter" and j not in seen:
                seen.append(j)
        return seen

    def coefficients_at(self, lam) -> np.ndarray:
        """The exact solution at lambda (original basis), by interpolation.

        lam is one lambda, or an array of them for one row each; a row is
        bit for bit the vector that its lambda alone gives.
        """
        lams = np.asarray(lam, dtype=float)
        if not (lams >= 0).all():
            raise ValueError("lambda must be nonnegative")
        if (lams < self.terminal_lambda).any():
            raise ValueError(
                f"lambda={lams.min()!r} below the computed path end {self.terminal_lambda!r}"
            )
        queries = lams.reshape(-1)
        out = np.zeros((queries.size, self.terminal_coefs.shape[0]))
        if self.knots:
            # A query below the first knot lies on the segment from knot i
            # down to the next knot, or down to the path end after the last.
            highs = self._knot_lambdas
            i = np.searchsorted(-highs, -queries) - 1
            on = np.flatnonzero(i >= 0)
            q, i = queries[on], i[on]
            nxt, end = np.minimum(i + 1, highs.size - 1), i + 1 == highs.size
            hi, lo = highs[i], np.where(end, self.terminal_lambda, highs[nxt])
            right = np.where(end[:, None], self.terminal_coefs, self.knot_coefs[nxt])
            t = np.ones(q.size)
            np.divide(hi - q, hi - lo, out=t, where=hi != lo)
            out[on] = (1 - t)[:, None] * self.knot_coefs[i] + t[:, None] * right
        return out[0] if lams.ndim == 0 else out


def _border(L: np.ndarray, b: np.ndarray, c: float) -> tuple[np.ndarray, int]:
    """Lower Cholesky factor of [[M, b], [b^T, c]], given the factor L of M.

    Returns (factor, 0), or (L, 1) when the new pivot c - w.w (w = L^-1 b) is
    at most PIVOT_REL * c: the new column lies numerically in the span of the
    others.  Exact copies leave rounding (4.4e-16 measured), genuine entrants
    of sparse and two-proxy half samples 5.9e-7 or more.
    """
    k = L.shape[0]
    w = dtrtrs(L, b, lower=1)[0] if k else b
    pivot = c - w @ w
    if not pivot > PIVOT_REL * c:
        return L, 1
    grown = np.zeros((k + 1, k + 1), order="F")
    grown[:k, :k] = L
    grown[k, :k], grown[k, k] = w, np.sqrt(pivot)
    return grown, 0


def fit_lasso_path(
    data: DataSet, first_k: int | None = None, stop_lambda: float = 0.0
) -> LassoPath:
    """Homotopy: track every knot of the exact lasso path from lambda_1 down.

    On each segment the active-set coefficients are linear in lambda; the
    next knot is the largest lambda at which an inactive feature's
    correlation reaches the boundary (enter) or an active coefficient hits
    zero (drop).  Features tied within TIE_REL enter together, in index
    order, each with its own knot at the same lambda.  stop_lambda truncates
    the path once every remaining event lies below it; coefficients_at stays
    exact down to the truncation point.  first_k ends the path at the knot
    where its first_k-th distinct feature enters (with any tied with it);
    drops and re-entries do not count, nor does a kept-out entrant.

    An entrant whose column lies numerically in the span of the active ones
    (its bordered pivot is at most PIVOT_REL) cannot legitimately enter: its
    correlation is pinned to theirs (Tibshirani 2013, "The lasso problem and
    uniqueness", sec. 3).  It gets no knot and stays out until the next drop
    re-opens every inactive feature.  So of exact duplicates the lowest index
    enters and the copies stay at zero.  A zero-norm column is never taken
    in.  At most rank(U) features are active, n or n - 1 when centered; then
    the next event is a drop, so p > n paths also reach lambda 0.  The path
    ends early only at a first_k stop.

    The Gram column U^T u_j of each entrant is computed once and kept, so a
    knot costs one (p x k)(k x 2) product; memory is O(p min(n, p)).  The
    active Gram's Cholesky factor is bordered by each entrant and refactored
    after a drop (Efron et al. 2004).
    """
    if first_k is not None and first_k < 1:
        raise ValueError("first_k must be positive")
    if not stop_lambda >= 0:
        raise ValueError("stop_lambda must be nonnegative")
    U, y, _, _, norms, _ = center_and_scale(data.X, data.y, data.center)
    n, p = U.shape
    c0 = U.T @ y
    abs_c0 = np.abs(c0)
    mu1 = float(abs_c0.max())
    stop_mu = stop_lambda * n

    if mu1 <= stop_mu:
        return LassoPath(
            knots=(), knot_coefs=np.zeros((0, p)),
            terminal_lambda=0.0 if mu1 == 0.0 else stop_lambda,
            terminal_coefs=np.zeros(p),
        )

    max_active = n - int(data.center)
    knots: list[tuple[float, str, int]] = []
    # (active features, their scaled coefficients) at each knot, then at the
    # path's end when it ran past its last knot
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    # The k active features are act[:k], in entry order.  Column i of G is
    # U^T u_j and row i of cs is [c0_j, sign of beta_j] for j = act[i]; L
    # factors the active Gram G[act[:k], :k] and is None when a drop left it
    # to be refactored.  candidates are the features neither active nor
    # kept out; entered holds every feature that has ever entered.
    act = np.empty(min(n, p), dtype=np.intp)
    G = np.empty((p, act.size), order="F")
    cs = np.empty((act.size, 2))
    k, L = 0, np.zeros((0, 0), order="F")
    candidates, entered = np.ones(p, dtype=bool), set()
    # The features tied at the first knot are the first entrants.
    top = (abs_c0 >= mu1 * (1.0 - TIE_REL)).nonzero()[0][:max_active]
    entering = [(j, np.sign(c0[j])) for j in top]
    mu_next, row = mu1, (act[:0].copy(), c0[:0])
    # fresh features entered at mu_cur; after_drop when a feature left at
    # mu_cur, and then open_roots masks the entry roots that sit at mu_cur
    mu_cur, fresh, after_drop, terminal_lambda = mu1, 0, False, None
    open_roots = np.empty((2, p), dtype=bool)

    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            if L is None:
                L, info = dpotrf(G[act[:k], :k], lower=1)
                if info:
                    raise np.linalg.LinAlgError("active Gram singular after a drop")
            # Border the entrants one at a time.  A dependent one is kept out;
            # when none is left, the event did not happen and the path goes
            # on from its previous knot.
            for j, sign in entering:
                candidates[j] = False
                np.matmul(U.T, U[:, j], out=G[:, k])
                L, dependent = _border(L, G[act[:k], k], G[j, k])
                if not dependent:
                    act[k], cs[k] = j, (c0[j], sign)
                    k += 1
                    knots.append((mu_next / n, "enter", int(j)))
                    rows.append(row)
                    entered.add(j)
                    if mu_cur != mu_next:
                        mu_cur, fresh, after_drop = mu_next, 0, False
                    fresh += 1
            entering = []
            if first_k is not None and len(entered) >= first_k:
                break
            A = act[:k]
            vd, _ = dpotrs(L, cs[:k], lower=1)
            v, d = vd[:, 0], vd[:, 1]
            # beta_A(mu) = v - mu*d on the scaled basis for mu in
            # (mu_next, mu_cur]; along it the correlations
            # U^T (y - U_A beta_A) = c0 - G_A v + mu G_A d are a + mu*g.
            Gvd = G[:, :k] @ vd
            a, g = c0 - Gvd[:, 0], Gvd[:, 1]
            upper = mu_cur * (1.0 - TIE_REL)
            # On one segment a correlation a_j + mu*g_j, the boundaries +-mu
            # and an active coefficient are linear in mu, so each root is met
            # at most once.  A feature that dropped at mu_cur with sign s
            # meets its s boundary there, as does each exact copy of it (a
            # negated copy its -s boundary), and a fresh entrant's
            # coefficient is zero there: wherever rounding puts those roots,
            # they are masked outright.

            # Entry roots of a_j + mu*g_j = sgn*mu, sign +1 in row 0: argmax
            # takes the first maximum, so on equal roots + wins, then the
            # lowest index.  With max_active features active, a is zero up to
            # rounding and no feature is a candidate.
            denom = _BOTH_SIGNS - g
            roots = a / denom
            valid = (np.abs(denom) > 1e-12) & (roots > 0.0) & (roots < upper) & candidates
            valid &= k < max_active
            if after_drop:
                valid &= open_roots
            roots = np.where(valid, roots, -np.inf)
            entry = int(roots.argmax())
            mu_entry = float(roots.flat[entry])
            group = [(entry % p, _BOTH_SIGNS[entry // p, 0])]
            # The exact tie test runs only when a second root is near the top.
            near = np.count_nonzero(roots >= mu_entry * (1.0 - 2 * TIE_REL))
            if mu_entry > -np.inf and near > 1:
                tied = np.abs(roots - mu_entry) <= TIE_REL * mu_entry
                tied_features = np.flatnonzero(tied.any(axis=0))[: max_active - k]
                group = [(j, 1.0 if tied[0, j] else -1.0) for j in tied_features]

            # Drop roots of the active coefficients, first maximum in entry order.
            roots = v / d
            valid = (roots > 0.0) & (roots < upper)
            valid[k - fresh : k] = False
            roots = np.where(valid, roots, -np.inf)
            drop = int(roots.argmax())
            mu_drop = float(roots[drop])

            mu_next = max(mu_entry, mu_drop)
            if mu_next <= stop_mu:
                # Either no event is left (mu_next is -inf) and the path runs
                # to the unpenalized end, or every remaining event lies below
                # the stop point; the current segment is exact down to there.
                terminal_lambda = 0.0 if mu_next == -np.inf else stop_lambda
                rows.append((A.copy(), v - n * terminal_lambda * d))
                break

            row = (A.copy(), v - mu_next * d)
            # Drops take precedence at numerically equal knots (measure-zero
            # case).
            if mu_drop >= mu_entry:
                j_ev = int(A[drop])
                # u_j^T u_f reaches u_f^T u_f only for a copy u_j = u_f of
                # the dropped f (Cauchy-Schwarz), and -u_f^T u_f only for -u_f
                g_f = G[:, drop]
                s_row = 0 if cs[drop, 1] > 0 else 1
                np.less(g_f, g_f[j_ev], out=open_roots[s_row])
                np.greater(g_f, -g_f[j_ev], out=open_roots[1 - s_row])
                row[1][drop] = 0.0
                rows.append(row)
                knots.append((mu_next / n, "drop", j_ev))
                k -= 1
                act[drop:k] = act[drop + 1 : k + 1]
                G[:, drop:k] = G[:, drop + 1 : k + 1]
                cs[drop:k] = cs[drop + 1 : k + 1]
                L = None
                candidates[:] = True
                candidates[act[:k]] = False
                mu_cur, fresh, after_drop = mu_next, 0, True
            else:
                entering = group

    coefs = np.zeros((len(rows), p))
    cols = np.concatenate([A for A, _ in rows])
    at = np.arange(len(rows)).repeat([A.size for A, _ in rows])
    coefs[at, cols] = np.concatenate([b for _, b in rows]) / norms[cols]
    return LassoPath(
        knots=tuple(knots), knot_coefs=coefs[: len(knots)],
        terminal_lambda=knots[-1][0] if terminal_lambda is None else terminal_lambda,
        terminal_coefs=coefs[-1].copy(),
    )


@dataclass(frozen=True)
class LassoFit:
    """Solution at one fixed lambda (coefficients on the original basis)."""

    lam: float
    coefficients: np.ndarray
    support: frozenset[int]
    iterations: int
    kkt: float


def _cd_solve(
    G: np.ndarray,
    c: np.ndarray,
    mu: float,
    beta: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int]:
    """Cyclic coordinate descent at penalty mu, warm-started from beta.

    Sweeps over the active set until stable, then over all coordinates; done
    when a full sweep moves no coefficient by more than tol.  grad tracks
    c - G @ beta incrementally.
    """
    p = beta.shape[0]
    grad = c - G @ beta if beta.any() else c.copy()
    diag = np.diag(G)
    it = 0

    def sweep(coords) -> float:
        nonlocal grad
        worst = 0.0
        for j in coords:
            bj = beta[j]
            z = grad[j] + diag[j] * bj
            nb = np.sign(z) * max(abs(z) - mu, 0.0) / diag[j]
            if nb != bj:
                grad -= G[:, j] * (nb - bj)
                beta[j] = nb
                delta = abs(nb - bj)
                if delta > worst:
                    worst = delta
        return worst

    all_coords = range(p)
    while it < max_iter:
        it += 1
        if sweep(all_coords) <= tol:
            return beta, it
        while it < max_iter:
            it += 1
            act = np.flatnonzero(beta)
            if sweep(act) <= tol:
                break
    return beta, it


def fit_lasso_at(data: DataSet, lam: float, max_iter: int = 10000) -> LassoFit:
    """Coordinate-descent solution at a fixed lambda; no column may be zero."""
    if not lam >= 0:
        raise ValueError("lambda must be nonnegative")
    U, y, _, _, norms, _ = center_and_scale(data.X, data.y, data.center)
    n, p = U.shape
    if not norms.all():  # descent divides by the Gram diagonal
        raise ValueError(f"columns {np.flatnonzero(norms == 0).tolist()} have zero norm")

    if lam == 0.0:
        beta, *_ = np.linalg.lstsq(U, y, rcond=None)
        iterations = 0
    else:
        G = U.T @ U
        c = U.T @ y
        beta, iterations = _cd_solve(G, c, n * lam, np.zeros(p), CD_TOL, max_iter)
    coef = beta / norms
    resid = kkt_residual(data, coef, lam)
    if not resid <= KKT_TOL:
        raise ConvergenceFailure(resid, iterations)
    return LassoFit(
        lam=float(lam),
        coefficients=coef,
        support=frozenset(np.flatnonzero(coef).tolist()),
        iterations=iterations,
        kkt=resid,
    )


def default_lambda_grid(data: DataSet) -> np.ndarray:
    """GRID_POINTS log-spaced lambdas from lambda_max down to lambda_max *
    1e-3; the single lambda 0 when lambda_max is 0."""
    lam1 = lambda_max(data)
    if lam1 == 0.0:
        return np.array([0.0])
    return np.geomspace(lam1, lam1 * 1e-3, GRID_POINTS)


def fixed_lambda_supports(data: DataSet, lambdas) -> np.ndarray:
    """Boolean lasso supports, one row per distinct lambda, largest first.

    The one route for a support at a given lambda: the distinct lambdas are
    read in one call off one homotopy path truncated at the smallest, which
    it always reaches, and one kkt_residual call over all the rows raises
    ConvergenceFailure when the largest residual exceeds KKT_TOL.  So a
    feature the path wrongly kept out, as a dependent entrant, fails loudly.
    """
    grid = np.unique(lambdas)[::-1]
    coefs = fit_lasso_path(data, stop_lambda=float(grid[-1])).coefficients_at(grid)
    resid = kkt_residual(data, coefs, grid)
    if resid > KKT_TOL:
        raise ConvergenceFailure(resid, None)
    return coefs != 0.0


def cross_validate_lambda(data: DataSet, folds: int = 10, seed: int = 0) -> float:
    """Pick the default_lambda_grid lambda with the lowest held-out squared
    error.

    Rows are shuffled once, by the (seed, DOMAIN_CV) stream, split into
    `folds` chunks, and each training fold, cut by restrict, is solved at
    every grid point by one homotopy path read in one call.  Ties in the
    pooled held-out error break toward the larger lambda.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if folds > data.n:
        raise ValueError(f"{folds} folds exceed {data.n} rows")
    grid = default_lambda_grid(data)

    perm = stream_rng(seed, DOMAIN_CV).permutation(data.n)
    chunks = np.array_split(perm, folds)
    sq_err = np.zeros(grid.size)
    for chunk in chunks:
        val = np.sort(chunk)
        fold = restrict(data, np.setdiff1d(perm, chunk, assume_unique=True))
        # (x_mean, y_mean) only: keeping the fold's scaled copy alive
        # through the solve below raises the peak memory of `css run`
        x_off, y_off = center_and_scale(fold.X, fold.y, fold.center)[2:4]
        Xv, yv = data.X[val], data.y[val]
        path = fit_lasso_path(fold, stop_lambda=float(grid[-1]))
        for i, coef in enumerate(path.coefficients_at(grid)):
            pred = (Xv - x_off) @ coef + y_off
            sq_err[i] += float(np.sum((yv - pred) ** 2))
    return float(grid[int(np.argmin(sq_err))])


def _ols_solve(
    design: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """Least squares with rank diagnosis via pivoted QR.

    Returns (coefficients, None) on full rank, else (zeros, design-column
    indices past the numerical rank in pivot order).  The factorization is
    dgeqp3 called as scipy.linalg.qr(pivoting=True) calls it: a non-finite
    design raises ValueError, then a workspace query and the factorization.
    Only diag(R) and the pivots are read, so Q is never formed.
    """
    n, m = design.shape
    if m == 0:
        return np.zeros(0), None
    design = np.asarray_chkfinite(design)
    lwork = int(dgeqp3(design, lwork=-1)[-2][0])
    qr, jpvt, _, _, info = dgeqp3(design, lwork=lwork)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal geqp3")
    piv = jpvt - 1
    diag = np.abs(np.diag(qr))
    tol = max(n, m) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank < m:
        return np.zeros(m), tuple(int(k) for k in piv[rank:])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef, None
