"""The (X, y) container shared by every solver and estimator, and the one
routine that centers and column-scales it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class DataSet:
    """A response vector and feature matrix.

    X has one row per observation and one column per feature, known by its
    0-based index; y matches the rows.  `center` asks downstream solvers to
    subtract column means from X and the mean from y before scaling (for
    real data with nonzero means); the default leaves the data untouched
    apart from the solvers' internal L2 column scaling.
    """

    X: np.ndarray
    y: np.ndarray
    center: bool = False

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D matrix")
        if y.ndim != 1:
            raise ValueError("y must be a 1-D vector")
        n, p = X.shape
        if n < 2:
            raise ValueError(f"need at least 2 rows, got {n}")
        if p < 1:
            raise ValueError("need at least 1 column")
        if y.shape[0] != n:
            raise ValueError(f"y has {y.shape[0]} entries for {n} rows of X")
        # NaN carries through min and max, and +-inf shows in one of them,
        # so no n x p temporary of isfinite is needed
        if not (np.isfinite(X.min()) and np.isfinite(X.max())):
            raise ValueError("X contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        self._seal(X, y)

    def _rows(self, rows: np.ndarray) -> "DataSet":
        """The DataSet on the given in-range rows, X cut once into
        column-major order.  Rows of checked data are finite and shaped, so
        of the constructor's checks only the row count is made again."""
        if rows.size < 2:
            raise ValueError(f"need at least 2 rows, got {rows.size}")
        sub = object.__new__(DataSet)
        object.__setattr__(sub, "center", self.center)
        sub._seal(self.X.T.take(rows, axis=1).T, self.y.take(rows))
        return sub

    def _seal(self, X: np.ndarray, y: np.ndarray) -> None:
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


class Scaling(NamedTuple):
    """The centered, column-scaled view of a design; see center_and_scale."""

    U: np.ndarray
    y: np.ndarray
    x_mean: np.ndarray
    y_mean: float
    norms: np.ndarray
    zero_norm: np.ndarray


def center_and_scale(X: np.ndarray, y: np.ndarray, center: bool) -> Scaling:
    """Centering offsets and L2 column norms, computed in one place.

    With center, x_mean and y_mean are the column means and the mean of y,
    and both are subtracted; without, they are zero and X and y are used as
    given.  norms are the L2 norms of the (centered) columns and U the
    columns divided by them.  zero_norm lists the columns of norm zero, which
    U leaves at zero; what such a column means is the caller's decision.
    """
    if center:
        x_mean, y_mean = X.mean(axis=0), float(y.mean())
        X, y = X - x_mean, y - y_mean
    else:
        x_mean, y_mean = np.zeros(X.shape[1]), 0.0
    norms = np.sqrt(np.einsum("ij,ij->j", X, X))
    zero = norms == 0.0
    U = X / np.where(zero, 1.0, norms)
    return Scaling(U, y, x_mean, y_mean, norms, zero.nonzero()[0])
