"""Complementary-pairs half samples.

Each pair b consists of two disjoint row sets of size floor(n/2); for odd n
one uniformly random row sits out per pair.  Pair b is drawn from its own
(seed, b) stream, so plans are identical no matter how pair construction is
ordered or parallelized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataSet
from .rng import DOMAIN_SUBSAMPLE, stream_rng


@dataclass(frozen=True, eq=False)
class SubsamplePlan:
    """B complementary pairs as one read-only integer array of shape (B, 2, m).

    pairs[b, 0] holds the rows of half A of pair b and pairs[b, 1] those of
    its complement Ac, m = n // 2 rows each.  Any integer array-like of that
    shape is accepted and copied.
    """

    n: int
    B: int
    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.array(self.pairs)
        m = self.n // 2
        if pairs.shape != (self.B, 2, m):
            raise ValueError(f"need pairs of shape ({self.B}, 2, {m}), got {pairs.shape}")
        if not np.issubdtype(pairs.dtype, np.integer):
            raise ValueError("row indexes must be integers")
        pairs = pairs.astype(np.intp, copy=False)
        bad = ((pairs < 0) | (pairs >= self.n)).any(axis=(1, 2))
        if bad.any():
            raise ValueError(f"pair {np.argmax(bad)}: row index out of range")
        # row r of pair b counts in bin b * n + r; 2m rows without a repeat
        # use every row when n = 2m is even
        flat = (pairs + self.n * np.arange(self.B)[:, None, None]).ravel()
        uses = np.bincount(flat, minlength=self.B * self.n).reshape(self.B, self.n)
        bad = (uses > 1).any(axis=1)
        if bad.any():
            raise ValueError(f"pair {np.argmax(bad)}: halves overlap or repeat a row")
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)

    def halves(self) -> list[tuple[tuple[int, str], np.ndarray]]:
        """((b, "A"), rows) and ((b, "Ac"), rows) for every pair b, in order."""
        return [
            ((b, tag), rows)
            for b, pair in enumerate(self.pairs)
            for tag, rows in zip(("A", "Ac"), pair)
        ]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "B": self.B, "pairs": self.pairs.tolist()}


def draw_complementary_pairs(n: int, B: int, seed: int) -> SubsamplePlan:
    """Draw B independent complementary pairs of row sets."""
    if n < 4:
        raise ValueError("need n >= 4 so both halves support a fit")
    if B < 1:
        raise ValueError("need at least one pair")
    m = n // 2
    perms = np.array(
        [stream_rng(seed, DOMAIN_SUBSAMPLE, b).permutation(n)[: 2 * m] for b in range(B)]
    )
    return SubsamplePlan(n=n, B=B, pairs=np.sort(perms.reshape(B, 2, m), axis=2))


def draw_half_samples(n: int, B: int, seed: int) -> np.ndarray:
    """B unpaired half samples (one per pair stream), as a (B, n // 2) array."""
    return draw_complementary_pairs(n, B, seed).pairs[:, 0]


def restrict(data: DataSet, indices) -> DataSet:
    """The sub-DataSet on the given rows, in ascending row order."""
    rows = np.sort(np.asarray(indices, dtype=np.intp))
    if rows.size == 0:
        raise ValueError("empty row set")
    if rows[0] < 0 or rows[-1] >= data.n:
        raise ValueError(f"row index out of range for n={data.n}")
    return DataSet(X=data.X[rows], y=data.y[rows], center=data.center)
