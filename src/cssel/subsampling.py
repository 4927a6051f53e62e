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
    shape is accepted; it is copied unless it is a read-only intp array.
    """

    n: int
    B: int
    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.asarray(self.pairs)
        m = self.n // 2
        if pairs.shape != (self.B, 2, m):
            raise ValueError(f"need pairs of shape ({self.B}, 2, {m}), got {pairs.shape}")
        if not np.issubdtype(pairs.dtype, np.integer):
            raise ValueError("row indexes must be integers")
        pairs = pairs.astype(np.intp, copy=pairs.flags.writeable)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= self.n):
            bad = ((pairs < 0) | (pairs >= self.n)).any(axis=(1, 2))
            raise ValueError(f"pair {np.argmax(bad)}: row index out of range")
        # a pair without a repeat marks 2m distinct rows, all n when n is even
        for b, pair in enumerate(pairs):
            seen = np.zeros(self.n, dtype=bool)
            seen[pair] = True
            if np.count_nonzero(seen) < 2 * m:
                raise ValueError(f"pair {b}: halves overlap or repeat a row")
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
    """Draw B independent complementary pairs of row sets: the first m = n // 2
    rows of the (seed, b) permutation form half A of pair b, the next m its Ac.
    Each half is read off a row mask, so it comes out ascending without a sort."""
    if n < 4:
        raise ValueError("need n >= 4 so both halves support a fit")
    if B < 1:
        raise ValueError("need at least one pair")
    m = n // 2
    in_half = np.zeros((B, 2, n), dtype=bool)
    for b in range(B):
        perm = stream_rng(seed, DOMAIN_SUBSAMPLE, b).permutation(n)
        in_half[b, 0, perm[:m]] = in_half[b, 1, perm[m : 2 * m]] = True
    # the rows of half h of pair b sit at flat indexes (2b + h) * n + row
    hits = np.flatnonzero(in_half).reshape(2 * B, m)
    hits -= np.arange(0, 2 * B * n, n)[:, None]
    hits.setflags(write=False)
    return SubsamplePlan(n=n, B=B, pairs=hits.reshape(B, 2, m))


def restrict(data: DataSet, indices) -> DataSet:
    """The sub-DataSet on the given rows in ascending order (rows already strictly
    increasing are not re-sorted), its X cut once into column-major order.  The
    rows of a checked DataSet are not scanned again."""
    rows = np.asarray(indices, dtype=np.intp)
    if rows.size == 0:
        raise ValueError("empty row set")
    if not (rows[1:] > rows[:-1]).all():
        rows = np.sort(rows)
    if rows[0] < 0 or rows[-1] >= data.n:
        raise ValueError(f"row index out of range for n={data.n}")
    return data._rows(rows)
