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


@dataclass(frozen=True)
class SubsamplePlan:
    n: int
    B: int
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self):
        if len(self.pairs) != self.B:
            raise ValueError(f"{len(self.pairs)} pairs for B={self.B}")
        m = self.n // 2
        for b, (first, second) in enumerate(self.pairs):
            a, c = set(first), set(second)
            if len(first) != m or len(second) != m:
                raise ValueError(f"pair {b}: halves must have {m} rows each")
            if a & c:
                raise ValueError(f"pair {b}: halves overlap")
            union = a | c
            if not union <= set(range(self.n)):
                raise ValueError(f"pair {b}: row index out of range")
            if self.n % 2 == 0 and len(union) != self.n:
                raise ValueError(f"pair {b}: even n must use every row")

    def halves(self) -> list[tuple[tuple[int, str], tuple[int, ...]]]:
        """((b, "A"), rows) and ((b, "Ac"), rows) for every pair b, in order."""
        out = []
        for b, (first, second) in enumerate(self.pairs):
            out += [((b, "A"), first), ((b, "Ac"), second)]
        return out

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "B": self.B,
            "pairs": [[list(a), list(c)] for a, c in self.pairs],
        }


def draw_complementary_pairs(n: int, B: int, seed: int) -> SubsamplePlan:
    """Draw B independent complementary pairs of row sets."""
    if n < 4:
        raise ValueError("need n >= 4 so both halves support a fit")
    if B < 1:
        raise ValueError("need at least one pair")
    m = n // 2
    pairs = []
    for b in range(B):
        perm = stream_rng(seed, DOMAIN_SUBSAMPLE, b).permutation(n)
        first = tuple(sorted(int(i) for i in perm[:m]))
        second = tuple(sorted(int(i) for i in perm[m : 2 * m]))
        pairs.append((first, second))
    return SubsamplePlan(n=n, B=B, pairs=tuple(pairs))


def draw_half_samples(n: int, B: int, seed: int) -> list[tuple[int, ...]]:
    """B unpaired half samples (one per pair stream)."""
    return [pair[0] for pair in draw_complementary_pairs(n, B, seed).pairs]


def restrict(data: DataSet, indices) -> DataSet:
    """The sub-DataSet on the given rows, in ascending row order."""
    rows = sorted(int(i) for i in indices)
    if not rows:
        raise ValueError("empty row set")
    if rows[0] < 0 or rows[-1] >= data.n:
        raise ValueError(f"row index out of range for n={data.n}")
    idx = np.array(rows)
    return DataSet(
        X=data.X[idx],
        y=data.y[idx],
        feature_names=data.feature_names,
        center=data.center,
    )
