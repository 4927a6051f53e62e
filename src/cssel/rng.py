"""Deterministic random streams.

Every stochastic component draws from a counter-based Philox generator keyed
by (seed, domain, index).  The domain word keeps streams from different parts
of the package (subsample plans, CV shuffles, each simulation family) disjoint
even when the user passes the same seed everywhere, and the index word gives
each pair / replication its own stream so work can be scheduled in any order,
or in parallel, with identical output.

Normals come from scipy.special's ndtri ufunc.  The first draw loads it from
the scipy.special._ufuncs extension alone (see _scipy.load_extension), so no
process runs the scipy.special package init, and one that draws no normals
(css run) loads no part of scipy.special.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ._scipy import load_extension

_MASK64 = (1 << 64) - 1
_MASK48 = (1 << 48) - 1

# Stream domains.  Values are arbitrary but frozen: changing them changes
# every seeded output of the package.
DOMAIN_SUBSAMPLE = 1
DOMAIN_CV = 2
DOMAIN_SIM_SPARSE = 3
DOMAIN_SIM_WEIGHTED = 4
DOMAIN_SIM_TWO_PROXY = 5
DOMAIN_SIM_PROXY = 6
DOMAIN_STUDY = 7


def stream_rng(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Return the Philox generator for one (seed, domain, index) stream.

    The seed and the index enter the key as given, so each must fit its
    field, [0, 2^64) and [0, 2^48); a value outside would share another
    key's stream."""
    if seed < 0 or seed > _MASK64:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    if index < 0 or index > _MASK48:
        raise ValueError(f"stream index {index} outside [0, 2^48)")
    key = np.array(
        [seed, ((domain & 0xFFFF) << 48) | index], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


# Rows of the output drawn per step of standard_normal: the uniforms and
# normals are computed in the output itself, and the only temporary, the
# integer draws, never grows past one block.
_BLOCK_ROWS = 1024
_TWO_53 = float(1 << 53)  # a float divisor: the same quotient, found faster


@cache
def _ndtri():
    """scipy.special's ndtri ufunc, loaded on the first draw."""
    return load_extension("special", "_ufuncs").ndtri


def standard_normal(
    rng: np.random.Generator, size=None, out: np.ndarray | None = None
) -> np.ndarray:
    """Normal draws via the documented probit transform.

    z = ndtri((k + 1/2) / 2^53) with k uniform on {0, ..., 2^53 - 1}; the
    shifted uniform lies strictly inside (0, 1) so the probit is always
    finite.  Pinned so a reimplementation can reproduce the distribution
    from the same uniform stream.

    Give either size, for a new array, or out, a float array or view (a
    column slice of a matrix, say) to fill in place and return.  The values
    are filled in row-major order, one block of rows at a time, and match
    one call over the whole shape bit for bit: each k takes one 64-bit draw
    of the stream (more only on a rejection), and nothing is buffered
    between blocks.
    """
    if (size is None) == (out is None):
        raise ValueError("give exactly one of size and out")
    if out is None:
        out = np.empty(size)
    ndtri = _ndtri()
    rows = out.reshape(1) if out.ndim == 0 else out
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        k = rng.integers(0, 1 << 53, size=block.shape, dtype=np.int64)
        np.add(k, 0.5, out=block)
        del k  # before the next block's draw
        block /= _TWO_53
        ndtri(block, out=block)
    return out
