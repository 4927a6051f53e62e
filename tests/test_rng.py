"""Keyed stream determinism and the inverse-CDF normal sampler."""

import hashlib

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from cssel.rng import (
    _BLOCK_ROWS,
    DOMAIN_CV,
    DOMAIN_SUBSAMPLE,
    standard_normal,
    stream_rng,
)


def test_same_key_reproduces_the_stream():
    a = stream_rng(42, DOMAIN_SUBSAMPLE, 7).integers(0, 1 << 62, size=16)
    b = stream_rng(42, DOMAIN_SUBSAMPLE, 7).integers(0, 1 << 62, size=16)
    assert np.array_equal(a, b)


def test_distinct_keys_give_distinct_streams():
    """Any change to seed, domain, or index changes the draw."""
    base = stream_rng(1, DOMAIN_SUBSAMPLE, 0).integers(0, 1 << 62, size=8)
    for seed, domain, index in [
        (2, DOMAIN_SUBSAMPLE, 0),
        (1, DOMAIN_CV, 0),
        (1, DOMAIN_SUBSAMPLE, 1),
    ]:
        other = stream_rng(seed, domain, index).integers(0, 1 << 62, size=8)
        assert not np.array_equal(base, other)


def test_index_does_not_bleed_into_domain():
    """Large indices stay inside their 48-bit field: no cross-domain collision."""
    hi_index = stream_rng(5, DOMAIN_SUBSAMPLE, (1 << 48) - 1)
    other_dom = stream_rng(5, DOMAIN_CV, 0)
    a = hi_index.integers(0, 1 << 62, size=8)
    b = other_dom.integers(0, 1 << 62, size=8)
    assert not np.array_equal(a, b)


def test_index_out_of_range_rejected():
    with pytest.raises(ValueError):
        stream_rng(0, DOMAIN_SUBSAMPLE, 1 << 48)


def test_seed_outside_64_bits_rejected():
    """The key takes the seed as it is: no seed wraps onto another's stream."""
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match=f"seed {seed} outside"):
            stream_rng(seed, DOMAIN_SUBSAMPLE)
    top = stream_rng((1 << 64) - 1, DOMAIN_SUBSAMPLE).integers(0, 1 << 62, size=8)
    zero = stream_rng(0, DOMAIN_SUBSAMPLE).integers(0, 1 << 62, size=8)
    assert not np.array_equal(top, zero)


def test_standard_normal_shape_and_determinism():
    a = standard_normal(stream_rng(9, DOMAIN_CV, 3), (4, 5))
    b = standard_normal(stream_rng(9, DOMAIN_CV, 3), (4, 5))
    assert a.shape == (4, 5)
    assert np.array_equal(a, b)


def test_standard_normal_fills_views_block_by_block_bit_for_bit():
    """Block by block, into a new array or a strided column slice, the
    draws equal the probit of one integer draw over the whole shape."""
    block = _BLOCK_ROWS
    for rows in (1, block - 1, block, block + 1, 3 * block + 5):
        k = stream_rng(4, DOMAIN_CV, rows).integers(0, 1 << 53, size=(rows, 3))
        expected = ndtri((k + 0.5) / (1 << 53))
        fresh = standard_normal(stream_rng(4, DOMAIN_CV, rows), (rows, 3))
        assert np.array_equal(fresh, expected)
        X = np.zeros((rows, 7))
        filled = standard_normal(stream_rng(4, DOMAIN_CV, rows), out=X[:, 2:5])
        assert np.array_equal(X[:, 2:5], expected)
        assert filled.base is X
        assert not X[:, :2].any() and not X[:, 5:].any()
        flat = standard_normal(stream_rng(4, DOMAIN_CV, rows), rows * 3)
        assert np.array_equal(flat, expected.ravel())


def test_standard_normal_takes_size_or_out():
    rng = stream_rng(4, DOMAIN_CV, 0)
    with pytest.raises(ValueError):
        standard_normal(rng)
    with pytest.raises(ValueError):
        standard_normal(rng, 3, out=np.empty(3))


def test_standard_normal_moments_and_distribution():
    """10^6 draws: mean/variance near 0/1 and the KS test does not reject."""
    draws = standard_normal(stream_rng(123, DOMAIN_CV, 0), 1_000_000)
    assert abs(draws.mean()) < 4 / 1000.0  # 4 sigma of the mean estimator
    assert abs(draws.var() - 1.0) < 0.006
    stat, pvalue = kstest(draws[:100_000], "norm")
    assert pvalue > 1e-4


def test_standard_normal_is_symmetric_and_bounded_tails():
    draws = standard_normal(stream_rng(7, DOMAIN_CV, 1), 200_000)
    assert abs((draws > 0).mean() - 0.5) < 0.005
    assert np.all(np.isfinite(draws))
    # ndtri((k+0.5)/2^53) cannot produce the infinite endpoints
    assert np.abs(draws).max() < 9.0


# The loading of ndtri is checked in fresh processes: this one imported
# scipy.special, through scipy.stats, when it collected this module.
DRAW = (
    "import hashlib, sys\n"
    "from cssel.rng import DOMAIN_CV, standard_normal, stream_rng\n"
    "def digest(seed):\n"
    "    z = standard_normal(stream_rng(seed, DOMAIN_CV, 0), 5000)\n"
    "    return hashlib.sha256(z.tobytes()).hexdigest()\n"
)


def digest(seed):
    z = standard_normal(stream_rng(seed, DOMAIN_CV, 0), 5000)
    return hashlib.sha256(z.tobytes()).hexdigest()


def test_a_draw_loads_ndtri_without_the_scipy_special_package(python_with_src):
    code = (
        "import sys\n"
        "from cssel.simgen import gen_sparse_instance\n"
        "gen_sparse_instance(0, 0)\n"
        "names = ('scipy.special._ufuncs', 'scipy.special', 'scipy.special._basic')\n"
        "print([name in sys.modules for name in names])\n"
        "import scipy.special\n"
        "from cssel import rng\n"
        "print(scipy.special.ndtri is rng._ndtri(), scipy.special.gamma(5.0))\n"
    )
    out = python_with_src(code).stdout.splitlines()
    assert out == ["[True, False, False]", "True 24.0"]


def test_a_failed_load_falls_back_to_the_package_import(python_with_src):
    """A sibling of _ufuncs fails to run under the stand-in package.  The
    draw still matches, the real scipy.special replaces the stand-in, and
    every scipy.special module left is one the real package imported: none
    is left over from the failed load."""
    code = DRAW + (
        "from importlib.machinery import ExtensionFileLoader\n"
        "real = ExtensionFileLoader.exec_module\n"
        "failed = []\n"
        "def exec_module(self, module):\n"
        "    if module.__name__ == 'scipy.special._special_ufuncs' and not failed:\n"
        "        failed.append(sys.modules['scipy.special'])\n"
        "        raise ImportError('forced')\n"
        "    return real(self, module)\n"
        "ExtensionFileLoader.exec_module = exec_module\n"
        "print(digest(3))\n"
        "special = sys.modules['scipy.special']\n"
        "print(special is not failed[0], hasattr(special, '__file__'))\n"
        "print(sorted(name for name, module in sys.modules.items()\n"
        "    if name.startswith('scipy.special.')\n"
        "    and getattr(special, name.split('.')[2], None) is not module))\n"
    )
    out = python_with_src(code).stdout.splitlines()
    assert out == [digest(3), "True True", "[]"]


def test_first_draws_in_two_threads_at_once_match_one_thread(python_with_src):
    code = DRAW + (
        "import threading\n"
        "barrier = threading.Barrier(2)\n"
        "got = {}\n"
        "def draw(seed):\n"
        "    barrier.wait()\n"
        "    got[seed] = digest(seed)\n"
        "threads = [threading.Thread(target=draw, args=(s,)) for s in (3, 4)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "print(got[3], got[4], 'scipy.special' in sys.modules)\n"
    )
    assert python_with_src(code).stdout.split() == [digest(3), digest(4), "False"]
