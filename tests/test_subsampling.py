"""Complementary-pair plans: invariants, determinism, restriction."""

import hashlib

import numpy as np
import pytest

from cssel.data import DataSet
from cssel.subsampling import (
    SubsamplePlan,
    draw_complementary_pairs,
    restrict,
)


def test_pairs_are_disjoint_half_samples():
    for n in (10, 11, 200):
        plan = draw_complementary_pairs(n, B=13, seed=3)
        assert plan.n == n and plan.B == 13
        m = n // 2
        for first, second in plan.pairs:
            assert len(first) == m and len(second) == m
            assert not set(first) & set(second)
            assert set(first) | set(second) <= set(range(n))
            assert list(first) == sorted(first)
            assert list(second) == sorted(second)


def test_even_n_pairs_cover_all_rows():
    plan = draw_complementary_pairs(12, B=5, seed=0)
    for first, second in plan.pairs:
        assert np.array_equal(np.sort(np.concatenate([first, second])), np.arange(12))


def test_odd_n_leaves_one_row_out_per_pair():
    plan = draw_complementary_pairs(11, B=20, seed=1)
    left_out = [set(range(11)) - set(a) - set(b) for a, b in plan.pairs]
    assert all(len(s) == 1 for s in left_out)
    # the left-out row varies across pairs
    assert len(set(frozenset(s) for s in left_out)) > 1


def test_same_seed_same_plan_different_seed_differs():
    a = draw_complementary_pairs(30, B=8, seed=5)
    b = draw_complementary_pairs(30, B=8, seed=5)
    c = draw_complementary_pairs(30, B=8, seed=6)
    assert np.array_equal(a.pairs, b.pairs)
    assert not np.array_equal(a.pairs, c.pairs)


def test_plans_are_pinned():
    """The plans are frozen bit for bit: a change to how they are drawn would
    change every seeded output of the package.  Odd n and the smallest n
    are included."""
    digest = hashlib.sha256()
    for n in (5000, 200, 201, 7, 4, 5):
        for seed in range(5):
            digest.update(draw_complementary_pairs(n, 50, seed).pairs.tobytes())
    assert digest.hexdigest() == (
        "fa5e45a5755311805ba2754b7ba4f14e480d62df0727f4be7d6ccfda4c4f7a5c"
    )


def test_pair_index_keys_the_stream():
    """Prefix stability: growing B keeps the existing pairs unchanged."""
    small = draw_complementary_pairs(40, B=3, seed=9)
    big = draw_complementary_pairs(40, B=10, seed=9)
    assert np.array_equal(big.pairs[:3], small.pairs)


def test_plan_validation_rejects_malformed_pairs():
    with pytest.raises(ValueError):
        SubsamplePlan(n=6, B=1, pairs=(((0, 1, 2), (2, 3, 4)),))  # overlap
    with pytest.raises(ValueError):
        SubsamplePlan(n=6, B=1, pairs=(((0, 1), (2, 3)),))  # wrong size
    with pytest.raises(ValueError):
        SubsamplePlan(n=6, B=1, pairs=(((0, 1, 9), (2, 3, 4)),))  # out of range


def test_plan_validation_names_the_pair():
    good = ((0, 1, 2), (3, 4, 5))
    with pytest.raises(ValueError, match="pair 1: halves overlap"):
        SubsamplePlan(n=6, B=2, pairs=(good, ((0, 1, 2), (2, 3, 4))))
    with pytest.raises(ValueError, match="pair 1: row index out of range"):
        SubsamplePlan(n=6, B=2, pairs=(good, ((0, 1, 2), (3, 4, 6))))
    with pytest.raises(ValueError, match="pair 1: row index out of range"):
        SubsamplePlan(n=6, B=2, pairs=(good, ((-1, 1, 2), (3, 4, 5))))
    # with even n a pair that misses a row must repeat another
    with pytest.raises(ValueError, match="pair 2: halves overlap or repeat a row"):
        SubsamplePlan(n=6, B=3, pairs=(good, good, ((0, 1, 2), (3, 4, 4))))
    with pytest.raises(ValueError, match="pair 0: halves overlap or repeat a row"):
        SubsamplePlan(n=8, B=1, pairs=(((0, 0, 2, 3), (4, 5, 6, 7)),))
    # odd n: the row left out may differ from pair to pair
    odd = SubsamplePlan(n=7, B=2, pairs=(good, ((6, 1, 2), (3, 4, 5))))
    assert odd.pairs[1, 0].tolist() == [6, 1, 2]
    with pytest.raises(ValueError, match="integers"):
        SubsamplePlan(n=6, B=1, pairs=np.array([good], dtype=float))


def test_plan_is_a_read_only_copy():
    rows = np.array([[[0, 1, 2], [3, 4, 5]]])
    plan = SubsamplePlan(n=6, B=1, pairs=rows)
    rows[0, 0, 0] = 5
    assert plan.pairs[0, 0, 0] == 0
    assert plan.pairs.shape == (1, 2, 3)
    with pytest.raises(ValueError):
        plan.pairs[0, 0, 0] = 1


def test_plan_json_round_trip_fields():
    plan = draw_complementary_pairs(8, B=2, seed=4)
    doc = plan.to_json_dict()
    assert doc["n"] == 8 and doc["B"] == 2
    rebuilt = SubsamplePlan(
        n=doc["n"],
        B=doc["B"],
        pairs=tuple((tuple(a), tuple(b)) for a, b in doc["pairs"]),
    )
    assert np.array_equal(rebuilt.pairs, plan.pairs)


def test_too_small_n_rejected():
    with pytest.raises(ValueError):
        draw_complementary_pairs(3, B=1, seed=0)
    with pytest.raises(ValueError):
        draw_complementary_pairs(10, B=0, seed=0)


def test_restrict_selects_rows_and_keeps_metadata():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 3))
    y = rng.standard_normal(10)
    data = DataSet(X=X, y=y, center=True)
    sub = restrict(data, (7, 2, 5))
    assert sub.n == 3
    assert np.array_equal(sub.X, X[[2, 5, 7]])  # ascending order
    assert np.array_equal(sub.y, y[[2, 5, 7]])
    assert sub.center is True


def test_restrict_sorts_unsorted_tuples_and_arrays():
    rng = np.random.default_rng(1)
    data = DataSet(X=rng.standard_normal((10, 2)), y=rng.standard_normal(10))
    for rows in ((9, 0, 4), np.array([9, 0, 4]), range(4, -1, -2)):
        sub = restrict(data, rows)
        expect = np.sort(np.asarray(rows))
        assert np.array_equal(sub.X, data.X[expect])
        assert np.array_equal(sub.y, data.y[expect])
    with pytest.raises(ValueError, match="empty"):
        restrict(data, ())
    with pytest.raises(ValueError, match="out of range"):
        restrict(data, np.array([3, 10]))
    with pytest.raises(ValueError, match="out of range"):
        restrict(data, (-1, 2))


def test_restrict_cuts_ascending_column_major_halves():
    """Sorted rows are used as given; unsorted rows and rows with a repeat
    are sorted first.  Every cut is column-major."""
    rng = np.random.default_rng(2)
    data = DataSet(X=rng.standard_normal((30, 4)), y=rng.standard_normal(30))
    for rows in (
        np.arange(3, 30, 2),
        rng.permutation(30)[:12],
        np.array([5, 2, 5, 9, 2]),
        np.array([2, 2, 5, 9]),
    ):
        sub = restrict(data, rows)
        assert np.array_equal(sub.X, data.X[np.sort(rows)])
        assert np.array_equal(sub.y, data.y[np.sort(rows)])
        assert sub.X.flags.f_contiguous


def test_restrict_equals_a_checked_dataset_of_the_rows():
    """restrict skips the finiteness scan of a checked DataSet's rows, and
    gives what the public constructor gives on them."""
    rng = np.random.default_rng(3)
    for center in (False, True):
        data = DataSet(X=rng.standard_normal((40, 5)), y=rng.standard_normal(40), center=center)
        for rows in (np.arange(0, 40, 2), rng.permutation(40)[:7], (3, 1)):
            sub = restrict(data, rows)
            expect = DataSet(X=data.X[np.sort(rows)], y=data.y[np.sort(rows)], center=center)
            assert type(sub) is DataSet and sub.center is center
            assert np.array_equal(sub.X, expect.X) and np.array_equal(sub.y, expect.y)
            assert not sub.X.flags.writeable and not sub.y.flags.writeable
        with pytest.raises(ValueError, match="at least 2 rows"):
            restrict(data, (4,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_dataset_still_rejects_non_finite_entries(bad):
    X, y = np.ones((4, 2)), np.arange(4.0)
    X[1, 1] = bad
    with pytest.raises(ValueError, match="X contains non-finite"):
        DataSet(X=X, y=y)
    y[2] = bad
    with pytest.raises(ValueError, match="y contains non-finite"):
        DataSet(X=np.ones((4, 2)), y=y)


def test_dataset_checks_finiteness_without_an_n_by_p_temporary(traced_peak):
    """isfinite(X) is a bool per entry, 1/8 of X; min and max allocate none."""
    X = np.random.default_rng(4).standard_normal((2000, 500))
    _, peak = traced_peak(lambda: DataSet(X=X, y=np.zeros(2000)))
    assert peak < 0.01 * X.nbytes, peak


def test_halves_list_each_pair_first_then_complement():
    plan = draw_complementary_pairs(10, B=3, seed=4)
    halves = plan.halves()
    assert [label for label, _ in halves] == [
        (0, "A"), (0, "Ac"), (1, "A"), (1, "Ac"), (2, "A"), (2, "Ac")
    ]
    assert np.array_equal(
        [rows for _, rows in halves], [rows for pair in plan.pairs for rows in pair]
    )
