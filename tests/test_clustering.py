"""Correlation-distance clustering and the binary-design frequency screen."""

import time

import numpy as np
import pytest

from cssel.clustering import (
    BLOCK,
    ConstantColumn,
    component_labels,
    correlation_clusters,
    correlation_distance_matrix,
    maf_screen,
    single_linkage_clusters,
)
from cssel.data import DataSet
from cssel.simgen import gen_sparse_instance, instance_to_csv


def union_find_components(D, cutoff):
    """Reference grouping: repeatedly merge any pair with D < cutoff."""
    p = D.shape[0]
    parent = list(range(p))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j in range(p):
        for k in range(j + 1, p):
            if D[j, k] < cutoff:
                parent[find(j)] = find(k)
    groups = {}
    for j in range(p):
        groups.setdefault(find(j), []).append(j)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def test_distance_matrix_properties():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 6))
    X[:, 3] = -X[:, 0]  # perfect negative correlation, distance 0
    D = correlation_distance_matrix(DataSet(X=X, y=rng.standard_normal(40)))
    assert D.shape == (6, 6)
    np.testing.assert_array_equal(D, D.T)
    np.testing.assert_array_equal(np.diag(D), np.zeros(6))
    assert np.all(D >= 0.0) and np.all(D <= 1.0)
    assert D[0, 3] == pytest.approx(0.0, abs=1e-12)


def test_distance_matrix_rejects_constant_columns():
    X = np.column_stack([np.ones(10), np.arange(10.0), np.full(10, -2.0)])
    with pytest.raises(ConstantColumn) as info:
        correlation_distance_matrix(DataSet(X=X, y=np.arange(10.0)))
    assert info.value.columns == (0, 2)


def test_single_linkage_matches_union_find_reference():
    rng = np.random.default_rng(1)
    for trial in range(20):
        p = int(rng.integers(3, 12))
        M = rng.uniform(0.0, 1.0, size=(p, p))
        D = 0.5 * (M + M.T)
        np.fill_diagonal(D, 0.0)
        cutoff = float(rng.uniform(0.05, 0.95))
        part = single_linkage_clusters(D, cutoff)
        assert part.clusters == union_find_components(D, cutoff)


def random_graph(rng, p, edges):
    """A symmetric distance matrix whose pairs below 0.5 are `edges` random
    pairs; the rest lie at 0.9."""
    D = np.full((p, p), 0.9)
    u, v = rng.integers(0, p, size=(2, edges))
    D[u, v] = D[v, u] = 0.1
    np.fill_diagonal(D, 0.0)
    return D


def test_component_labels_match_union_find_on_random_graphs():
    """Sparse graphs with p/2 to 2p edges have long chains and many
    components; each label is the smallest node of its component."""
    rng = np.random.default_rng(4)
    for trial in range(30):
        p = int(rng.integers(20, 300))
        D = random_graph(rng, p, int(rng.integers(p // 2, 2 * p)))
        expect = union_find_components(D, 0.5)
        assert single_linkage_clusters(D, 0.5).clusters == expect
        heads, tails = np.nonzero(D < 0.5)
        labels = component_labels(p, heads, tails)
        for group in expect:
            assert (labels[list(group)] == group[0]).all()


def test_component_labels_on_a_shuffled_chain_take_few_rounds():
    """A chain through 20,000 nodes in random order is one component.
    Propagating the smallest label along edges needs a round per link;
    hooking roots under the smallest root takes about log2 p rounds."""
    rng = np.random.default_rng(5)
    p = 20_000
    order = rng.permutation(p)
    heads, tails = order[:-1], order[1:]
    start = time.perf_counter()
    labels = component_labels(p, heads, tails)
    elapsed = time.perf_counter() - start
    assert (labels == 0).all()
    assert elapsed < 0.5
    # a star whose centre is its largest node: hooking the centre under any
    # smaller leaf, not the smallest, would merge one leaf per round
    start = time.perf_counter()
    labels = component_labels(p, np.full(p - 1, p - 1), np.arange(p - 1))
    elapsed = time.perf_counter() - start
    assert (labels == 0).all()
    assert elapsed < 0.5
    # no edges: every node is its own component
    assert component_labels(3, [], []).tolist() == [0, 1, 2]


def dense_clusters(data, cutoff):
    return single_linkage_clusters(correlation_distance_matrix(data), cutoff)


def test_correlation_clusters_match_the_dense_route_on_sparse_designs():
    for seed in range(6):
        for index in range(8):
            data = gen_sparse_instance(seed, index).data
            assert correlation_clusters(data, 0.5) == dense_clusters(data, 0.5)


def planted_groups(p, seed, n=60):
    """p columns, each a noisy copy of one of p // 4 latent columns picked at
    random, so groups straddle the column blocks."""
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((n, p // 4))
    X = latent[:, rng.integers(0, p // 4, size=p)] + 0.3 * rng.standard_normal((n, p))
    return DataSet(X=X, y=np.zeros(n))


@pytest.mark.parametrize("p", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_correlation_clusters_match_the_dense_route_across_blocks(p):
    data = planted_groups(p, seed=p)
    part = correlation_clusters(data, 0.5)
    assert part == dense_clusters(data, 0.5)
    assert part.K < p
    if p > BLOCK:
        assert any(c[0] < BLOCK <= c[-1] for c in part.clusters)
    # cutoffs at and above 1 merge every pair
    assert correlation_clusters(data, 5.0).K == 1


def test_correlation_clusters_reject_constant_columns_and_bad_cutoffs():
    for p in (4, BLOCK + 3):
        X = np.random.default_rng(6).standard_normal((10, p))
        X[:, 0] = 1.0
        X[:, 2] = -2.0
        X[:, -1] = 0.0
        data = DataSet(X=X, y=np.arange(10.0))
        for route in (correlation_clusters, dense_clusters):
            with pytest.raises(ConstantColumn) as info:
                route(data, 0.5)
            assert info.value.columns == (0, 2, p - 1)
    data = planted_groups(8, seed=0)
    for bad in (0.0, -0.5, np.nan):
        with pytest.raises(ValueError, match="positive"):
            correlation_clusters(data, bad)


def test_correlation_clusters_hold_no_p_by_p_matrix(traced_peak):
    """At p = 3,000 one p x p float matrix is 72 MB; the blocks stay under a
    quarter of that."""
    p = 3000
    data = planted_groups(p, seed=7, n=200)
    part, peak = traced_peak(lambda: correlation_clusters(data, 0.5))
    assert part.K < p
    assert peak < p * p * 8 / 4


def test_the_cli_and_studies_do_not_import_scipy_sparse(python_with_src):
    code = (
        "import sys, cssel.cli, cssel.studies; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    )
    assert python_with_src(code).stdout.strip() == "[]"


def test_css_run_loads_no_scipy_special_and_only_flapack_of_scipy_linalg(
    tmp_path, python_with_src
):
    """The CSV is written here: simgen draws normals, which load ndtri."""
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    instance_to_csv(gen_sparse_instance(0, 0), xp, yp)
    argv = ["run", "--x", str(xp), "--y", str(yp), "--auto-cluster", "--cutoff",
            "0.5", "--tau", "0.6", "--B", "10", "--out", str(tmp_path / "out")]
    code = (
        "import sys, cssel.cli, cssel.studies; "
        f"assert cssel.cli.main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'special'], ['scipy', 'linalg'])))"
    )
    assert python_with_src(code).stdout.strip() == "['scipy.linalg._flapack']"


def test_importing_the_cli_loads_one_scipy_module(python_with_src):
    """Not even the top-level scipy package: only a draw needs it."""
    code = (
        "import sys, cssel.cli, cssel.studies; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert python_with_src(code).stdout.strip() == "['scipy.linalg._flapack']"


def test_lasso_routines_are_the_scipy_linalg_lapack_routines():
    from scipy.linalg import lapack

    from cssel import lasso

    for name in ("dpotrf", "dpotrs", "dtrtrs", "dgeqp3"):
        assert getattr(lasso, name) is getattr(lapack, name)


def test_single_linkage_cutoff_is_strict():
    D = np.array([[0.0, 0.3], [0.3, 0.0]])
    assert single_linkage_clusters(D, 0.3).clusters == ((0,), (1,))
    assert single_linkage_clusters(D, 0.3 + 1e-12).clusters == ((0, 1),)


def test_single_linkage_chains_transitively():
    # 0-1 and 1-2 are close, 0-2 is far; single linkage still merges all three
    D = np.array(
        [
            [0.0, 0.1, 0.9],
            [0.1, 0.0, 0.1],
            [0.9, 0.1, 0.0],
        ]
    )
    assert single_linkage_clusters(D, 0.2).clusters == ((0, 1, 2),)


def test_single_linkage_extreme_cutoffs():
    rng = np.random.default_rng(2)
    M = rng.uniform(0.2, 0.8, size=(5, 5))
    D = 0.5 * (M + M.T)
    np.fill_diagonal(D, 0.0)
    assert single_linkage_clusters(D, 1e-9).K == 5
    assert single_linkage_clusters(D, 5.0).K == 1  # cutoffs above 1 act like 1
    with pytest.raises(ValueError):
        single_linkage_clusters(D, 0.0)
    with pytest.raises(ValueError):
        single_linkage_clusters(D[:4, :], 0.5)
    bad = D.copy()
    bad[0, 1] += 0.1
    with pytest.raises(ValueError):
        single_linkage_clusters(bad, 0.5)


def test_clusters_from_correlated_design():
    rng = np.random.default_rng(3)
    n = 300
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    X = np.column_stack(
        [
            z1 + 0.05 * rng.standard_normal(n),
            z1 + 0.05 * rng.standard_normal(n),
            z2 + 0.05 * rng.standard_normal(n),
            rng.standard_normal(n),
        ]
    )
    data = DataSet(X=X, y=rng.standard_normal(n))
    part = single_linkage_clusters(correlation_distance_matrix(data), 0.3)
    assert part.clusters == ((0, 1), (2,), (3,))


def test_maf_screen_threshold_is_inclusive():
    M = np.zeros((100, 3))
    M[:1, 0] = 1.0  # frequency 0.01, exactly at the default threshold
    M[:40, 1] = 1.0
    # column 2 stays all zero
    assert maf_screen(M) == (0, 1)
    assert maf_screen(M, threshold=0.02) == (1,)
    # the minor category may be the zeros
    N = np.ones((100, 1))
    N[:5, 0] = 0.0
    assert maf_screen(N, threshold=0.05) == (0,)


def test_maf_screen_rejects_non_binary_input():
    with pytest.raises(ValueError):
        maf_screen(np.array([[0.0, 0.5], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        maf_screen(np.zeros(5))
