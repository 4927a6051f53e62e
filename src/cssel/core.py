"""Cluster stability selection.

Run a base selector on every half sample of a complementary-pairs plan,
count how often each feature and each cluster is hit, and turn the
per-feature counts into within-cluster weights.  The base selector is the
lasso at fixed penalties (given `lambdas`) or the first k entrants of the
lasso path (given `first_k`).  Thresholding or ranking the cluster
proportions then gives the selected model; a cluster's representative
column, the weighted average of its members, is built where it is used,
by evaluation.build_design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataSet
from .lasso import (
    InsufficientPath,
    cross_validate_lambda,
    fit_lasso_path,
    fixed_lambda_supports,
)
from .subsampling import SubsamplePlan, draw_complementary_pairs, restrict

SCHEMES = ("weighted", "simple", "sparse")


@dataclass(frozen=True)
class ClusterPartition:
    """Disjoint nonempty clusters covering features 0..p-1."""

    clusters: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        clusters = tuple(tuple(sorted(int(j) for j in c)) for c in self.clusters)
        object.__setattr__(self, "clusters", clusters)
        if not clusters:
            raise ValueError("need at least one cluster")
        seen: set[int] = set()
        total = 0
        for c in clusters:
            if not c:
                raise ValueError("empty cluster")
            s = set(c)
            if len(s) != len(c):
                raise ValueError(f"repeated feature in cluster {c}")
            if s & seen:
                raise ValueError(f"cluster {c} overlaps another")
            seen |= s
            total += len(c)
        if seen != set(range(total)):
            raise ValueError("clusters must cover 0..p-1 exactly")
        if self.names is not None:
            names = tuple(self.names)
            if len(names) != len(clusters):
                raise ValueError("one name per cluster required")
            object.__setattr__(self, "names", names)

    @classmethod
    def singletons(cls, p: int) -> "ClusterPartition":
        return cls(clusters=tuple((j,) for j in range(p)))

    @property
    def K(self) -> int:
        return len(self.clusters)

    @property
    def p(self) -> int:
        return sum(len(c) for c in self.clusters)


class HalfSampleFailure(RuntimeError):
    """A solver failed on one half sample."""

    def __init__(self, pair: int, half: str, cause: Exception):
        self.pair = pair
        self.half = half
        super().__init__(f"solver failure on half sample (pair {pair}, {half}): {cause}")


def first_entrants(data: DataSet, k: int) -> list[int]:
    """The first k distinct features to enter the lasso path, in entry order.

    One path, stopped where its k-th distinct feature enters; raises
    InsufficientPath when the whole path has fewer.
    """
    order = fit_lasso_path(data, first_k=k).entry_order()
    if len(order) < k:
        raise InsufficientPath(f"path has {len(order)} distinct entries, {k} requested")
    return order[:k]


def run_base_selections(
    data: DataSet,
    plan: SubsamplePlan,
    lambdas=None,
    first_k: int | None = None,
    threads: int = 1,
) -> np.ndarray:
    """Run the base selector on all 2B half samples of `plan`.

    Returns the (2B, p) boolean selection matrix S: row 2b is half A of pair
    b, row 2b + 1 its complement Ac, and S[i, j] says whether half i
    selected feature j.  With summarize_records this is the route for a
    hand-built plan or the first-k base, which run_css does not take.

    Exactly one of `lambdas` and `first_k` names the base.  lambdas, each
    finite and nonnegative: the fixed-lambda-set base, the union of the
    lasso supports over them.  first_k: the first-k-path base, the first
    `first_k` features to enter the path.

    The one place where half samples are cut from `data` and dispatched,
    serially or on a pool of `threads` threads.  A failure on a half is
    re-raised as HalfSampleFailure naming its pair and tag ("A" or "Ac").
    """
    if (lambdas is None) == (first_k is None):
        raise ValueError("give exactly one of lambdas and first_k")
    if lambdas is not None:
        lambdas = tuple(float(l) for l in lambdas)
        if not lambdas:
            raise ValueError("lambdas must be a nonempty list")
        if not all(0.0 <= l < np.inf for l in lambdas):
            raise ValueError(f"lambdas must be finite and nonnegative, got {lambdas}")
    elif first_k < 1:
        raise ValueError(f"first_k must be positive, got {first_k}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")

    def solve(item):
        (pair, tag), rows = item
        half = restrict(data, rows)
        try:
            if lambdas is not None:
                return fixed_lambda_supports(half, lambdas).any(axis=0)
            row = np.zeros(half.p, dtype=bool)
            row[first_entrants(half, first_k)] = True
            return row
        except Exception as exc:
            raise HalfSampleFailure(pair, tag, exc) from exc

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.array(list(pool.map(solve, plan.halves())))
    return np.array([solve(item) for item in plan.halves()])


def _cluster_hits(S: np.ndarray, partition: ClusterPartition) -> np.ndarray:
    """(halves, K) boolean: whether each half selected any member of each cluster."""
    S = np.asarray(S, dtype=bool)
    if S.ndim != 2 or S.shape[1] != partition.p or len(S) == 0:
        raise ValueError(f"need a nonempty (halves, {partition.p}) selection matrix")
    members = np.concatenate(partition.clusters)
    starts = np.cumsum([0] + [len(c) for c in partition.clusters[:-1]])
    return np.logical_or.reduceat(S[:, members], starts, axis=1)


def feature_proportions(S: np.ndarray) -> np.ndarray:
    """Fraction of half samples (rows of S) selecting each feature."""
    S = np.asarray(S, dtype=bool)
    if S.ndim != 2 or len(S) == 0:
        raise ValueError("need a nonempty (halves, p) selection matrix")
    return S.mean(axis=0)


def cluster_proportions(S: np.ndarray, partition: ClusterPartition) -> np.ndarray:
    """Fraction of half samples hitting each cluster (any member selected)."""
    return _cluster_hits(S, partition).mean(axis=0)


def simultaneous_cluster_proportions(
    S: np.ndarray, partition: ClusterPartition
) -> np.ndarray:
    """Fraction of pairs hitting each cluster in both halves (rows 2b, 2b + 1)."""
    hits = _cluster_hits(S, partition)
    if len(hits) % 2:
        raise ValueError(f"{len(hits)} rows; pairs need an even count (A, Ac)")
    return (hits[0::2] & hits[1::2]).mean(axis=0)


def compute_weights(
    feature_props: np.ndarray, cluster: tuple[int, ...], scheme: str
) -> tuple[np.ndarray, bool]:
    """Within-cluster simplex weights under the given scheme.

    weighted: proportional to each member's selection proportion; falls back
    to simple averaging (flagged) when every proportion is zero.  simple:
    uniform.  sparse: uniform over the argmax proportions (flagged when the
    whole cluster has proportion zero, where the argmax is uninformative).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    props = np.asarray([feature_props[j] for j in cluster], dtype=float)
    size = len(cluster)
    if size == 0:
        raise ValueError("empty cluster")
    if scheme == "simple":
        return np.full(size, 1.0 / size), False
    if scheme == "weighted":
        total = props.sum()
        if total == 0.0:
            return np.full(size, 1.0 / size), True
        return props / total, False
    top = props.max()
    argmax = props == top
    return argmax / argmax.sum(), bool(top == 0.0)


@dataclass(frozen=True)
class CssResult:
    """Everything the selection run produced.

    feature_props and cluster_props are the per-feature and per-cluster hit
    fractions over all 2B half samples; weights, one simplex vector per
    cluster over its members, follow the chosen scheme; weight_fallback
    marks clusters where the weighted scheme degraded to uniform (or a
    sparse argmax carried no information).  lambdas is None under the
    first-k-path base.
    """

    partition: ClusterPartition
    feature_props: np.ndarray
    cluster_props: np.ndarray
    weights: tuple[np.ndarray, ...]
    weight_fallback: tuple[bool, ...]
    scheme: str
    B: int
    lambdas: tuple[float, ...] | None
    seed: int

    def kept_features(self, k: int) -> tuple[int, ...]:
        """Members of cluster k with nonzero weight."""
        c = self.partition.clusters[k]
        w = self.weights[k]
        return tuple(j for j, wj in zip(c, w) if wj != 0.0)

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "base": (
                "first-k-path" if self.lambdas is None else "fixed-lambda-set"
            ),
            "B": self.B,
            "seed": self.seed,
            "lambdas": None if self.lambdas is None else list(self.lambdas),
            "clusters": [list(c) for c in self.partition.clusters],
            "cluster_names": (
                list(self.partition.names) if self.partition.names else None
            ),
            "feature_props": self.feature_props.tolist(),
            "cluster_props": self.cluster_props.tolist(),
            "weights": [w.tolist() for w in self.weights],
            "weight_fallback": list(self.weight_fallback),
            "kept_features": [
                list(self.kept_features(k)) for k in range(self.partition.K)
            ],
        }

    def csv_rows(self) -> list[tuple]:
        """Flat per-feature rows: feature, cluster, pi_hat, theta_hat, weight."""
        rows = []
        for k, c in enumerate(self.partition.clusters):
            for pos, j in enumerate(c):
                rows.append(
                    (
                        j,
                        k,
                        float(self.feature_props[j]),
                        float(self.cluster_props[k]),
                        float(self.weights[k][pos]),
                    )
                )
        rows.sort(key=lambda r: r[0])
        return rows


def run_css(
    data: DataSet,
    partition: ClusterPartition,
    scheme: str,
    B: int = 100,
    seed: int = 0,
    lambdas=None,
    threads: int = 1,
) -> CssResult:
    """One full cluster stability selection run with the fixed-lambda base.

    The plan is draw_complementary_pairs(n, B, seed).  With no lambdas
    given, a single lambda is chosen by 10-fold cross-validation on the full
    data before subsampling.  A hand-built plan or the first-k base goes
    through run_base_selections and summarize_records instead.
    """
    if partition.p != data.p:
        raise ValueError(
            f"partition covers {partition.p} features but data has {data.p}"
        )
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    plan = draw_complementary_pairs(data.n, B, seed)
    if lambdas is None:
        lambdas = (cross_validate_lambda(data, seed=seed),)
    lambdas = tuple(float(l) for l in lambdas)
    S = run_base_selections(data, plan, lambdas=lambdas, threads=threads)
    return summarize_records(partition, S, scheme, lambdas=lambdas, seed=seed)


def summarize_records(
    partition: ClusterPartition,
    S: np.ndarray,
    scheme: str,
    lambdas: tuple[float, ...] | None,
    seed: int,
) -> CssResult:
    """Aggregate a (2B, p) selection matrix into a CssResult.

    lambdas are the fixed-lambda-set base's penalties, or None for the
    first-k-path base; the result's JSON names its base from them.
    """
    props = feature_proportions(S)
    cprops = cluster_proportions(S, partition)
    weights = []
    fallback = []
    for c in partition.clusters:
        w, flag = compute_weights(props, c, scheme)
        weights.append(w)
        fallback.append(flag)
    return CssResult(
        partition=partition,
        feature_props=props,
        cluster_props=cprops,
        weights=tuple(weights),
        weight_fallback=tuple(fallback),
        scheme=scheme,
        B=len(S) // 2,
        lambdas=lambdas,
        seed=seed,
    )


def select_top_s(cluster_props: np.ndarray, s: int) -> tuple[int, ...] | None:
    """The s entries with the largest proportions, or None on a boundary tie.

    None means "no set of exactly s is implied by the proportions"; ties
    inside the top s are fine, a tie straddling the boundary is not.  Works
    on any proportion vector (clusters or single features).
    """
    K = len(cluster_props)
    if not 1 <= s <= K:
        raise ValueError(f"s must lie in 1..{K}")
    order = np.argsort(-np.asarray(cluster_props), kind="stable")
    if s < K and cluster_props[order[s - 1]] == cluster_props[order[s]]:
        return None
    return tuple(sorted(int(k) for k in order[:s]))
