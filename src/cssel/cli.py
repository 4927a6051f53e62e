"""The `css` command line tool.

Subcommands: `run` (cluster stability selection on CSV data), `simulate`
(replicated study protocols), `cluster` (correlation-distance clustering),
`oracle` (closed-form risk and interval evaluations).  Feature indexes in
every input and output are 0-based.  Exit codes: 0 success, 2 invalid
input, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .clustering import (
    MAF_THRESHOLD,
    ConstantColumn,
    correlation_clusters,
    maf_screen,
)
from .core import (
    ClusterPartition,
    HalfSampleFailure,
    SCHEMES,
    run_css,
    select_top_s,
)
from .data import DataSet
from .dataio import (
    FileFormatError,
    clusters_json_text,
    load_dataset,
    read_clusters_json,
    read_matrix_csv,
    remap_partition,
    write_clusters_json,
    write_css_result,
)
from .lasso import ConvergenceFailure, InsufficientPath, RankDeficient
from .oracle import (
    C2_MAX,
    ProxyModelParams,
    ideal_risk,
    min_weighted_risk,
    optimal_weights,
    proxy_noise_variance,
    risk_single_feature,
    vote_splitting_interval,
)
from .studies import STUDIES, run_study, write_study_outputs

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3

_SOLVER_ERRORS = (
    ConvergenceFailure,
    HalfSampleFailure,
    InsufficientPath,
    RankDeficient,
    np.linalg.LinAlgError,
)


def _seed_default() -> int:
    raw = os.environ.get("CSS_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise FileFormatError(f"CSS_SEED must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="css",
        description="Cluster stability selection. Feature indexes are 0-based.",
    )
    parser.add_argument("--version", action="version", version=f"css {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run cluster stability selection on CSV data")
    run.add_argument("--x", required=True, help="CSV matrix of features")
    run.add_argument("--y", required=True, help="single-column CSV response")
    grp = run.add_mutually_exclusive_group()
    grp.add_argument("--clusters", help="clusters JSON file")
    grp.add_argument(
        "--auto-cluster",
        action="store_true",
        help="estimate clusters by correlation-distance single linkage",
    )
    run.add_argument(
        "--cutoff", type=float, default=0.5, help="merge cutoff for --auto-cluster"
    )
    run.add_argument("--scheme", choices=SCHEMES, default="weighted")
    sel = run.add_mutually_exclusive_group()
    sel.add_argument("--tau", type=float, help="selection threshold in (0, 1]")
    sel.add_argument("--top", type=int, help="select the top S clusters")
    run.add_argument("--B", type=int, default=100, help="number of subsample pairs")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument(
        "--lambda",
        dest="lambdas",
        type=float,
        action="append",
        help="penalty level for the base selector (repeatable); default: one "
        "cross-validated value",
    )
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=cmd_run)

    sim = sub.add_parser("simulate", help="run a replicated simulation study")
    sim.add_argument("--study", required=True, choices=STUDIES)
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--test-n", type=int, default=10000)
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    clu = sub.add_parser("cluster", help="estimate clusters from a CSV matrix")
    clu.add_argument("--x", required=True, help="CSV matrix of features")
    clu.add_argument("--cutoff", type=float, default=0.5)
    clu.add_argument(
        "--maf",
        type=float,
        default=None,
        help="minor-category frequency threshold (with --binary; default "
        f"{MAF_THRESHOLD})",
    )
    clu.add_argument(
        "--binary",
        action="store_true",
        help="treat entries as 0/1 and screen low-frequency columns first",
    )
    clu.add_argument("--out", help="write clusters JSON here instead of stdout")
    clu.set_defaults(func=cmd_cluster)

    orc = sub.add_parser("oracle", help="print closed-form evaluations as JSON")
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--sigma-eps-sq", type=float, default=1.0)
    orc.add_argument("--c2", type=float, default=C2_MAX)
    orc.add_argument("--beta-z", type=float, default=None)
    orc.add_argument(
        "--sigma-zeta-sq",
        default=None,
        help="comma-separated proxy noise variances",
    )
    orc.add_argument(
        "--betas",
        default="",
        help="comma-separated direct-feature coefficients",
    )
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _SOLVER_ERRORS as exc:
        print(f"css: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (FileFormatError, ValueError, OSError) as exc:
        print(f"css: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _resolve_seed(args) -> int:
    return _seed_default() if args.seed is None else args.seed


def cmd_run(args) -> int:
    if args.threads < 1:
        raise ValueError(f"threads must be at least 1, got {args.threads}")
    data = load_dataset(args.x, args.y)
    seed = _resolve_seed(args)
    column_ids = list(range(data.p))

    if args.clusters:
        clusters, names, screened = read_clusters_json(args.clusters)
        partition, kept = remap_partition(clusters, names, data.p, screened)
        if screened:
            data = DataSet(X=data.X[:, kept], y=data.y)
        column_ids = kept
    elif args.auto_cluster:
        partition = correlation_clusters(data, args.cutoff)
    else:
        partition = ClusterPartition.singletons(data.p)
    # --tau's range and select_top_s's range for s, checked before the solves
    if args.tau is not None and not 0.0 < args.tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    if args.top is not None and not 1 <= args.top <= partition.K:
        raise ValueError(f"s must lie in 1..{partition.K}")

    result = run_css(
        data,
        partition,
        scheme=args.scheme,
        B=args.B,
        seed=seed,
        lambdas=tuple(args.lambdas) if args.lambdas else None,
        threads=args.threads,
    )

    selection = None
    if args.tau is not None:
        selection = {
            "mode": "tau",
            "tau": args.tau,
            "clusters": [
                k for k in range(partition.K) if result.cluster_props[k] >= args.tau
            ],
        }
    elif args.top is not None:
        chosen = select_top_s(result.cluster_props, args.top)
        selection = {
            "mode": "top",
            "s": args.top,
            "defined": chosen is not None,
            "clusters": list(chosen) if chosen is not None else None,
        }

    write_css_result(args.out, result, selection=selection, column_ids=column_ids)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.threads < 1:
        raise ValueError(f"threads must be at least 1, got {args.threads}")
    seed = _resolve_seed(args)
    result = run_study(
        args.study,
        reps=args.reps,
        seed=seed,
        test_n=args.test_n,
        threads=args.threads,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    write_study_outputs(result, args.out)
    return EXIT_OK


def cmd_cluster(args) -> int:
    X = read_matrix_csv(args.x)
    screened: list[int] = []
    kept = list(range(X.shape[1]))
    if args.binary:
        kept = list(maf_screen(X) if args.maf is None else maf_screen(X, args.maf))
        screened = sorted(set(range(X.shape[1])) - set(kept))
        X = X[:, kept]
    elif args.maf is not None:
        raise FileFormatError("--maf requires --binary")
    if X.shape[1] == 0:
        raise FileFormatError("no columns left after screening")
    try:
        partition = correlation_clusters(
            DataSet(X=X, y=np.zeros(X.shape[0])), args.cutoff
        )
    except ConstantColumn as exc:
        original = tuple(kept[j] for j in exc.columns)
        raise FileFormatError(
            f"constant column(s) {original}; screen them out first"
        ) from None
    clusters = [[kept[j] for j in c] for c in partition.clusters]
    if args.out:
        write_clusters_json(args.out, clusters, screened=screened)
    else:
        sys.stdout.write(clusters_json_text(clusters, screened=screened))
    return EXIT_OK


def cmd_oracle(args) -> int:
    doc = {
        "n": args.n,
        "sigma_eps_sq": args.sigma_eps_sq,
        "c2": args.c2,
        "proxy_noise_variance": proxy_noise_variance(args.n),
    }
    band = vote_splitting_interval(args.n, args.sigma_eps_sq, args.c2)
    doc["vote_splitting_interval"] = None if band is None else list(band)
    if args.beta_z is not None and args.sigma_zeta_sq is not None:
        zetas = tuple(float(v) for v in args.sigma_zeta_sq.split(","))
        betas = tuple(float(v) for v in args.betas.split(",")) if args.betas else ()
        params = ProxyModelParams(
            n=args.n,
            q=len(zetas),
            p=len(zetas) + len(betas),
            beta_Z=args.beta_z,
            betas=betas,
            sigma_zeta_sq=zetas,
            sigma_eps_sq=args.sigma_eps_sq,
        )
        doc["ideal_risk"] = ideal_risk(params)
        doc["single_feature_risks"] = [
            risk_single_feature(params, j) for j in range(params.p)
        ]
        doc["optimal_weights"] = optimal_weights(zetas).tolist()
        doc["min_weighted_risk"] = min_weighted_risk(params)
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
