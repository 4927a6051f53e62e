"""Replicated simulation studies and their report files.

Four protocols: "sparse" compares sparse cluster stability selection with
the lasso, the prototype lasso, and plain stability selection on the sparse
design; "averaging" compares the averaging schemes on the same design;
"weighted" compares weighting schemes on the mixed-quality proxy design;
"theorem31" tallies path entry order and selection proportions on the
three-feature vote-splitting design and checks the selection error bound
against an independently estimated cluster hit level.

Studies of one design can share each replication's pass (run_design_studies).
Every study derives one sub-seed per replication, so replication r is
reproducible in isolation and thread counts never change any output.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .baselines import cluster_rep_lasso, protolasso
from .core import (
    ClusterPartition,
    cluster_proportions,
    compute_weights,
    feature_proportions,
    first_entrants,
    run_base_selections,
    select_top_s,
    simultaneous_cluster_proportions,
)
from .evaluation import (
    nogueira_stability_ci,
    refit_and_mse,
    selection_matrix,
    write_method_size_csv,
)
from .lasso import cross_validate_lambda, fit_lasso_path
from .oracle import error_bound_rhs, vote_splitting_interval
from .rng import DOMAIN_STUDY, stream_rng
from .simgen import (
    EVAL_STREAM_OFFSET,
    PILOT_STREAM_OFFSET,
    gen_sparse_instance,
    gen_two_proxy_instance,
    gen_weighted_instance,
)
from .subsampling import draw_complementary_pairs

STUDIES = ("sparse", "averaging", "weighted", "theorem31")
SIZES = tuple(range(1, 12))
COMPARE_SIZES = tuple(range(2, 9))
B_STUDY = 50

# Studies that name the same design share its replication pass.
_DESIGN = {"sparse": "sparse", "averaging": "sparse", "weighted": "weighted"}
_METHODS = {
    "sparse": ("lasso", "protolasso", "ss", "css-sparse"),
    "averaging": ("crl", "css-sparse", "css-simple", "css-weighted"),
    "weighted": ("css-sparse", "css-simple", "css-weighted"),
}


@dataclass
class StudyResult:
    study: str
    rows: list[tuple]
    summary: dict
    entrant_rows: list[tuple] = field(default_factory=list)


def _rep_seed(seed: int, index: int) -> int:
    return int(stream_rng(seed, DOMAIN_STUDY, index).integers(1 << 63))


def run_study(
    study: str, reps: int, seed: int, test_n: int = 10000, threads: int = 1, log=None
) -> StudyResult:
    if study not in STUDIES:
        raise ValueError(f"study must be one of {STUDIES}, got {study!r}")
    if study != "theorem31":
        return run_design_studies((study,), reps, seed, test_n, threads, log)[0]
    if reps < 1:
        raise ValueError("need at least one replication")
    return _run_two_proxy_study(reps, seed, threads=threads, log=log)


def write_study_outputs(result: StudyResult, out_dir) -> None:
    """Write report.csv, summary.json, and the entrant table when present."""
    os.makedirs(out_dir, exist_ok=True)
    write_method_size_csv(os.path.join(out_dir, "report.csv"), result.rows)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.entrant_rows:
        with open(os.path.join(out_dir, "entrants.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("first", "second", "count", "freq"))
            writer.writerows(result.entrant_rows)


def _cluster_choice(partition, weights, chosen):
    """(Features kept at nonzero weight, refit column specs) of chosen clusters."""
    cols = [(partition.clusters[k], weights[k]) for k in chosen]
    feats = sorted(j for c, w in cols for j, wj in zip(c, w) if wj != 0.0)
    return tuple(feats), cols


def _rep_selections(methods, inst, partition, props, cprops):
    """Per method and size: (selected feature set, refit column specs).

    A (method, size) entry is absent when that size is undefined for the
    method (a proportion tie at the boundary, or too short a path).
    """
    out = {}

    if "lasso" in methods:
        entries = fit_lasso_path(inst.data, first_k=max(SIZES)).entry_order()
        for s in SIZES:
            if len(entries) >= s:
                feats = tuple(sorted(entries[:s]))
                out[("lasso", s)] = (feats, list(entries[:s]))

    if "protolasso" in methods:
        ppath, prototypes = protolasso(inst.data, partition, first_k=max(SIZES))
        pentries = ppath.entry_order()
        for s in SIZES:
            if len(pentries) >= s:
                feats = tuple(prototypes[k] for k in pentries[:s])
                out[("protolasso", s)] = (tuple(sorted(feats)), list(feats))

    if "ss" in methods:
        for s in SIZES:
            sel = select_top_s(props, s)
            if sel is not None:
                out[("ss", s)] = (sel, list(sel))

    if "crl" in methods:
        centries = cluster_rep_lasso(
            inst.data, partition, first_k=max(SIZES)
        ).entry_order()
        uniform = [compute_weights(props, c, "simple")[0] for c in partition.clusters]
        for s in SIZES:
            if len(centries) >= s:
                out[("crl", s)] = _cluster_choice(partition, uniform, centries[:s])

    scheme_methods = [m for m in methods if m.startswith("css-")]
    if scheme_methods:
        top_by_size = {s: select_top_s(cprops, s) for s in SIZES}
        for method in scheme_methods:
            scheme = method.split("-", 1)[1]
            weights = [compute_weights(props, c, scheme)[0] for c in partition.clusters]
            for s in SIZES:
                chosen = top_by_size[s]
                if chosen is not None:
                    out[(method, s)] = _cluster_choice(partition, weights, chosen)
    return out


def run_design_studies(studies, reps, seed, test_n=10000, threads=1, log=None):
    """One StudyResult per study, each as run_study gives it, from one pass.

    Per replication the instance, CV lambda, plan and selection matrix are
    built once, and each (method, size) of the studies' methods is refit once.
    """
    designs = {_DESIGN.get(study) for study in studies}
    if None in designs or len(designs) != 1:
        raise ValueError(f"studies must share one design, got {studies!r}")
    if reps < 1:
        raise ValueError("need at least one replication")
    if test_n < 2:
        raise ValueError(f"test_n must be at least 2, got {test_n}")
    gen = gen_sparse_instance if designs == {"sparse"} else gen_weighted_instance
    methods = tuple(dict.fromkeys(m for study in studies for m in _METHODS[study]))
    mses: dict = {}
    sels: dict = {}
    hits = 0

    for r in range(reps):
        inst = gen(seed, r)
        partition = ClusterPartition(clusters=inst.truth.clusters)
        rs = _rep_seed(seed, r)
        lam = cross_validate_lambda(inst.data, seed=rs)
        plan = draw_complementary_pairs(inst.data.n, B_STUDY, rs)
        S = run_base_selections(inst.data, plan, lambdas=(lam,), threads=threads)
        props = feature_proportions(S)
        cprops = cluster_proportions(S, partition)

        proxies = inst.truth.proxy_columns
        signals = [j for j, b in enumerate(inst.truth.betas) if b != 0.0]
        if props[list(proxies)].max() < props[signals].max():
            hits += 1

        chosen = _rep_selections(methods, inst, partition, props, cprops)
        # One test set is alive at a time: drawn for the refits, freed before
        # the next replication draws its own.
        test = gen(seed, EVAL_STREAM_OFFSET + r, n=test_n)
        for (method, s), (feats, cols) in chosen.items():
            mse = refit_and_mse(inst.data, cols, test.data.X, test.mu)
            mses.setdefault((method, s), {})[r] = mse
            sels.setdefault((method, s), {})[r] = feats
        del test
        if log:
            log(f"rep {r + 1}/{reps} done")

    return tuple(_score(st, reps, seed, test_n, mses, sels, hits) for st in studies)


def _score(study, reps, seed, test_n, mses, sels, proxy_pattern_hits):
    methods = _METHODS[study]
    rows = _method_size_rows(methods, mses, sels, p=100)
    summary = {
        "study": study,
        "reps": reps,
        "seed": seed,
        "B": B_STUDY,
        "test_n": test_n,
        "proxy_props_below_top_signal_frac": proxy_pattern_hits / reps,
    }
    stab_means = {m: _mean_stability(rows, m, COMPARE_SIZES) for m in methods}
    summary["mean_stability_sizes_2_8"] = stab_means

    if study == "sparse":
        comp = _pairwise_by_size(mses, "ss", "css-sparse", COMPARE_SIZES)
        summary["css_sparse_vs_ss"] = comp
        summary["verdicts"] = {
            "css_sparse_beats_ss_by_1se_sizes_2_8": _all_beat(comp),
            "proxy_props_below_top_signal_in_80pct": proxy_pattern_hits / reps >= 0.8,
            "css_sparse_stability_ge_lasso": _ge(
                stab_means.get("css-sparse"), stab_means.get("lasso")
            ),
        }
    elif study == "averaging":
        simple = _pairwise_by_size(mses, "css-sparse", "css-simple", COMPARE_SIZES)
        weighted = _pairwise_by_size(mses, "css-sparse", "css-weighted", COMPARE_SIZES)
        crl = _pairwise_by_size(mses, "css-sparse", "crl", (2, 3, 4, 5, 6))
        summary["css_simple_vs_css_sparse"] = simple
        summary["css_weighted_vs_css_sparse"] = weighted
        summary["crl_vs_css_sparse_sizes_2_6"] = crl
        summary["verdicts"] = {
            "css_simple_beats_sparse_by_1se_sizes_2_8": _all_beat(simple),
            "css_weighted_beats_sparse_by_1se_sizes_2_8": _all_beat(weighted),
            "crl_beats_sparse_on_average_sizes_2_6": all(
                c["mean"] > 0 for c in crl.values()
            )
            if crl
            else False,
        }
    else:
        comp = _pairwise_by_size(mses, "css-simple", "css-weighted", COMPARE_SIZES)
        n_beat = sum(1 for c in comp.values() if c["mean"] >= c["se"])
        stab_w = stab_means.get("css-weighted")
        stab_s = stab_means.get("css-simple")
        summary["css_weighted_vs_css_simple"] = comp
        summary["verdicts"] = {
            "weighted_mse_le_simple_sizes_2_8": bool(comp)
            and all(c["mean"] >= 0 for c in comp.values()),
            "weighted_beats_simple_by_1se_at_4_sizes": n_beat >= 4,
            "stabilities_within_0_02": (
                stab_w is not None
                and stab_s is not None
                and abs(stab_w - stab_s) <= 0.02
            ),
        }
    return StudyResult(study=study, rows=rows, summary=summary)


def _method_size_rows(methods, mses, sels, p):
    rows = []
    for method in methods:
        for s in SIZES:
            d = mses.get((method, s), {})
            n_def = len(d)
            if n_def == 0:
                rows.append((method, s, None, None, None, None, None, 0))
                continue
            vals = np.array([d[r] for r in sorted(d)])
            mse_mean = float(vals.mean())
            mse_se = (
                float(vals.std(ddof=1) / math.sqrt(n_def)) if n_def >= 2 else None
            )
            stab = lo = hi = None
            if n_def >= 2:
                S = selection_matrix([sels[(method, s)][r] for r in sorted(d)], p)
                ci = nogueira_stability_ci(S)
                if ci is not None:
                    stab, lo, hi = ci
            rows.append((method, s, mse_mean, mse_se, stab, lo, hi, n_def))
    return rows


def _pairwise_by_size(mses, slower, faster, sizes):
    """Paired per-replication MSE gaps slower - faster at each size."""
    out = {}
    for s in sizes:
        a = mses.get((slower, s), {})
        b = mses.get((faster, s), {})
        common = sorted(set(a) & set(b))
        if len(common) < 2:
            continue
        d = np.array([a[r] - b[r] for r in common])
        out[s] = {
            "mean": float(d.mean()),
            "se": float(d.std(ddof=1) / math.sqrt(len(d))),
            "n": len(common),
        }
    return out


def _all_beat(comp: dict) -> bool:
    return bool(comp) and all(c["mean"] >= c["se"] for c in comp.values())


def _mean_stability(rows, method, sizes) -> float | None:
    vals = [
        row[4]
        for row in rows
        if row[0] == method and row[1] in sizes and row[4] is not None
    ]
    return float(np.mean(vals)) if vals else None


def _ge(a: float | None, b: float | None) -> bool:
    return a is not None and b is not None and a >= b


def _bound_is_vacuous(theta: float, tau: float) -> bool:
    """Whether the error-bound check cannot fail.

    Each cluster at or above tau adds at least error_bound_rhs(theta, tau,
    tau) to the right side; when that is at least 1, its own count on the
    left, the left side can never exceed the right.
    """
    return error_bound_rhs(theta, tau, tau) >= 1.0


def _run_two_proxy_study(reps, seed, threads=1, log=None) -> StudyResult:
    # The design, and the error-bound check's threshold and its evaluated and
    # pilot replications; summary.json records each.
    n, sigma_eps_sq, tau = 5000, 1.0, 0.8
    band = vote_splitting_interval(n, sigma_eps_sq)
    beta_Z = 0.5 * (band[0] + band[1])
    partition = ClusterPartition(clusters=((0, 1), (2,)))
    eval_reps = min(200, reps)
    pilot_reps = min(50, reps)

    pair_counts: dict = {}
    props_sum = np.zeros(3)
    cprops_all = []
    proxy_ge_direct = 0

    def _css_cluster_props(index):
        inst = gen_two_proxy_instance(n, sigma_eps_sq, beta_Z, seed, index=index)
        rs = _rep_seed(seed, index)
        plan = draw_complementary_pairs(inst.data.n, B_STUDY, rs)
        S = run_base_selections(inst.data, plan, first_k=2, threads=threads)
        return inst, S

    for r in range(reps):
        inst, S = _css_cluster_props(r)
        first2 = tuple(first_entrants(inst.data, 2))
        pair_counts[first2] = pair_counts.get(first2, 0) + 1
        props = feature_proportions(S)
        cprops = cluster_proportions(S, partition)
        props_sum += props
        cprops_all.append(cprops)
        if cprops[0] >= cprops[1]:
            proxy_ge_direct += 1
        if log:
            log(f"rep {r + 1}/{reps} done")

    pilot_sim = np.zeros(2)
    for r in range(pilot_reps):
        _, S = _css_cluster_props(PILOT_STREAM_OFFSET + r)
        pilot_sim += simultaneous_cluster_proportions(S, partition)
    theta = float((pilot_sim / pilot_reps).max())

    evaluated = cprops_all[:eval_reps]
    lhs = np.array([float(np.sum(c >= tau)) for c in evaluated])
    rhs = np.array([error_bound_rhs(theta, tau, float(c.sum())) for c in evaluated])
    diffs = lhs - rhs
    bound_se = (
        float(diffs.std(ddof=1) / math.sqrt(len(diffs))) if len(diffs) >= 2 else 0.0
    )

    total = reps
    freq = {pair: c / total for pair, c in pair_counts.items()}
    f_02 = freq.get((0, 2), 0.0)
    f_12 = freq.get((1, 2), 0.0)
    # Exchangeable proxies: given c_02 + c_12, c_02 is Binomial(., 1/2), so
    # c_02 - c_12 has standard deviation sqrt(c_02 + c_12).
    c_02 = pair_counts.get((0, 2), 0)
    c_12 = pair_counts.get((1, 2), 0)
    proxies_symmetric = abs(c_02 - c_12) <= 3.0 * math.sqrt(c_02 + c_12)
    mean_props = props_sum / total
    mean_cprops = np.mean(cprops_all, axis=0)

    entrant_rows = [
        (pair[0], pair[1], pair_counts[pair], pair_counts[pair] / total)
        for pair in sorted(pair_counts)
    ]
    summary = {
        "study": "theorem31",
        "reps": reps,
        "seed": seed,
        "B": B_STUDY,
        "n": n,
        "sigma_eps_sq": sigma_eps_sq,
        "beta_Z": beta_Z,
        "band": list(band),
        "freq_first_proxy0_then_direct": f_02,
        "freq_first_proxy1_then_direct": f_12,
        "freq_either_proxy_then_direct": f_02 + f_12,
        "mean_feature_props": mean_props.tolist(),
        "mean_cluster_props": mean_cprops.tolist(),
        "frac_proxy_cluster_ge_direct": proxy_ge_direct / total,
        "bound_check": {
            "tau": tau,
            "theta_pilot": theta,
            "pilot_reps": pilot_reps,
            "eval_reps": len(diffs),
            "mean_selected_low": float(lhs.mean()),
            "mean_rhs": float(rhs.mean()),
            "mean_gap_lhs_minus_rhs": float(diffs.mean()),
            "se_gap": bound_se,
            "holds_within_3se": bool(diffs.mean() <= 3.0 * bound_se),
            "vacuous": _bound_is_vacuous(theta, tau),
        },
        "verdicts": {
            "proxy0_then_direct_in_band": 0.33 <= f_02 <= 0.55,
            "proxy_symmetry_within_3se": proxies_symmetric,
            "either_proxy_then_direct_ge_0_80": f_02 + f_12 >= 0.80,
            "mean_proxy_props_le_0_62": bool(
                mean_props[0] <= 0.62 and mean_props[1] <= 0.62
            ),
            "mean_direct_prop_ge_0_85": bool(mean_props[2] >= 0.85),
            "proxy_cluster_ge_direct_in_95pct": proxy_ge_direct / total >= 0.95,
            "error_bound_holds": bool(diffs.mean() <= 3.0 * bound_se),
        },
    }
    return StudyResult(
        study="theorem31", rows=[], summary=summary, entrant_rows=entrant_rows
    )
