"""Self-tests of the benchmark: one operation per workload passes its
checks, and every check fails on a deliberately corrupted output.

    python3 -m pytest bench -q

These tests live outside the package's `tests/` directory, so the package's
own test run does not collect them.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cssel import core, lasso  # noqa: E402
from cssel.simgen import EVAL_STREAM_OFFSET, gen_sparse_instance  # noqa: E402
from cssel.studies import B_STUDY  # noqa: E402

import checks  # noqa: E402
from cd_crosscheck import cd_solutions  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import RunCsv, StudySparse, StudyTwoProxy  # noqa: E402

WORK = ROOT / "bench" / "_work" / "selftest"


@pytest.fixture(scope="module")
def work():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    yield WORK
    shutil.rmtree(WORK, ignore_errors=True)


def _one_op(workload_cls, work):
    workload = workload_cls(work)
    inp = workload.make_input(0, 0)
    out = workload.run(inp)
    workload.check(inp, out)
    workload.cleanup(inp)
    return workload, inp, out


# --- run-csv ---------------------------------------------------------------


@pytest.fixture(scope="module")
def css_doc(work):
    return _one_op(RunCsv, work)[2]


def _split_proxy_block(doc):
    k = doc["clusters"].index(checks.PROXY_BLOCK)
    doc["clusters"][k] = checks.PROXY_BLOCK[1:]
    doc["clusters"][k + 1].append(checks.PROXY_BLOCK[0])


def _unselect_proxy_block(doc):
    doc["selection"]["clusters"].remove(doc["clusters"].index(checks.PROXY_BLOCK))


def _prop_off_quarter_step(doc):
    doc["feature_props"][50] += 1.0 / (4 * RunCsv.B)


def _singleton_off_one_step(doc):
    k = next(k for k, c in enumerate(doc["clusters"]) if len(c) == 1)
    step = 1.0 / (2 * RunCsv.B)
    doc["cluster_props"][k] += step if doc["cluster_props"][k] < 1.0 else -step


def _proxy_below_member_max(doc):
    k = doc["clusters"].index(checks.PROXY_BLOCK)
    top = max(doc["feature_props"][j] for j in checks.PROXY_BLOCK)
    doc["cluster_props"][k] = top - 1.0 / (2 * RunCsv.B)


def _weights_reversed(doc):
    k = doc["clusters"].index(checks.PROXY_BLOCK)
    doc["weights"][k] = doc["weights"][k][::-1]


def _select_extra(doc):
    k = min(range(len(doc["clusters"])), key=lambda k: doc["cluster_props"][k])
    doc["selection"]["clusters"].append(k)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_split_proxy_block, "is not one cluster"),
        (_unselect_proxy_block, "is not selected"),
        (_prop_off_quarter_step, "is not a multiple"),
        (_singleton_off_one_step, "outside"),
        (_proxy_below_member_max, "outside"),
        (_weights_reversed, "weights"),
        (_select_extra, "selection"),
    ],
)
def test_run_csv_check_rejects(css_doc, corrupt, message):
    doc = copy.deepcopy(css_doc)
    corrupt(doc)
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_css_result(doc, RunCsv.B, RunCsv.TAU)


# --- the coordinate-descent cross-check ------------------------------------


@pytest.fixture(scope="module")
def cd_case():
    """A small run at a large lambda, where the path and CD agree."""
    data = gen_sparse_instance(0, 0).data
    B = 5
    result = core.run_css(
        data, core.ClusterPartition.singletons(data.p), "weighted",
        B=B, seed=0, lambdas=(0.05,),
    )
    doc = result.to_json_dict()
    return doc, cd_solutions(data, doc, B, 0), B


def test_cd_crosscheck_passes_on_agreeing_solutions(cd_case):
    doc, solutions, B = cd_case
    checks.check_cd_supports(doc, solutions, B)


def test_cd_crosscheck_rejects_a_proportion_off_by_one_step(cd_case):
    doc, solutions, B = cd_case
    doc = copy.deepcopy(doc)
    doc["feature_props"][int(np.argmax(doc["feature_props"]))] -= 1.0 / (2 * B)
    with pytest.raises(checks.CheckFailed):
        checks.check_cd_supports(doc, solutions, B)


def test_cd_crosscheck_rejects_a_non_optimal_solution(cd_case):
    doc, solutions, B = cd_case
    X, y, coef = solutions[0]
    coef = coef.copy()
    coef[np.flatnonzero(coef)[0]] *= 1.01
    with pytest.raises(checks.CheckFailed):
        checks.check_cd_supports(doc, [(X, y, coef)] + solutions[1:], B)


def test_own_kkt_agrees_with_the_package():
    data = gen_sparse_instance(0, 1).data
    coef = lasso.fit_lasso_at(data, 0.05).coefficients * 1.001
    assert checks.kkt_residual(data.X, data.y, coef, 0.05) == pytest.approx(
        lasso.kkt_residual(data, coef, 0.05), rel=1e-9
    )


# --- study-two-proxy -------------------------------------------------------


@pytest.fixture(scope="module")
def two_proxy(work):
    return _one_op(StudyTwoProxy, work)[2]


def _beta_off(summary, rows):
    summary["beta_Z"] += 1e-6


def _entrants_off(summary, rows):
    rows[0] = (rows[0][0], rows[0][1], rows[0][2] + 1, rows[0][3])


def _prop_off_one_step(summary, rows):
    summary["mean_feature_props"][2] -= 1.0 / (2 * B_STUDY)


def _cluster_below_proxy(summary, rows):
    summary["mean_cluster_props"][0] = summary["mean_feature_props"][0] - 0.01


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_beta_off, "midpoint"),
        (_entrants_off, "entrant counts"),
        (_prop_off_one_step, "sum to"),
        (_cluster_below_proxy, "below proxy"),
    ],
)
def test_two_proxy_check_rejects(two_proxy, corrupt, message):
    summary = copy.deepcopy(two_proxy.summary)
    rows = list(two_proxy.entrant_rows)
    corrupt(summary, rows)
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_two_proxy(summary, rows, StudyTwoProxy.REPS)


def test_two_proxy_band_matches_the_package():
    from cssel.oracle import vote_splitting_interval

    assert checks.two_proxy_band(5000, 1.0) == pytest.approx(
        vote_splitting_interval(5000, 1.0), rel=1e-14
    )


# --- study-sparse ----------------------------------------------------------


@pytest.fixture(scope="module")
def sparse_case(work):
    workload, seed, result = _one_op(StudySparse, work)
    instances = [gen_sparse_instance(seed, r) for r in range(workload.REPS)]
    tests = [
        gen_sparse_instance(seed, EVAL_STREAM_OFFSET + r, n=workload.TEST_N)
        for r in range(workload.REPS)
    ]
    return result.rows, checks.lasso_size1_mse(instances, tests)


def _row(rows, method, size):
    return next(i for i, r in enumerate(rows) if r[0] == method and r[1] == size)


def _mse_off(rows):
    i = _row(rows, "lasso", 1)
    rows[i] = (rows[i][0], rows[i][1], rows[i][2] * (1 + 1e-6)) + rows[i][3:]


def _interval_unordered(rows):
    i = next(i for i, r in enumerate(rows) if r[4] is not None)
    m, s, mse, se, est, lo, hi, n = rows[i]
    rows[i] = (m, s, mse, se, est, est + 0.01, hi, n)


def _interval_above_one(rows):
    i = next(i for i, r in enumerate(rows) if r[4] is not None)
    m, s, mse, se, est, lo, hi, n = rows[i]
    rows[i] = (m, s, mse, se, est, lo, 1.01, n)


def _too_many_defined(rows):
    i = _row(rows, "ss", 3)
    rows[i] = rows[i][:7] + (StudySparse.REPS + 1,)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_mse_off, "size-1 MSE"),
        (_interval_unordered, "interval"),
        (_interval_above_one, "interval"),
        (_too_many_defined, "n_defined"),
    ],
)
def test_sparse_check_rejects(sparse_case, corrupt, message):
    rows, mse = sparse_case
    rows = list(rows)
    corrupt(rows)
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_sparse(rows, StudySparse.REPS, mse)


# --- tracing and the command -----------------------------------------------


def test_tracer_wraps_every_binding_and_restores():
    import cssel.core
    import cssel.lasso
    import cssel.studies

    original = cssel.lasso.fit_lasso_path
    tracer = Tracer()
    tracer.install()
    try:
        for module in (cssel.lasso, cssel.core, cssel.studies):
            assert module.fit_lasso_path.__wrapped__ is original
        cssel.lasso.cross_validate_lambda(gen_sparse_instance(0, 0).data, folds=2)
    finally:
        tracer.uninstall()
    assert cssel.core.fit_lasso_path is original
    assert tracer.calls["lasso.cv"] == 1 and tracer.calls["lasso.path"] == 2
    assert tracer.covered_s == pytest.approx(sum(tracer.self_s.values()), rel=1e-12)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study-two-proxy",
         "--seed", "0", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_command_prints_every_end_to_end_metric():
    proc = _bench(ROOT, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_traced_run_accounts_for_the_operation():
    proc = _bench(ROOT, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    selfs = [
        k for k in metrics
        if k.endswith(("_s", ".s")) and not k.startswith(("trace.", "ref."))
    ]
    total = sum(metrics[k]["value"] for k in selfs)
    assert total == pytest.approx(metrics["trace.op_s"]["value"], rel=1e-9)
    assert metrics["lasso.cd_calls"]["value"] == 0


def test_command_fails_without_the_package(work):
    bare = work / "bare"
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = _bench(bare, "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
