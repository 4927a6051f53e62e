"""Study protocols: row shapes, summaries, determinism, report files."""

import csv
import json

import numpy as np
import pytest

from cssel import studies
from cssel.evaluation import METHOD_SIZE_HEADER
from cssel.studies import (
    SIZES,
    STUDIES,
    StudyResult,
    run_design_studies,
    run_study,
    write_study_outputs,
)

SPARSE_METHODS = ("lasso", "protolasso", "ss", "css-sparse")


@pytest.fixture(scope="module")
def sparse2():
    return run_study("sparse", reps=2, seed=11, test_n=400)


@pytest.fixture(scope="module")
def averaging2():
    return run_study("averaging", reps=2, seed=11, test_n=400)


@pytest.fixture(scope="module")
def theorem3():
    return run_study("theorem31", reps=3, seed=11)


def test_run_study_validates_inputs(monkeypatch):
    with pytest.raises(ValueError):
        run_study("dense", reps=2, seed=0)
    with pytest.raises(ValueError):
        run_study("sparse", reps=0, seed=0)

    def no_draw(*args, **kwargs):
        raise AssertionError("a replication was drawn")

    monkeypatch.setattr(studies, "gen_sparse_instance", no_draw)
    with pytest.raises(ValueError, match="test_n"):
        run_study("sparse", reps=1, seed=0, test_n=1)
    assert set(STUDIES) == {"sparse", "averaging", "weighted", "theorem31"}


@pytest.mark.parametrize(
    "names",
    [(), ("sparse", "weighted"), ("averaging", "weighted"), ("theorem31",),
     ("sparse", "theorem31"), ("dense",)],
)
def test_only_studies_of_one_design_share_a_pass(names):
    with pytest.raises(ValueError, match="one design"):
        run_design_studies(names, reps=1, seed=0)


def test_shared_pass_gives_each_study_its_own_run(sparse2, averaging2):
    shared_pass = run_design_studies(
        ("sparse", "averaging"), reps=2, seed=11, test_n=400
    )
    for shared, own in zip(shared_pass, (sparse2, averaging2)):
        assert shared.study == own.study
        assert shared.rows == own.rows
        assert json.dumps(shared.summary, sort_keys=True) == json.dumps(
            own.summary, sort_keys=True
        )


def test_sparse_rows_cover_every_method_and_size(sparse2):
    assert sparse2.study == "sparse"
    assert len(sparse2.rows) == len(SPARSE_METHODS) * len(SIZES)
    expected_order = [(m, s) for m in SPARSE_METHODS for s in SIZES]
    assert [(r[0], r[1]) for r in sparse2.rows] == expected_order
    for row in sparse2.rows:
        assert len(row) == len(METHOD_SIZE_HEADER)
        method, size, mse_mean, mse_se, stab, lo, hi, n_def = row
        assert 0 <= n_def <= 2
        if n_def == 0:
            assert mse_mean is None and mse_se is None and stab is None
        else:
            assert mse_mean > 0.0
        if stab is not None:
            assert lo <= stab <= hi


def test_sparse_summary_carries_verdicts(sparse2):
    s = sparse2.summary
    assert s["reps"] == 2 and s["seed"] == 11 and s["test_n"] == 400
    assert 0.0 <= s["proxy_props_below_top_signal_frac"] <= 1.0
    assert set(s["verdicts"]) == {
        "css_sparse_beats_ss_by_1se_sizes_2_8",
        "proxy_props_below_top_signal_in_80pct",
        "css_sparse_stability_ge_lasso",
    }
    assert all(isinstance(v, bool) for v in s["verdicts"].values())
    assert set(s["mean_stability_sizes_2_8"]) == set(SPARSE_METHODS)


def test_threads_do_not_change_study_outputs(sparse2):
    again = run_study("sparse", reps=2, seed=11, test_n=400, threads=2)
    assert again.rows == sparse2.rows
    assert json.dumps(again.summary, sort_keys=True) == json.dumps(
        sparse2.summary, sort_keys=True
    )


def test_averaging_and_weighted_verdict_keys(averaging2):
    assert set(averaging2.summary["verdicts"]) == {
        "css_simple_beats_sparse_by_1se_sizes_2_8",
        "css_weighted_beats_sparse_by_1se_sizes_2_8",
        "crl_beats_sparse_on_average_sizes_2_6",
    }
    wgt = run_study("weighted", reps=2, seed=7, test_n=300)
    assert set(wgt.summary["verdicts"]) == {
        "weighted_mse_le_simple_sizes_2_8",
        "weighted_beats_simple_by_1se_at_4_sizes",
        "stabilities_within_0_02",
    }
    methods = {r[0] for r in wgt.rows}
    assert methods == {"css-sparse", "css-simple", "css-weighted"}


def test_two_proxy_study_tallies_entry_pairs(theorem3):
    assert theorem3.rows == []
    assert theorem3.entrant_rows
    total = sum(r[2] for r in theorem3.entrant_rows)
    assert total == 3
    for first, second, count, freq in theorem3.entrant_rows:
        assert first in (0, 1, 2) and second in (0, 1, 2) and first != second
        assert freq == count / 3
    s = theorem3.summary
    assert s["band"][0] < s["beta_Z"] < s["band"][1]
    assert len(s["mean_feature_props"]) == 3
    assert len(s["mean_cluster_props"]) == 2
    assert set(s["verdicts"]) == {
        "proxy0_then_direct_in_band",
        "proxy_symmetry_within_3se",
        "either_proxy_then_direct_ge_0_80",
        "mean_proxy_props_le_0_62",
        "mean_direct_prop_ge_0_85",
        "proxy_cluster_ge_direct_in_95pct",
        "error_bound_holds",
    }
    bc = s["bound_check"]
    assert bc["tau"] == 0.8 and 0.0 <= bc["theta_pilot"] <= 1.0
    assert bc["vacuous"] == studies._bound_is_vacuous(bc["theta_pilot"], bc["tau"])


def test_bound_check_is_vacuous_from_theta_three_quarters_at_tau_0_8():
    """At tau = 0.8 a selected cluster adds theta/0.6 * 0.8 >= 1 to the right
    side once theta >= 0.75, so the check cannot fail."""
    assert studies._bound_is_vacuous(1.0, 0.8)
    assert not studies._bound_is_vacuous(0.5, 0.8)


def test_write_outputs_for_design_study(tmp_path, sparse2):
    out = tmp_path / "sparse"
    write_study_outputs(sparse2, out)
    with open(out / "report.csv", newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == list(METHOD_SIZE_HEADER)
    assert len(got) == 1 + len(sparse2.rows)
    with open(out / "summary.json") as fh:
        assert json.load(fh) == json.loads(
            json.dumps(sparse2.summary, sort_keys=True)
        )
    assert not (out / "entrants.csv").exists()


def test_write_outputs_for_two_proxy_study(tmp_path, theorem3):
    out = tmp_path / "t31"
    write_study_outputs(theorem3, out)
    with open(out / "report.csv", newline="") as fh:
        got = list(csv.reader(fh))
    assert got == [list(METHOD_SIZE_HEADER)]  # header only, no method rows
    with open(out / "entrants.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["first", "second", "count", "freq"]
    assert len(rows) == 1 + len(theorem3.entrant_rows)
    with open(out / "summary.json") as fh:
        assert json.load(fh)["study"] == "theorem31"


def test_hand_built_result_round_trips(tmp_path):
    res = StudyResult(
        study="sparse",
        rows=[("lasso", 1, 0.5, 0.1, None, None, None, 2)],
        summary={"study": "sparse", "reps": 2},
    )
    write_study_outputs(res, tmp_path / "r")
    with open(tmp_path / "r" / "report.csv", newline="") as fh:
        got = list(csv.reader(fh))
    assert got[1] == ["lasso", "1", "0.5", "0.1", "", "", "", "2"]


def test_design_study_holds_one_test_set_at_a_time(traced_peak):
    """Each replication's 10,000-row test set is drawn for its refits and
    freed before the next one is drawn: two replications of the shared
    sparse and averaging pass trace a peak of at most 1.5 test matrices
    (8 MB each).  run_study("sparse") is the same loop with one study."""
    test_x_bytes = 10000 * 100 * 8
    _, peak = traced_peak(
        lambda: run_design_studies(("sparse", "averaging"), 2, 5, test_n=10000)
    )
    assert peak <= 1.5 * test_x_bytes
