"""The `css` command line tool: subcommands, exit codes, output files."""

import csv
import hashlib
import json

import numpy as np
import pytest

from cssel import cli, core, lasso
from cssel.cli import EXIT_INVALID, EXIT_OK, EXIT_SOLVER, build_parser, main
from cssel.dataio import load_dataset
from cssel.lasso import ConvergenceFailure, lambda_max
from cssel.oracle import (
    ideal_risk,
    min_weighted_risk,
    proxy_noise_variance,
    vote_splitting_interval,
)
from cssel.simgen import gen_sparse_instance, instance_to_csv


def write_xy(tmp_path, seed=0, n=40, p=4, header=True):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = 2.0 * X[:, 0] + 0.5 * rng.standard_normal(n)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    with open(xp, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow([f"x{j}" for j in range(p)])
        w.writerows(X.tolist())
    with open(yp, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(["y"])
        w.writerows([[v] for v in y.tolist()])
    return xp, yp, X, y


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_parser_requires_subcommand_and_flags():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--x", "x.csv"])  # missing --y/--out
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["run", "--x", "a", "--y", "b", "--out", "o", "--tau", "0.5", "--top", "2"]
        )


def test_run_writes_result_files(tmp_path, monkeypatch):
    monkeypatch.delenv("CSS_SEED", raising=False)
    xp, yp, _, _ = write_xy(tmp_path)
    out = tmp_path / "out"
    code = run_cli(
        "run", "--x", xp, "--y", yp, "--out", out,
        "--lambda", "0.25", "--B", "4", "--tau", "0.5",
    )
    assert code == EXIT_OK
    with open(out / "css_result.json") as fh:
        doc = json.load(fh)
    assert doc["B"] == 4 and doc["seed"] == 0 and doc["scheme"] == "weighted"
    assert doc["columns"] == [0, 1, 2, 3]
    assert doc["selection"]["mode"] == "tau"
    assert 0 in [c[0] for c in doc["clusters"] if c]  # singleton layout
    with open(out / "css_result.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["feature", "cluster", "pi_hat", "theta_hat", "weight"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]


def test_run_top_selection_block(tmp_path):
    xp, yp, _, _ = write_xy(tmp_path, seed=1)
    out = tmp_path / "out"
    code = run_cli(
        "run", "--x", xp, "--y", yp, "--out", out,
        "--lambda", "0.25", "--B", "4", "--top", "1", "--seed", "3",
    )
    assert code == EXIT_OK
    with open(out / "css_result.json") as fh:
        doc = json.load(fh)
    sel = doc["selection"]
    assert sel["mode"] == "top" and sel["s"] == 1
    assert sel["defined"] is True
    assert sel["clusters"] == [0]  # the real signal wins


def test_run_auto_cluster_merges_near_duplicates(tmp_path):
    rng = np.random.default_rng(2)
    n = 60
    z = rng.standard_normal(n)
    X = np.column_stack(
        [z + 0.05 * rng.standard_normal(n), z + 0.05 * rng.standard_normal(n),
         rng.standard_normal(n)]
    )
    y = z + 0.3 * rng.standard_normal(n)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(xp, X, delimiter=",")
    np.savetxt(yp, y[:, None], delimiter=",")
    out = tmp_path / "out"
    code = run_cli(
        "run", "--x", xp, "--y", yp, "--out", out,
        "--auto-cluster", "--cutoff", "0.3", "--lambda", "0.2", "--B", "4",
        "--seed", "0",
    )
    assert code == EXIT_OK
    with open(out / "css_result.json") as fh:
        doc = json.load(fh)
    assert [0, 1] in doc["clusters"]


def test_run_with_clusters_file_reports_original_indexes(tmp_path):
    xp, yp, _, _ = write_xy(tmp_path, seed=3, p=4)
    cj = tmp_path / "clusters.json"
    cj.write_text(
        json.dumps({"clusters": [[0, 1], [3]], "screened_columns": [2]})
    )
    out = tmp_path / "out"
    code = run_cli(
        "run", "--x", xp, "--y", yp, "--out", out, "--clusters", cj,
        "--lambda", "0.25", "--B", "4", "--seed", "0",
    )
    assert code == EXIT_OK
    with open(out / "css_result.json") as fh:
        doc = json.load(fh)
    assert doc["columns"] == [0, 1, 3]  # screened column 2 dropped
    assert doc["clusters"] == [[0, 1], [3]]
    with open(out / "css_result.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["0", "1", "3"]


def test_run_rejects_boolean_indexes_in_a_clusters_file(tmp_path, capsys):
    """Regression: a JSON true read as column 1 and the run exited 0."""
    xp, yp, _, _ = write_xy(tmp_path, seed=3, p=5)
    cj = tmp_path / "clusters.json"
    cj.write_text(json.dumps({"clusters": [[0, True], [2, 3, 4]]}))
    code = run_cli(
        "run", "--x", xp, "--y", yp, "--out", tmp_path / "out", "--clusters", cj,
        "--lambda", "0.25", "--B", "2",
    )
    assert code == EXIT_INVALID
    assert "indexes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_2_on_invalid_input(tmp_path, capsys):
    missing = run_cli(
        "run", "--x", tmp_path / "nope.csv", "--y", tmp_path / "nope2.csv",
        "--out", tmp_path / "o",
    )
    assert missing == EXIT_INVALID
    bad = tmp_path / "bad.csv"
    bad.write_text("x\n1\noops\n")
    yp = tmp_path / "y.csv"
    yp.write_text("y\n1\n2\n")
    assert run_cli("run", "--x", bad, "--y", yp, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "non-numeric value" in err
    xp, yp, _, _ = write_xy(tmp_path, seed=4)
    assert (
        run_cli(
            "run", "--x", xp, "--y", yp, "--out", tmp_path / "o",
            "--lambda", "0.2", "--B", "2", "--tau", "1.5",
        )
        == EXIT_INVALID
    )


def test_threads_below_one_exit_2(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started with --threads below 1")

    monkeypatch.setattr(cli, "load_dataset", no_work)
    monkeypatch.setattr(cli, "run_study", no_work)
    xp, yp, _, _ = write_xy(tmp_path, seed=4)
    for threads in ("0", "-2"):
        code = run_cli(
            "run", "--x", xp, "--y", yp, "--out", tmp_path / "o",
            "--lambda", "0.2", "--B", "2", "--threads", threads,
        )
        assert code == EXIT_INVALID
        assert "threads must be at least 1" in capsys.readouterr().err
    code = run_cli(
        "simulate", "--study", "theorem31", "--reps", "1", "--threads", "-1",
        "--out", tmp_path / "sim",
    )
    assert code == EXIT_INVALID
    assert "threads must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        ("--lambda", "-1"),
        ("--lambda", "nan"),
        ("--lambda", "inf"),
        ("--lambda", "0.2", "--lambda", "nan"),
        ("--auto-cluster", "--cutoff", "nan"),
    ],
    ids=["negative", "nan", "inf", "nan-after-a-good-one", "nan-cutoff"],
)
def test_bad_penalties_and_cutoffs_exit_2_before_any_half(tmp_path, monkeypatch, extra):
    def no_half(*args):
        raise AssertionError("a half sample was cut")

    monkeypatch.setattr(core, "restrict", no_half)
    xp, yp, _, _ = write_xy(tmp_path, n=30, p=5)
    out = tmp_path / "o"
    code = run_cli(
        "run", "--x", xp, "--y", yp, "--out", out, "--B", "3", "--tau", "0.6", *extra
    )
    assert code == EXIT_INVALID
    assert not (out / "css_result.json").exists()


def test_cluster_rejects_a_nan_cutoff(tmp_path, capsys):
    xp, _, _, _ = write_xy(tmp_path, n=30, p=5)
    out = tmp_path / "clusters.json"
    assert run_cli("cluster", "--x", xp, "--cutoff", "nan", "--out", out) == EXIT_INVALID
    assert "cutoff must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_tau_and_top_are_checked_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run_css called with an invalid --tau or --top")

    monkeypatch.setattr(cli, "run_css", no_run)
    xp, yp, _, _ = write_xy(tmp_path, seed=4, p=4)
    cj = tmp_path / "clusters.json"
    cj.write_text(json.dumps({"clusters": [[0, 1], [3]], "screened_columns": [2]}))
    for extra, message in (
        (("--tau", "0"), "tau must lie in (0, 1]"),
        (("--tau", "1.5"), "tau must lie in (0, 1]"),
        (("--top", "0"), "s must lie in 1..4"),
        (("--top", "1000"), "s must lie in 1..4"),
        (("--top", "3", "--clusters", cj), "s must lie in 1..2"),  # K, not p
    ):
        code = run_cli(
            "run", "--x", xp, "--y", yp, "--out", tmp_path / "o", "--B", "2", *extra
        )
        assert code == EXIT_INVALID
        assert message in capsys.readouterr().err


def test_exit_code_3_on_solver_failure(tmp_path, capsys, monkeypatch):
    xp, yp, _, _ = write_xy(tmp_path, seed=5)

    def failed_certificate(*args):
        raise ConvergenceFailure(1.0, None)

    monkeypatch.setattr(lasso, "kkt_residual", failed_certificate)
    code = run_cli(
        "run", "--x", xp, "--y", yp, "--out", tmp_path / "o",
        "--lambda", "0.2", "--B", "2", "--seed", "0",
    )
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "solver failure" in err and "pair 0" in err


def test_run_on_duplicated_columns_at_a_small_lambda_exits_ok(tmp_path):
    """The quick-start data with columns 0-19 appended as copies: at
    lambda 1e-4 (about 1e-3 lambda_max) a copy of a feature that drops on a
    half sample no longer enters at the drop with the wrong sign."""
    data = gen_sparse_instance(0, 0).data
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(xp, np.hstack([data.X, data.X[:, :20]]), delimiter=",", fmt="%.17g")
    np.savetxt(yp, data.y[:, None], delimiter=",", fmt="%.17g")
    code = run_cli(
        "run", "--x", xp, "--y", yp, "--auto-cluster", "--B", "50", "--seed", "0",
        "--tau", "0.6", "--lambda", "1e-4", "--out", tmp_path / "out",
    )
    assert code == EXIT_OK


def test_run_on_wide_data_exits_ok(tmp_path, monkeypatch):
    """60x100 (p > n): a fixed lambda below the point where the half-sample
    paths reach 30 active features used to exit 3, and the CV default ran
    for minutes.  Both finish, and no half selects more than its 30 rows."""
    data = gen_sparse_instance(0, 0).data
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(xp, data.X[:60], delimiter=",")
    np.savetxt(yp, data.y[:60], delimiter=",")
    lam = 1e-3 * lambda_max(load_dataset(xp, yp))
    selections = []
    run_base = core.run_base_selections

    def recorded(*args, **kwargs):
        selections.append(run_base(*args, **kwargs))
        return selections[-1]

    monkeypatch.setattr(core, "run_base_selections", recorded)
    for extra in (("--lambda", lam), ()):
        assert run_cli(
            "run", "--x", xp, "--y", yp, "--out", tmp_path / "o",
            "--B", "5", "--seed", "0", "--tau", "0.6", *extra,
        ) == EXIT_OK
    assert len(selections) == 2
    assert all(S.sum(axis=1).max() <= 30 for S in selections)


# sha256 of (css_result.json, css_result.csv) for each mode below
RUN_DIGESTS = {
    "tau": (
        "cb32e25804505ac63ddc58edd0472df7290e5dcac921100b85c252fd5bc9f7ec",
        "dfd90bc451453756224df19853bf3c6f253b6ad6718c418ba34cac0de90764ed",
    ),
    "top": (
        "90d3d78ddb7dbbe35114b9c13d1f6cd6ed409d82a4194ea5c462fa0f5aa13c8e",
        "9d9b42d3c3e951f49671d8163da3a9c0c574bff656f828cc4e3c29e09b1604dd",
    ),
}


def test_run_output_bytes_are_pinned(tmp_path):
    """The quick-start input at a fixed --lambda, in --tau mode with
    --auto-cluster and in --top mode with a clusters file that screens
    column 5, writes result files of pinned bytes; each selected cluster
    keeps its nonzero-weight members, in original column ids."""
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    instance_to_csv(gen_sparse_instance(0, 0), xp, yp)
    cj = tmp_path / "clusters.json"
    proxies = [j for j in range(10) if j != 5]
    cj.write_text(json.dumps(
        {"clusters": [proxies] + [[j] for j in range(10, 100)],
         "screened_columns": [5]}
    ))
    modes = {
        "tau": ["--auto-cluster", "--cutoff", "0.5", "--tau", "0.6"],
        "top": ["--clusters", cj, "--top", "3"],
    }
    for mode, extra in modes.items():
        out = tmp_path / mode
        assert run_cli(
            "run", "--x", xp, "--y", yp, "--out", out, "--scheme", "weighted",
            "--lambda", "0.05", "--B", "50", "--seed", "0", *extra,
        ) == EXIT_OK
        json_bytes = (out / "css_result.json").read_bytes()
        csv_bytes = (out / "css_result.csv").read_bytes()
        assert (
            hashlib.sha256(json_bytes).hexdigest(),
            hashlib.sha256(csv_bytes).hexdigest(),
        ) == RUN_DIGESTS[mode]

        sel = json.loads(json_bytes)["selection"]
        assert sel["mode"] == mode and sel["clusters"]
        rows = list(csv.reader(csv_bytes.decode().splitlines()))[1:]
        nonzero = [
            [int(f) for f, k, _, _, w in rows if int(k) == c and float(w) != 0.0]
            for c in sel["clusters"]
        ]
        assert sel["kept_features"] == nonzero
    assert 5 not in sum(sel["kept_features"], [])
    assert max(sum(sel["kept_features"], [])) > 5  # ids past the screened one


def test_css_seed_env_var_sets_the_default(tmp_path, monkeypatch):
    xp, yp, _, _ = write_xy(tmp_path, seed=6)
    out_env, out_flag = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("CSS_SEED", "7")
    assert run_cli(
        "run", "--x", xp, "--y", yp, "--out", out_env,
        "--lambda", "0.25", "--B", "4",
    ) == EXIT_OK
    monkeypatch.delenv("CSS_SEED")
    assert run_cli(
        "run", "--x", xp, "--y", yp, "--out", out_flag,
        "--lambda", "0.25", "--B", "4", "--seed", "7",
    ) == EXIT_OK
    env_bytes = (out_env / "css_result.json").read_bytes()
    assert env_bytes == (out_flag / "css_result.json").read_bytes()
    assert json.loads(env_bytes)["seed"] == 7
    monkeypatch.setenv("CSS_SEED", "many")
    assert run_cli(
        "run", "--x", xp, "--y", yp, "--out", tmp_path / "o",
        "--lambda", "0.25", "--B", "2",
    ) == EXIT_INVALID


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seeds_outside_64_bits_exit_2(tmp_path, monkeypatch, capsys, seed):
    """-1 would wrap to 2^64 - 1 and 2^64 to 0: each is refused instead,
    from --seed or CSS_SEED, before any output is written."""
    xp, yp, _, _ = write_xy(tmp_path, seed=6)
    run = ("run", "--x", xp, "--y", yp, "--lambda", "0.25", "--B", "2")
    assert run_cli(*run, "--out", tmp_path / "flag", "--seed", seed) == EXIT_INVALID
    assert f"seed {seed} outside [0, 2^64)" in capsys.readouterr().err
    assert run_cli(
        "simulate", "--study", "theorem31", "--reps", "1", "--seed", seed,
        "--out", tmp_path / "sim",
    ) == EXIT_INVALID
    monkeypatch.setenv("CSS_SEED", str(seed))
    assert run_cli(*run, "--out", tmp_path / "env") == EXIT_INVALID
    assert not any(tmp_path.glob("*/css_result.json"))
    assert not (tmp_path / "sim").exists()
    monkeypatch.setenv("CSS_SEED", str((1 << 64) - 1))
    assert run_cli(*run, "--out", tmp_path / "top") == EXIT_OK


def test_threads_leave_outputs_byte_identical(tmp_path):
    xp, yp, _, _ = write_xy(tmp_path, seed=8, n=50, p=5)
    one, four = tmp_path / "one", tmp_path / "four"
    for out, threads in ((one, "1"), (four, "4")):
        assert run_cli(
            "run", "--x", xp, "--y", yp, "--out", out,
            "--B", "6", "--seed", "2", "--threads", threads,
        ) == EXIT_OK
    assert (one / "css_result.json").read_bytes() == (
        four / "css_result.json"
    ).read_bytes()
    assert (one / "css_result.csv").read_bytes() == (
        four / "css_result.csv"
    ).read_bytes()


def test_cluster_output_feeds_back_into_run(tmp_path):
    rng = np.random.default_rng(9)
    n = 80
    z = rng.standard_normal(n)
    X = np.column_stack(
        [z + 0.1 * rng.standard_normal(n), z + 0.1 * rng.standard_normal(n),
         rng.standard_normal(n), rng.standard_normal(n)]
    )
    y = z + 0.3 * rng.standard_normal(n)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(xp, X, delimiter=",")
    np.savetxt(yp, y[:, None], delimiter=",")
    cj = tmp_path / "clusters.json"
    assert run_cli("cluster", "--x", xp, "--cutoff", "0.4", "--out", cj) == EXIT_OK
    with open(cj) as fh:
        doc = json.load(fh)
    assert [0, 1] in doc["clusters"]
    out = tmp_path / "out"
    assert run_cli(
        "run", "--x", xp, "--y", yp, "--out", out, "--clusters", cj,
        "--lambda", "0.2", "--B", "4", "--seed", "0",
    ) == EXIT_OK


def test_cluster_stdout_and_binary_screen(tmp_path, capsys):
    M = np.zeros((60, 3))
    M[:30, 0] = 1.0
    M[:30, 1] = 1.0  # duplicate of column 0
    M[0, 2] = 1.0  # frequency 1/60, screened at 5%
    xp = tmp_path / "m.csv"
    np.savetxt(xp, M, delimiter=",", fmt="%d")
    assert run_cli(
        "cluster", "--x", xp, "--binary", "--maf", "0.05", "--cutoff", "0.5"
    ) == EXIT_OK
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert doc["clusters"] == [[0, 1]]
    assert doc["screened_columns"] == [2]
    cj = tmp_path / "clusters.json"
    assert run_cli(
        "cluster", "--x", xp, "--binary", "--maf", "0.05", "--cutoff", "0.5",
        "--out", cj,
    ) == EXIT_OK
    assert capsys.readouterr().out == "" and cj.read_text() == text
    assert run_cli("cluster", "--x", xp, "--maf", "0.05") == EXIT_INVALID
    err = capsys.readouterr().err
    assert "--maf requires --binary" in err
    # without the screen, the rare column is constant after centering check
    const = tmp_path / "c.csv"
    np.savetxt(const, np.column_stack([M[:, 0], np.full(60, 2.0)]), delimiter=",")
    assert run_cli("cluster", "--x", const) == EXIT_INVALID
    assert "constant column" in capsys.readouterr().err


def test_oracle_prints_closed_forms(tmp_path, capsys):
    assert run_cli(
        "oracle", "--n", "5000", "--beta-z", "2.0",
        "--sigma-zeta-sq", "0.1,0.2", "--betas", "1.0",
    ) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["proxy_noise_variance"] == proxy_noise_variance(5000)
    assert doc["vote_splitting_interval"] == list(vote_splitting_interval(5000, 1.0))
    from cssel.oracle import ProxyModelParams

    params = ProxyModelParams(
        n=5000, q=2, p=3, beta_Z=2.0, betas=(1.0,),
        sigma_zeta_sq=(0.1, 0.2), sigma_eps_sq=1.0,
    )
    assert doc["ideal_risk"] == ideal_risk(params)
    assert doc["min_weighted_risk"] == min_weighted_risk(params)
    assert len(doc["single_feature_risks"]) == 3
    assert run_cli("oracle", "--n", "1") == EXIT_INVALID


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag", ["--sigma-eps-sq", "--c2", "--beta-z", "--sigma-zeta-sq", "--betas"]
)
def test_oracle_rejects_non_finite_inputs(capsys, flag, bad):
    args = {"--beta-z": "2.0", "--sigma-zeta-sq": "0.1,0.2", "--betas": "1.0"}
    args[flag] = bad if flag != "--sigma-zeta-sq" else f"0.1,{bad}"
    flat = [token for pair in args.items() for token in pair]
    assert run_cli("oracle", "--n", "5000", *flat) == EXIT_INVALID
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flags, missing",
    [
        (["--beta-z", "1.5"], "--sigma-zeta-sq"),
        (["--sigma-zeta-sq", "0.1"], "--beta-z"),
        (["--betas", "1,2"], "--beta-z and --sigma-zeta-sq"),
    ],
    ids=["beta-z-alone", "sigma-zeta-sq-alone", "betas-alone"],
)
def test_oracle_risk_flags_without_beta_z_and_sigma_zeta_sq_exit_2(
    capsys, flags, missing
):
    """Any flag of the risk block without both of its required flags is an
    error that names the missing one, not a silently dropped block."""
    assert run_cli("oracle", "--n", "5000", *flags) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and f"needs {missing}" in err


# sha256 of each output file of `css simulate --reps 2 --seed 0 --test-n 200`
STUDY_DIGESTS = {
    "sparse": {
        "report.csv": "aeffcf1a2faa0e77f9d6438274e41e9413c11aab49433c7fe8a6d1aec0f7c8d1",
        "summary.json": "ee96e9e79749e4516922b428ef3810930d9931ed32032b78cacfb0337ee4cf12",
    },
    "averaging": {
        "report.csv": "042093c981e937360161f04757c490e55f6088296846aad9f2c172d2f6f865a9",
        "summary.json": "88d9c65b5896c2b556f7e30f559098a064f99ae725920324851cca8ab652b5d2",
    },
    "weighted": {
        "report.csv": "6a4fece623308f29983e904a09f2a65f806da19061dcc017eae86ae2e64dfb7d",
        "summary.json": "833758f08a5beccddb625ccc6a9532a699266fe574e8f6530569394da91d7a69",
    },
    "theorem31": {
        "entrants.csv": "3fb6daca1f65e131ae988790fd7e96fb459cb4a159b09d9f03eae7a47ea74e17",
        "report.csv": "a640752416fac936890049d6dce8d544f8240394f593b999c30995710f6acb99",
        "summary.json": "6dc6b8171e045bfae58f63bec1961c2b3e37a50a9352b89e7bc42c163ccdbcf5",
    },
}


@pytest.mark.parametrize("study", sorted(STUDY_DIGESTS))
def test_study_output_bytes_are_pinned(tmp_path, study):
    """Every file a two-replication study writes has pinned bytes, so a
    change to a generator, a solver or a report format shows here."""
    out = tmp_path / study
    assert run_cli(
        "simulate", "--study", study, "--reps", "2", "--seed", "0",
        "--test-n", "200", "--out", out,
    ) == EXIT_OK
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()
    }
    assert digests == STUDY_DIGESTS[study]


def test_simulate_writes_study_reports(tmp_path, capsys):
    out = tmp_path / "sparse"
    assert run_cli(
        "simulate", "--study", "sparse", "--reps", "1", "--seed", "5",
        "--test-n", "200", "--out", out,
    ) == EXIT_OK
    assert (out / "report.csv").exists() and (out / "summary.json").exists()
    assert "rep 1/1 done" in capsys.readouterr().err
    t31 = tmp_path / "t31"
    assert run_cli(
        "simulate", "--study", "theorem31", "--reps", "2", "--seed", "5",
        "--out", t31,
    ) == EXIT_OK
    assert (t31 / "entrants.csv").exists()
    with open(t31 / "summary.json") as fh:
        assert json.load(fh)["reps"] == 2
