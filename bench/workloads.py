"""The three workloads: how each makes an operation's inputs, runs it and
checks its output.

Every operation gets fresh inputs derived from the workload seed and the
operation's index, so no two operations of a run solve the same problem.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from cssel import cli, simgen, studies

from checks import check_css_result, check_sparse, check_two_proxy, lasso_size1_mse


class OperationFailed(RuntimeError):
    pass


def study_seed(seed: int, index: int) -> int:
    return seed * (1 << 20) + index


class RunCsv:
    """The README quick-start `css run` on a 200x100 sparse-design CSV."""

    name = "run-csv"
    B = 50
    TAU = 0.6

    def __init__(self, work: Path):
        self.work = work

    def make_input(self, seed: int, index: int) -> dict:
        inp = {
            "seed": seed,
            "x": self.work / f"x{index}.csv",
            "y": self.work / f"y{index}.csv",
            "out": self.work / f"out{index}",
        }
        simgen.instance_to_csv(
            simgen.gen_sparse_instance(seed, index), inp["x"], inp["y"]
        )
        return inp

    def argv(self, inp: dict) -> list[str]:
        return [
            "run", "--x", str(inp["x"]), "--y", str(inp["y"]),
            "--auto-cluster", "--cutoff", "0.5", "--scheme", "weighted",
            "--tau", str(self.TAU), "--B", str(self.B), "--seed", str(inp["seed"]),
            "--threads", "1", "--out", str(inp["out"]),
        ]

    def run(self, inp: dict) -> dict:
        code = cli.main(self.argv(inp))
        if code != cli.EXIT_OK:
            raise OperationFailed(f"css run exited with code {code}")
        with open(inp["out"] / "css_result.json") as fh:
            return json.load(fh)

    def check(self, inp: dict, doc: dict) -> None:
        check_css_result(doc, self.B, self.TAU)

    def cleanup(self, inp: dict) -> None:
        inp["x"].unlink(missing_ok=True)
        inp["y"].unlink(missing_ok=True)
        shutil.rmtree(inp["out"], ignore_errors=True)


class StudyTwoProxy:
    """`theorem31` replications: n=5000, p=3, first-k-path base, B=50."""

    name = "study-two-proxy"
    REPS = 2

    def __init__(self, work: Path):
        self.work = work

    def make_input(self, seed: int, index: int) -> int:
        return study_seed(seed, index)

    def run(self, seed: int):
        return studies.run_study("theorem31", reps=self.REPS, seed=seed, threads=1)

    def check(self, seed: int, result) -> None:
        check_two_proxy(result.summary, result.entrant_rows, self.REPS)

    def cleanup(self, seed: int) -> None:
        pass


class StudySparse:
    """`sparse` design study replications, B=50, test_n=10000."""

    name = "study-sparse"
    REPS = 2  # the fewest for which stability intervals are defined
    TEST_N = 10000

    def __init__(self, work: Path):
        self.work = work

    def make_input(self, seed: int, index: int) -> int:
        return study_seed(seed, index)

    def run(self, seed: int):
        return studies.run_study(
            "sparse", reps=self.REPS, seed=seed, test_n=self.TEST_N, threads=1
        )

    def check(self, seed: int, result) -> None:
        # Made one at a time, so the check holds less memory than the
        # operation and peak_rss_mb stays the program's.
        instances = (simgen.gen_sparse_instance(seed, r) for r in range(self.REPS))
        tests = (
            simgen.gen_sparse_instance(
                seed, simgen.EVAL_STREAM_OFFSET + r, n=self.TEST_N
            )
            for r in range(self.REPS)
        )
        check_sparse(result.rows, self.REPS, lasso_size1_mse(instances, tests))

    def cleanup(self, seed: int) -> None:
        pass


WORKLOADS = {w.name: w for w in (RunCsv, StudyTwoProxy, StudySparse)}
