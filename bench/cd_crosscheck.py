"""Cross-check one run-csv operation against coordinate descent.

    python3 bench/cd_crosscheck.py --seed 0 --index 3

Runs the run-csv operation on input (seed, index), then solves every half
sample of its plan at the result's lambda with `fit_lasso_at`, the
coordinate-descent route that shares no code with the homotopy path,
confirms each solution with the benchmark's own KKT check, and requires the
selection proportions to equal the result's.  Exits 1 on a mismatch.  This
check is not part of the timed workload: it takes about 30 s per operation
and the homotopy path fails it on some inputs (see bench/README.md).
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cssel.dataio import load_dataset  # noqa: E402
from cssel.lasso import fit_lasso_at  # noqa: E402
from cssel.subsampling import draw_complementary_pairs, restrict  # noqa: E402

from checks import CheckFailed, check_cd_supports  # noqa: E402
from workloads import RunCsv  # noqa: E402


def cd_solutions(data, doc: dict, B: int, seed: int):
    """(X_half, y_half, coefficients) per half sample, in plan order."""
    lam = float(doc["lambdas"][0])
    out = []
    for pair in draw_complementary_pairs(data.n, B, seed).pairs:
        for rows in pair:
            half = restrict(data, rows)
            out.append((half.X, half.y, fit_lasso_at(half, lam).coefficients))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    args = parser.parse_args(argv)
    work = ROOT / "bench" / "_work" / f"cd-{args.seed}-{args.index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = RunCsv(work)
        inp = workload.make_input(args.seed, args.index)
        doc = workload.run(inp)
        data = load_dataset(inp["x"], inp["y"])
        solutions = cd_solutions(data, doc, workload.B, args.seed)
        check_cd_supports(doc, solutions, workload.B)
    except CheckFailed as exc:
        print(f"cd cross-check failed: {exc}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("cd cross-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
