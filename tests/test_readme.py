"""The README's "Python API" code blocks run as written, so the documented
API cannot drift from the code."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_blocks() -> list[str]:
    section = README.read_text().split("\n## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_readme_python_api_blocks_run(tmp_path, monkeypatch):
    blocks = python_api_blocks()
    assert len(blocks) == 3
    # the small headed x.csv (5 columns, as the blocks' partition needs) and
    # y.csv that the first block reads from the working directory
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 5))
    y = X[:, 0] + X[:, 1] + 0.5 * rng.standard_normal(60)
    header = ",".join(f"x{j}" for j in range(5))
    np.savetxt(tmp_path / "x.csv", X, delimiter=",", header=header, comments="")
    np.savetxt(tmp_path / "y.csv", y, delimiter=",", header="y", comments="")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["res"].feature_props.shape == (5,)
    assert namespace["S"].shape == (100, 5)
    assert namespace["res2"].to_json_dict()["base"] == "first-k-path"
