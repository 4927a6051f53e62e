"""File formats: CSV matrices with optional auto-detected headers, the
clusters JSON document, and the selection result files.

All errors name the offending file and, for CSV, the 1-based row number.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .core import ClusterPartition, CssResult
from .data import DataSet


class FileFormatError(ValueError):
    pass


def _parse_rows(path) -> list[list[float]]:
    with open(path, newline="") as fh:
        raw = [row for row in csv.reader(fh)]
    raw = [row for row in raw if row and any(cell.strip() for cell in row)]
    if not raw:
        raise FileFormatError(f"{path}: empty file")

    def floats_or_none(row):
        try:
            return [float(cell) for cell in row]
        except ValueError:
            return None

    has_header = floats_or_none(raw[0]) is None
    start = int(has_header)
    if has_header and len(raw) == 1:
        raise FileFormatError(f"{path}: header but no data rows")
    width = len(raw[start])
    values = []
    for i in range(start, len(raw)):
        row = raw[i]
        if len(row) != width:
            raise FileFormatError(
                f"{path}, row {i + 1}: expected {width} fields, got {len(row)}"
            )
        parsed = floats_or_none(row)
        if parsed is None:
            bad = next(c for c in row if floats_or_none([c]) is None)
            raise FileFormatError(f"{path}, row {i + 1}: non-numeric value {bad!r}")
        values.append(parsed)
    if has_header and len(raw[0]) != width:
        raise FileFormatError(
            f"{path}, row 1: header has {len(raw[0])} fields, data rows have {width}"
        )
    return values


def read_matrix_csv(path) -> np.ndarray:
    """Read a numeric CSV, skipping a single auto-detected header row."""
    return np.asarray(_parse_rows(path), dtype=float)


def read_vector_csv(path) -> np.ndarray:
    """Read a single-column numeric CSV."""
    arr = read_matrix_csv(path)
    if arr.shape[1] != 1:
        raise FileFormatError(f"{path}: expected one column, got {arr.shape[1]}")
    return arr[:, 0]


def load_dataset(x_path, y_path) -> DataSet:
    X = read_matrix_csv(x_path)
    y = read_vector_csv(y_path)
    if y.shape[0] != X.shape[0]:
        raise FileFormatError(
            f"{y_path}: {y.shape[0]} rows but {x_path} has {X.shape[0]}"
        )
    return DataSet(X=X, y=y)


def _is_index(j) -> bool:
    """A nonnegative JSON integer; true and false are not indexes, though
    Python's bool is an int."""
    return isinstance(j, int) and not isinstance(j, bool) and j >= 0


def read_clusters_json(path) -> tuple[list[list[int]], list[str] | None, list[int]]:
    """Read a clusters document: member lists, names, screened columns.

    Member indexes refer to the original data columns; screened columns are
    listed separately and must not appear in any cluster.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "clusters" not in doc:
        raise FileFormatError(f"{path}: expected an object with a 'clusters' key")
    clusters = doc["clusters"]
    if not isinstance(clusters, list) or not all(
        isinstance(c, list) and c and all(_is_index(j) for j in c) for c in clusters
    ):
        raise FileFormatError(
            f"{path}: 'clusters' must be a list of nonempty lists of indexes"
        )
    names = doc.get("names")
    if names is not None and (
        not isinstance(names, list)
        or len(names) != len(clusters)
        or not all(isinstance(s, str) for s in names)
    ):
        raise FileFormatError(f"{path}: 'names' must list one string per cluster")
    screened = doc.get("screened_columns", [])
    if not isinstance(screened, list) or not all(_is_index(j) for j in screened):
        raise FileFormatError(f"{path}: 'screened_columns' must list indexes")
    members = [j for c in clusters for j in c]
    if len(set(members)) != len(members):
        raise FileFormatError(f"{path}: clusters overlap")
    if set(members) & set(screened):
        raise FileFormatError(f"{path}: screened columns appear inside clusters")
    return clusters, names, list(screened)


def clusters_json_text(clusters, screened=()) -> str:
    """A clusters document with no names; read_clusters_json still reads
    names from a document that has them."""
    doc = {
        "clusters": [list(map(int, c)) for c in clusters],
        "names": None,
        "screened_columns": [int(j) for j in screened],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def remap_partition(
    clusters: list[list[int]], names, p: int, screened: list[int]
) -> tuple[ClusterPartition, list[int]]:
    """Translate original-index clusters to a partition over kept columns.

    Returns the partition in the reduced index space plus the kept original
    indexes in reduced order.  Clusters and screened columns together must
    cover every original column exactly once.
    """
    members = sorted(j for c in clusters for j in c)
    covered = set(members) | set(screened)
    if covered != set(range(p)):
        missing = sorted(set(range(p)) - covered)
        extra = sorted(covered - set(range(p)))
        detail = []
        if missing:
            detail.append(f"columns {missing} missing")
        if extra:
            detail.append(f"indexes {extra} out of range for p={p}")
        raise FileFormatError(
            "clusters plus screened columns must cover every data column: "
            + "; ".join(detail)
        )
    rank = {j: i for i, j in enumerate(members)}
    reduced = tuple(tuple(rank[j] for j in c) for c in clusters)
    partition = ClusterPartition(
        clusters=reduced, names=tuple(names) if names else None
    )
    return partition, members


def write_css_result(
    out_dir, result: CssResult, selection=None, column_ids=None
) -> None:
    """Write css_result.json and css_result.csv into out_dir.

    column_ids maps the run's reduced feature indexes back to original data
    columns when screening dropped some ("columns"); this is the one place
    that mapping is applied.  selection is an optional JSON-serializable
    block describing the thresholded or ranked choice; its "clusters" lists
    cluster indexes (None when no choice is defined), and their kept
    features, in column ids, are written beside them as "kept_features".
    The JSON holds result.to_json_dict() plus these two and nothing else.
    """
    os.makedirs(out_dir, exist_ok=True)
    ids = list(range(result.partition.p)) if column_ids is None else list(column_ids)
    if len(ids) != result.partition.p:
        raise ValueError("one column id per feature required")
    doc = result.to_json_dict()
    doc["columns"] = [int(j) for j in ids]
    doc["clusters"] = [[int(ids[j]) for j in c] for c in result.partition.clusters]
    doc["kept_features"] = [
        [int(ids[j]) for j in kept] for kept in doc["kept_features"]
    ]
    if selection is not None:
        chosen = selection["clusters"]
        kept = None if chosen is None else [doc["kept_features"][k] for k in chosen]
        selection = dict(selection, kept_features=kept)
    doc["selection"] = selection
    with open(os.path.join(out_dir, "css_result.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "css_result.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("feature", "cluster", "pi_hat", "theta_hat", "weight"))
        for feature, cluster, pi, theta, weight in result.csv_rows():
            writer.writerow((int(ids[feature]), cluster, pi, theta, weight))
