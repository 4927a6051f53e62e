"""CSV and JSON file formats: parsing, error messages, result files."""

import csv
import json

import numpy as np
import pytest

from cssel.core import ClusterPartition, summarize_records
from cssel.dataio import (
    FileFormatError,
    clusters_json_text,
    load_dataset,
    read_clusters_json,
    read_matrix_csv,
    read_vector_csv,
    remap_partition,
    write_css_result,
)


def write(path, text):
    path.write_text(text)
    return path


def test_matrix_csv_autodetects_single_header(tmp_path):
    p = write(tmp_path / "a.csv", "x0,x1\n1,2\n3,4\n")
    np.testing.assert_array_equal(read_matrix_csv(p), [[1.0, 2.0], [3.0, 4.0]])
    q = write(tmp_path / "b.csv", "1,2\n3,4\n")
    np.testing.assert_array_equal(read_matrix_csv(q), [[1.0, 2.0], [3.0, 4.0]])


def test_matrix_csv_skips_blank_lines_and_parses_floats(tmp_path):
    p = write(tmp_path / "a.csv", "x\n\n1.5\n\n-2e3\n , \n")
    np.testing.assert_array_equal(read_matrix_csv(p)[:, 0], [1.5, -2000.0])


def test_matrix_csv_errors_name_file_and_row(tmp_path):
    empty = write(tmp_path / "empty.csv", "\n\n")
    with pytest.raises(FileFormatError, match="empty.csv: empty file"):
        read_matrix_csv(empty)
    only_header = write(tmp_path / "h.csv", "x0,x1\n")
    with pytest.raises(FileFormatError, match="header but no data rows"):
        read_matrix_csv(only_header)
    ragged = write(tmp_path / "r.csv", "1,2\n3\n")
    with pytest.raises(FileFormatError, match=r"r\.csv, row 2: expected 2 fields"):
        read_matrix_csv(ragged)
    nonnum = write(tmp_path / "n.csv", "x0,x1\n1,2\n3,oops\n")
    with pytest.raises(FileFormatError, match=r"n\.csv, row 3: non-numeric value 'oops'"):
        read_matrix_csv(nonnum)
    badhead = write(tmp_path / "bh.csv", "x0,x1,x2\n1,2\n")
    with pytest.raises(FileFormatError, match="header has 3 fields, data rows have 2"):
        read_matrix_csv(badhead)


def test_vector_csv_requires_one_column(tmp_path):
    p = write(tmp_path / "y.csv", "y\n1\n2\n")
    np.testing.assert_array_equal(read_vector_csv(p), [1.0, 2.0])
    wide = write(tmp_path / "w.csv", "1,2\n")
    with pytest.raises(FileFormatError, match="expected one column"):
        read_vector_csv(wide)


def test_load_dataset_checks_row_counts(tmp_path):
    x = write(tmp_path / "x.csv", "a,b\n1,2\n3,4\n5,6\n")
    y = write(tmp_path / "y.csv", "y\n1\n2\n3\n")
    data = load_dataset(x, y)
    assert data.n == 3 and data.p == 2
    short = write(tmp_path / "y2.csv", "y\n1\n2\n")
    with pytest.raises(FileFormatError, match="2 rows but .* has 3"):
        load_dataset(x, short)


def test_clusters_json_round_trip(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(clusters_json_text([[0, 2], [1]], screened=[3]))
    assert read_clusters_json(p) == ([[0, 2], [1]], None, [3])
    # names are written by users, not by the package, and are read back
    named = write(
        tmp_path / "n.json", '{"clusters": [[0, 2], [1]], "names": ["ab", "c"]}'
    )
    assert read_clusters_json(named) == ([[0, 2], [1]], ["ab", "c"], [])


def test_clusters_json_rejects_malformed_documents(tmp_path):
    def doc(text):
        return write(tmp_path / "bad.json", text)

    with pytest.raises(FileFormatError, match="invalid JSON"):
        read_clusters_json(doc("{"))
    with pytest.raises(FileFormatError, match="'clusters' key"):
        read_clusters_json(doc('{"groups": []}'))
    with pytest.raises(FileFormatError, match="nonempty lists of indexes"):
        read_clusters_json(doc('{"clusters": [[0], []]}'))
    with pytest.raises(FileFormatError, match="nonempty lists of indexes"):
        read_clusters_json(doc('{"clusters": [[0.5]]}'))
    # a JSON boolean is a Python int, but not an index
    with pytest.raises(FileFormatError, match="nonempty lists of indexes"):
        read_clusters_json(doc('{"clusters": [[0, true], [2]]}'))
    with pytest.raises(FileFormatError, match="'screened_columns' must list indexes"):
        read_clusters_json(doc('{"clusters": [[0]], "screened_columns": [false]}'))
    with pytest.raises(FileFormatError, match="one string per cluster"):
        read_clusters_json(doc('{"clusters": [[0]], "names": []}'))
    with pytest.raises(FileFormatError, match="clusters overlap"):
        read_clusters_json(doc('{"clusters": [[0, 1], [1]]}'))
    with pytest.raises(FileFormatError, match="screened columns appear inside"):
        read_clusters_json(
            doc('{"clusters": [[0, 1]], "screened_columns": [1]}')
        )


def test_remap_partition_translates_to_reduced_indexes():
    part, kept = remap_partition(
        [[0, 4], [2]], names=None, p=5, screened=[1, 3]
    )
    assert kept == [0, 2, 4]
    # original column 4 becomes reduced index 2, column 2 becomes 1
    assert part.clusters == ((0, 2), (1,))
    with pytest.raises(FileFormatError, match=r"columns \[3\] missing"):
        remap_partition([[0, 4], [2]], None, p=5, screened=[1])
    with pytest.raises(FileFormatError, match=r"out of range for p=3"):
        remap_partition([[0, 4], [2]], None, p=3, screened=[1])


def test_css_result_files_translate_reduced_indexes(tmp_path):
    # run indexes 0..2 stand for original columns 0, 2, 4
    part = ClusterPartition(clusters=((0, 1), (2,)))
    # one pair: half A selects features 0 and 2, half Ac feature 0
    S = np.array([[True, False, True], [True, False, False]])
    res = summarize_records(part, S, "sparse", lambdas=(0.2,), seed=3)
    out = tmp_path / "run"
    selection = {"mode": "tau", "tau": 0.5, "clusters": [0, 1]}
    write_css_result(out, res, selection=selection, column_ids=[0, 2, 4])
    with open(out / "css_result.json") as fh:
        doc = json.load(fh)
    assert doc["columns"] == [0, 2, 4]
    assert doc["clusters"] == [[0, 2], [4]]
    assert doc["kept_features"] == [[0], [4]]
    # the selection's clusters keep their nonzero-weight members, in column ids
    assert doc["selection"] == dict(selection, kept_features=[[0], [4]])
    assert doc["base"] == "fixed-lambda-set"
    assert doc["feature_props"] == [1.0, 0.0, 0.5]
    with open(out / "css_result.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["feature", "cluster", "pi_hat", "theta_hat", "weight"]
    assert [r[0] for r in rows[1:]] == ["0", "2", "4"]
    with pytest.raises(ValueError, match="one column id per feature"):
        write_css_result(out, res, column_ids=[0, 2])


def test_css_result_files_default_to_identity_columns(tmp_path):
    part = ClusterPartition.singletons(2)
    # one pair, both halves select feature 1
    S = np.array([[False, True], [False, True]])
    res = summarize_records(part, S, "simple", lambdas=(0.2,), seed=0)
    write_css_result(tmp_path / "d", res)
    with open(tmp_path / "d" / "css_result.json") as fh:
        doc = json.load(fh)
    assert doc["columns"] == [0, 1]
    assert doc["selection"] is None
