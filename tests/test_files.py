"""The file layer's column helpers: the CSV writer's row getter and the JSON record-fault finder."""

import csv

import pytest

from cascadekit import files


@pytest.mark.parametrize("columns", [("name",), ("name", "size")])
def test_write_csv_writes_one_cell_per_column_even_for_one_column(tmp_path, columns):
    rows = [{"name": "ab", "size": 2, "other": 9}, {"name": None, "size": 1.5}, {"name": ("x", "y"), "size": 0}]
    path = tmp_path / "table.csv"
    files.write_csv(path, columns, iter(rows))
    with open(path, newline="", encoding="utf-8") as fh:
        read = list(csv.reader(fh))
    assert read == [list(columns)] + [[("" if row[c] is None else str(row[c])) for c in columns] for row in rows]


@pytest.mark.parametrize("records,where", [
    ([{"u": 1, "v": 2}, {"u": 3, "v": 4}], None),
    ([], None),
    ([{"u": 1, "v": 2}, 7, {"v": 4}], "[1] must be an object"),
    ([{"u": 1}, {"u": 3, "v": 4}, None], "[2] must be an object"),  # the u column fails at [2] before v is read
    ([{"u": 1, "v": 2}, {"v": 4}, "x"], "[1].u is missing"),
    ([{"u": 1}, {"u": 2, "v": 3}], "[0].v is missing"),
])
def test_record_fault_names_the_first_lookup_that_fails_field_by_field(records, where):
    assert files.record_fault(records, ("u", "v")) == where
