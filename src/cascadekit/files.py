"""The package's two file kinds, JSON documents and CSV tables, read and written in one place.

Files are UTF-8; CSV files open with newline="" as the csv module asks. An
OSError (a missing file, a directory, no permission) passes through; text
that is not UTF-8 or does not parse, JSON nested too deep to parse
included, raises the caller's typed error, naming the file. CSV cells
follow csv's own rule: None is a blank cell, a float (a numpy float too)
its shortest repr, any other value its str().

Both sides work by column. A JSON list of objects is read one field at a
time over all its objects, and the loaders type-test each such column
once; a scan of single values or objects (record_fault here) runs only
where a column fails, to name the first fault. A CSV table is written
row by row through one itemgetter of its columns.
"""

import csv
import json
import operator


def write_json(path, doc, indent: int | None = None) -> None:
    """Write doc as one JSON text: json.dumps without indent runs the C encoder, which json.dump never does."""
    text = json.dumps(doc, indent=indent)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path, error: type[Exception], problem: str):
    """The document in a JSON file; text that is not UTF-8 or not JSON raises error("<path>: <problem>: ...")."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise error(f"{path}: {problem}: {exc}") from exc


def write_csv(path, columns, rows) -> None:
    """Write a header of columns, then one line per row: a mapping from column name to cell."""
    cells = map(operator.itemgetter(*columns), rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(cells if len(columns) > 1 else zip(cells))  # one column's getter gives a bare cell


def record_fault(records: list, fields) -> str | None:
    """Where the first record of a JSON list that is not an object or lacks a field sits, else None.

    Records are looked at field by field, as a column reader takes them, so
    the answer is the first lookup that fails: "[i] must be an object" or
    "[i].<field> is missing".
    """
    for field in fields:
        for i, record in enumerate(records):
            if type(record) is not dict:
                return f"[{i}] must be an object"
            if field not in record:
                return f"[{i}].{field} is missing"
    return None


def read_csv(path, error: type[Exception]) -> list[list[str]]:
    """The non-blank rows of a CSV file as lists of cells; text that is not UTF-8 or not CSV raises error."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return [row for row in csv.reader(fh) if row]
        except (csv.Error, UnicodeDecodeError) as exc:
            raise error(f"{path}: {exc}") from exc
