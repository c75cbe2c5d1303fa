"""The package's two file kinds, JSON documents and CSV tables, read and written in one place.

Files are UTF-8; CSV files open with newline="" as the csv module asks. An
OSError (a missing file, a directory, no permission) passes through; text
that is not UTF-8 or does not parse, JSON nested too deep to parse
included, raises the caller's typed error, naming the file. CSV cells
follow csv's own rule: None is a blank cell, a float (a numpy float too)
its shortest repr, any other value its str().

Both sides work by column. read_column tests a column of values, from a
document or a Python caller, once against its kind in KINDS, the one
table of what a value may hold, and read_columns reads a JSON list of
objects through it field by field; only a failed lookup or column test
starts a scan, to name the first fault by its path, as first_fault does
for a range. A CSV table is written row by row through one itemgetter.

The functions that build one dict or list per node, edge, tree or row and
free them before they return (graph.load_graph and save_graph,
trees.load_trees, save_trees, trees_from_json and trees_to_json,
trees.metrics_rows and read_csv) run under nogc, with the cyclic garbage
collector paused: those containers hold no cycles, so reference counting
frees every one of them, and a collector pass over them would find
nothing to free.
"""

import contextlib
import csv
import functools
import gc
import json
import operator
import sys
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterError, is_integer, is_real


def nogc(func: Callable) -> Callable:
    """func with the cyclic garbage collector paused while it runs; the collector's state is restored on any exit.

    A collector that is already off stays off, so paused functions nest.
    """
    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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


class Kind(NamedTuple):
    """What a field of one kind may hold, stated once for its column and once for one value."""

    types: set  # the value types its one column test takes
    array: Callable  # a list of such values and the set of their types as an array; OverflowError when one does not fit
    ok: Callable  # the test of one value, which the scan after a failed column test runs
    must: str  # what a value must be, for the fault message
    whole: Callable | None = None  # an int64 kind's test without the range; a value it takes and ok does not is too big


def _is_whole(v) -> bool:
    return type(v) is int or type(v) is float and v.is_integer()


def _is_id(v) -> bool:
    return _is_whole(v) and -2**63 <= v < 2**63


def _is_number(v) -> bool:
    if isinstance(v, np.generic):  # a numpy float compared with a Python float would be cast down to its width
        v = v.item()
    return is_real(v) and -sys.float_info.max <= v <= sys.float_info.max


def _kept(values: list, kinds: set) -> np.ndarray:
    """int64 or float64 when kinds, the values' types, is int or float alone, else an object array of the values."""
    if kinds <= {int} or kinds == {float}:
        with contextlib.suppress(OverflowError):  # ints beyond int64 stay Python ints
            return np.array(values, dtype=float if float in kinds else np.int64)
    return np.fromiter(values, dtype=object, count=len(values))


def _ids_or_null(values: list, _kinds: set) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values as an object array, where they are null, and as int64 ids with a null read as 0."""
    array = np.fromiter(values, dtype=object, count=len(values))
    null = np.equal(array, None)
    return array, null, np.where(null, 0, array).astype(np.int64)


# A boolean is not a number, nor is a string; an id may be an integral float; a numpy scalar passes the value tests.
KINDS = {
    "integer": Kind({int}, lambda values, _: np.array(values, dtype=np.int64),
                    lambda v: is_integer(v) and -2**63 <= v < 2**63, "an integer", is_integer),
    "id": Kind({int}, lambda values, _: np.array(values, dtype=np.int64), _is_id, "an integer", _is_whole),
    "number": Kind({int, float}, lambda values, _: np.array(values, dtype=float), _is_number, "a finite number"),
    "time": Kind({int, float}, _kept, _is_number, "a finite number"),
    "flag": Kind({bool}, lambda values, _: np.array(values, dtype=bool), lambda v: type(v) is bool, "a boolean"),
    "user": Kind({int, str}, _kept, lambda v: type(v) is int or type(v) is str, "an integer or a string"),
    "parent": Kind({int, type(None)}, _ids_or_null, lambda v: v is None or _is_id(v), "an integer or null", _is_whole),
}


def read_column(values: list, kind: str, error: type[Exception], where: str, field: str | None = None):
    """The values as their kind's array; else error names the first value the kind does not take.

    The one column test: every value's type is in the kind's types, its
    array holds every value and, where floats may come, each is below the
    largest float in size; only a column that fails it is scanned. The
    value is named where, or where[k].field in a column of records; an
    integer kind's value that is whole but outside int64 "must fit an
    int64".
    """
    types, array, ok, must, whole = KINDS[kind]
    seen = set(map(type, values))
    if seen <= types:
        with contextlib.suppress(OverflowError):  # an integer past int64, or a number past the largest float
            column = array(values, seen)
            if float not in types or np.all(np.abs(column.astype(float)) < sys.float_info.max):
                return column
    k = next((k for k, v in enumerate(values) if not ok(v)), None)
    if k is not None:
        path = where if field is None else f"{where}[{k}].{field}"
        rule = "fit an int64" if whole is not None and whole(values[k]) else f"be {must}"
        raise error(f"{path} must {rule}, got {values[k]!r}")
    return array(values, seen)  # a number of exactly the largest float's size fails the column test alone


def read_value(value, kind: str, error: type[Exception], path: str):
    """value as the Python value of its KINDS kind; one the kind does not take raises error("<path> must be ...")."""
    return read_column([value], kind, error, path)[0].item()


def first_fault(bad: np.ndarray, path: str, rule: str, values: np.ndarray) -> None:
    """Raise ParameterError("<path k> must <rule>, got <values[k]>") at the first k where bad holds; path holds {}."""
    if bad.any():
        k = int(np.argmax(bad))
        raise ParameterError(f"{path.format(k)} must {rule}, got {values[k].tolist()!r}")


def read_columns(records, fields: dict, error: type[Exception], where: str) -> list:
    """The columns of records, a JSON list of objects, as arrays: fields maps each field to its kind in KINDS.

    The first fault, field by field, raises error named by its path after
    where: "<where> must be a list", "<where>[i] must be an object",
    "<where>[i].<field> is missing" or "<where>[i].<field> must be ...".
    """
    if type(records) is not list:
        raise error(f"{where} must be a list")
    try:
        columns = [[record[field] for record in records] for field in fields]
    except (KeyError, TypeError) as exc:  # a record that is not an object or lacks a field
        raise error(f"{where}{record_fault(records, fields)}") from exc
    return [read_column(values, kind, error, where, field) for (field, kind), values in zip(fields.items(), columns)]


def record_fault(records: list, fields) -> str | None:
    """Where the first record of a JSON list that is not an object or lacks a field sits, else None.

    Records are looked at field by field, as read_columns takes them, so
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


@nogc
def read_csv(path, error: type[Exception]) -> list[list[str]]:
    """The non-blank rows of a CSV file as lists of cells; text that is not UTF-8 or not CSV raises error."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return [row for row in csv.reader(fh) if row]
        except (csv.Error, UnicodeDecodeError) as exc:
            raise error(f"{path}: {exc}") from exc
