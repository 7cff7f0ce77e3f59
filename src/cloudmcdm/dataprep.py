"""Raw indicator ingestion and direction-aware min-max normalization."""

from __future__ import annotations

import csv
import json
import math
from collections import namedtuple
from pathlib import Path

import numpy as np

MISSING = object()  # json_value's "no default given", as None is a default a caller may give


class CheckedRecord:
    """Mixin for a NamedTuple whose `__new__` checks its fields, so that `_replace` checks them too."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))


class DataMatrix(CheckedRecord, namedtuple("DataMatrix", "object_ids indicator_ids values")):
    """m evaluation objects (rows) x n indicators (columns), raw units."""

    __slots__ = ()

    def __new__(cls, object_ids: tuple[str, ...], indicator_ids: tuple[str, ...], values: np.ndarray):
        v = np.asarray(values, dtype=float)
        if v.shape != (len(object_ids), len(indicator_ids)):
            raise ValueError(f"values shape {v.shape} does not match "
                             f"{len(object_ids)} objects x {len(indicator_ids)} indicators")
        return tuple.__new__(cls, (object_ids, indicator_ids, v))


def min_max_normalize(d: DataMatrix, cost: list[bool] | np.ndarray) -> DataMatrix:
    """Column-wise min-max scaling to [0,1], in the layout of `d.values`.

    `cost` holds one bool per column (`IndexHierarchy.cost_leaves`): False is a
    benefit column, (x - min) / (max - min); True a cost column, (max - x) / (max - min).
    Constant columns map to 0.5 everywhere, so downstream entropy weighting
    assigns them zero discriminating power without a division by zero. A column
    whose max - min overflows a float is rejected.
    """
    x = d.values
    cost = np.asarray(cost)
    if cost.dtype != bool or cost.shape != (x.shape[1],):
        raise ValueError(f"cost must be one bool per column ({x.shape[1]}), got {cost.dtype} {cost.shape}")
    if not np.isfinite(x).all():
        bad = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(
            f"non-finite value at object {d.object_ids[bad[0]]!r}, "
            f"indicator {d.indicator_ids[bad[1]]!r}"
        )
    lo, hi = x.min(axis=0), x.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    if not np.isfinite(span).all():  # a finite column such as -1e308 .. 1e308
        raise ValueError(f"column {d.indicator_ids[np.argmin(np.isfinite(span))]!r}: range overflows")
    out = x - lo
    np.subtract(hi, x, out=out, where=cost)
    with np.errstate(invalid="ignore"):  # a constant column is 0 / 0 here
        out /= span
    out[:, hi == lo] = 0.5
    return DataMatrix(d.object_ids, d.indicator_ids, out)


# Characters that keep a file off the bulk path: quotes and CR need the csv
# reader, and numpy strips \x1c-\x1f as whitespace where float() rejects them.
_NOT_PLAIN = '"\r\x1c\x1d\x1e\x1f'


def read_json(path: str | Path):
    """The JSON document in a UTF-8 file; a syntax or encoding error, or nesting
    too deep to decode, is a ValueError naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as e:  # ValueError: JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: {e}") from None


def json_float(value) -> float:
    """A finite JSON number as a float; a boolean, a string, NaN or an infinity is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def json_int(value) -> int:
    """A JSON number with an integral value (such as 3 or 3.0) as an int; anything else is rejected."""
    if isinstance(value, float) and value.is_integer() or isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def json_object(value) -> dict:
    """A JSON object, as is; anything else is rejected."""
    if not isinstance(value, dict):
        raise TypeError("expected a JSON object")
    return value


def json_str(value) -> str:
    """A JSON string, as is; anything else is rejected, not converted with `str`."""
    if not isinstance(value, str):
        raise TypeError("expected a JSON string")
    return value


def json_value(path: str | Path, doc, key: str, convert, default=MISSING, where: str = ""):
    """`convert(doc[key])`, or `convert(default)` when the key is absent and a default
    is given. A `doc` that is not a JSON object, a missing required key and a value
    `convert` rejects are ValueErrors naming the file and key at `where` in it, the
    last with the reason `convert` gives."""
    name = f"{where}.{key}" if where else key
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {where or 'the document'} must be a JSON object, got {doc!r}")
    if key not in doc and default is MISSING:
        raise ValueError(f"{path}: missing required key {name!r}")
    value = doc.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as e:  # OverflowError: an integer too large for a float
        raise ValueError(f"{path}: invalid value {value!r} for key {name!r}: {e}") from None


def read_csv_rows(path: str | Path) -> list[list[str]]:
    """Every row of a UTF-8 CSV file; a csv parse error (such as a field over
    `csv.field_size_limit()`) becomes a ValueError naming the file and line, and
    a byte that is not UTF-8 one naming the file."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            return list(reader)
        except csv.Error as e:
            raise ValueError(f"{path}: line {reader.line_num}: {e}") from None
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: {e}") from None


def _parse_plain(path: str | Path) -> tuple[list[str], list[str], np.ndarray] | None:
    """Header, object ids and values of a plain CSV in one `np.loadtxt` pass, else None.

    Plain means: valid UTF-8, "\\n" line ends, no character of `_NOT_PLAIN`, no
    line longer than the csv field limit, and every line holding as many cells
    as the header, each of which numpy parses. numpy and float() both end in
    PyOS_string_to_double, so a plain file parses to the same bits either way;
    anything else (blank lines, `1_0`, non-ASCII digits, every error) is left
    to the csv reader.

    Each stage drops its input once its output exists (the bytes, then the
    text, then each line as its values part replaces it in the list), so no
    more than two copies of the file are alive at once.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    del data
    if any(c in text for c in _NOT_PLAIN):
        return None
    lines = text.split("\n")
    del text
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = [c.strip() for c in lines.pop(0).split(",")[1:]]
    ids = []
    for k, line in enumerate(lines):
        i, _, lines[k] = line.partition(",")
        ids.append(i.strip())
    # numpy skips empty lines, so a row whose only cell is its id must not reach it
    if not header or not all(lines):
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(lines), len(header)):
        return None
    return header, ids, values


def _parse_rows(path: str | Path) -> tuple[list[str], list[str], np.ndarray]:
    """Header, object ids and values through the csv reader and float(), one cell at a time."""
    rows = read_csv_rows(path)
    if len(rows) < 2:
        raise ValueError(f"{path}: expected a header row and at least one data row")
    header = [c.strip() for c in rows[0][1:]]
    object_ids, values = [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header) + 1:
            raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {len(header) + 1}")
        object_ids.append(row[0].strip())
        try:
            values.append([float(c) for c in row[1:]])
        except ValueError as e:
            raise ValueError(f"{path}: row {r}: {e}") from None
    return header, object_ids, np.array(values)


def load_data_csv(path: str | Path, indicator_ids: list[str] | None = None) -> DataMatrix:
    """Read a data CSV: header row of unique indicator ids, first column = object id.

    With `indicator_ids` the columns are checked and reordered to that order.
    """
    header, object_ids, values = _parse_plain(path) or _parse_rows(path)
    if len(set(header)) != len(header):
        dup = next(c for i, c in enumerate(header) if c in header[:i])
        raise ValueError(f"{path}: duplicate column id {dup!r}")
    if indicator_ids is not None:
        if set(header) != set(indicator_ids):
            missing = sorted(set(indicator_ids) - set(header))
            extra = sorted(set(header) - set(indicator_ids))
            raise ValueError(f"{path}: column mismatch; missing {missing}, unexpected {extra}")
        column = {c: k for k, c in enumerate(header)}
        # copy even for the identity order: the copy is F-contiguous, and the report's sums depend on that layout
        header, values = indicator_ids, values[:, [column[i] for i in indicator_ids]]
    return DataMatrix(tuple(object_ids), tuple(header), values)
