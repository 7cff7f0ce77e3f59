"""Raw indicator ingestion and direction-aware min-max normalization."""

from __future__ import annotations

import csv
import itertools
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
    """Column-wise min-max scaling to [0,1], column-major whatever the layout of `d.values`.

    `cost` holds one bool per column (`IndexHierarchy.cost_leaves`): False is a
    benefit column, (x - min) / (max - min); True a cost column, (max - x) / (max - min).
    Constant columns map to 0.5 everywhere, so downstream entropy weighting
    assigns them zero discriminating power without a division by zero. A column
    whose max - min overflows a float is rejected.

    This stage owns the layout of the normalized matrix: it makes its one output
    F-contiguous, so `entropy_weights` and `combine_weights`, which read it, give
    the same bits whatever layout the loader hands over.
    """
    x = d.values
    cost = np.asarray(cost)
    if cost.dtype != bool or cost.shape != (x.shape[1],):
        raise ValueError(f"cost must be one bool per column ({x.shape[1]}), got {cost.dtype} {cost.shape}")
    out = np.array(x, order="F")
    lo, hi = out.min(axis=0), out.max(axis=0)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):  # NaN and +-inf reach a column's min or max
        bad = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(
            f"non-finite value at object {d.object_ids[bad[0]]!r}, "
            f"indicator {d.indicator_ids[bad[1]]!r}"
        )
    with np.errstate(over="ignore"):
        span = hi - lo
    if not np.isfinite(span).all():  # a finite column such as -1e308 .. 1e308
        raise ValueError(f"column {d.indicator_ids[np.argmin(np.isfinite(span))]!r}: range overflows")
    np.subtract(out, lo, out=out, where=~cost)
    np.subtract(hi, out, out=out, where=cost)
    with np.errstate(invalid="ignore"):  # a constant column is 0 / 0 here
        out /= span
    out[:, hi == lo] = 0.5
    return DataMatrix(d.object_ids, d.indicator_ids, out)


_BLOCK = 32768  # elements in the buffers of `column_blocks`: small, like _CHUNK, so they add few pages


def column_blocks(x: np.ndarray, buffers: int = 1):
    """(j, b_1, ..., b_buffers) for each run of columns j, j + 1, ... of 2-D `x`, left to
    right: F-order arrays of the run's shape, about `_BLOCK` elements in all and reused
    from run to run, b_1 holding the run's columns of `x`. So each column of b_1 sums as
    one contiguous (pairwise) sum, with the bits of that column summed alone, whatever
    the layout of `x`, and no stage needs an `x`-sized buffer."""
    m, n = x.shape
    width = max(1, min(n, _BLOCK // (buffers * m)))
    bufs = np.empty((buffers, width, m)).transpose(0, 2, 1)  # each bufs[i] is F-order (m, width)
    for j in range(0, n, width):
        run = bufs[:, :, :min(width, n - j)]
        np.copyto(run[0], x[:, j:j + width])
        yield j, *run


# Characters that keep a file off the bulk path: quotes and CR need the csv
# reader, and numpy strips \x1c-\x1f as whitespace where float() rejects them.
_NOT_PLAIN = '"\r\x1c\x1d\x1e\x1f'
_CHUNK = 16384  # characters per read of a plain CSV: small, so the reads add little to a process's pages


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


def json_list(value) -> list:
    """A JSON array, as is; anything else is rejected, not iterated."""
    if not isinstance(value, list):
        raise TypeError("expected a JSON array")
    return value


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


def _plain_lines(f):
    """The "\\n"-separated lines of text file `f`, read `_CHUNK` characters at a time;
    an empty last line is dropped. Each chunk is checked whole: a character of
    `_NOT_PLAIN` and a line longer than the csv field limit each raise a ValueError,
    as the read itself does on a byte that is not UTF-8."""
    limit = csv.field_size_limit()
    tail = ""
    while chunk := f.read(_CHUNK):
        text = tail + chunk
        if any(c in text for c in _NOT_PLAIN):
            raise ValueError("a character of _NOT_PLAIN")
        *lines, tail = text.split("\n")
        if len(text) > limit and (len(tail) > limit or max(map(len, lines), default=0) > limit):
            raise ValueError("line over the csv field limit")
        yield from lines
    if tail:
        yield tail


def _parse_plain(path: str | Path) -> tuple[list[str], list[str], np.ndarray] | None:
    """Header, object ids and values of a plain CSV in one `np.loadtxt` pass, else None.

    Plain means: valid UTF-8, "\\n" line ends, no character of `_NOT_PLAIN`, no
    line longer than the csv field limit, and every line holding as many cells
    as the header, each of which numpy parses. numpy and float() both end in
    PyOS_string_to_double, so a plain file parses to the same bits either way;
    anything else (blank lines, `1_0`, non-ASCII digits, every error) is left
    to the csv reader, even when numpy has already read most of the file.

    The file is read in `_CHUNK`-character chunks (`_plain_lines`), and each line's
    values part goes through a generator, which collects the ids as it goes,
    into one `np.loadtxt` call; no copy of the whole file is held.
    """
    ids = []

    def values_parts(lines):
        for line in lines:
            i, _, rest = line.partition(",")
            if not rest:  # numpy skips empty lines, so a row whose only cell is its id must not reach it
                raise ValueError("id-only row")
            ids.append(i.strip())
            yield rest

    with open(path, encoding="utf-8", newline="") as f:
        try:
            lines = _plain_lines(f)
            header = [c.strip() for c in next(lines, "").split(",")[1:]]
            first = next(lines, None)
            if not header or first is None:
                return None
            values = np.loadtxt(values_parts(itertools.chain([first], lines)),
                                delimiter=",", comments=None, ndmin=2)
        except ValueError:  # numpy's, the checks' and UnicodeDecodeError alike
            return None
    if values.shape != (len(ids), len(header)):
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

    With `indicator_ids` the columns are checked and reordered to that order: the parsed
    array is kept when its columns are in that order already, and copied once otherwise.
    Its layout is not promised; the stages after it own the layouts their sums depend
    on (`min_max_normalize`, `entropy_weights`, `indicator_cloud`).
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
        if header != list(indicator_ids):
            column = {c: k for k, c in enumerate(header)}
            values = values[:, [column[i] for i in indicator_ids]]
        header = indicator_ids
    return DataMatrix(tuple(object_ids), tuple(header), values)
