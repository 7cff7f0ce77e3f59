"""Raw indicator ingestion and direction-aware min-max normalization."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np


@dataclass(frozen=True)
class DataMatrix:
    """m evaluation objects (rows) x n indicators (columns), raw units."""

    object_ids: tuple[str, ...]
    indicator_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (len(self.object_ids), len(self.indicator_ids)):
            raise ValueError(
                f"values shape {v.shape} does not match "
                f"{len(self.object_ids)} objects x {len(self.indicator_ids)} indicators"
            )


# A normalized matrix has the same structure; the distinction is the [0,1] contract.
NormalizedMatrix = DataMatrix


def min_max_normalize(d: DataMatrix, directions: Mapping[str, str]) -> NormalizedMatrix:
    """Column-wise min-max scaling to [0,1].

    benefit: (x - min) / (max - min); cost: (max - x) / (max - min).
    Constant columns map to 0.5 everywhere, so downstream entropy weighting
    assigns them zero discriminating power without a division by zero.
    """
    x = d.values
    if not np.isfinite(x).all():
        bad = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(
            f"non-finite value at object {d.object_ids[bad[0]]!r}, "
            f"indicator {d.indicator_ids[bad[1]]!r}"
        )
    out = np.empty_like(x)
    for j, ind in enumerate(d.indicator_ids):
        try:
            direction = directions[ind]
        except KeyError:
            raise KeyError(f"no direction given for indicator {ind!r}") from None
        col = x[:, j]
        lo, hi = col.min(), col.max()
        if hi == lo:
            out[:, j] = 0.5
        elif direction == "benefit":
            out[:, j] = (col - lo) / (hi - lo)
        elif direction == "cost":
            out[:, j] = (hi - col) / (hi - lo)
        else:
            raise ValueError(f"indicator {ind!r}: direction must be 'benefit' or 'cost', got {direction!r}")
    return DataMatrix(d.object_ids, d.indicator_ids, out)


# Characters that keep a file off the bulk path: quotes and CR need the csv
# reader, and numpy strips \x1c-\x1f as whitespace where float() rejects them.
_NOT_PLAIN = '"\r\x1c\x1d\x1e\x1f'


def read_csv_rows(path: str | Path) -> list[list[str]]:
    """Every row of a UTF-8 CSV file; a csv parse error (such as a field over
    `csv.field_size_limit()`) becomes a ValueError naming the file and line."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            return list(reader)
        except csv.Error as e:
            raise ValueError(f"{path}: line {reader.line_num}: {e}") from None


def _parse_plain(path: str | Path) -> tuple[list[str], list[str], np.ndarray] | None:
    """Header, object ids and values of a plain CSV in one `np.loadtxt` pass, else None.

    Plain means: valid UTF-8, "\\n" line ends, no character of `_NOT_PLAIN`, no
    line longer than the csv field limit, and every line holding as many cells
    as the header, each of which numpy parses. numpy and float() both end in
    PyOS_string_to_double, so a plain file parses to the same bits either way;
    anything else (blank lines, `1_0`, non-ASCII digits, every error) is left
    to the csv reader.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if any(c in text for c in _NOT_PLAIN):
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = [c.strip() for c in lines[0].split(",")[1:]]
    ids, _, rests = zip(*(line.partition(",") for line in lines[1:]))
    # numpy skips empty lines, so a row whose only cell is its id must not reach it
    if not header or not all(rests):
        return None
    try:
        values = np.loadtxt(rests, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(rests), len(header)):
        return None
    return header, [i.strip() for i in ids], values


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
    d = DataMatrix(tuple(object_ids), tuple(header), values)
    if indicator_ids is not None:
        if set(header) != set(indicator_ids):
            missing = sorted(set(indicator_ids) - set(header))
            extra = sorted(set(header) - set(indicator_ids))
            raise ValueError(f"{path}: column mismatch; missing {missing}, unexpected {extra}")
        order = [header.index(i) for i in indicator_ids]
        d = DataMatrix(d.object_ids, tuple(indicator_ids), d.values[:, order])
    return d
