import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmcdm.dataprep import DataMatrix, _parse_plain, load_data_csv, min_max_normalize

from helpers import DEMO


def matrix(cols, values):
    values = np.asarray(values, dtype=float)
    return DataMatrix(tuple(f"o{i}" for i in range(values.shape[0])), tuple(cols), values)


def test_benefit_endpoints():
    z = min_max_normalize(matrix(["a"], [[2], [4]]), {"a": "benefit"})
    assert z.values[:, 0].tolist() == [0.0, 1.0]


def test_cost_reversal():
    z = min_max_normalize(matrix(["a"], [[2], [4]]), {"a": "cost"})
    assert z.values[:, 0].tolist() == [1.0, 0.0]


def test_constant_column_maps_to_half():
    z = min_max_normalize(matrix(["a"], [[5], [5], [5]]), {"a": "cost"})
    assert z.values[:, 0].tolist() == [0.5, 0.5, 0.5]


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        min_max_normalize(matrix(["a"], [[1], [np.nan]]), {"a": "benefit"})


def test_missing_direction_rejected():
    with pytest.raises(KeyError, match="direction"):
        min_max_normalize(matrix(["a"], [[1], [2]]), {})


def test_idempotent_on_unit_benefit_columns():
    d = matrix(["a", "b"], [[0.0, 1.0], [1.0, 0.2], [0.3, 0.0]])
    dirs = {"a": "benefit", "b": "benefit"}
    once = min_max_normalize(d, dirs)
    twice = min_max_normalize(once, dirs)
    np.testing.assert_allclose(once.values, twice.values)


def test_affine_invariance_benefit():
    rng = np.random.default_rng(1)
    x = rng.uniform(-5, 5, (6, 3))
    d = matrix(["a", "b", "c"], x)
    dirs = {c: "benefit" for c in "abc"}
    shifted = matrix(["a", "b", "c"], 3.7 * x + 11.0)
    np.testing.assert_allclose(min_max_normalize(d, dirs).values,
                               min_max_normalize(shifted, dirs).values, atol=1e-12)


def test_output_bounds():
    rng = np.random.default_rng(2)
    d = matrix(["a", "b"], rng.uniform(0, 100, (9, 2)))
    z = min_max_normalize(d, {"a": "benefit", "b": "cost"})
    assert z.values.min() >= 0 and z.values.max() <= 1
    np.testing.assert_allclose(z.values.min(axis=0), 0.0)
    np.testing.assert_allclose(z.values.max(axis=0), 1.0)


def test_csv_loading_and_reorder():
    d = load_data_csv(DEMO / "indicators.csv")
    assert d.values.shape[0] == 8
    reordered = load_data_csv(DEMO / "indicators.csv", list(d.indicator_ids[::-1]))
    np.testing.assert_allclose(reordered.values, d.values[:, ::-1])


def test_csv_column_mismatch():
    with pytest.raises(ValueError, match="column mismatch"):
        load_data_csv(DEMO / "indicators.csv", ["X1"])


def test_duplicate_column_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,a,b,a\nx,1,2,999\n")
    with pytest.raises(ValueError, match="duplicate column id 'a'"):
        load_data_csv(path, ["a", "b"])


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_over_long_field_names_the_file(tmp_path, eol):
    # padded with spaces, float() would read the cell as 1.0 if nothing
    # enforced the csv field limit; CRLF line ends take the csv reader path
    path = tmp_path / "long.csv"
    path.write_text(f"id,a{eol}x,1{' ' * csv.field_size_limit()}{eol}", newline="")
    with pytest.raises(ValueError, match=r"long\.csv: line 2: field larger than field limit"):
        load_data_csv(path)


def test_repository_csvs_take_the_bulk_path():
    for path in [DEMO / "indicators.csv", DEMO / "ratings_before.csv", DEMO / "ratings_after.csv"]:
        assert _parse_plain(path) is not None, path


def reference_load_data_csv(path, indicator_ids=None) -> DataMatrix:
    """The csv.reader + float() loader that the bulk numpy path must agree with, kept verbatim."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
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
    d = DataMatrix(tuple(object_ids), tuple(header), np.array(values))
    if indicator_ids is not None:
        if set(header) != set(indicator_ids):
            missing = sorted(set(indicator_ids) - set(header))
            extra = sorted(set(header) - set(indicator_ids))
            raise ValueError(f"{path}: column mismatch; missing {missing}, unexpected {extra}")
        order = [header.index(i) for i in indicator_ids]
        d = DataMatrix(d.object_ids, tuple(indicator_ids), d.values[:, order])
    return d


# Cells: numbers both parsers read alike, and tokens that only float() or only
# the csv reader accepts, that neither accepts, or that numpy strips as
# whitespace where float() does not.
NUMBERS = ["1", "2.5", "-3", "+4e2", ".5", "5.", "0", "-0", "1e400", "nan", "-nan", "inf", "-Infinity", " 7 ",
           "\t8", "9\x0b", "\x0c1", "\u20031", "1\xa0"]
ODD = ["", " ", "1_0", "\u0661\u0662", "#", "#1", "1#", "abc", "0x10", "1\x1c", "\x1d2", "3\x1e", "\x1f4",
       "5\x00", "\u0085", '"4"', '"1,5"', '"6\n"', '"7""8"', '9"']
NUMBER = st.sampled_from(NUMBERS)
ODD_CELL = st.one_of(st.sampled_from(ODD), st.text(alphabet='0123456789.e-+_ \t#"\x1d\xa0\u0663', max_size=4))
COLUMN = st.sampled_from(["a", "b", "c", " a", "b ", "", "\u03b1"])
QUOTED_COLUMN = st.sampled_from(['"c"', '"d,e"', '"f\r\ng"'])
IRREGULARITIES = ["ragged rows", "blank lines", "quoting", "CR line ends", "no columns", "no rows", "duplicates"]


@st.composite
def csv_texts(draw):
    # at most two irregularities and one odd cell token per file, so that
    # files the bulk path reads, and files one step away from them, are common
    odd = set(draw(st.lists(st.sampled_from(IRREGULARITIES), max_size=2)))
    cell = st.one_of(NUMBER, st.just(draw(ODD_CELL))) if draw(st.booleans()) else NUMBER
    column = st.one_of(COLUMN, QUOTED_COLUMN) if "quoting" in odd else COLUMN
    columns = draw(st.lists(column, min_size=0 if "no columns" in odd else 1, max_size=4,
                            unique_by=None if "duplicates" in odd else str.strip))
    ends = st.sampled_from(["\n", "\r\n", "\r"]) if "CR line ends" in odd else st.just("\n")
    rows = [["id"] + columns]
    for r in range(draw(st.integers(0 if "no rows" in odd else 1, 5))):
        width = len(columns) + (draw(st.sampled_from([0, -1, 1])) if "ragged rows" in odd else 0)
        object_id = draw(st.sampled_from([f"o{r}", f" o{r} ", f'"o{r}"', f'"o,{r}"', ""])) if "quoting" in odd \
            else f"o{r}"
        rows.append([object_id] + draw(st.lists(cell, min_size=max(width, 0), max_size=max(width, 0))))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(1, 2)) if "blank lines" in odd else 0):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", ","])))
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    stripped = [c.strip() for c in columns]
    indicator_ids = draw(st.one_of(st.none(), st.permutations(stripped), st.lists(COLUMN, max_size=4)))
    return text, indicator_ids


def _outcome(load, path, indicator_ids):
    try:
        d = load(path, indicator_ids)
    except ValueError as e:
        return "error", str(e)
    return "ok", (d.object_ids, d.indicator_ids, d.values.shape, d.values.tobytes())


def _assert_loads_like_reference(path, text, indicator_ids=None):
    path.write_text(text, encoding="utf-8", newline="")
    got = _outcome(load_data_csv, path, indicator_ids)
    want = _outcome(reference_load_data_csv, path, indicator_ids)
    if got[0] == "error" and "duplicate column id" in got[1]:
        # the one new rejection: the reference read the rows and took the first of two columns
        assert want[0] == "ok" or "column mismatch" in want[1]
        header = reference_load_data_csv(path).indicator_ids
        assert len(set(header)) < len(header)
    else:
        assert got == want


@pytest.fixture(scope="module")
def differential_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "data.csv"


EDGE_FILES = ["", "id,a\n", "id,a", "id\nx\n", "id,a\nx\n", "id,a\nx,\n", "id,a\nx, \n", "id,a\nx,1,2\n",
              "id,a,b\nx,1\n", "id,a\n\nx,1\n", "id,a\nx,1\n\n", "id,a\nx,1\n,\n", "id,a\r\nx,1\r\n",
              "id,a\rx,1\r", "\ufeffid,a\nx,1\n", "id,a\nx,1\ny,2\n"]


@pytest.mark.filterwarnings("error")  # numpy warns on input it skips; the loader must not
@pytest.mark.parametrize("text", EDGE_FILES + [f"id,a,b\nx,1,{t}\ny,{t},2\n" for t in NUMBERS + ODD])
def test_loader_matches_reference_on_edge_cases(differential_path, text):
    _assert_loads_like_reference(differential_path, text)


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(csv_texts())
def test_loader_matches_reference_on_generated_files(differential_path, case):
    _assert_loads_like_reference(differential_path, *case)
