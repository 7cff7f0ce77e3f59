import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmcdm.cloud import indicator_cloud
from cloudmcdm.dataprep import _BLOCK, _CHUNK, DataMatrix, _parse_plain, load_data_csv, min_max_normalize
from cloudmcdm.ewm import entropy_weights

from helpers import DEMO


def matrix(cols, values):
    values = np.asarray(values, dtype=float)
    return DataMatrix(tuple(f"o{i}" for i in range(values.shape[0])), tuple(cols), values)


def test_benefit_endpoints():
    z = min_max_normalize(matrix(["a"], [[2], [4]]), [False])
    assert z.values[:, 0].tolist() == [0.0, 1.0]


def test_cost_reversal():
    z = min_max_normalize(matrix(["a"], [[2], [4]]), [True])
    assert z.values[:, 0].tolist() == [1.0, 0.0]


def test_constant_column_maps_to_half():
    z = min_max_normalize(matrix(["a"], [[5], [5], [5]]), [True])
    assert z.values[:, 0].tolist() == [0.5, 0.5, 0.5]


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        min_max_normalize(matrix(["a"], [[1], [np.nan]]), [False])


def test_shape_must_match_the_ids():
    with pytest.raises(ValueError, match=r"^values shape \(2, 2\) does not match 1 objects x 2 indicators$"):
        DataMatrix(("o1",), ("a", "b"), np.zeros((2, 2)))


@pytest.mark.parametrize("cost", [{"a": "cost", "b": "cost"}, "cost", [True], [True, False, True], [1, 0]],
                         ids=["dict", "string", "short", "long", "ints"])
def test_cost_mask_must_be_one_bool_per_column(cost):
    # a direction dict would read as truthy, so each column would silently be a cost column
    with pytest.raises(ValueError, match=r"cost must be one bool per column \(2\)"):
        min_max_normalize(matrix(["a", "b"], [[1, 2], [3, 5]]), cost)


def test_idempotent_on_unit_benefit_columns():
    d = matrix(["a", "b"], [[0.0, 1.0], [1.0, 0.2], [0.3, 0.0]])
    dirs = [False, False]
    once = min_max_normalize(d, dirs)
    twice = min_max_normalize(once, dirs)
    np.testing.assert_allclose(once.values, twice.values)


def test_affine_invariance_benefit():
    rng = np.random.default_rng(1)
    x = rng.uniform(-5, 5, (6, 3))
    d = matrix(["a", "b", "c"], x)
    dirs = [False] * 3
    shifted = matrix(["a", "b", "c"], 3.7 * x + 11.0)
    np.testing.assert_allclose(min_max_normalize(d, dirs).values,
                               min_max_normalize(shifted, dirs).values, atol=1e-12)


def test_output_bounds():
    rng = np.random.default_rng(2)
    d = matrix(["a", "b"], rng.uniform(0, 100, (9, 2)))
    z = min_max_normalize(d, [False, True])
    assert z.values.min() >= 0 and z.values.max() <= 1
    np.testing.assert_allclose(z.values.min(axis=0), 0.0)
    np.testing.assert_allclose(z.values.max(axis=0), 1.0)


def reference_min_max_normalize(d: DataMatrix, cost) -> DataMatrix:
    """The per-column loop that the one-pass normalization must agree with bit for bit."""
    x = d.values
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        col = x[:, j]
        lo, hi = col.min(), col.max()
        if hi == lo:
            out[:, j] = 0.5
        elif cost[j]:
            out[:, j] = (hi - col) / (hi - lo)
        else:
            out[:, j] = (col - lo) / (hi - lo)
    return DataMatrix(d.object_ids, d.indicator_ids, out)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_one_pass_normalize_matches_per_column_oracle(m, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1e3, 1e3, (m, n)) * 10.0 ** rng.integers(-6, 7, n)
    x[:, rng.random(n) < 0.3] = rng.uniform(-5, 5)  # constant columns
    cost = (rng.random(n) < 0.5).tolist()
    d = matrix([f"c{j}" for j in range(n)], np.asfortranarray(x))  # so the oracle's output is column-major too
    with np.errstate(all="raise"):  # the 0 / 0 of a constant column must stay silent
        got = min_max_normalize(d, cost).values
    want = reference_min_max_normalize(d, cost).values
    assert got.tobytes(order="A") == want.tobytes(order="A")
    assert got.flags.f_contiguous


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


@pytest.mark.parametrize("plain", [True, False], ids=["bulk", "csv-reader"])
@pytest.mark.parametrize("order", [["c", "b", "a"]], ids=["reversed"])
def test_loaded_values_are_column_major(tmp_path, plain, order):
    # reordering takes one copy, through a column index, which comes out column-major
    path = tmp_path / "data.csv"
    quote = "" if plain else '"'
    path.write_text(f"id,a,b,c\n{quote}x{quote},1,2,3\ny,4,5,6\n")
    assert (_parse_plain(path) is not None) == plain
    assert load_data_csv(path, order).values.flags.f_contiguous


def _layouts(x):
    """x in C order, in F order and as a column slice that is neither."""
    wide = np.zeros((len(x), 2 * x.shape[1]))
    wide[:, ::2] = x
    yield "C", np.ascontiguousarray(x)
    yield "F", np.asfortranarray(x)
    yield "slice", wide[:, ::2]


def _stage_bits(stage, x):
    d = DataMatrix(tuple(f"o{i}" for i in range(len(x))), tuple(f"c{j}" for j in range(x.shape[1])), x)
    if stage == "indicator_cloud":
        return np.array(indicator_cloud(x)).tobytes()
    if stage == "entropy_weights":
        w, e = entropy_weights(d)
        return w.weights.tobytes() + e.tobytes()
    z = min_max_normalize(d, np.arange(x.shape[1]) % 3 == 0).values
    assert z.flags.f_contiguous
    return z.tobytes(order="F")


@pytest.mark.parametrize("m", [64, 2000])
@pytest.mark.parametrize("cols", ["one", "one-past-a-block"])
@pytest.mark.parametrize("stage", ["indicator_cloud", "min_max_normalize", "entropy_weights"])
def test_summing_stages_own_the_layout(stage, cols, m):
    # the report's sums depend on each column being summed contiguously, and the loader
    # promises no layout: the stages after it must give the same bits for every layout,
    # and min_max_normalize must hand on a column-major matrix
    n = 1 if cols == "one" else 2 * (_BLOCK // m) + 1  # one past a block of indicator_cloud ...
    assert (n - 1) % max(1, _BLOCK // (2 * m)) == 0  # ... and of entropy_weights, which has two buffers
    rng = np.random.default_rng(m + n)
    x = np.round(rng.uniform(0, 1, (m, n)), 4)
    x[: m // 10] = 0.0  # some p = 0 cells take the 0 ln 0 := 0 path
    bits = {name: _stage_bits(stage, v) for name, v in _layouts(x)}
    assert bits["C"] == bits["F"] == bits["slice"]


def _scaled_ratings(path):
    """2000 samples x 225 leaves, formatted as perfbench/scaled_inputs.py writes ratings; the leaf ids."""
    rng = np.random.default_rng(0)
    ids = [f"L{k:03d}" for k in range(225)]
    path.write_text("sample," + ",".join(ids) + "\n" + "".join(
        f"s{r}," + ",".join(f"{v:.4f}" for v in row) + "\n" for r, row in enumerate(rng.uniform(0, 100, (2000, 225)))))
    return ids


def test_loader_holds_one_transient_copy(tmp_path):
    path = tmp_path / "ratings.csv"
    ids = _scaled_ratings(path)
    tracemalloc.start()
    try:
        d = load_data_csv(path, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.values.shape == (2000, 225)
    assert peak <= 2.5 * d.values.nbytes, peak / d.values.nbytes


def test_plain_parse_holds_no_copy_of_the_file(tmp_path):
    # the file is streamed into numpy in chunks, so the peak is the array numpy grows, not the text
    path = tmp_path / "ratings.csv"
    _scaled_ratings(path)
    tracemalloc.start()
    try:
        _, _, values = _parse_plain(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (2000, 225)
    assert peak <= 1.5 * values.nbytes, peak / values.nbytes


@pytest.fixture(scope="module")
def scaled_ratings(tmp_path_factory):
    """The `_scaled_ratings` file and its leaf ids."""
    path = tmp_path_factory.mktemp("scaled") / "ratings.csv"
    return path, _scaled_ratings(path)


def _traced_peak(stage, *args):
    tracemalloc.start()
    try:
        stage(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_leaf_ordered_load_holds_the_matrix_once(scaled_ratings):
    path, ids = scaled_ratings
    d = load_data_csv(path, ids)
    peak = _traced_peak(load_data_csv, path, ids)
    assert peak <= 1.3 * d.values.nbytes, peak / d.values.nbytes


def test_backward_clouds_hold_one_small_buffer(scaled_ratings):
    values = load_data_csv(*scaled_ratings).values
    peak = _traced_peak(indicator_cloud, values)
    assert peak <= 0.25 * values.nbytes, peak / values.nbytes


def test_entropy_weights_hold_small_buffers(scaled_ratings):
    d = load_data_csv(*scaled_ratings)
    z = min_max_normalize(DataMatrix(d.object_ids[:1000], d.indicator_ids, d.values[:1000]),
                          np.arange(len(d.indicator_ids)) % 2 == 1)
    peak = _traced_peak(entropy_weights, z)
    assert peak <= 0.25 * z.values.nbytes, peak / z.values.nbytes


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


# 2000 rows x 20 columns, about 20 chunks of the plain parse, without their last row;
# each file below differs from a plain one only there, so the parse fails late
LONG_BODY = "id," + ",".join(f"c{k}" for k in range(20)) + "\n" + "".join(
    f"o{r}," + ",".join(f"{(r * 20 + k) % 997 / 7:.4f}" for k in range(20)) + "\n" for r in range(1999))
LAST_CELLS = ",".join(["50"] * 20)
LATE_FAULTS = {
    "quoted-id": f'"o1999",{LAST_CELLS}\n',
    "x1c-cell": f"o1999,1\x1c,{LAST_CELLS[3:]}\n",
    "underscore": f"o1999,1_0,{LAST_CELLS[3:]}\n",
    "ragged-row": f"o1999,{LAST_CELLS[3:]}\n",
    "cr-line-end": f"o1999,{LAST_CELLS}\r\n",
    "id-only-row": "o1999\n",
    "blank-last-line": f"o1999,{LAST_CELLS}\n\n",
    # no cell is over the csv field limit, but the line is, and spans chunks
    "long-line": "o1999," + ",".join([" " * (csv.field_size_limit() // 10) + "1"] * 20) + "\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("last", LATE_FAULTS.values(), ids=LATE_FAULTS.keys())
def test_streamed_parse_fails_late_like_the_reference(differential_path, last):
    _assert_loads_like_reference(differential_path, LONG_BODY + last)
    assert _parse_plain(differential_path) is None


@pytest.mark.filterwarnings("error")
def test_a_two_byte_id_across_the_first_chunk_boundary_loads(differential_path):
    lines = LONG_BODY.splitlines(keepends=True)
    k = max(k for k in range(len(lines)) if len("".join(lines[:k])) < _CHUNK)  # the line holding the boundary
    head = "".join(lines[:k])
    object_id = "x" * (_CHUNK - 1 - len(head)) + "\xe9"  # its two UTF-8 bytes end the first chunk and open the next
    text = head + object_id + lines[k][lines[k].index(","):] + "".join(lines[k + 1:]) + f"o1999,{LAST_CELLS}\n"
    assert text.encode()[_CHUNK - 1:_CHUNK + 1] == "\xe9".encode()
    _assert_loads_like_reference(differential_path, text)
    assert _parse_plain(differential_path)[1][k - 1] == object_id


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("last", [b"o1999,\xff" + f"{LAST_CELLS[2:]}\n".encode(),
                                  f"o1999,{LAST_CELLS}".encode() + b"\xc3"], ids=["invalid-byte", "cut-off-sequence"])
def test_a_last_row_that_is_not_utf8_names_the_file(differential_path, last):
    differential_path.write_bytes(LONG_BODY.encode() + last)
    with pytest.raises(UnicodeDecodeError) as want:
        reference_load_data_csv(differential_path)
    with pytest.raises(ValueError) as got:
        load_data_csv(differential_path)
    assert str(got.value) == f"{differential_path}: {want.value}"  # the reference names no file


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "no-newline"])
def test_a_field_over_the_limit_across_chunks_names_the_file_and_line(differential_path, end):
    differential_path.write_text(f"{LONG_BODY}o1999,1{' ' * csv.field_size_limit()},{LAST_CELLS[3:]}{end}")
    with pytest.raises(csv.Error) as want:
        reference_load_data_csv(differential_path)
    with pytest.raises(ValueError) as got:
        load_data_csv(differential_path)
    assert str(got.value) == f"{differential_path}: line 2001: {want.value}"  # the reference names neither
