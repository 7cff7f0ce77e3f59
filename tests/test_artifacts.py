"""The report.json, droplets.csv and diagram.svg writers: byte-equal to the
stdlib encoder and the per-droplet code they replaced, and a full run with
artifacts at the engine's limits."""

import json
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmcdm import svgplot
from cloudmcdm.cloud import DEFAULT_SCHEME, CloudParams, GradeScheme, forward_cloud
from cloudmcdm.pipeline import EvaluationReport, droplets_csv_bytes, run_pipeline
from cloudmcdm.svgplot import cloud_diagram

from helpers import round_floats


# -- reference: one droplet at a time ------------------------------------------
# The writers before they formatted in bulk, kept verbatim.

_W, _H = 760, 420
_ML, _MR, _MT, _MB = 60, 20, 20, 50


def reference_px(score: float) -> float:
    return _ML + (score / 100.0) * (_W - _ML - _MR)


def reference_py(mu: float) -> float:
    return _H - _MB - mu * (_H - _MT - _MB)


def reference_dots(xs, mus, color: str, r: float, opacity: float) -> list[str]:
    return [
        f'<circle cx="{reference_px(float(x)):.2f}" cy="{reference_py(float(m)):.2f}" r="{r}" '
        f'fill="{color}" fill-opacity="{opacity}"/>'
        for x, m in zip(xs, mus)
    ]


def reference_droplets_csv_bytes(drops) -> bytes:
    lines = ["x,mu"]
    lines += [f"{repr(float(x))},{repr(float(mu))}" for x, mu in zip(drops.x, drops.mu)]
    return ("\n".join(lines) + "\n").encode()


def assert_writers_match(xs, mus):
    drops = SimpleNamespace(x=xs, mu=mus)
    assert droplets_csv_bytes(drops) == reference_droplets_csv_bytes(drops)
    style = ("#1f3d7a", 1.5, 0.7)
    assert svgplot._dots(xs, mus, *style) == "\n".join(reference_dots(xs, mus, *style)).encode()


# the comprehensive cloud of data/demo/config_before.json comes from the
# report_before fixture; these are the degenerate and off-axis cases
CLOUDS = [
    CloudParams(50, 0, 0),  # En = He = 0, integer Ex
    CloudParams(83.5, 0.0, 0.0),  # En = He = 0
    CloudParams(70, 4, 0),  # He = 0
    CloudParams(60, 0.5, 5),  # He >> En
    CloudParams(50, 1, 3),  # heavy truncation
    CloudParams(2, 5, 1),  # droplets below 0
    CloudParams(98, 5, 1),  # droplets above 100
]


@pytest.mark.parametrize("n", [1, 999, 1000, 20_000])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_writers_match_reference(report_before, seed, n):
    for c in [CloudParams(**report_before.comprehensive_cloud), *CLOUDS]:
        drops = forward_cloud(c, n, seed)
        assert_writers_match(drops.x, drops.mu)


def test_integer_droplets_are_floats():
    drops = forward_cloud(CloudParams(50, 0, 0), 3, 0)
    assert drops.x.dtype == np.float64 and drops.mu.dtype == np.float64
    assert droplets_csv_bytes(drops) == b"x,mu\n50.0,1.0\n50.0,1.0\n50.0,1.0\n"
    # an integer array handed to the writer is still written as floats
    ints = SimpleNamespace(x=np.full(2, 50), mu=np.ones(2, dtype=int))
    assert droplets_csv_bytes(ints) == reference_droplets_csv_bytes(ints) == b"x,mu\n50.0,1.0\n50.0,1.0\n"


def _near_ties(to_value, lo: float, hi: float, ulps: int = 4) -> np.ndarray:
    """Values whose pixel lies a few ulps either side of a 2-decimal rounding tie.

    Any change to the order of the pixel arithmetic moves some of these
    values across their tie, so the formatted coordinate changes.
    """
    ties = (np.arange(round(lo * 100), round(hi * 100), 37) + 0.5) / 100.0
    v = to_value(ties)
    below, above = v.copy(), v.copy()
    out = [v]
    for _ in range(ulps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return np.concatenate(out)


def test_dots_match_reference_at_rounding_ties():
    x = _near_ties(lambda px: (px - _ML) / (_W - _ML - _MR) * 100.0, _ML, _W - _MR)
    mu = _near_ties(lambda py: (_H - _MB - py) / (_H - _MT - _MB), _MT, _H - _MB)
    assert_writers_match(x, np.resize(mu, x.size))
    assert_writers_match(np.resize(x, mu.size), mu)


_OFF_EDGE = [float(v) for edge in (0.0, 1.0, 100.0)
             for v in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf))]
_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e16, max_value=1e300).flatmap(lambda v: st.sampled_from([v, -v])),
    st.sampled_from(_OFF_EDGE + [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_finite, _finite), min_size=1, max_size=40))
def test_writers_match_reference_on_any_finite_floats(pairs):
    xs, mus = (np.array(v, dtype=np.float64) for v in zip(*pairs))
    assert_writers_match(xs, mus)


# droplets.csv is written by orjson where 1e-4 <= |v| < 1e16 or v is +-0.0, and by
# repr elsewhere; these sit on and next to both edges of that range
_RANGE_EDGES = [1e-4, float(np.nextafter(1e-4, 0)), 1e16, float(np.nextafter(1e16, 0)), 5e-324, 0.0, -0.0]
_IN_RANGE = [1e-4, float(np.nextafter(1e16, 0)), 0.0, -0.0, -1e-4, -83.5, 50.0]


@pytest.mark.parametrize("v", _RANGE_EDGES)
@pytest.mark.parametrize("x_sign", [1, -1])
def test_droplets_csv_matches_repr_at_range_edges(v, x_sign):
    xs = np.array([x_sign * v, x_sign * 83.5, x_sign * v])
    assert_writers_match(xs, np.array([0.5, v, v]))


def test_droplets_csv_in_range_edges_read_as_repr():
    xs, mus = np.array(_IN_RANGE), np.array(_IN_RANGE[::-1])
    assert droplets_csv_bytes(SimpleNamespace(x=xs, mu=mus)) == (
        b"x,mu\n0.0001,50.0\n9999999999999998.0,-83.5\n0.0,-0.0001\n-0.0,-0.0\n"
        b"-0.0001,0.0\n-83.5,9999999999999998.0\n50.0,0.0001\n")


# demo-like rows; the out-of-range rows below sit at and beside multiples of 1024,
# where a writer formatting 1024-row blocks would split them
_ROWS = 2065


def _multi_block_droplets():
    """Demo-like droplets over 2065 rows, all in range."""
    drops = forward_cloud(CloudParams(83.5, 2.0, 0.2), _ROWS, 3)
    assert np.all(np.abs(drops.x) >= 1e-4) and np.all(drops.mu >= 1e-4)
    return drops.x.copy(), drops.mu.copy()


@pytest.mark.parametrize("row", [0, 1023, 1024, 1524, 2064])
@pytest.mark.parametrize("column, v", [("mu", 3e-5), ("mu", 1e-7), ("x", 1e16), ("x", -2.5e-5)])
def test_droplets_csv_one_row_out_of_range_in_a_block(row, column, v):
    xs, mus = _multi_block_droplets()
    (xs if column == "x" else mus)[row] = v
    assert_writers_match(xs, mus)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, _ROWS - 1), _finite, _finite), max_size=6))
def test_droplets_csv_matches_repr_with_any_finite_rows_in_any_block(rows):
    xs, mus = _multi_block_droplets()
    for row, x, mu in rows:
        xs[row], mus[row] = x, mu
    drops = SimpleNamespace(x=xs, mu=mus)
    assert droplets_csv_bytes(drops) == reference_droplets_csv_bytes(drops)


# where a value written by repr instead of orjson sits: (row, column) pairs
_SPLICES = {
    "first-value": [(0, "x")],
    "last-value": [(_ROWS - 1, "mu")],
    "one-row": [(700, "x"), (700, "mu")],
    "adjacent-rows": [(700, "mu"), (701, "x")],
}


# values orjson writes unlike repr: 6.079666133681959e-05 (as in scaled seed 1's droplets)
# as 0.00006079666133681959, 1e-7 and 1e16 without repr's exponent sign and padding,
# and the non-finite ones as null
@pytest.mark.parametrize("cells", _SPLICES.values(), ids=_SPLICES.keys())
@pytest.mark.parametrize("v", [6.079666133681959e-05, 1e-7, 1e16, float("nan"), float("inf"), float("-inf")])
def test_droplets_csv_splices_repr_at_any_position(cells, v):
    xs, mus = _multi_block_droplets()
    for row, column in cells:
        (xs if column == "x" else mus)[row] = v
    drops = SimpleNamespace(x=xs, mu=mus)
    assert droplets_csv_bytes(drops) == reference_droplets_csv_bytes(drops)


def test_droplets_csv_every_value_out_of_range():
    rng = np.random.default_rng(5)
    xs = rng.choice([1e-7, -3e-5, 1e16, -2.5e300, float("nan"), float("inf")], 50)
    mus = 10.0 ** rng.uniform(-320, -4.01, 50)
    drops = SimpleNamespace(x=xs, mu=mus)
    assert droplets_csv_bytes(drops) == reference_droplets_csv_bytes(drops)


def test_droplets_csv_empty_and_one_row():
    empty = droplets_csv_bytes(SimpleNamespace(x=np.empty(0), mu=np.empty(0)))
    one = droplets_csv_bytes(SimpleNamespace(x=np.array([83.5]), mu=np.array([0.25])))
    assert empty == b"x,mu\n" and one == b"x,mu\n83.5,0.25\n"
    # cli droplets decodes the result, and run_pipeline hands it to write_bytes
    assert type(empty) is bytes and type(one) is bytes


_in_range = st.one_of(
    st.floats(min_value=1e-4, max_value=1e16, exclude_max=True),
    st.floats(min_value=-1e16, max_value=-1e-4, exclude_min=True),
    st.sampled_from(_IN_RANGE),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_in_range, _in_range), min_size=1, max_size=40))
def test_droplets_csv_matches_repr_on_any_in_range_floats(pairs):
    # every value here goes through orjson
    xs, mus = (np.array(v, dtype=np.float64) for v in zip(*pairs))
    drops = SimpleNamespace(x=xs, mu=mus)
    assert droplets_csv_bytes(drops) == reference_droplets_csv_bytes(drops)


# inputs whose pixel is not written as integer cents but formatted alone by '%.2f':
# (x value, mu value) per case
_DOT_FALLBACKS = {
    "minus-zero": (-8.823529411764707, 1.0571428571428574),  # pixels just below 0, printed -0.00
    "negative": (-50.0, 2.0),
    "tie": (0.01838235294117647, 0.9996428571428572),  # pixels exactly 60.125 and 20.125
    "1e7": (1e7, -1e5),  # pixels 68000060 and 35000370
    "inf": (float("inf"), float("-inf")),
    "nan": (float("nan"), float("nan")),
}
_DOT_ROWS = 2000
_DOT_CELLS = {
    "first-value": [(0, "x")],
    "last-value": [(_DOT_ROWS - 1, "mu")],
    "one-row": [(700, "x"), (700, "mu")],
    "adjacent-rows": [(700, "mu"), (701, "x")],
}


def test_dot_fallback_inputs_reach_their_pixels():
    x, mu = _DOT_FALLBACKS["minus-zero"]
    assert reference_px(x) < 0 and reference_py(mu) < 0
    assert f"{reference_px(x):.2f}" == f"{reference_py(mu):.2f}" == "-0.00"
    x, mu = _DOT_FALLBACKS["tie"]
    assert (reference_px(x), reference_py(mu)) == (60.125, 20.125)


@pytest.mark.parametrize("cells", _DOT_CELLS.values(), ids=_DOT_CELLS.keys())
@pytest.mark.parametrize("x, mu", _DOT_FALLBACKS.values(), ids=_DOT_FALLBACKS.keys())
def test_dots_format_a_row_alone_at_any_position(cells, x, mu):
    drops = forward_cloud(CloudParams(83.5, 2.0, 0.2), _DOT_ROWS, 3)
    xs, mus = drops.x.copy(), drops.mu.copy()
    for row, column in cells:
        if column == "x":
            xs[row] = x
        else:
            mus[row] = mu
    assert_writers_match(xs, mus)


# pixels at the edges of the integer-cents range, 0 <= v and 100 * v < 1e9
_BULK_EDGES = [0.0, 5e-324, 0.004999, 0.005, 0.0051, 9999999.99, 9999999.994999, 9999999.995, 1e7,
               float(np.nextafter(1e7, 0)), float(np.nextafter(1e7, np.inf))]


def test_dots_match_reference_at_the_bulk_range_edges():
    # pixel v from a score (v - 60) / 6.8 and from a membership (370 - v) / 350; the
    # round trip lands on or next to v
    xs = np.array([(v - _ML) / (_W - _ML - _MR) * 100.0 for v in _BULK_EDGES])
    mus = np.array([(_H - _MB - v) / (_H - _MT - _MB) for v in _BULK_EDGES])
    assert_writers_match(xs, mus)
    assert_writers_match(xs, mus[::-1])


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_diagram_matches_reference_dots(report_before, monkeypatch, seed):
    c = CloudParams(**report_before.comprehensive_cloud)
    svg = cloud_diagram(c, DEFAULT_SCHEME, seed=seed)
    circles = ET.fromstring(svg).findall("{http://www.w3.org/2000/svg}circle")
    assert len(circles) == svgplot.N_CLOUD + len(DEFAULT_SCHEME.bands) * svgplot.N_GRADE
    monkeypatch.setattr(svgplot, "_dots", lambda *args, **kw: "\n".join(reference_dots(*args, **kw)).encode())
    assert cloud_diagram(c, DEFAULT_SCHEME, seed=seed) == svg


def test_diagram_escapes_band_labels_and_writes_utf8():
    labels = ("poor & <60", "fair > 60", "g\u00f6od", "excellent")
    scheme = GradeScheme(bands=tuple((label, lo, hi) for label, (_, lo, hi) in zip(labels, DEFAULT_SCHEME.bands)))
    svg = cloud_diagram(CloudParams(83.5, 2.0, 0.2), scheme, seed=1)
    assert type(svg) is bytes and "g\u00f6od".encode("utf-8") in svg
    texts = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert all(label in texts for label in labels)
    assert b">poor &amp; &lt;60</text>" in svg and b">fair &gt; 60</text>" in svg


# -- the engine's limits -----------------------------------------------------------

def test_scaled_run_writes_complete_artifacts(scaled_run):
    # 15 x 15 leaves, 1000 objects, 2000 rating samples, 16 order-15 matrices to repair
    config, report, out = scaled_run(1)

    droplets = json.loads(config.read_text())["droplets"]
    rows = (out / "droplets.csv").read_bytes().split(b"\n")
    assert rows[0] == b"x,mu" and rows[-1] == b"" and len(rows) - 1 == droplets + 1

    svg = (out / "diagram.svg").read_text(encoding="utf-8")
    assert svg.endswith("</svg>\n")
    ET.fromstring(svg)  # a complete, well-formed document

    w = report.weights
    assert np.hypot(*w["theta"].values()) == pytest.approx(1.0)  # mixing coefficients, unit norm
    tables = [*w["criterion"].values(), *w["indicator_global"].values(),
              *w["indicator_local_combined"].values()]
    assert len(tables) == 3 + 3 + 15
    for table in tables:
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)


# -- report.json: orjson with json.dumps splices against json.dumps alone ------

# characters json.dumps escapes and orjson writes otherwise (or rejects), and the
# text of a splice placeholder written out literally
_ODD_CHARS = ["\x7f", "\x00", "\x1f", "\n", "\ud800", "\udfff", "\u00e9", "\u4f18", "\u2028", "\U0001f600"]
_STRINGS = st.one_of(
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e), max_size=6),  # printable ASCII
    st.lists(st.one_of(st.characters(), st.sampled_from(_ODD_CHARS + ['"', "\\"])), max_size=6).map("".join),
    st.integers(0, 120).map(lambda k: f"\\u0000{k}"),
    st.sampled_from(["", "\\u00000", '"\\u00001"', "\x000", "\x001", "\u4f18\u79c0", "tr\u00e8s bien"]),
)
_FLOATS = st.one_of(
    st.floats(),  # NaN, +-inf, subnormals and -0.0 among them
    st.sampled_from([1e-4, 9.99999999999e-5, 9.9999999999995e-5, 1e-5, 5e-324, -0.0, 0.0, 1e16,
                     9999999999999998.0, 9.99999999999e15, 1e300, -1e-300, float("nan"), float("-inf")]),
)
_INTS = st.one_of(
    st.integers(),
    st.sampled_from([2**64 - 1, 2**64, 10**30, -2**63, -2**63 - 1, -10**30, 0]),
)
_VALUES = st.recursive(
    st.one_of(_FLOATS, _INTS, _STRINGS, st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_STRINGS, inner, max_size=4)),
    max_leaves=12,
)
_DOCS = st.dictionaries(_STRINGS, _VALUES, max_size=5)


@settings(max_examples=200, deadline=None)
@given(_STRINGS, _INTS, _DOCS)
def test_report_bytes_equal_the_stdlib_encoder(text, seed, doc):
    # every key and value orjson would write otherwise goes through json.dumps; the
    # weight tables are empty, so _check_simplex passes whatever else they hold
    report = EvaluationReport(
        scenario=text, seed=seed, aggregation="linear", hierarchy_digest=text, scheme=doc,
        weights={**doc, "criterion": {}, "indicator_global": {}}, criterion_clouds=doc,
        comprehensive_cloud={text: doc}, grade=text, similarity={}, fce={"score": []})
    want = json.dumps(round_floats(report.to_dict()), sort_keys=True, indent=2) + "\n"
    assert report.to_json_bytes() == want.encode()


def test_report_bytes_equal_the_stdlib_encoder_on_the_demo(report_before, report_after):
    for report in (report_before, report_after):
        want = json.dumps(round_floats(report.to_dict()), sort_keys=True, indent=2) + "\n"
        assert report.to_json_bytes() == want.encode()
