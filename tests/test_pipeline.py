import csv
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmcdm import __version__, hierarchy
from cloudmcdm.cli import main as cli_main
from cloudmcdm.cloud import DEFAULT_SCHEME, forward_cloud, indicator_cloud
from cloudmcdm.dataprep import DataMatrix, load_data_csv, min_max_normalize
from cloudmcdm.ewm import WeightVector
from cloudmcdm.hierarchy import leaf_indicators, parse_hierarchy
from cloudmcdm.pipeline import (
    EvaluationReport,
    PipelineConfig,
    PipelineInputs,
    compare_scenarios,
    compute_weights,
    droplets_csv_bytes,
    load_inputs,
    run_pipeline,
)

from helpers import DEMO, assert_floats_close, round_floats

GOLDEN = Path(__file__).resolve().parent / "golden" / "report_before.json"


def test_golden_report_regression(report_before, report_after):
    # report_before.json was frozen when grading became exact and report_after.json
    # from the same code later, with every float at REPORT_DIGITS significant digits;
    # any change to the numeric pipeline larger than that rounding shows up here
    for report in (report_before, report_after):
        golden = GOLDEN.with_name(f"report_{report.scenario}.json")
        assert report.to_json_bytes() == golden.read_bytes(), golden.name


def _map_floats(doc, fn):
    if isinstance(doc, float):
        return fn(doc)
    if isinstance(doc, dict):
        return {k: _map_floats(v, fn) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_map_floats(v, fn) for v in doc]
    return doc


@pytest.mark.parametrize("seed", [1, 7])
def test_scaled_golden_report_regression(scaled_run, seed):
    # frozen from perfbench/scaled_inputs.py at seeds 1 and 7 (16 order-15 matrices
    # repaired); every float agrees to one unit in its 12th significant digit, so a
    # BLAS a few ulps off passes while any real numeric change fails
    golden = GOLDEN.with_name(f"report_scaled_{seed}.json")
    got = json.loads(scaled_run(seed)[1].to_json_bytes())
    assert_floats_close(got, json.loads(golden.read_bytes()), rel=1e-11)


@pytest.mark.parametrize("toward", [np.inf, -np.inf])
def test_report_bytes_survive_one_ulp_drift(report_before, report_after, scaled_run, toward):
    # platform drift (numpy's SIMD exp differs by an ulp between builds and CPUs)
    # must not reach the demo's or the scaled goldens' report.json: nudge every
    # nonzero float by one ulp
    for report in (report_before, report_after, scaled_run(1)[1], scaled_run(7)[1]):
        nudged = _map_floats(report.to_dict(), lambda v: float(np.nextafter(v, toward)) if v != 0.0 else v)
        assert nudged != report.to_dict()
        assert EvaluationReport(**nudged).to_json_bytes() == report.to_json_bytes()


def test_report_structure(report_before):
    doc = report_before.to_dict()
    assert doc["scenario"] == "before"
    assert set(doc["weights"]["indicator_global"]) == {"subjective", "objective", "combined"}
    assert doc["grade"] in {b["label"] for b in doc["scheme"]["bands"]}
    for table in doc["weights"]["indicator_global"].values():
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)
    for table in doc["weights"]["criterion"].values():
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)


def test_two_stage_ex_equals_global_weighting(report_before):
    # aggregating leaf->criterion->objective with local x criterion weights must
    # give the same Ex as one global weighted mean over leaves
    doc = report_before.to_dict()
    wc = doc["weights"]["indicator_global"]["combined"]
    cfg = PipelineConfig.from_json(DEMO / "config_before.json")
    inputs = load_inputs(cfg)
    clouds = indicator_cloud(inputs.ratings.values)
    global_ex = sum(wc[leaf] * cloud.ex for leaf, cloud in zip(inputs.leaves, clouds))
    assert doc["comprehensive_cloud"]["ex"] == pytest.approx(global_ex, abs=1e-9)


def test_comparison_of_identical_reports(report_before):
    cmp = compare_scenarios(report_before.to_dict(), report_before.to_dict())
    for entry in cmp["comprehensive"].values():
        assert entry["delta"] == 0.0
    assert not cmp["flags"]["ex_increases"]


def test_demo_scenarios_are_directional(report_before, report_after):
    cmp = compare_scenarios(report_before.to_dict(), report_after.to_dict())
    assert cmp["flags"] == {"ex_increases": True, "en_decreases": True, "he_decreases": True}
    assert set(cmp["criteria"]) == {f"C{k}" for k in range(1, 8)}


def test_report_dict_contract(report_before):
    doc = report_before.to_dict()
    assert list(doc) == list(EvaluationReport._fields)
    assert EvaluationReport(**doc) == report_before
    old = EvaluationReport(**{k: v for k, v in doc.items() if k != "tool_version"})
    assert old.tool_version == __version__


def test_comparison_rejects_different_scheme(report_before):
    doc = report_before.to_dict()
    other = dict(doc, scheme=dict(doc["scheme"], he_ratio=0.2))
    with pytest.raises(ValueError, match="scheme"):
        compare_scenarios(doc, other)


def test_comparison_rejects_different_hierarchy(report_before):
    doc = report_before.to_dict()
    with pytest.raises(ValueError, match="hierarch"):
        compare_scenarios(doc, dict(doc, hierarchy_digest="0" * 64))


def _criterion_edit(drop: str | None = None, add: str | None = None):
    def edit(doc: dict) -> dict:
        clouds = {cid: c for cid, c in doc["criterion_clouds"].items() if cid != drop}
        if add:
            clouds[add] = doc["criterion_clouds"]["C3"]
        return dict(doc, criterion_clouds=clouds)
    return edit


# each case: the edit, then (criterion, report holding it) with the golden first and with it second
@pytest.mark.parametrize("edit, golden_first, edited_first", [
    pytest.param(_criterion_edit(drop="C3"), ("C3", "golden"), ("C3", "golden"), id="missing"),
    pytest.param(_criterion_edit(add="C9"), ("C9", "edited"), ("C9", "edited"), id="extra"),
    # equal counts, different sets: the first report's own criterion is named first
    pytest.param(_criterion_edit(drop="C3", add="C9"), ("C3", "golden"), ("C9", "edited"), id="renamed"),
])
def test_compare_requires_equal_criteria_and_names_the_report_holding_one(tmp_path, capsys, edit,
                                                                           golden_first, edited_first):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(edit(json.loads(GOLDEN.read_text()))))
    for pair, (cid, holder) in (((GOLDEN, path), golden_first), ((path, GOLDEN), edited_first)):
        assert cli_main(["compare", *map(str, pair)]) == 2
        has, lacks = (GOLDEN, path) if holder == "golden" else (path, GOLDEN)
        assert capsys.readouterr().err == f"error: {has}: criterion {cid!r} is not in {lacks}\n"


@pytest.mark.parametrize("key, value, message", [
    pytest.param("hierarchy_digest", "0" * 64, "were produced from different hierarchies", id="hierarchy"),
    pytest.param("scheme", {"he_ratio": 0.2, "bands": []}, "use different grade schemes", id="scheme"),
])
def test_compare_names_both_reports_of_a_mismatched_pair(tmp_path, capsys, key, value, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(dict(json.loads(GOLDEN.read_text()), **{key: value})))
    assert cli_main(["compare", str(GOLDEN), str(path)]) == 2
    assert capsys.readouterr().err == f"error: {GOLDEN} and {path} {message}\n"


CLOUD_PARAMETER = st.floats(-1e6, 1e6)


@st.composite
def report_pairs(draw):
    """Two copies of the golden report with every cloud parameter redrawn."""
    golden = json.loads(GOLDEN.read_text())

    def redraw() -> dict:
        cloud = lambda: {k: draw(CLOUD_PARAMETER) for k in ("ex", "en", "he")}  # noqa: E731
        return dict(golden, comprehensive_cloud=cloud(),
                    criterion_clouds={cid: cloud() for cid in golden["criterion_clouds"]})
    return redraw(), redraw()


@settings(max_examples=100, deadline=None)
@given(report_pairs())
def test_compare_deltas_negate_when_the_reports_swap(pair):
    a, b = pair
    ab, ba = compare_scenarios(a, b), compare_scenarios(b, a)
    levels = [(ab["comprehensive"], ba["comprehensive"])]
    levels += [(ab["criteria"][cid], ba["criteria"][cid]) for cid in a["criterion_clouds"]]
    assert set(ab["criteria"]) == set(ba["criteria"]) == set(a["criterion_clouds"])
    for fwd, rev in levels:
        for k in ("ex", "en", "he"):
            assert fwd[k]["delta"] == -rev[k]["delta"]
            assert (fwd[k]["a"], fwd[k]["b"]) == (rev[k]["b"], rev[k]["a"])


def _simplex(draw, ids: list[str]) -> WeightVector:
    w = draw(st.lists(st.floats(0, 1), min_size=len(ids), max_size=len(ids)).filter(lambda w: sum(w) > 0))
    return WeightVector(tuple(ids), np.array(w) / np.sum(w))


@st.composite
def weight_inputs(draw):
    """Inputs of `compute_weights`: 1-5 criteria of 1-5 leaves, 2-8 objects of raw
    data drawn from 0-3 (so ties and constant columns are common), and random local
    subjective weights."""
    shape = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    leaves = iter(range(sum(shape)))
    h = parse_hierarchy({"root": {"id": "R", "children": [
        {"id": f"C{c}", "children": [{"id": f"L{next(leaves)}", "direction": draw(st.sampled_from(["benefit", "cost"]))}
                                     for _ in range(k)]} for c, k in enumerate(shape)]}})
    ids = leaf_indicators(h)
    m = draw(st.integers(2, 8))
    raw = draw(st.lists(st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids)), min_size=m, max_size=m))
    data = DataMatrix(tuple(f"o{i}" for i in range(m)), tuple(ids), np.array(raw, dtype=float))
    subjective = {h.root_id: _simplex(draw, h.criterion_ids())}
    subjective.update((cid, _simplex(draw, leaf_indicators(h, cid))) for cid in h.criterion_ids())
    return PipelineInputs(h, ids, data, min_max_normalize(data, h.cost_leaves()), None, DEFAULT_SCHEME, subjective)


@settings(max_examples=100, deadline=None)
@given(weight_inputs())
def test_every_weight_table_lies_on_the_simplex(inputs):
    ws = compute_weights(inputs)
    tables = [*ws.criterion.values(), *ws.indicator_global.values(), *ws.local_combined.values()]
    assert len(tables) == 6 + len(inputs.hierarchy.criterion_ids())
    for table in tables:
        assert (table.weights >= 0).all() and abs(table.weights.sum() - 1.0) <= 1e-9, table
    doc = ws.to_dict()
    for table in [*doc["criterion"].values(), *doc["indicator_global"].values()]:
        assert abs(sum(table.values()) - 1.0) <= 1e-9  # as a reader sums a table of report.json


def test_fce_tracks_cloud_score(report_before, report_after):
    for rep in (report_before, report_after):
        assert abs(rep.fce["gap_vs_cloud_ex"]) <= 2.0


def test_evaluate_cli_writes_artifacts(tmp_path, capsys):
    rc = cli_main(["evaluate", str(DEMO / "config_before.json"), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "droplets.csv").read_text().startswith("x,mu\n")
    assert (tmp_path / "diagram.svg").read_text().startswith("<svg")


def test_evaluate_cli_deterministic(tmp_path):
    cli_main(["evaluate", str(DEMO / "config_before.json"), "--out", str(tmp_path / "a")])
    cli_main(["evaluate", str(DEMO / "config_before.json"), "--out", str(tmp_path / "b")])
    for name in ("report.json", "droplets.csv", "diagram.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_grades_do_not_depend_on_seed_or_droplets(tmp_path, capsys):
    # grading draws no droplets: only droplets.csv and diagram.svg read the seed and count
    _copy_demo(tmp_path)
    cfg = tmp_path / "config_before.json"
    cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), droplets=1000)))
    reports = []
    for argv in (["--seed", "0", "evaluate", str(DEMO / "config_before.json")],
                 ["--seed", "1", "evaluate", str(cfg)]):
        assert cli_main(argv) == 0
        reports.append(json.loads(capsys.readouterr().out))
    a, b = reports
    assert (a["seed"], b["seed"]) == (0, 1)
    assert a["grade"] == b["grade"] and a["similarity"] == b["similarity"]
    for cid, cloud in a["criterion_clouds"].items():
        assert cloud["grade"] == b["criterion_clouds"][cid]["grade"]
        assert cloud["similarity"] == b["criterion_clouds"][cid]["similarity"]


@pytest.mark.parametrize("scenario, grade", [("before", "good"), ("after", "excellent")])
def test_quadratic_aggregation_end_to_end(tmp_path, capsys, report_before, report_after, scenario, grade):
    _copy_demo(tmp_path)
    cfg = tmp_path / f"config_{scenario}.json"
    cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), aggregation="quadratic")))
    quadratic = run_pipeline(cfg, tmp_path / "a")
    assert cli_main(["evaluate", str(cfg), "--out", str(tmp_path / "b")]) == 0
    for name in ("report.json", "droplets.csv", "diagram.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    linear = {"before": report_before, "after": report_after}[scenario]
    assert (quadratic.aggregation, linear.aggregation) == ("quadratic", "linear")
    # the weighted mean of Ex is the same sum either way; a root-sum-square of weighted
    # nonnegative terms is no larger than their sum, and smaller once two are positive
    assert quadratic.comprehensive_cloud["ex"] == linear.comprehensive_cloud["ex"]
    pairs = [(quadratic.comprehensive_cloud, linear.comprehensive_cloud)] + [
        (quadratic.criterion_clouds[cid], cloud) for cid, cloud in linear.criterion_clouds.items()]
    for q, lin in pairs:
        assert q["en"] <= lin["en"] and q["he"] <= lin["he"]
    assert quadratic.comprehensive_cloud["en"] < linear.comprehensive_cloud["en"]
    assert quadratic.grade == grade


def _one_leaf_C4(root: Path) -> None:
    """Keep only C41 under C4, and drop the other C4 leaves' columns and C4's matrix."""
    dropped = {"C42", "C43", "C44", "C45"}
    _edit_json("hierarchy.json", lambda doc: doc["root"]["children"][3].update(
        children=doc["root"]["children"][3]["children"][:1]))(root)
    for name in ("indicators.csv", "ratings_before.csv", "ratings_after.csv"):
        _drop_columns(root / name, dropped)
    for name in ("config_before.json", "config_after.json"):
        _edit_json(name, lambda doc: doc["indicator_matrices"].pop("C4"))(root)


@pytest.mark.parametrize("scenario", ["before", "after"])
def test_one_leaf_criterion_end_to_end(tmp_path, capsys, scenario):
    # a group of one needs no judgment matrix and weighs its leaf 1
    _copy_demo(tmp_path)
    _one_leaf_C4(tmp_path)
    cfg = tmp_path / f"config_{scenario}.json"
    config, out = str(cfg), str(tmp_path / "out")
    for argv in (["validate", config], ["weights", config], ["evaluate", config, "--out", out]):
        assert cli_main(argv) == 0, argv
    report = run_pipeline(cfg)
    assert report.weights["indicator_local_combined"]["C4"] == {"C41": 1.0}
    assert "C42" not in report.weights["indicator_global"]["combined"]
    ratings = load_data_csv(tmp_path / f"ratings_{scenario}.csv")
    c41 = indicator_cloud(ratings.values[:, ratings.indicator_ids.index("C41")])[0]
    c4 = report.criterion_clouds["C4"]
    assert (c4["ex"], c4["en"], c4["he"]) == (c41.ex, c41.en, c41.he)


@pytest.mark.parametrize("matrix, message", [("judgment/missing.csv", "No such file or directory"),
                                             ("judgment/C4.csv", "order 5 does not match 1 leaves of C4")],
                         ids=["missing", "order-5"])
def test_one_leaf_criterion_still_loads_a_configured_matrix(tmp_path, capsys, matrix, message):
    # a group of one needs no matrix, but one the config names for it is opened and
    # its order checked, like any other
    _copy_demo(tmp_path)
    _one_leaf_C4(tmp_path)
    _edit_json("config_before.json", lambda doc: doc["indicator_matrices"].update(C4=matrix))(tmp_path)
    err = _every_command_error(tmp_path, capsys)
    assert err.startswith("error: ") and message in err and str(tmp_path / matrix) in err


def test_one_leaf_criterion_with_an_order_1_matrix(tmp_path):
    # the configured matrix is weighed like any other and gives the leaf weight 1, the
    # bytes of the criterion without a matrix, which is weighed as the matrix `1`
    _copy_demo(tmp_path)
    _one_leaf_C4(tmp_path)
    assert cli_main(["evaluate", str(tmp_path / "config_before.json"), "--out", str(tmp_path / "none")]) == 0
    (tmp_path / "judgment" / "C41.csv").write_text("1\n")
    _edit_json("config_before.json", lambda doc: doc["indicator_matrices"].update(C4="judgment/C41.csv"))(tmp_path)
    config = str(tmp_path / "config_before.json")
    for argv in (["validate", config], ["weights", config], ["evaluate", config, "--out", str(tmp_path / "out")]):
        assert cli_main(argv) == 0, argv
    report = run_pipeline(config)
    assert report.weights["indicator_local_combined"]["C4"] == {"C41": 1.0}
    assert (tmp_path / "out" / "report.json").read_bytes() == (tmp_path / "none" / "report.json").read_bytes()


@pytest.mark.parametrize("entry, message", [("5", "judgment matrix diagonal must be 1"),
                                            ("1/9", "judgment matrix diagonal must be 1"),
                                            ("nan", "non-finite entry nan at cell (1,1)")],
                         ids=["5", "1/9", "nan"])
def test_one_leaf_criterion_rejects_an_order_1_matrix_that_is_not_1(tmp_path, capsys, entry, message):
    # an order-1 matrix is its diagonal, checked as in any larger matrix when it is weighed
    _copy_demo(tmp_path)
    _one_leaf_C4(tmp_path)
    (tmp_path / "judgment" / "C41.csv").write_text(f"{entry}\n")
    _edit_json("config_before.json", lambda doc: doc["indicator_matrices"].update(C4="judgment/C41.csv"))(tmp_path)
    assert _every_command_error(tmp_path, capsys) == f"error: {tmp_path / 'judgment' / 'C41.csv'}: {message}\n"


@pytest.mark.parametrize("broken, named", [("judgment/C2.csv", "judgment/C2.csv"),
                                           ("judgment/C5.csv", "judgment/C41.csv")], ids=["C2", "C5"])
def test_a_faulty_order_1_matrix_keeps_its_place_in_config_order(tmp_path, capsys, broken, named):
    # C4's order-1 matrix is weighed with the others, so a fault in C2 is named before it
    # and it is named before a fault in C5
    _copy_demo(tmp_path)
    _one_leaf_C4(tmp_path)
    (tmp_path / "judgment" / "C41.csv").write_text("5\n")
    _edit_json("config_before.json", lambda doc: doc["indicator_matrices"].update(C4="judgment/C41.csv"))(tmp_path)
    _write(broken, "garbage,x\n")(tmp_path)
    assert _every_command_error(tmp_path, capsys).startswith(f"error: {tmp_path / named}: ")


def test_a_missing_config_is_named_first(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    for argv in (["validate", str(missing)], ["weights", str(missing)], ["evaluate", str(missing)]):
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


def test_a_missing_ratings_file_is_named_first(tmp_path, capsys):
    _copy_demo(tmp_path)
    (tmp_path / "ratings_before.csv").unlink()
    err = _every_command_error(tmp_path, capsys)
    assert err == f"error: {tmp_path / 'ratings_before.csv'}: No such file or directory\n"


def _copy_demo(dst: Path) -> None:
    for src in DEMO.iterdir():
        if src.is_file():
            (dst / src.name).write_bytes(src.read_bytes())
    (dst / "judgment").mkdir()
    for src in (DEMO / "judgment").iterdir():
        (dst / "judgment" / src.name).write_bytes(src.read_bytes())


def _set_csv_cell(path: Path, row: int, col: int, value: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _append_columns(path: Path, ids: list[str], value: str) -> None:
    lines = path.read_text().splitlines()
    lines = [",".join([lines[0], *ids])] + [",".join([line, *[value] * len(ids)]) for line in lines[1:]]
    path.write_text("\n".join(lines) + "\n")


def _drop_columns(path: Path, ids: set[str]) -> None:
    rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [k for k, c in enumerate(rows[0]) if c not in ids]
    path.write_text("".join(",".join(row[k] for k in keep) + "\n" for row in rows))


def test_off_scale_judgment_entry_exits_2(tmp_path, capsys):
    # clone the demo config with one corrupted judgment cell
    _copy_demo(tmp_path)
    _set_csv_cell(tmp_path / "judgment" / "C3.csv", 0, 1, "2.5")  # not on the 1/9..9 scale
    # keep reciprocity so the scale check is what fires
    _set_csv_cell(tmp_path / "judgment" / "C3.csv", 1, 0, "0.4")
    rc = cli_main(["evaluate", str(tmp_path / "config_before.json")])
    assert rc == 2
    # the entry prints as a Python float on every numpy version
    path = tmp_path / "judgment" / "C3.csv"
    assert capsys.readouterr().err == f"error: {path}: entry 2.5 at cell (1,2) is not on the 1/9..9 scale\n"


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_judgment_entry_exits_2(tmp_path, capsys, token):
    _copy_demo(tmp_path)
    _set_csv_cell(tmp_path / "judgment" / "C1.csv", 0, 1, token)
    rc = cli_main(["weights", str(tmp_path / "config_before.json")])
    assert rc == 2
    path = tmp_path / "judgment" / "C1.csv"
    assert capsys.readouterr().err == f"error: {path}: non-finite entry {token} at cell (1,2)\n"


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_non_finite_rating_exits_2(tmp_path, capsys, token):
    _copy_demo(tmp_path)
    # header is line 0; line 3 is sample s3, column 5 is indicator C15
    _set_csv_cell(tmp_path / "ratings_before.csv", 3, 5, token)
    rc = cli_main(["evaluate", str(tmp_path / "config_before.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "non-finite rating" in err and "'s3'" in err and "'C15'" in err


def test_out_of_range_rating_exits_2(tmp_path, capsys):
    _copy_demo(tmp_path)
    _set_csv_cell(tmp_path / "ratings_before.csv", 3, 5, "150")
    rc = cli_main(["weights", str(tmp_path / "config_before.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "outside [0, 100]" in err and "'s3'" in err and "'C15'" in err and "150.0" in err


@pytest.mark.parametrize("token", ["0", "-0.0", "100"])
def test_ratings_at_the_ends_of_the_range_load(tmp_path, token):
    _copy_demo(tmp_path)
    _set_csv_cell(tmp_path / "ratings_before.csv", -1, -1, token)
    assert cli_main(["validate", str(tmp_path / "config_before.json")]) == 0


@pytest.mark.parametrize("token, message", [("nan", "non-finite rating at sample 's200', indicator 'C76': nan"),
                                            ("inf", "non-finite rating at sample 's200', indicator 'C76': inf"),
                                            ("-1e-300", "rating outside [0, 100] at sample 's200', "
                                                        "indicator 'C76': -1e-300"),
                                            ("100.00000000000001", "rating outside [0, 100] at sample 's200', "
                                                                   "indicator 'C76': 100.00000000000001")])
def test_a_rating_just_past_the_range_in_the_last_cell_exits_2(tmp_path, capsys, token, message):
    _copy_demo(tmp_path)
    _set_csv_cell(tmp_path / "ratings_before.csv", -1, -1, token)
    assert _every_command_error(tmp_path, capsys) == f"error: {tmp_path / 'ratings_before.csv'}: {message}\n"


# (row, column) of the NaN and of a 150 in the ratings file, and where the NaN is named
@pytest.mark.parametrize("nan_cell, out_cell, sample, indicator", [((1, 1), (-1, -1), "s1", "C11"),
                                                                   ((-1, -1), (1, 1), "s200", "C76"),
                                                                   ((5, 3), (5, 2), "s5", "C13")],
                         ids=["nan-first", "nan-last", "same-row"])
def test_a_nan_rating_is_named_before_an_out_of_range_one(tmp_path, capsys, nan_cell, out_cell, sample, indicator):
    _copy_demo(tmp_path)
    _set_cells("ratings_before.csv", (*nan_cell, "nan"), (*out_cell, "150"))(tmp_path)
    assert _every_command_error(tmp_path, capsys) == (f"error: {tmp_path / 'ratings_before.csv'}: non-finite rating "
                                                      f"at sample {sample!r}, indicator {indicator!r}: nan\n")


def test_too_few_droplets_exits_2(tmp_path, capsys):
    _copy_demo(tmp_path)
    cfg = tmp_path / "config_before.json"
    cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), droplets=999)))
    rc = cli_main(["evaluate", str(cfg)])
    assert rc == 2
    assert "at least 1000 droplets, got 999" in capsys.readouterr().err
    # exporting droplets grades nothing, so any count is accepted
    assert cli_main(["droplets", str(cfg), "--level", "comprehensive", "--n", "10"]) == 0


def test_repeated_band_label_exits_2(tmp_path, capsys):
    _copy_demo(tmp_path)
    scheme = {"he_ratio": 0.1, "bands": [{"label": "low", "lower": 0, "upper": 50},
                                         {"label": "low", "lower": 50, "upper": 100}]}
    (tmp_path / "scheme.json").write_text(json.dumps(scheme))
    rc = cli_main(["evaluate", str(tmp_path / "config_before.json")])
    assert rc == 2
    assert "band label 'low' is repeated" in capsys.readouterr().err


@pytest.mark.parametrize("name, edit, key", [
    ("config_before.json", lambda doc: doc.update(indicator_matrices=[]), "'indicator_matrices'"),
    ("config_before.json", lambda doc: doc.update(droplets=None), "'droplets'"),
    ("scheme.json", lambda doc: doc["bands"][1].update(lower=None), "'bands[1].lower'"),
    ("hierarchy.json", lambda doc: doc["root"]["children"][2]["children"].append("oops"), "'oops'"),
    # a boolean, a string or a fraction where a number or an integer belongs is rejected,
    # not coerced or truncated
    pytest.param("config_before.json", lambda doc: doc.update(seed=1.7), "'seed'", id="seed-fraction"),
    pytest.param("config_before.json", lambda doc: doc.update(max_iter=2.5), "'max_iter'", id="max_iter-fraction"),
    pytest.param("config_before.json", lambda doc: doc.update(droplets=20000.9), "'droplets'",
                 id="droplets-fraction"),
    pytest.param("config_before.json", lambda doc: doc.update(seed=True), "'seed'", id="seed-bool"),
    pytest.param("config_before.json", lambda doc: doc.update(tau=True), "'tau'", id="tau-bool"),
    pytest.param("config_before.json", lambda doc: doc.update(sigma="0.8"), "'sigma'", id="sigma-string"),
    pytest.param("scheme.json", lambda doc: doc.update(he_ratio="0.1"), "'he_ratio'", id="he_ratio-string"),
    # Python's json reads NaN, Infinity and 1e400, which no number key accepts
    pytest.param("config_before.json", lambda doc: doc.update(tau=float("nan")), "'tau'", id="tau-nan"),
    pytest.param("scheme.json", lambda doc: doc.update(he_ratio=float("inf")), "'he_ratio'", id="he_ratio-inf"),
    pytest.param("scheme.json", lambda doc: doc["bands"][1].update(lower=10**400), "'bands[1].lower'",
                 id="lower-overflow"),
    pytest.param("scheme.json", lambda doc: doc["bands"][0].update(upper=True), "'bands[0].upper'",
                 id="upper-bool"),
])
def test_malformed_json_value_exits_2(tmp_path, capsys, name, edit, key):
    _copy_demo(tmp_path)
    path = tmp_path / name
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    rc = cli_main(["validate", str(tmp_path / "config_before.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and key in err


def _set_band_lower(data: bytes) -> bytes:
    doc = json.loads(data)
    doc["bands"][1]["lower"] = 61
    return json.dumps(doc).encode()


def _misspell_keys(data: bytes) -> bytes:
    doc = json.loads(data)
    del doc["droplets"]
    return json.dumps(dict(doc, droplet=5, sigmaa=3)).encode()


@pytest.mark.parametrize("name, edit, message", [
    ("config_before.json", lambda data: data + b",", "Extra data: line 24 column 1"),
    ("scheme.json", lambda data: data[:-3], "Expecting ',' delimiter"),
    ("hierarchy.json", lambda data: b'{"root": ', "Expecting value: line 1 column 10 (char 9)"),
    ("hierarchy.json", lambda data: b"\xff" + data, "can't decode byte 0xff in position 0"),
    ("scheme.json", lambda data: b"[" * 100_000, "maximum recursion depth exceeded"),
    ("scheme.json", _set_band_lower, "band 'fair' starts at 61.0, expected 60.0"),
    ("config_before.json", _misspell_keys, "unknown config keys 'droplet', 'sigmaa'"),
])
def test_bad_json_file_exits_2_naming_the_file(tmp_path, capsys, name, edit, message):
    _copy_demo(tmp_path)
    path = tmp_path / name
    path.write_bytes(edit(path.read_bytes()))
    rc = cli_main(["validate", str(tmp_path / "config_before.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and message in err


def test_compare_names_a_report_with_bad_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text('{"grade": ')
    assert cli_main(["compare", str(GOLDEN), str(path)]) == 2
    assert f"error: {path}: Expecting value" in capsys.readouterr().err


def _set_comprehensive_ex(doc: dict) -> dict:
    doc["comprehensive_cloud"]["ex"] = "x"
    return doc


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda doc: [1, 2], "the document must be a JSON object, got [1, 2]", id="list"),
    pytest.param(_set_comprehensive_ex, "invalid value 'x' for key 'comprehensive_cloud.ex': expected a finite number",
                 id="ex-string"),
    pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "scheme"}, "missing required key 'scheme'",
                 id="no-scheme"),
    pytest.param(lambda doc: dict(doc, criterion_clouds=dict(doc["criterion_clouds"], C3=None)),
                 "criterion_clouds.C3 must be a JSON object, got None", id="criterion-cloud-null"),
])
def test_compare_names_a_malformed_report_and_key(tmp_path, capsys, edit, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(edit(json.loads(GOLDEN.read_text()))))
    assert cli_main(["compare", str(GOLDEN), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1


def test_duplicated_indicator_column_exits_2(tmp_path, capsys):
    # a second C11 column full of 999 used to be dropped without a word
    _copy_demo(tmp_path)
    _append_columns(tmp_path / "indicators.csv", ["C11"], "999")
    rc = cli_main(["weights", str(tmp_path / "config_before.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "indicators.csv" in err and "duplicate column id 'C11'" in err


@pytest.mark.parametrize("name, row, col", [("indicators.csv", 1, 1), ("ratings_before.csv", 2, 3),
                                            ("judgment/C1.csv", 0, 1)])
def test_over_long_csv_field_exits_2(tmp_path, capsys, name, row, col):
    _copy_demo(tmp_path)
    _set_csv_cell(tmp_path / name, row, col, "1" + " " * csv.field_size_limit())
    rc = cli_main(["weights", str(tmp_path / "config_before.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert name.split("/")[-1] in err and "field larger than field limit" in err


def _write(name: str, text: str):
    return lambda root: (root / name).write_text(text)


def _latin1(name: str):
    # an e-acute as Latin-1 writes it, byte 0xe9, at the end of the first line
    return lambda root: (root / name).write_bytes((root / name).read_bytes().replace(b"\n", b"\xe9\n", 1))


def _edit_json(name: str, edit):
    def apply(root: Path) -> None:
        path = root / name
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return apply


def _empty_first_criterion(doc: dict) -> None:
    doc["root"]["children"][0]["children"] = []


def _set_C41_id(nid):
    return _edit_json("hierarchy.json", lambda doc: doc["root"]["children"][3]["children"][0].update(id=nid))


def _keep_lines(name: str, n: int):
    def apply(root: Path) -> None:
        path = root / name
        path.write_text("\n".join(path.read_text().splitlines()[:n]) + "\n")
    return apply


def _set_cells(name: str, *cells):
    def apply(root: Path) -> None:
        for row, col, value in cells:
            _set_csv_cell(root / name, row, col, value)
    return apply


def _sixteen_leaves_in_C1(root: Path) -> None:
    # C1 has 5 leaves; 16 is one past the largest order the random-index table covers
    new = [f"C1{chr(ord('a') + k)}" for k in range(11)]
    _edit_json("hierarchy.json", lambda doc: doc["root"]["children"][0]["children"].extend(
        {"id": i, "direction": "benefit"} for i in new))(root)
    for name in ("indicators.csv", "ratings_before.csv"):
        _append_columns(root / name, new, "50")
    (root / "judgment/C1.csv").write_text("\n".join([",".join(["1"] * 16)] * 16) + "\n")


# (how to break a demo copy, global flags, the file the message starts with, and text it holds)
BROKEN_INPUTS = [
    pytest.param(_write("judgment/C1.csv", "garbage,x\n"), [], "judgment/C1.csv", "row 1 has 2 entries",
                 id="C1-garbage"),
    pytest.param(_write("judgment/C4.csv", "1,2\n1/2,1\n"), [], "judgment/C4.csv",  # order 2 for C4's leaves
                 "order 2 does not match", id="C4-wrong-order"),
    pytest.param(lambda root: _set_csv_cell(root / "judgment/criteria.csv", 0, 0, "2"), [],
                 "judgment/criteria.csv", "diagonal must be 1", id="criteria-diagonal-2"),
    pytest.param(_edit_json("config_before.json", lambda doc: doc.update(sigma=1.5)), [], "config_before.json",
                 "invalid value 1.5 for key 'sigma': sigma must lie in (0,1), got 1.5", id="sigma-1.5"),
    pytest.param(_edit_json("config_before.json", lambda doc: doc.update(tau=-1)), [], "config_before.json",
                 "invalid value -1 for key 'tau': tau must be positive, got -1.0", id="tau-negative"),
    pytest.param(_edit_json("config_before.json", lambda doc: doc.update(max_iter=0)), [], "config_before.json",
                 "invalid value 0 for key 'max_iter': max_iter must be at least 1", id="max_iter-0"),
    # a flag's value is not the file's fault
    pytest.param(lambda root: None, ["--sigma", "1.5"], None, "sigma must lie in (0,1), got 1.5",
                 id="sigma-flag-1.5"),
    pytest.param(lambda root: None, ["--tau", "nan"], None, "tau must be positive, got nan", id="tau-flag-nan"),
    pytest.param(lambda root: None, ["--tau", "inf"], None, "tau must be positive and finite, got inf",
                 id="tau-flag-inf"),
    # a scenario is a JSON string, never the str() of another value
    *[pytest.param(_edit_json("config_before.json", lambda doc, v=v: doc.update(scenario=v)), [],
                   "config_before.json", f"invalid value {v!r} for key 'scenario': expected a JSON string",
                   id=f"scenario-{json.dumps(v)}") for v in (None, {"a": 1})],
    pytest.param(_edit_json("scheme.json", lambda doc: doc.update(he_ratio=1e300)), [], "scheme.json",
                 "he_ratio must be at most 10, got 1e+300", id="scheme-he_ratio-1e300"),
    pytest.param(_edit_json("scheme.json", lambda doc: doc.update(bands=[])), [], "scheme.json",
                 "scheme needs at least one band", id="scheme-no-bands"),
    # bands is a JSON array, never a string or object iterated as one
    *[pytest.param(_edit_json("scheme.json", lambda doc, v=v: doc.update(bands=v)), [], "scheme.json",
                   f"invalid value {v!r} for key 'bands': expected a JSON array", id=f"scheme-bands-{kind}")
      for kind, v in (("string", "poor"), ("object", {}))],
    pytest.param(_edit_json("scheme.json", lambda doc: doc["bands"][1].update(upper=60)), [], "scheme.json",
                 "band 'fair': lower 60.0 must be below upper 60.0", id="scheme-empty-band"),
    # a label is a JSON string, never the str() of another value
    *[pytest.param(_edit_json("scheme.json", lambda doc, v=v: doc["bands"][0].update(label=v)), [], "scheme.json",
                   f"invalid value {v!r} for key 'bands[0].label': expected a JSON string",
                   id=f"scheme-label-{json.dumps(v)}") for v in (None, 5)],
    pytest.param(_edit_json("hierarchy.json", lambda doc: doc["root"]["children"][3].update(label={"a": 1})), [],
                 "hierarchy.json", "node 'C4': 'label' must be a JSON string, got {'a': 1}",
                 id="hierarchy-label-object"),
    pytest.param(_edit_json("config_before.json", lambda doc: doc.update(aggregation="bogus")), [],
                 "config_before.json", "invalid value 'bogus' for key 'aggregation'", id="aggregation-bogus"),
    pytest.param(_edit_json("config_before.json", lambda doc: doc["indicator_matrices"].update(
                     C9="judgment/nonexistent.csv")), [], "config_before.json",
                 "'indicator_matrices' keys 'C9' name no criterion", id="indicator_matrices-unknown-key"),
    pytest.param(_edit_json("config_before.json", lambda doc: doc["indicator_matrices"].pop("C4")), [],
                 "config_before.json", "no judgment matrix configured for criterion 'C4'",
                 id="indicator_matrices-missing-key"),
    pytest.param(_edit_json("hierarchy.json", _empty_first_criterion), [], "hierarchy.json",
                 "invalid hierarchy: empty criterion 'C1'", id="hierarchy-empty-criterion"),
    pytest.param(_edit_json("hierarchy.json", lambda doc: doc["root"]["children"][0].update(id="C1\u00e9")), [],
                 "hierarchy.json", "invalid hierarchy: id 'C1\u00e9' must be non-empty ASCII",
                 id="hierarchy-non-ascii-id"),
    pytest.param(_edit_json("hierarchy.json", lambda doc: doc["root"].update(children=[])), [], "hierarchy.json",
                 "invalid hierarchy: root has no criteria", id="hierarchy-no-criteria"),
    pytest.param(_edit_json("hierarchy.json", lambda doc: doc.update(tree=doc.pop("root"))), [], "hierarchy.json",
                 "hierarchy document must have a 'root' object", id="hierarchy-no-root"),
    pytest.param(_edit_json("hierarchy.json", lambda doc: doc["root"]["children"][3].update(children={"C41": {}})),
                 [], "hierarchy.json", "node 'C4': 'children' must be a list, got {'C41': {}}",
                 id="hierarchy-children-object"),
    # parsing keeps what the file says: a direction on a criterion with leaves, an id of any JSON type
    pytest.param(_edit_json("hierarchy.json", lambda doc: doc["root"]["children"][3].update(direction="cost")), [],
                 "hierarchy.json", "invalid hierarchy: non-leaf 'C4' must not carry a direction",
                 id="hierarchy-directed-criterion"),
    *[pytest.param(_set_C41_id(nid), [], "hierarchy.json",
                   f"a child of 'C4' must be a JSON object with a string 'id', got {{'id': {nid!r}",
                   id=f"hierarchy-id-{json.dumps(nid)}") for nid in (5, None, True, [1])],
    # the first matrix in config order to fail, the criteria's here, is the one blamed
    pytest.param(_edit_json("config_before.json", lambda doc: doc.update(max_iter=1, tau=0.0001)), [],
                 "judgment/criteria.csv", "judgment-matrix repair failed: repair did not reach d < 0.0001 "
                 "within 1 iterations", id="unrepairable"),
    pytest.param(_set_cells("judgment/C1.csv", (0, 1, "3"), (1, 0, "3")), [], "judgment/C1.csv",
                 "reciprocity violated at cell (1,2)", id="C1-not-reciprocal"),
    pytest.param(_set_cells("judgment/C1.csv", (0, 1, "-3"), (1, 0, "-1/3")), [], "judgment/C1.csv",
                 "judgment matrix entries must be positive", id="C1-negative"),
    # a fraction whose quotient overflows a float is unparsable, where 1e999 parses to inf
    pytest.param(_set_cells("judgment/C1.csv", (0, 1, "1" + "0" * 400 + "/1"), (1, 0, "1/1" + "0" * 400)), [],
                 "judgment/C1.csv", f"cell (1,2): cannot parse judgment entry '1{'0' * 400}/1'",
                 id="C1-overflowing-fraction"),
    pytest.param(_sixteen_leaves_in_C1, [], "judgment/C1.csv", "judgment matrix order must be in [1, 15], got 16",
                 id="C1-order-16"),
    # a Latin-1 byte is named with its file, whichever reader meets it
    *[pytest.param(_latin1(name), [], name, "'utf-8' codec can't decode byte 0xe9", id=f"{name}-latin1")
      for name in ("indicators.csv", "ratings_before.csv", "judgment/C1.csv")],
    pytest.param(_set_cells("indicators.csv", (1, 1, "nan")), [], "indicators.csv",
                 "non-finite value at object 'site1', indicator 'C11'", id="data-nan"),
    # each cell is finite, but max - min overflows a float
    pytest.param(_set_cells("indicators.csv", (1, 1, "1e308"), (2, 1, "-1e308")), [], "indicators.csv",
                 "column 'C11': range overflows", id="data-range-overflows"),
    pytest.param(_keep_lines("indicators.csv", 2), [], "indicators.csv",
                 "entropy weighting needs at least 2 evaluation objects, got 1", id="data-one-object"),
    pytest.param(_keep_lines("ratings_before.csv", 10), [], "ratings_before.csv",
                 "backward generator needs at least 10 rating samples, got 9", id="ratings-9-samples"),
    pytest.param(_set_cells("indicators.csv", (0, 1, "C11x")), [], "indicators.csv",
                 "column mismatch; missing ['C11'], unexpected ['C11x']", id="data-renamed-column"),
    pytest.param(lambda root: _append_columns(root / "ratings_before.csv", ["X1"], "50"), [], "ratings_before.csv",
                 "column mismatch; missing [], unexpected ['X1']", id="ratings-extra-column"),
]


def _every_command_error(root: Path, capsys, flags=()) -> str:
    """The one error every command prints for a broken copy of the demo, each exiting 2."""
    config = str(root / "config_before.json")
    errs = []
    for argv in (["validate", config], ["weights", config], ["evaluate", config],
                 ["droplets", config, "--level", "comprehensive"]):
        assert cli_main([*flags, *argv]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        errs.append(err)
    assert errs == [errs[0]] * 4
    return errs[0]


@pytest.mark.parametrize("breaks, flags, name, message", BROKEN_INPUTS)
def test_every_command_rejects_a_broken_input_alike(tmp_path, capsys, breaks, flags, name, message):
    # validate runs the loading half of every other command, so it accepts
    # exactly what they load and rejects the rest with the same message
    _copy_demo(tmp_path)
    breaks(tmp_path)
    err = _every_command_error(tmp_path, capsys, flags)
    assert err.startswith("error: ") and message in err
    if name is None:
        assert str(tmp_path) not in err
    else:
        assert err.startswith(f"error: {tmp_path / name}: ")


def _unrepairable(name: str):
    # every later item 9 times each earlier one: the repair converges, but the CR test fails
    def apply(root: Path) -> None:
        n = len((root / name).read_text().splitlines())
        (root / name).write_text("".join(",".join("1" if i == k else "1/9" if k > i else "9" for k in range(n))
                                         + "\n" for i in range(n)))
    return apply


# how to break a judgment file, and the message that names it
JUDGMENT_FAULTS = {
    "unrepairable": (_unrepairable, "judgment-matrix repair failed: repaired matrix still fails the CR test "
                                    "(CR = 0.3126)"),
    "off-scale": (lambda name: _set_cells(name, (0, 1, "2.5"), (1, 0, "0.4")),
                  "at cell (1,2) is not on the 1/9..9 scale"),
    "malformed": (lambda name: _write(name, "garbage,x\n"), "row 1 has 2 entries, expected 1"),
}


@pytest.mark.parametrize("first, second", [("unrepairable", "off-scale"), ("off-scale", "unrepairable"),
                                           ("unrepairable", "malformed"), ("malformed", "unrepairable")])
def test_the_first_faulty_judgment_file_in_config_order_is_named(tmp_path, capsys, first, second):
    # all matrices are weighed in one call, and a file that fails to load stops the
    # loading; either way C2, before C5 in config order, is the file named
    _copy_demo(tmp_path)
    JUDGMENT_FAULTS[first][0]("judgment/C2.csv")(tmp_path)
    JUDGMENT_FAULTS[second][0]("judgment/C5.csv")(tmp_path)
    config = str(tmp_path / "config_before.json")
    for argv in (["validate", config], ["weights", config], ["evaluate", config],
                 ["droplets", config, "--level", "comprehensive"]):
        assert cli_main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {tmp_path / 'judgment' / 'C2.csv'}: ")
        assert err.endswith(f"{JUDGMENT_FAULTS[first][1]}\n") and "C5" not in err


def test_validate_parses_the_hierarchy_once(monkeypatch, capsys):
    parsed = []

    def counting(doc):
        parsed.append(doc)
        return parse_hierarchy(doc)

    monkeypatch.setattr(hierarchy, "parse_hierarchy", counting)
    assert cli_main(["validate", str(DEMO / "config_before.json")]) == 0
    assert len(parsed) == 1


@pytest.mark.parametrize("edit, key", [
    (dict(seed=1.7), "'seed'"),
    (dict(sigma="x"), "'sigma'"),
    (dict(tau=True), "'tau'"),
])
def test_cli_override_still_checks_the_config_value(tmp_path, capsys, edit, key):
    _copy_demo(tmp_path)
    cfg = tmp_path / "config_before.json"
    cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), **edit)))
    assert cli_main(["--seed", "3", "--sigma", "0.5", "--tau", "0.2", "validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and key in err


def test_validate_cli(capsys):
    rc = cli_main(["validate", str(DEMO / "config_before.json")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and len(doc["leaves"]) == 34


def test_weights_cli_selectors(tmp_path, capsys):
    # `weights` prints per-kind slices of report.json's `weights` section, whatever
    # the selectors; report.json holds them at REPORT_DIGITS significant digits
    config = str(DEMO / "config_before.json")
    assert cli_main(["evaluate", config, "--out", str(tmp_path)]) == 0
    w = json.loads((tmp_path / "report.json").read_text())["weights"]
    extra = {"subjective": {}, "objective": {"indicator_entropy": w["indicator_entropy"]},
             "combined": {"theta": w["theta"]}}
    capsys.readouterr()
    for r in range(4):
        for kinds in itertools.combinations(["subjective", "objective", "combined"], r):
            assert cli_main(["weights", config, *(f"--{k}" for k in kinds)]) == 0
            out = capsys.readouterr().out
            want = {k: {"criterion": w["criterion"][k], "indicator_global": w["indicator_global"][k], **extra[k]}
                    for k in kinds or extra}
            assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
            assert round_floats(json.loads(out)) == want, kinds


def test_compare_cli(tmp_path, capsys):
    cli_main(["evaluate", str(DEMO / "config_before.json"), "--out", str(tmp_path / "a")])
    cli_main(["evaluate", str(DEMO / "config_after.json"), "--out", str(tmp_path / "b")])
    capsys.readouterr()
    rc = cli_main(["compare", str(tmp_path / "a" / "report.json"),
                   str(tmp_path / "b" / "report.json")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["flags"]["ex_increases"] is True


def test_droplets_cli_levels(tmp_path):
    out = tmp_path / "d.csv"
    rc = cli_main(["droplets", str(DEMO / "config_before.json"),
                   "--level", "C3", "--n", "50", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,mu" and len(lines) == 51
    rc = cli_main(["droplets", str(DEMO / "config_before.json"),
                   "--level", "comprehensive", "--n", "10", "--out", str(out)])
    assert rc == 0
    # a leaf level draws from the leaf's own cloud, estimated from its ratings column
    rc = cli_main(["droplets", str(DEMO / "config_before.json"), "--level", "C11", "--n", "10", "--out", str(out)])
    assert rc == 0
    cfg = PipelineConfig.from_json(DEMO / "config_before.json")
    ratings = load_inputs(cfg).ratings
    [cloud] = indicator_cloud(ratings.values[:, ratings.indicator_ids.index("C11")])
    assert out.read_bytes() == droplets_csv_bytes(forward_cloud(cloud, 10, cfg.seed))


def test_droplets_cli_unknown_level(capsys):
    rc = cli_main(["droplets", str(DEMO / "config_before.json"), "--level", "XX", "--n", "10"])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown level id 'XX'\n"


@pytest.mark.parametrize("n", [0, -5])
def test_droplets_cli_rejects_a_count_below_1(capsys, n):
    # the flag's value is named as the --seed errors name theirs
    rc = cli_main(["droplets", str(DEMO / "config_before.json"), "--level", "C1", "--n", str(n)])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: --n: droplet count must be at least 1, got {n}\n")


def test_droplets_level_lookup(tmp_path):
    # the root id and "comprehensive" name one cloud, and a leaf id shadows "comprehensive"
    def droplets(config, level):
        out = tmp_path / "droplets.csv"
        assert cli_main(["droplets", str(config), "--level", level, "--n", "50", "--out", str(out)]) == 0
        return out.read_bytes()

    demo = DEMO / "config_before.json"
    comprehensive = droplets(demo, "comprehensive")
    assert droplets(demo, json.loads((DEMO / "hierarchy.json").read_text())["root"]["id"]) == comprehensive
    renamed = tmp_path / "renamed"
    renamed.mkdir()
    _copy_demo(renamed)
    _set_C41_id("comprehensive")(renamed)
    for name in ("indicators.csv", "ratings_before.csv", "ratings_after.csv"):
        path = renamed / name
        path.write_text(path.read_text().replace(",C41,", ",comprehensive,", 1))
    assert droplets(renamed / "config_before.json", "comprehensive") == droplets(demo, "C41") != comprehensive


def test_seed_env_fallback(tmp_path, monkeypatch):
    doc = json.loads((DEMO / "config_before.json").read_text())
    del doc["seed"]
    for key in ("hierarchy", "criterion_matrix", "data", "ratings", "scheme"):
        doc[key] = str(DEMO / doc[key])
    doc["indicator_matrices"] = {k: str(DEMO / v) for k, v in doc["indicator_matrices"].items()}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    monkeypatch.setenv("CLOUDMCDM_SEED", "4242")
    assert PipelineConfig.from_json(cfg_path).seed == 4242
    assert PipelineConfig.from_json(cfg_path, seed=1).seed == 1
    monkeypatch.delenv("CLOUDMCDM_SEED")
    assert PipelineConfig.from_json(cfg_path).seed == 0


def test_malformed_seed_env_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    _copy_demo(tmp_path)
    cfg = tmp_path / "config_before.json"
    doc = json.loads(cfg.read_text())
    del doc["seed"]
    cfg.write_text(json.dumps(doc))
    monkeypatch.setenv("CLOUDMCDM_SEED", "abc")
    assert cli_main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "CLOUDMCDM_SEED" in err and "'abc'" in err
    # an explicit seed still takes precedence over the environment
    assert PipelineConfig.from_json(cfg, seed=3).seed == 3


@pytest.mark.parametrize("seed_key, env, flags, message", [
    pytest.param(-1, None, [], "{cfg}: invalid value -1 for key 'seed': seed must be non-negative, got -1",
                 id="config"),
    pytest.param(None, "-1", [], "environment variable CLOUDMCDM_SEED: invalid seed '-1'", id="env"),
    pytest.param(None, None, ["--seed", "-1"], "--seed: seed must be non-negative, got -1", id="flag"),
])
def test_negative_seed_exits_2_naming_its_source_before_writing(tmp_path, monkeypatch, capsys,
                                                                seed_key, env, flags, message):
    # numpy's SeedSequence rejects a negative seed only when droplets are drawn,
    # after report.json is written; the config load must reject it first
    _copy_demo(tmp_path)
    cfg = tmp_path / "config_before.json"
    doc = json.loads(cfg.read_text())
    doc.pop("seed")
    cfg.write_text(json.dumps(doc if seed_key is None else dict(doc, seed=seed_key)))
    monkeypatch.delenv("CLOUDMCDM_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("CLOUDMCDM_SEED", env)
    out = tmp_path / "out"
    for argv in (["evaluate", str(cfg), "--out", str(out)], ["validate", str(cfg)]):
        assert cli_main([*flags, *argv]) == 2
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert not (out / "report.json").exists()


def test_missing_config_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "x"}))
    with pytest.raises(ValueError, match="missing required key"):
        PipelineConfig.from_json(cfg_path)


def test_unknown_config_key(tmp_path):
    doc = json.loads((DEMO / "config_before.json").read_text())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(doc, comment="x")))
    with pytest.raises(ValueError, match=r"cfg\.json: unknown config keys 'comment'$"):
        PipelineConfig.from_json(cfg_path)
