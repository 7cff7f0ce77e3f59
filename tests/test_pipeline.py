import csv
import json
from pathlib import Path

import numpy as np
import pytest

from cloudmcdm.cli import main as cli_main
from cloudmcdm.pipeline import (
    EvaluationReport,
    PipelineConfig,
    compare_scenarios,
    run_pipeline,
)

from helpers import DEMO

GOLDEN = Path(__file__).resolve().parent / "golden" / "report_before.json"


def test_golden_report_regression(report_before):
    # the first-build freeze with every float rounded to REPORT_DIGITS significant
    # digits; any change to the numeric pipeline larger than that rounding shows up here
    assert report_before.to_json_bytes() == GOLDEN.read_bytes()


def _map_floats(doc, fn):
    if isinstance(doc, float):
        return fn(doc)
    if isinstance(doc, dict):
        return {k: _map_floats(v, fn) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_map_floats(v, fn) for v in doc]
    return doc


@pytest.mark.parametrize("toward", [np.inf, -np.inf])
def test_report_bytes_survive_one_ulp_drift(report_before, toward):
    # platform drift (numpy's SIMD exp differs by an ulp between builds and CPUs)
    # must not reach report.json: nudge every nonzero float by one ulp
    nudged = _map_floats(report_before.to_dict(),
                         lambda v: float(np.nextafter(v, toward)) if v != 0.0 else v)
    assert nudged != report_before.to_dict()
    assert EvaluationReport.from_dict(nudged).to_json_bytes() == report_before.to_json_bytes()


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
    from cloudmcdm.cloud import indicator_cloud
    from cloudmcdm.pipeline import load_inputs

    inputs = load_inputs(cfg)
    global_ex = sum(wc[leaf] * indicator_cloud(inputs.ratings.values[:, k]).ex
                    for k, leaf in enumerate(inputs.leaves))
    assert doc["comprehensive_cloud"]["ex"] == pytest.approx(global_ex, abs=1e-9)


def test_comparison_of_identical_reports(report_before):
    cmp = compare_scenarios(report_before, report_before)
    for entry in cmp["comprehensive"].values():
        assert entry["delta"] == 0.0
    assert not cmp["flags"]["ex_increases"]


def test_demo_scenarios_are_directional(report_before, report_after):
    cmp = compare_scenarios(report_before, report_after)
    assert cmp["flags"] == {"ex_increases": True, "en_decreases": True, "he_decreases": True}
    assert set(cmp["criteria"]) == {f"C{k}" for k in range(1, 8)}


def test_comparison_rejects_different_scheme(report_before):
    other = EvaluationReport.from_dict(report_before.to_dict())
    other.scheme = dict(other.scheme, he_ratio=0.2)
    with pytest.raises(ValueError, match="scheme"):
        compare_scenarios(report_before, other)


def test_comparison_rejects_different_hierarchy(report_before):
    other = EvaluationReport.from_dict(report_before.to_dict())
    other.hierarchy_digest = "0" * 64
    with pytest.raises(ValueError, match="hierarch"):
        compare_scenarios(report_before, other)


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


def test_off_scale_judgment_entry_exits_2(tmp_path, capsys):
    # clone the demo config with one corrupted judgment cell
    _copy_demo(tmp_path)
    _set_csv_cell(tmp_path / "judgment" / "C3.csv", 0, 1, "2.5")  # not on the 1/9..9 scale
    # keep reciprocity so the scale check is what fires
    _set_csv_cell(tmp_path / "judgment" / "C3.csv", 1, 0, "0.4")
    rc = cli_main(["evaluate", str(tmp_path / "config_before.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "(1,2)" in err and "scale" in err


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_judgment_entry_exits_2(tmp_path, capsys, token):
    _copy_demo(tmp_path)
    _set_csv_cell(tmp_path / "judgment" / "C1.csv", 0, 1, token)
    rc = cli_main(["weights", str(tmp_path / "config_before.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "(1,2)" in err and "non-finite" in err


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


def test_duplicated_indicator_column_exits_2(tmp_path, capsys):
    # a second C11 column full of 999 used to be dropped without a word
    _copy_demo(tmp_path)
    path = tmp_path / "indicators.csv"
    lines = path.read_text().splitlines()
    lines = [lines[0] + ",C11"] + [line + ",999" for line in lines[1:]]
    path.write_text("\n".join(lines) + "\n")
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


def test_validate_cli(capsys):
    rc = cli_main(["validate", str(DEMO / "config_before.json")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and len(doc["leaves"]) == 34


def test_weights_cli_selectors(capsys):
    rc = cli_main(["weights", str(DEMO / "config_before.json"), "--combined"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["combined"]
    assert set(doc["combined"]) == {"theta", "criterion", "indicator_global"}


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


def test_droplets_cli_unknown_level(capsys):
    rc = cli_main(["droplets", str(DEMO / "config_before.json"), "--level", "XX", "--n", "10"])
    assert rc == 2
    assert "unknown level" in capsys.readouterr().err


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


def test_missing_config_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "x"}))
    with pytest.raises(ValueError, match="missing required key"):
        PipelineConfig.from_json(cfg_path)
