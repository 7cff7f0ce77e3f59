"""Metamorphic relations over the whole chain: an edit of the inputs that must
leave the report alike, checked on the demo `before` inputs and on the scaled
inputs of seed 1 (perfbench/scaled_inputs.py), with Hypothesis drawing the edit."""

import json
import shutil
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (DEMO, assert_floats_close, edit_table, map_column, permute_columns, permute_matrix,
                     permute_rows, read_table)

from cloudmcdm.pipeline import EvaluationReport, compare_scenarios, run_pipeline


class Case(NamedTuple):
    root: Path  # the directory holding every input
    config: str
    data: str
    ratings: str
    report: EvaluationReport  # run_pipeline on the inputs as they are
    examples: int  # per relation; a scaled run takes about 0.3 s


@pytest.fixture(params=["demo", "scaled"])
def case(request, report_before, scaled_run):
    if request.param == "demo":
        return Case(DEMO, "config_before.json", "indicators.csv", "ratings_before.csv", report_before, 8)
    config, report, _ = scaled_run(1)
    return Case(config.parent, config.name, "indicators.csv", "ratings.csv", report, 2)


def run_edited(case: Case, *edits) -> EvaluationReport:
    """run_pipeline on a copy of the case's inputs, after each edit(root) of the copy."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "in"
        shutil.copytree(case.root, root)
        for edit in edits:
            edit(root)
        return run_pipeline(root / case.config)


def check(case: Case, *strategies):
    """Decorator: run the relation body once per example that Hypothesis draws."""
    return lambda body: settings(max_examples=case.examples, deadline=None)(given(*strategies)(body))()


def _width(case: Case, name: str) -> int:
    return len(read_table(case.root / name)[0]) - 1


def _height(case: Case, name: str) -> int:
    return len(read_table(case.root / name)) - 1


def test_reordering_columns_keeps_the_report_bytes(case):
    # load_data_csv puts the columns in the hierarchy's leaf order, whatever the file's
    @check(case, st.sampled_from([case.data, case.ratings]), st.data())
    def relation(name, data):
        perm = data.draw(st.permutations(range(_width(case, name))))
        edited = run_edited(case, lambda root: edit_table(root / name, permute_columns(perm)))
        assert edited.to_json_bytes() == case.report.to_json_bytes()


def test_shuffling_rows_keeps_every_float_within_1e_12(case):
    # the objects and samples enter sums, whose order moves only their last bits
    @check(case, st.sampled_from([case.data, case.ratings]), st.data())
    def relation(name, data):
        perm = data.draw(st.permutations(range(_height(case, name))))
        edited = run_edited(case, lambda root: edit_table(root / name, permute_rows(perm)))
        assert_floats_close(edited.to_dict(), case.report.to_dict(), abs=1e-12)


def test_scaling_a_data_column_keeps_every_float_within_1e_12(case):
    # min-max normalization divides the unit out
    leaves = read_table(case.root / case.data)[0][1:]

    @check(case, st.sampled_from(leaves))
    def relation(leaf):
        edited = run_edited(case, lambda root: edit_table(root / case.data, map_column(leaf, lambda v: v * 1000)))
        assert_floats_close(edited.to_dict(), case.report.to_dict(), abs=1e-12)


def test_relisting_criteria_and_leaves_keeps_every_weight_within_1e_12(case):
    # the hierarchy lists the criteria and each criterion's leaves in a new order, and
    # every judgment matrix lists its items to match: a weight belongs to its id, so
    # only the order that sums run in may move it
    config = json.loads((case.root / case.config).read_text())
    doc = json.loads((case.root / config["hierarchy"]).read_text())
    criteria = doc["root"]["children"]

    @check(case, st.data())
    def relation(data):
        order = data.draw(st.permutations(range(len(criteria))))
        leaves = [data.draw(st.permutations(range(len(c["children"])))) for c in criteria]

        def relist(root: Path) -> None:
            edit_table(root / config["criterion_matrix"], permute_matrix(order))
            for c, perm in zip(criteria, leaves):
                if c["id"] in config["indicator_matrices"]:
                    edit_table(root / config["indicator_matrices"][c["id"]], permute_matrix(perm))
            relisted = [dict(c, children=[c["children"][k] for k in perm]) for c, perm in zip(criteria, leaves)]
            doc["root"]["children"] = [relisted[k] for k in order]
            (root / config["hierarchy"]).write_text(json.dumps(doc))

        got, want = run_edited(case, relist).to_dict(), case.report.to_dict()
        assert_floats_close(got["weights"], want["weights"], abs=1e-12)
        assert got["grade"] == want["grade"]


def _flip_direction(leaf: str):
    def edit(root: Path) -> None:
        path = root / "hierarchy.json"
        doc = json.loads(path.read_text())
        nodes = [doc["root"]]
        while nodes:
            node = nodes.pop()
            if node["id"] == leaf:
                node["direction"] = "benefit" if node["direction"] == "cost" else "cost"
            nodes += node.get("children", [])
        path.write_text(json.dumps(doc))
    return edit


def test_flipping_a_leaf_direction_and_negating_its_data_changes_only_the_digest(case):
    # a cost column reads max - x where a benefit column reads x - min, so -x as cost is x as benefit
    leaves = read_table(case.root / case.data)[0][1:]

    @check(case, st.sampled_from(leaves))
    def relation(leaf):
        edited = run_edited(case, _flip_direction(leaf),
                            lambda root: edit_table(root / case.data, map_column(leaf, lambda v: -v)))
        got, want = edited.to_dict(), case.report.to_dict()
        assert got.pop("hierarchy_digest") != want.pop("hierarchy_digest")
        assert got == want


def test_compare_both_ways_gives_negated_deltas(case):
    # the other report rates from a drawn half of the rating samples
    @check(case, st.data())
    def relation(data):
        n = _height(case, case.ratings)
        keep = data.draw(st.lists(st.integers(0, n - 1), min_size=n // 2, max_size=n // 2, unique=True))
        other = run_edited(case, lambda root: edit_table(root / case.ratings, permute_rows(sorted(keep)))).to_dict()
        ab = compare_scenarios(case.report.to_dict(), other)
        ba = compare_scenarios(other, case.report.to_dict())
        levels = [(ab["comprehensive"], ba["comprehensive"]),
                  *((ab["criteria"][cid], ba["criteria"][cid]) for cid in ab["criteria"])]
        for fwd, rev in levels:
            for k in ("ex", "en", "he"):
                assert (rev[k]["a"], rev[k]["b"]) == (fwd[k]["b"], fwd[k]["a"])
                assert rev[k]["delta"] == -fwd[k]["delta"]
        assert ba["grades"] == {"a": ab["grades"]["b"], "b": ab["grades"]["a"]}
