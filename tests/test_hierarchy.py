import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmcdm.hierarchy import (
    DIRECTIONS,
    IndexHierarchy,
    IndicatorNode,
    leaf_indicators,
    load_hierarchy,
    parse_hierarchy,
    validate_hierarchy,
)

from helpers import DEMO


def minimal_tree():
    return parse_hierarchy({
        "root": {"id": "A", "children": [
            {"id": "B", "children": [{"id": "B1", "direction": "benefit"}]},
        ]}
    })


def test_demo_tree_validates():
    h = load_hierarchy(DEMO / "hierarchy.json")
    assert validate_hierarchy(h) == []
    assert h.criterion_ids() == [f"C{k}" for k in range(1, 8)]


def test_minimal_tree_validates():
    assert validate_hierarchy(minimal_tree()) == []


def test_empty_criterion_is_violation():
    h = parse_hierarchy({"root": {"id": "A", "children": [{"id": "B", "children": []}]}})
    assert any("empty criterion" in v for v in validate_hierarchy(h))


def test_leaf_without_direction_is_violation():
    h = parse_hierarchy({
        "root": {"id": "A", "children": [{"id": "B", "children": [{"id": "B1"}]}]}
    })
    assert any("direction" in v for v in validate_hierarchy(h))


def test_orphan_detected():
    h = minimal_tree()
    nodes = dict(h.nodes)
    nodes["X"] = IndicatorNode(id="X", label="x", layer="indicator",
                               direction="benefit", parent_id="A")
    broken = IndexHierarchy(nodes=nodes, root_id=h.root_id)
    assert any("orphan" in v for v in validate_hierarchy(broken))


def test_duplicate_id_rejected_at_parse():
    with pytest.raises(ValueError, match="duplicate"):
        parse_hierarchy({"root": {"id": "A", "children": [
            {"id": "B", "children": [{"id": "B", "direction": "cost"}]},
        ]}})


def test_deep_nesting_rejected():
    with pytest.raises(ValueError, match="three layers"):
        parse_hierarchy({"root": {"id": "A", "children": [
            {"id": "B", "children": [{"id": "C", "children": [{"id": "D"}]}]},
        ]}})


def test_leaf_order_for_one_criterion():
    h = load_hierarchy(DEMO / "hierarchy.json")
    assert leaf_indicators(h, "C3") == ["C31", "C32", "C33", "C34"]


def test_whole_tree_leaves_concatenate_per_criterion():
    h = load_hierarchy(DEMO / "hierarchy.json")
    concat = [leaf for cid in h.criterion_ids() for leaf in leaf_indicators(h, cid)]
    assert leaf_indicators(h) == concat


def test_leaf_order_deterministic_and_complete():
    h = load_hierarchy(DEMO / "hierarchy.json")
    first = leaf_indicators(h)
    assert first == leaf_indicators(h)
    all_leaves = {n.id for n in h.nodes.values() if n.layer == "indicator"}
    assert set(first) == all_leaves and len(first) == len(all_leaves)


def test_minimal_tree_single_leaf():
    assert leaf_indicators(minimal_tree()) == ["B1"]


def test_unknown_criterion_errors():
    with pytest.raises(KeyError):
        leaf_indicators(minimal_tree(), "nope")


@st.composite
def documents(draw):
    """(shape, ids, directions): 1-15 criteria of 1-15 leaves each, unique ids in pre-order."""
    shape = draw(st.lists(st.integers(1, 15), min_size=1, max_size=15))
    ids = [f"n{k}" for k in draw(st.permutations(range(1 + len(shape) + sum(shape))))]
    directions = draw(st.lists(st.sampled_from(DIRECTIONS), min_size=sum(shape), max_size=sum(shape)))
    return shape, ids, directions


def nested(shape, ids, directions):
    """The hierarchy document whose ids, read in pre-order, are `ids`."""
    ids, directions = iter(ids), iter(directions)
    root = {"id": next(ids), "children": []}
    for k in shape:
        root["children"].append({"id": next(ids), "children": [
            {"id": next(ids), "direction": next(directions)} for _ in range(k)]})
    return {"root": root}


@settings(max_examples=100, deadline=None)
@given(documents())
def test_parse_keeps_pre_order_and_declared_leaves(case):
    doc = nested(*case)
    h = parse_hierarchy(doc)
    assert list(h.nodes) == case[1]
    assert leaf_indicators(h) == [leaf["id"] for c in doc["root"]["children"] for leaf in c["children"]]
    assert validate_hierarchy(h) == []


@settings(max_examples=100, deadline=None)
@given(documents(), st.data())
def test_repeated_id_anywhere_is_rejected(case, data):
    shape, ids, directions = case
    first, second = data.draw(st.lists(st.integers(0, len(ids) - 1), min_size=2, max_size=2, unique=True))
    ids = list(ids)
    ids[second] = ids[first]
    with pytest.raises(ValueError, match="duplicate"):
        parse_hierarchy(nested(shape, ids, directions))
