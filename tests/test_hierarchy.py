import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmcdm.hierarchy import (
    DIRECTIONS,
    LAYERS,
    MAX_ID_LEN,
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


def test_duplicate_id_rejected_at_parse():
    with pytest.raises(ValueError, match="duplicate"):
        parse_hierarchy({"root": {"id": "A", "children": [
            {"id": "B", "children": [{"id": "B", "direction": "cost"}]},
        ]}})


@pytest.mark.parametrize("nid", [5, None, True, ["B"], 1.5], ids=["int", "null", "bool", "list", "float"])
@pytest.mark.parametrize("where", ["root", "criterion", "leaf"])
def test_id_that_is_not_a_json_string_rejected_at_parse(nid, where):
    leaf = {"id": "B1", "direction": "benefit"}
    crit = {"id": "B", "children": [leaf]}
    root = {"id": "A", "children": [crit]}
    {"root": root, "criterion": crit, "leaf": leaf}[where]["id"] = nid
    parent = {"root": "the root", "criterion": "a child of 'A'", "leaf": "a child of 'B'"}[where]
    with pytest.raises(ValueError, match=f"^{parent} must be a JSON object with a string 'id', got "):
        parse_hierarchy({"root": root})


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


# what a document can still get wrong once it parses, each applied to a drawn node
DEFECTS = ("no-criteria", "root-direction", "childless-criterion", "criterion-direction", "no-direction",
           "bad-direction", "non-ascii-id", "empty-id", "long-id")


@st.composite
def defective_documents(draw):
    """(document, expected violations): a `documents()` tree with a drawn subset of DEFECTS injected."""
    doc = nested(*draw(documents()))
    root = doc["root"]
    flags = {}  # id() of a node dict -> the defects injected there: "id", "direction", "empty"

    def flag(node, what):
        flags.setdefault(id(node), set()).add(what)

    defects = draw(st.lists(st.sampled_from(DEFECTS), unique=True))
    if "no-criteria" in defects:
        root["children"] = []
    # parsing keeps a non-leaf's direction whether or not the node has children
    if "root-direction" in defects:
        root["direction"] = draw(st.sampled_from(DIRECTIONS))
        flag(root, "direction")
    if "childless-criterion" in defects and root["children"]:
        crit = draw(st.sampled_from(root["children"]))
        if draw(st.booleans()):
            crit["children"] = []
        else:
            crit.pop("children", None)
        flag(crit, "empty")
    if "criterion-direction" in defects and root["children"]:
        crit = draw(st.sampled_from(root["children"]))
        crit["direction"] = draw(st.sampled_from(DIRECTIONS))
        flag(crit, "direction")
    crits = root["children"]
    walk = [(0, root)]  # (depth, node) in pre-order
    for c in crits:
        walk += [(1, c)] + [(2, leaf) for leaf in c.get("children", [])]
    leaves = [node for depth, node in walk if depth == 2]
    if "no-direction" in defects and leaves:
        leaf = draw(st.sampled_from(leaves))
        del leaf["direction"]
        flag(leaf, "direction")
    if "bad-direction" in defects and leaves:
        leaf = draw(st.sampled_from(leaves))
        leaf["direction"] = draw(st.sampled_from(["up", "Benefit", "", None, ["cost"], 1]))
        flag(leaf, "direction")
    if draw(st.booleans()):  # the longest id allowed is no defect
        node = draw(st.sampled_from(walk))[1]
        node["id"] = node["id"].ljust(MAX_ID_LEN, "x")
    for defect, rename in (("non-ascii-id", lambda i: i + "\u00e9"), ("empty-id", lambda i: ""),
                           ("long-id", lambda i: i.ljust(MAX_ID_LEN + 1, "x"))):
        if defect in defects:
            node = draw(st.sampled_from(walk))[1]
            node["id"] = rename(node["id"])
            flag(node, "id")

    expected = []
    for depth, node in walk:
        if "id" in flags.get(id(node), ()):
            expected.append(f"id {node['id']!r} must be non-empty ASCII of at most {MAX_ID_LEN} chars")
        if "direction" in flags.get(id(node), ()):
            expected.append(f"leaf {node['id']!r} missing benefit/cost direction" if depth == 2
                            else f"non-leaf {node['id']!r} must not carry a direction")
    expected += [f"empty criterion {c['id']!r}" for c in crits if "empty" in flags.get(id(c), ())]
    if not crits:
        expected.append("root has no criteria")
    return doc, expected


@settings(max_examples=200, deadline=None)
@given(defective_documents())
def test_parsed_tree_keeps_its_shape(case):
    # the graph invariants that parsing guarantees and validate_hierarchy leaves unchecked
    h = parse_hierarchy(case[0])
    nodes = h.nodes
    assert all(nid == node.id for nid, node in nodes.items())

    def depth(node):
        return 0 if node.parent_id is None else 1 + depth(nodes[node.parent_id])

    assert all(node.layer == LAYERS[depth(node)] for node in nodes.values())
    for nid, node in nodes.items():
        assert all(nodes[c].parent_id == nid for c in node.children)
        assert node.parent_id is None or nid in nodes[node.parent_id].children
        assert node.layer != "indicator" or node.children == ()
    assert [nid for nid, node in nodes.items() if node.parent_id is None] == [h.root_id]
    reachable, stack = set(), [h.root_id]
    while stack:
        nid = stack.pop()
        reachable.add(nid)
        stack.extend(nodes[nid].children)
    assert reachable == set(nodes)


@settings(max_examples=300, deadline=None)
@given(defective_documents())
def test_validate_reports_exactly_the_injected_defects(case):
    doc, expected = case
    assert validate_hierarchy(parse_hierarchy(doc)) == expected
