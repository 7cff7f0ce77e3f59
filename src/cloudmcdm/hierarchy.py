"""Three-layer evaluation index tree: objective -> criterion -> indicator.

The tree has exactly three layers: one objective (the root), its criteria, and
the indicators (leaves) under each criterion. It fixes the column order used by
every downstream matrix: the leaves are the criteria in declared order, each
expanded to its children in declared order. Judgment matrices follow the same
order: the criterion matrix is in criteria order, and each criterion's matrix
is in the order of that criterion's leaves.

`parse_hierarchy` fixes the shape (unique string ids, layers set by depth, agreeing
parent and child links, one root that reaches every node) and keeps each id and
direction as written; `validate_hierarchy` judges them.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .dataprep import read_json

LAYERS = ("objective", "criterion", "indicator")
DIRECTIONS = ("benefit", "cost")
MAX_ID_LEN = 32


class IndicatorNode(NamedTuple):
    id: str
    label: str
    layer: str
    direction: str | None = None  # as written; validate_hierarchy allows one on leaves only
    parent_id: str | None = None
    children: tuple[str, ...] = ()


class IndexHierarchy(NamedTuple):
    """A tree built by `parse_hierarchy` or `load_hierarchy`, which fix its shape."""
    nodes: dict[str, IndicatorNode]
    root_id: str

    def criterion_ids(self) -> list[str]:
        return list(self.nodes[self.root_id].children)

    def cost_leaves(self) -> list[bool]:
        """One bool per leaf, in leaf order: True for a cost leaf, False for a benefit one."""
        return [self.nodes[i].direction == "cost" for i in leaf_indicators(self)]


def validate_hierarchy(h: IndexHierarchy) -> list[str]:
    """What parsing leaves possible, nodes in pre-order first: a bad id, a leaf without
    a benefit/cost direction, a non-leaf with one, an empty criterion, a root with no
    criteria. The violations are data (empty = ok): callers decide whether to abort."""
    issues: list[str] = []
    for nid, node in h.nodes.items():
        if not nid.isascii() or len(nid) > MAX_ID_LEN or not nid:
            issues.append(f"id {nid!r} must be non-empty ASCII of at most {MAX_ID_LEN} chars")
        if node.layer == "indicator" and node.direction not in DIRECTIONS:
            issues.append(f"leaf {nid!r} missing benefit/cost direction")
        elif node.layer != "indicator" and node.direction is not None:
            issues.append(f"non-leaf {nid!r} must not carry a direction")
    criteria = h.criterion_ids()
    issues += [f"empty criterion {c!r}" for c in criteria if not h.nodes[c].children]
    if not criteria:
        issues.append("root has no criteria")
    return issues


def leaf_indicators(h: IndexHierarchy, criterion_id: str | None = None) -> list[str]:
    """Ordered leaf ids: the criteria in declared order, each expanded to its
    children in declared order.

    With `criterion_id`, only that criterion's children.
    """
    if criterion_id is None:
        return [leaf for cid in h.criterion_ids() for leaf in h.nodes[cid].children]
    node = h.nodes.get(criterion_id)
    if node is None or node.layer != "criterion":
        raise KeyError(f"{criterion_id!r} is not a criterion node")
    return list(node.children)


def _parse_node(obj, parent_id: str | None, depth: int, nodes: dict[str, IndicatorNode]) -> str:
    if not isinstance(obj, dict) or not isinstance(obj.get("id"), str):
        where = "the root" if parent_id is None else f"a child of {parent_id!r}"
        raise ValueError(f"{where} must be a JSON object with a string 'id', got {obj!r:.80}")
    nid = obj["id"]
    children_objs = obj.get("children", [])
    if not isinstance(children_objs, list):
        raise ValueError(f"node {nid!r}: 'children' must be a list, got {children_objs!r}")
    label = obj.get("label", nid)
    if not isinstance(label, str):
        raise ValueError(f"node {nid!r}: 'label' must be a JSON string, got {label!r}")
    if depth >= 2 and children_objs:
        raise ValueError(f"node {nid!r}: nesting deeper than three layers is not supported")
    if nid in nodes:
        raise ValueError(f"duplicate node id {nid!r}")
    nodes[nid] = None  # reserve the pre-order slot; the node is built once its children are
    children = tuple(_parse_node(c, nid, depth + 1, nodes) for c in children_objs)
    nodes[nid] = IndicatorNode(id=nid, label=label, layer=LAYERS[depth],
                               direction=obj.get("direction"),
                               parent_id=parent_id, children=children)
    return nid


def parse_hierarchy(doc: dict) -> IndexHierarchy:
    """Build a hierarchy from the nested-JSON document form {"root": {...}}."""
    if not isinstance(doc, dict) or "root" not in doc:
        raise ValueError("hierarchy document must have a 'root' object")
    nodes: dict[str, IndicatorNode] = {}
    root_id = _parse_node(doc["root"], None, 0, nodes)
    return IndexHierarchy(nodes=nodes, root_id=root_id)


def load_hierarchy(path: str | Path) -> IndexHierarchy:
    doc = read_json(path)
    try:
        return parse_hierarchy(doc)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
