"""Three-layer evaluation index tree: objective -> criterion -> indicator.

The tree has exactly three layers: one objective (the root), its criteria, and
the indicators (leaves) under each criterion. It fixes the column order used by
every downstream matrix: the leaves are the criteria in declared order, each
expanded to its children in declared order. Judgment matrices follow the same
order: the criterion matrix is in criteria order, and each criterion's matrix
is in the order of that criterion's leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .dataprep import read_json

LAYERS = ("objective", "criterion", "indicator")
DIRECTIONS = ("benefit", "cost")
MAX_ID_LEN = 32


@dataclass(frozen=True)
class IndicatorNode:
    id: str
    label: str
    layer: str
    direction: str | None = None  # leaves only
    parent_id: str | None = None
    children: tuple[str, ...] = ()


@dataclass(frozen=True)
class IndexHierarchy:
    nodes: dict[str, IndicatorNode]
    root_id: str

    def criterion_ids(self) -> list[str]:
        return list(self.nodes[self.root_id].children)

    def directions(self) -> dict[str, str]:
        """Map each leaf id to its benefit/cost direction."""
        return {i: self.nodes[i].direction for i in leaf_indicators(self)}


def validate_hierarchy(h: IndexHierarchy) -> list[str]:
    """Check structural invariants; returns a list of violations (empty = ok).

    Violations are data, not exceptions: callers decide whether to abort.
    """
    issues: list[str] = []
    if h.root_id not in h.nodes:
        return [f"root id {h.root_id!r} not among nodes"]
    root = h.nodes[h.root_id]
    if root.layer != "objective":
        issues.append(f"root {root.id!r} has layer {root.layer!r}, expected 'objective'")

    for nid, node in h.nodes.items():
        if nid != node.id:
            issues.append(f"node keyed {nid!r} carries id {node.id!r}")
        if not node.id.isascii() or len(node.id) > MAX_ID_LEN or not node.id:
            issues.append(f"id {node.id!r} must be non-empty ASCII of at most {MAX_ID_LEN} chars")
        if node.layer not in LAYERS:
            issues.append(f"node {nid!r} has unknown layer {node.layer!r}")
        for c in node.children:
            if c not in h.nodes:
                issues.append(f"node {nid!r} references missing child {c!r}")
            elif h.nodes[c].parent_id != nid:
                issues.append(f"child {c!r} does not point back to parent {nid!r}")
        if node.layer == "indicator":
            if node.children:
                issues.append(f"indicator {nid!r} must be a leaf")
            if node.direction not in DIRECTIONS:
                issues.append(f"leaf {nid!r} missing benefit/cost direction")
        else:
            if node.direction is not None:
                issues.append(f"non-leaf {nid!r} must not carry a direction")

    roots = [n for n in h.nodes.values() if n.parent_id is None]
    if len(roots) != 1 or (len(roots) == 1 and roots[0].id != h.root_id):
        issues.append(f"expected exactly one root ({h.root_id!r}), found {[n.id for n in roots]}")

    for c in h.nodes[h.root_id].children:
        node = h.nodes.get(c)
        if node is None:
            continue
        if node.layer != "criterion":
            issues.append(f"child {c!r} of the root must be a criterion")
        elif not node.children:
            issues.append(f"empty criterion {c!r}")
        else:
            for leaf in node.children:
                if leaf in h.nodes and h.nodes[leaf].layer != "indicator":
                    issues.append(f"child {leaf!r} of criterion {c!r} must be an indicator")
    if not h.nodes[h.root_id].children:
        issues.append("root has no criteria")

    # orphans: everything must be reachable from the root
    reachable = set()
    stack = [h.root_id]
    while stack:
        nid = stack.pop()
        if nid in reachable or nid not in h.nodes:
            continue
        reachable.add(nid)
        stack.extend(h.nodes[nid].children)
    for nid in h.nodes:
        if nid not in reachable:
            issues.append(f"orphan node {nid!r}")
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
    if not isinstance(obj, dict) or "id" not in obj:
        where = "the root" if parent_id is None else f"a child of {parent_id!r}"
        raise ValueError(f"{where} must be a JSON object with an 'id', got {obj!r:.80}")
    nid = str(obj["id"])
    children_objs = obj.get("children", [])
    if not isinstance(children_objs, list):
        raise ValueError(f"node {nid!r}: 'children' must be a list, got {children_objs!r}")
    if depth >= 2 and children_objs:
        raise ValueError(f"node {nid!r}: nesting deeper than three layers is not supported")
    if nid in nodes:
        raise ValueError(f"duplicate node id {nid!r}")
    nodes[nid] = None  # reserve the pre-order slot; the node is built once its children are
    children = tuple(_parse_node(c, nid, depth + 1, nodes) for c in children_objs)
    nodes[nid] = IndicatorNode(
        id=nid,
        label=str(obj.get("label", nid)),
        layer=LAYERS[depth],
        direction=obj.get("direction") if not children_objs else None,
        parent_id=parent_id,
        children=children,
    )
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
