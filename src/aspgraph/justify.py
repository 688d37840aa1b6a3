"""Causal justification trees over a valued dependency graph.

An edge is effective when it actually propagated True: a positive edge from
a True node or a negative edge from a False node. A True atom is explained
by its effective in-edges, a False atom by listing why each in-edge failed
to fire. Conjunction nodes appear as internal tree nodes annotated with
their source rule; recursion stops at facts, rule-less atoms, loop-backs
onto the current path, and nodes already expanded elsewhere in the tree.

``check_justified`` validates a whole world on the graph's integer lists
and checks foundedness with the graph's one least fixpoint over its body
table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    DepGraph,
    Edge,
    NodeKind,
    Sign,
    atoms_of,
    least_fixpoint,
    node_kind,
)
from .worlds import World


class AtomUnknown(ValueError):
    """Requested atom is not an atom node of the graph."""


class WorldIncomplete(ValueError):
    """Justification requires every node to carry a value."""


def is_effective(edge: Edge, w: World) -> bool:
    value = w.value(edge.src)
    if value is None:
        return False
    return (edge.sign is Sign.POSITIVE) == value


@dataclass(frozen=True)
class JustificationTree:
    node: str
    value: bool
    reason: str
    children: tuple[JustificationTree, ...] = ()
    primary: bool = False

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)


def _edge_reason(edge: Edge, w: World) -> str:
    src_value = "true" if w.value(edge.src) else "false"
    sign = "positive" if edge.sign is Sign.POSITIVE else "negative"
    if is_effective(edge, w):
        return f"{sign} edge from {src_value} {edge.src}"
    return f"{sign} edge from {src_value} {edge.src} (not effective)"


def _node_label(g: DepGraph, node: str) -> str:
    if node_kind(node) is NodeKind.CONJ and node in g.origin:
        return f"body of rule [{g.origin[node][0]}]"
    return ""


def justify(g: DepGraph, w: World, atom: str) -> JustificationTree:
    """Justification tree for an atom in a completed world.

    True nodes branch on every effective in-edge, the lexicographically
    smallest source marked primary; False nodes list all in-edges with the
    reason each one is not effective.
    """
    if atom not in atoms_of(g):
        raise AtomUnknown(f"{atom!r} is not a program atom")
    if not w.is_complete(g):
        missing = sorted(n for n in g.nodes if w.value(n) is None)
        raise WorldIncomplete(f"unfixed nodes: {', '.join(missing)}")

    expanded: set[str] = set()

    def build(
        node: str, via: str, path: frozenset[str], primary: bool = False
    ) -> JustificationTree:
        value = bool(w.value(node))
        note = _node_label(g, node)
        prefix = f"{via}; " if via else ""
        if node in path:
            return JustificationTree(
                node, value, prefix + "coinductive assumption (loop)", (), primary
            )
        if node in expanded:
            return JustificationTree(
                node, value, prefix + "shown elsewhere in this tree", (), primary
            )
        if g.fixed_value(node) is True:
            return JustificationTree(node, value, prefix + "fact", (), primary)
        in_edges = sorted(g.in_edges(node), key=lambda e: (e.src, e.sign.value))
        if not in_edges:
            return JustificationTree(node, value, prefix + "no rules", (), primary)
        expanded.add(node)
        sub_path = path | {node}
        if value:
            support = [e for e in in_edges if is_effective(e, w)]
            primary_src = min(e.src for e in support) if support else None
            children = tuple(
                build(e.src, _edge_reason(e, w), sub_path, e.src == primary_src)
                for e in support
            )
            reason = prefix + (note or "supported")
        else:
            children = tuple(build(e.src, _edge_reason(e, w), sub_path) for e in in_edges)
            reason = prefix + (note or "no effective in-edge")
        return JustificationTree(node, value, reason, children, primary)

    return build(atom, "", frozenset())


def check_justified(g: DepGraph, w: World) -> bool:
    """Post-hoc validator: the world's True projection is an answer set.

    Requires a complete world consistent with fixed values in which every
    True node is a fact or has an effective in-edge, no False node receives
    an effective edge, and every True atom is founded: it lies in the least
    fixpoint of the graph's rule bodies that hold, so it is derivable from
    facts and negation without resting on a positive cycle.
    """
    if not w.is_complete(g):
        return False
    values = list(map(w.values.__getitem__, g.names))
    fixed_nodes = g.fixed_nodes
    for node, entries in enumerate(g.pred):
        value = values[node]
        fixed = fixed_nodes.get(node)
        if fixed is not None and value != fixed:
            return False
        effective = any(values[e >> 1] == e & 1 for e in entries)
        if value and not effective and fixed is not True:
            return False
        if not value and effective:
            return False
    # After the checks above only a True atom has a body that holds, and
    # only True atoms need a derivation.
    t = g.bodies
    value_of = values.__getitem__
    true_atoms = [a for a in range(g.atom_count) if values[a]]
    holding = [
        i
        for a in true_atoms
        for i in range(t.start[a], t.start[a + 1])
        if all(map(value_of, t.pos[i])) and not any(map(value_of, t.neg[i]))
    ]
    founded = least_fixpoint(t.head, t.pos, t.pos_uses, holding)
    return all(a in founded for a in true_atoms)


def render_text(tree: JustificationTree, indent: str = "") -> str:
    value = "True" if tree.value else "False"
    star = " *" if tree.primary else ""
    lines = [f"{indent}{tree.node} = {value}  [{tree.reason}]{star}"]
    for child in tree.children:
        lines.append(render_text(child, indent + "  "))
    return "\n".join(lines)


def tree_to_json(tree: JustificationTree) -> dict:
    return {
        "node": tree.node,
        "value": tree.value,
        "reason": tree.reason,
        "primary": tree.primary,
        "children": [tree_to_json(child) for child in tree.children],
    }


def export_dot_world(g: DepGraph, w: World) -> str:
    """DOT rendering of the valued graph with effective edges highlighted."""
    from .graph import sorted_nodes, _node_sort_key

    lines = ["digraph justification {"]
    for node in sorted_nodes(g):
        kind = node_kind(node)
        value = w.value(node)
        shape = {
            NodeKind.ATOM: "ellipse",
            NodeKind.CONJ: "circle",
            NodeKind.CONSTRAINT: "doublecircle",
        }[kind]
        color = "palegreen" if value else "lightgray"
        label = node if kind is not NodeKind.CONJ else ""
        lines.append(
            f'  "{node}" [shape={shape}, style=filled, fillcolor={color}, label="{label}"];'
        )
    for edge in sorted(g.edges, key=lambda e: (_node_sort_key(e.src), _node_sort_key(e.dst), e.sign.value)):
        attrs = []
        if edge.negative:
            attrs.append('label="not"')
            attrs.append("style=dashed")
        if is_effective(edge, w):
            attrs.append("color=red")
            attrs.append("penwidth=2")
        rendered = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{edge.src}" -> "{edge.dst}"{rendered};')
    lines.append("}")
    return "\n".join(lines)
