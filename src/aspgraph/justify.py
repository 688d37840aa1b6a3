"""Causal justification trees over a valued dependency graph.

An edge is effective when it actually propagated True: a positive edge from
a True node or a negative edge from a False node. A True atom is explained
by its effective in-edges, a False atom by listing why each in-edge failed
to fire. Conjunction nodes appear as internal tree nodes annotated with
their source rule; recursion stops at facts, rule-less atoms, loop-backs
onto the current path, and nodes already expanded elsewhere in the tree.

Everything here reads the graph's integer lists. ``justify`` reads the
world once into a list by node number, walks each node's ``pred`` entries
(an entry is effective when its source's value equals its sign bit) in
(source name, sign) order, and names a node only in the tree it returns.
``export_dot_world`` walks ``graph.export_order``, as the graph exports do.
``check_justified`` validates a whole world on either graph: the world
must be the one ``worlds.world_from_atoms`` gives its true atoms, and those
atoms must pass ``graph.stable``, the package's one answer-set check.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import SIGNS, DepGraph, NodeKind, export_order, stable
from .worlds import World, require_named, world_from_atoms


class AtomUnknown(ValueError):
    """Requested atom is not an atom node of the graph."""


class WorldIncomplete(ValueError):
    """Justification requires every node to carry a value."""


class JustificationTree(NamedTuple):
    node: str
    value: bool
    reason: str
    children: tuple[JustificationTree, ...] = ()
    primary: bool = False

    def size(self) -> int:
        """The number of nodes, counted with an explicit stack, so a tree
        of any depth is counted."""
        count = 0
        stack = [self]
        while stack:
            count += 1
            stack.extend(stack.pop().children)
        return count


def atom_node(g: DepGraph, atom: str) -> int:
    """A program atom's node number; AtomUnknown for any other name."""
    number = g.number.get(atom)
    if number is None or number >= g.atom_count:
        raise AtomUnknown(f"{atom!r} is not a program atom")
    return number


def justify(g: DepGraph, w: World, atom: str) -> JustificationTree:
    """Justification tree for an atom in a completed world.

    True nodes branch on every effective in-edge, the lexicographically
    smallest source marked primary; False nodes list all in-edges with the
    reason each one is not effective.
    """
    require_named(w)
    number = atom_node(g, atom)
    names = g.names
    values = list(map(w.values.get, names))
    if not w.is_complete(g):
        missing = sorted(n for n, value in zip(names, values) if value is None)
        raise WorldIncomplete(f"unfixed nodes: {', '.join(missing)}")

    expanded: set[int] = set()

    def edge_reason(entry: int) -> str:
        src, positive = entry >> 1, entry & 1
        value = "true" if values[src] else "false"
        text = f"{SIGNS[positive].value} edge from {value} {names[src]}"
        return text if values[src] == positive else text + " (not effective)"

    def build(
        node: int, via: str, path: frozenset[int], primary: bool = False
    ) -> JustificationTree:
        name, value = names[node], bool(values[node])
        prefix = f"{via}; " if via else ""
        if node in path:
            return JustificationTree(
                name, value, prefix + "coinductive assumption (loop)", (), primary
            )
        if node in expanded:
            return JustificationTree(
                name, value, prefix + "shown elsewhere in this tree", (), primary
            )
        if g.fixed_nodes.get(node) is True:
            return JustificationTree(name, value, prefix + "fact", (), primary)
        entries = sorted(g.pred[node], key=lambda e: (names[e >> 1], e & 1))
        if not entries:
            return JustificationTree(name, value, prefix + "no rules", (), primary)
        expanded.add(node)
        sub_path = path | {node}
        note = ""
        if g.conj[node] and name in g.origin:
            note = f"body of rule [{g.origin[name][0]}]"
        if value:
            # the sources are in name order, so the first support is primary
            support = [e for e in entries if values[e >> 1] == e & 1]
            children = tuple(
                build(e >> 1, edge_reason(e), sub_path, i == 0) for i, e in enumerate(support)
            )
            reason = prefix + (note or "supported")
        else:
            children = tuple(build(e >> 1, edge_reason(e), sub_path) for e in entries)
            reason = prefix + (note or "no effective in-edge")
        return JustificationTree(name, value, reason, children, primary)

    return build(number, "", frozenset())


def check_justified(g: DepGraph, w: World) -> bool:
    """Post-hoc validator: the world is the valuation of an answer set.

    Works on either graph, before or after the conjunction flip. The world
    must be complete, its values must be those ``world_from_atoms`` gives
    its true atoms M on this graph (facts, constraint nodes and conjunction
    nodes included), and ``graph.stable`` must accept M's mask: no
    constraint body holds in M, and the reduct's least fixpoint is M.
    """
    if not w.is_complete(g):  # raises on a world over node numbers
        return False
    values = w.values
    true_atoms = [name for name in g.names[: g.atom_count] if values[name]]
    expected = world_from_atoms(g, true_atoms).values
    if any(values[name] != value for name, value in expected.items()):
        return False
    number = g.number
    mask = 0
    for name in true_atoms:
        mask |= 1 << number[name]
    return stable(g, mask)


def render_text(tree: JustificationTree) -> str:
    """One line per node, depth first, indented two spaces per level; the
    walk keeps its own stack, so a tree of any depth renders."""
    lines = []
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        value = "True" if node.value else "False"
        star = " *" if node.primary else ""
        lines.append(f"{'  ' * depth}{node.node} = {value}  [{node.reason}]{star}")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines)


def tree_to_json(tree: JustificationTree) -> dict:
    """The tree as nested dicts, children in order; the walk keeps its own
    stack, so a tree of any depth converts."""

    def node_json(node: JustificationTree) -> dict:
        return {
            "node": node.node,
            "value": node.value,
            "reason": node.reason,
            "primary": node.primary,
            "children": [],
        }

    root = node_json(tree)
    stack = [(tree, root)]
    while stack:
        node, doc = stack.pop()
        for child in node.children:
            child_doc = node_json(child)
            doc["children"].append(child_doc)
            stack.append((child, child_doc))
    return root


def export_dot_world(g: DepGraph, w: World) -> str:
    """DOT rendering of the valued graph with effective edges highlighted."""
    require_named(w)
    names = g.names
    values = list(map(w.values.get, names))
    nodes, edges = export_order(g)
    shapes = {NodeKind.ATOM: "ellipse", NodeKind.CONJ: "circle", NodeKind.CONSTRAINT: "doublecircle"}
    lines = ["digraph justification {"]
    for node, kind in nodes:
        name = names[node]
        color = "palegreen" if values[node] else "lightgray"
        label = name if kind is not NodeKind.CONJ else ""
        lines.append(
            f'  "{name}" [shape={shapes[kind]}, style=filled, fillcolor={color}, label="{label}"];'
        )
    for src, dst, positive in edges:
        attrs = [] if positive else ['label="not"', "style=dashed"]
        if values[src] == positive:
            attrs += ["color=red", "penwidth=2"]
        rendered = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{names[src]}" -> "{names[dst]}"{rendered};')
    lines.append("}")
    return "\n".join(lines)
