"""Dependency graphs with explicit conjunction nodes.

A program maps to a graph whose nodes are atoms plus two kinds of helpers:
conjunction nodes standing for multi-literal rule bodies, and constraint
nodes standing for the (always false) head of a headless constraint.
``build_cnr`` produces the conjunction-node form; ``cnr_to_dg`` flips the
sign of every edge touching a conjunction node (De Morgan), which yields a
proper dependency graph: after the flip a conjunction node is true exactly
when its rule body fails.

Both stages are single passes, and both graphs share one canonical order.
Nodes come as the sorted atoms, then the helper nodes in the order their
rules appear. Each out-list is sorted by (dst, sign) and each in-list by
(src, sign), with the negative sign first. ``cnr_to_dg`` maps every list in
place, so in the transformed graph parallel edges between the same two
nodes keep the order of their signs before the flip. ``justify``,
``cycles.enumerate_cycles`` and igasp's ``build_index`` walk the transformed
graph in this order, so their answers depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .syntax import Program, Rule

CONJ_PREFIX = "__conj_"
CONSTRAINT_PREFIX = "__constraint_"


class DoubleTransformError(RuntimeError):
    """cnr_to_dg applied to an already transformed graph."""


class NodeKind(Enum):
    ATOM = "atom"
    CONJ = "conj"
    CONSTRAINT = "constraint"


class Sign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"

    def flipped(self) -> Sign:
        return Sign.NEGATIVE if self is Sign.POSITIVE else Sign.POSITIVE


def node_kind(node_id: str) -> NodeKind:
    if node_id.startswith(CONJ_PREFIX):
        return NodeKind.CONJ
    if node_id.startswith(CONSTRAINT_PREFIX):
        return NodeKind.CONSTRAINT
    return NodeKind.ATOM


def helper_ordinal(node_id: str) -> int:
    return int(node_id.rsplit("_", 1)[1])


@dataclass(frozen=True, slots=True)
class Edge:
    src: str
    dst: str
    sign: Sign

    @property
    def negative(self) -> bool:
        return self.sign is Sign.NEGATIVE


class DepGraph:
    """Nodes with their in- and out-edge lists; immutable by convention.

    Each edge is one object, held in its source's out-list and in its
    target's in-list.
    """

    def __init__(
        self,
        out: dict[str, list[Edge]],
        in_: dict[str, list[Edge]],
        fixed: dict[str, bool],
        origin: dict[str, tuple[Rule, ...]],
        transformed: bool = False,
        rule_count: int = 0,
    ):
        self._out = out  # its key order is the node order
        self._in = in_
        self._fixed = fixed
        self.origin = origin
        self.transformed = transformed
        self.rule_count = rule_count

    @property
    def nodes(self) -> list[str]:
        return list(self._out)

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(e for edges in self._out.values() for e in edges)

    def has_node(self, node: str) -> bool:
        return node in self._out

    def fixed_value(self, node: str) -> bool | None:
        return self._fixed.get(node)

    @property
    def fixed(self) -> dict[str, bool]:
        return dict(self._fixed)

    def out_edges(self, node: str) -> list[Edge]:
        return self._out[node]

    def in_edges(self, node: str) -> list[Edge]:
        return self._in[node]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DepGraph):
            return NotImplemented
        return (
            self._out.keys() == other._out.keys()
            and self._fixed == other._fixed
            and self.edges == other.edges
            and self.transformed == other.transformed
        )

    def __hash__(self):
        raise TypeError("DepGraph is not hashable")


def build_cnr(program: Program) -> DepGraph:
    """Conjunction-node graph of a program.

    One conjunction node per distinct rule with >= 2 body literals; rules
    with a single body literal become a direct edge. Facts fix their head
    node to True; each distinct headless constraint gets a False-fixed
    constraint node standing in for its head. Duplicate rules (same head and
    body set) collapse onto one node/edge set, with every source rule kept
    in the origin map.
    """
    nodes = sorted(program.atoms)
    facts: set[str] = set()
    constraints: dict[str, bool] = {}  # constraint node -> False
    origin: dict[str, tuple[Rule, ...]] = {}
    triples: set[tuple[str, str, bool]] = set()  # (src, dst, positive)
    seen: dict[tuple, tuple[str, ...]] = {}
    conj_count = 0
    for rule in program.rules:
        key = (rule.head, frozenset(rule.body))
        helpers = seen.get(key)
        if helpers is not None:
            for helper in helpers:
                origin[helper] += (rule,)
            continue

        helpers = ()
        head_node = rule.head
        if head_node is None:
            head_node = f"{CONSTRAINT_PREFIX}{len(constraints)}"
            nodes.append(head_node)
            constraints[head_node] = False
            origin[head_node] = (rule,)
            helpers = (head_node,)
        elif not rule.body:
            facts.add(head_node)
            seen[key] = ()
            continue

        if len(rule.body) == 1:
            lit = rule.body[0]
            triples.add((lit.atom, head_node, not lit.negated))
        else:
            conj = f"{CONJ_PREFIX}{conj_count}"
            conj_count += 1
            nodes.append(conj)
            origin[conj] = (rule,)
            helpers += (conj,)
            for lit in rule.body:
                triples.add((lit.atom, conj, not lit.negated))
            triples.add((conj, head_node, True))
        seen[key] = helpers

    out: dict[str, list[Edge]] = {node: [] for node in nodes}
    in_: dict[str, list[Edge]] = {node: [] for node in nodes}
    sign = (Sign.NEGATIVE, Sign.POSITIVE)
    for src, dst, positive in sorted(triples):
        edge = Edge(src, dst, sign[positive])
        out[src].append(edge)
        in_[dst].append(edge)
    fixed = {**dict.fromkeys(sorted(facts), True), **constraints}  # node order
    return DepGraph(out, in_, fixed, origin, rule_count=len(program.rules))


def flip_conjunction_signs(g: DepGraph) -> DepGraph:
    """Copy of g with every conjunction-incident edge sign-flipped.

    Every list keeps its order, and an edge that touches no conjunction
    node is the same object in both graphs.
    """
    flipped: dict[int, Edge] = {}  # id of an edge of g -> its flipped copy
    for node in g._out:
        if node.startswith(CONJ_PREFIX):
            for e in g._in[node] + g._out[node]:
                flipped[id(e)] = Edge(e.src, e.dst, e.sign.flipped())
    out = {n: [flipped.get(id(e), e) for e in edges] for n, edges in g._out.items()}
    in_ = {n: [flipped.get(id(e), e) for e in edges] for n, edges in g._in.items()}
    return DepGraph(out, in_, dict(g._fixed), dict(g.origin), g.transformed, g.rule_count)


def cnr_to_dg(g: DepGraph) -> DepGraph:
    """De Morgan rewrite: negate all in- and out-edges of conjunction nodes."""
    if g.transformed:
        raise DoubleTransformError("graph has already been transformed")
    out = flip_conjunction_signs(g)
    out.transformed = True
    return out


def atoms_of(g: DepGraph) -> frozenset[str]:
    """Atom node names; helper nodes are never reported in answer sets."""
    return frozenset(n for n in g.nodes if node_kind(n) is NodeKind.ATOM)


_KIND_ORDER = {NodeKind.ATOM: 0, NodeKind.CONJ: 1, NodeKind.CONSTRAINT: 2}


def _node_sort_key(node: str):
    kind = node_kind(node)
    if kind is NodeKind.ATOM:
        return (_KIND_ORDER[kind], node, 0)
    return (_KIND_ORDER[kind], "", helper_ordinal(node))


def sorted_nodes(g: DepGraph) -> list[str]:
    return sorted(g.nodes, key=_node_sort_key)


def export_dot(g: DepGraph) -> str:
    """Graphviz text: negative edges dashed with label "not", conjunction
    nodes filled black, constraint nodes double-circled."""
    if not g.nodes:
        return "digraph g {}"
    lines = ["digraph g {"]
    for node in sorted_nodes(g):
        kind = node_kind(node)
        if kind is NodeKind.CONJ:
            attrs = ' [shape=circle, style=filled, fillcolor=black, label=""]'
        elif kind is NodeKind.CONSTRAINT:
            attrs = " [shape=doublecircle]"
        else:
            attrs = ""
        lines.append(f'  "{node}"{attrs};')
    for edge in sorted(g.edges, key=lambda e: (_node_sort_key(e.src), _node_sort_key(e.dst), e.sign.value)):
        attrs = ' [label="not", style=dashed]' if edge.negative else ""
        lines.append(f'  "{edge.src}" -> "{edge.dst}"{attrs};')
    lines.append("}")
    return "\n".join(lines)


def graph_to_json(g: DepGraph) -> dict:
    """JSON-ready document: {nodes: [{id, kind, fixed}], edges: [...]}."""
    return {
        "nodes": [
            {"id": n, "kind": node_kind(n).value, "fixed": g.fixed_value(n)}
            for n in sorted_nodes(g)
        ],
        "edges": [
            {"from": e.src, "to": e.dst, "sign": e.sign.value}
            for e in sorted(
                g.edges,
                key=lambda e: (_node_sort_key(e.src), _node_sort_key(e.dst), e.sign.value),
            )
        ],
        "transformed": g.transformed,
    }
