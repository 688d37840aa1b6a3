"""Truth assignments over dependency-graph nodes.

A World is a (possibly partial) assignment node -> True/False. Nodes not in
the map are unfixed. Assignments are monotone: writing a conflicting value
marks the world inconsistent instead of flipping the node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import (
    CONJ_PREFIX,
    CONSTRAINT_PREFIX,
    DepGraph,
    Edge,
    NodeKind,
    Sign,
    node_kind,
)


@dataclass
class World:
    values: dict[str, bool] = field(default_factory=dict)
    consistent: bool = True

    def value(self, node: str) -> bool | None:
        return self.values.get(node)

    def assign(self, node: str, value: bool) -> bool:
        """Set a node's value; a conflict flags the world inconsistent."""
        current = self.values.get(node)
        if current is None:
            self.values[node] = value
            return True
        if current != value:
            self.consistent = False
            return False
        return True

    def copy(self) -> World:
        return World(dict(self.values), self.consistent)

    def true_atoms(self, g: DepGraph) -> frozenset[str]:
        return frozenset(
            n
            for n, v in self.values.items()
            if v and node_kind(n) is NodeKind.ATOM and g.has_node(n)
        )

    def is_complete(self, g: DepGraph) -> bool:
        return all(n in self.values for n in g.nodes)


def initial_world(g: DepGraph) -> World:
    """World holding just the graph's fixed values (facts and constraints)."""
    return World(dict(g.fixed))


def body_literal(edge: Edge, transformed: bool) -> tuple[str, bool]:
    """(atom, negated) encoded by an edge into a conjunction node, or by a
    direct body-to-head edge. Direct edges keep their sign through the
    transformation; conjunction in-edges carry the flipped sign afterwards."""
    if node_kind(edge.dst) is NodeKind.CONJ and transformed:
        return (edge.src, edge.sign is Sign.POSITIVE)
    return (edge.src, edge.sign is Sign.NEGATIVE)


def node_bodies(g: DepGraph, node: str) -> list[tuple[tuple[str, bool], ...]]:
    """Rule bodies feeding a node, as (atom, negated) tuples.

    One body per in-edge: a conjunction-node source expands to the literals
    of its own in-edges, a direct atom source is a one-literal body.
    """
    bodies = []
    for edge in g.in_edges(node):
        if node_kind(edge.src) is NodeKind.CONJ:
            bodies.append(
                tuple(body_literal(e, g.transformed) for e in g.in_edges(edge.src))
            )
        else:
            bodies.append((body_literal(edge, g.transformed),))
    return bodies


def eval_body(
    body: tuple[tuple[str, bool], ...], value_of
) -> bool | None:
    """Three-valued body evaluation; None while any literal is undecided."""
    result = True
    for atom, negated in body:
        val = value_of(atom)
        if val is None:
            result = None
        elif val == negated:
            return False
    return result


def world_from_atoms(g: DepGraph, true_atoms) -> World:
    """Total world induced by an atom assignment.

    Conjunction nodes take the negation of their body's value (the
    transformed-graph reading); constraint nodes stay False. After the flip
    a conjunction node is True when any of its in-edges is effective (a
    positive edge from a True node or a negative edge from a False one);
    before it, when all of them are.
    """
    true_atoms = frozenset(true_atoms)
    values: dict[str, bool] = {}
    conjunctions = []
    for node in g.nodes:
        if node.startswith(CONJ_PREFIX):
            conjunctions.append(node)
        elif node.startswith(CONSTRAINT_PREFIX):
            values[node] = False
        else:
            values[node] = node in true_atoms
    positive = Sign.POSITIVE
    for node in conjunctions:
        effective = [values[e.src] == (e.sign is positive) for e in g.in_edges(node)]
        values[node] = any(effective) if g.transformed else all(effective)
    return World(values)
