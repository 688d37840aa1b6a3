"""Cycle structure of a dependency graph.

Strongly connected components with at least one internal cycle are wrapped
into virtual nodes so the stratified solver can treat each tangle as a
single unit. Simple cycles inside a component are classified by their count
of negative edges: even (> 0 and even), odd, or positive (none).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from itertools import product

import networkx as nx

from .graph import DepGraph, Edge

DEFAULT_CYCLE_CAP = 10**6
CYCLE_CAP_ENV = "ASPGRAPH_CYCLE_CAP"


def default_cycle_cap() -> int:
    value = os.environ.get(CYCLE_CAP_ENV)
    return int(value) if value else DEFAULT_CYCLE_CAP


class CycleExplosionError(RuntimeError):
    """Simple-cycle count exceeded the enumeration cap."""

    def __init__(self, partial_count: int, cap: int):
        super().__init__(f"more than {cap} simple cycles (stopped at {partial_count})")
        self.partial_count = partial_count
        self.cap = cap


class CycleKind(Enum):
    EVEN = "even"
    ODD = "odd"
    POSITIVE = "positive"


def classify(negative_edge_count: int) -> CycleKind:
    if negative_edge_count == 0:
        return CycleKind.POSITIVE
    return CycleKind.ODD if negative_edge_count % 2 else CycleKind.EVEN


@dataclass(frozen=True)
class VirtualNode:
    """One strongly connected component wrapped as a single node."""

    members: frozenset[str]
    boundary_in: frozenset[Edge]
    boundary_out: frozenset[Edge]

    @property
    def key(self) -> str:
        return min(self.members)


def _digraph(g: DepGraph) -> nx.DiGraph:
    nxg = nx.DiGraph()
    nxg.add_nodes_from(g.nodes)
    nxg.add_edges_from((e.src, e.dst) for e in g.edges)
    return nxg


def find_virtual_nodes(g: DepGraph) -> list[VirtualNode]:
    """Virtual nodes for every SCC of size >= 2 or single node with a
    self-loop; wrapping them leaves the condensation acyclic."""
    self_loops = {e.src for e in g.edges if e.src == e.dst}
    virtual = []
    for component in nx.strongly_connected_components(_digraph(g)):
        if len(component) == 1:
            (node,) = component
            if node not in self_loops:
                continue
        members = frozenset(component)
        boundary_in = frozenset(
            e for m in members for e in g.in_edges(m) if e.src not in members
        )
        boundary_out = frozenset(
            e for m in members for e in g.out_edges(m) if e.dst not in members
        )
        virtual.append(VirtualNode(members, boundary_in, boundary_out))
    return sorted(virtual, key=lambda v: v.key)


def _node_cycles(v: VirtualNode, g: DepGraph):
    """Simple node cycles within the component, rotated to their smallest
    node, with the sign choices available on each hop."""
    signs: dict[tuple[str, str], list[bool]] = {}
    for m in sorted(v.members):
        for e in g.out_edges(m):
            if e.dst in v.members:
                signs.setdefault((e.src, e.dst), []).append(e.negative)
    for flags in signs.values():
        flags.sort()
    sub = nx.DiGraph()
    sub.add_nodes_from(v.members)
    sub.add_edges_from(signs)
    for node_cycle in nx.simple_cycles(sub):
        start = node_cycle.index(min(node_cycle))
        rotated = tuple(node_cycle[start:] + node_cycle[:start])
        hops = [
            signs[rotated[i], rotated[(i + 1) % len(rotated)]]
            for i in range(len(rotated))
        ]
        yield rotated, hops


def enumerate_cycles(
    v: VirtualNode, g: DepGraph, cap: int | None = None
) -> list[tuple[tuple[str, ...], CycleKind]]:
    """All simple directed cycles within the component, classified.

    Where two atoms are connected by parallel edges of both signs, each sign
    combination counts as a distinct cycle. Cycles are rotated to start at
    their smallest node and returned in lexicographic order. Raises
    CycleExplosionError past the cap (default 10^6).
    """
    if cap is None:
        cap = default_cycle_cap()
    found: list[tuple[tuple[str, ...], CycleKind]] = []
    count = 0
    for rotated, hops in _node_cycles(v, g):
        for combo in product(*hops):
            count += 1
            if count > cap:
                raise CycleExplosionError(count, cap)
            found.append((rotated, classify(sum(combo))))
    found.sort(key=lambda item: (item[0], item[1].value))
    return found


def cycle_stats_json(g: DepGraph, cap: int | None = None) -> dict:
    """Benchmark-table record for one program's graph."""
    even, odd, positive = cycle_stats(g, cap)
    return {
        "rules": g.rule_count,
        "even_cycles": even,
        "odd_cycles": odd,
        "positive_cycles": positive,
    }


def cycle_stats(g: DepGraph, cap: int | None = None) -> tuple[int, int, int]:
    """(even, odd, positive) cycle totals across all virtual nodes.

    Sign expansions of parallel-edge cycles are counted combinatorially: a
    cycle with m both-sign hops splits evenly into 2^(m-1) odd and 2^(m-1)
    even variants, one of which is all-positive when no hop is forced
    negative.
    """
    if cap is None:
        cap = default_cycle_cap()
    even = odd = positive = 0
    for v in find_virtual_nodes(g):
        for _, hops in _node_cycles(v, g):
            free = sum(1 for signs in hops if len(signs) == 2)
            forced_neg = sum(1 for signs in hops if signs == [True])
            variants = 1 << free
            if even + odd + positive + variants > cap:
                raise CycleExplosionError(even + odd + positive + variants, cap)
            if free:
                # with any free hop the two parity classes split evenly
                even_parity = odd_parity = variants // 2
            else:
                even_parity = 1 if forced_neg % 2 == 0 else 0
                odd_parity = 1 - even_parity
            all_positive = 1 if forced_neg == 0 else 0
            even += even_parity - all_positive
            odd += odd_parity
            positive += all_positive
    return (even, odd, positive)
