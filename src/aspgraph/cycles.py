"""Cycle structure of a dependency graph.

Strongly connected components with at least one internal cycle are wrapped
into virtual nodes so the stratified solver can treat each tangle as a
single unit; they are found by an iterative form of Tarjan's algorithm
(SIAM J. Comput. 1972). A virtual node holds ascending node numbers, and
the components come ordered by their smallest member, which is their
smallest atom: conjunction nodes sit between atoms, and constraint nodes
have no out-edges. Simple cycles inside a component are enumerated over
its member numbers by Johnson's algorithm (SIAM J. Comput. 1975), and
classified by their count of negative edges: even (> 0 and even), odd, or
positive (none). No node name is read: the census only counts.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from typing import NamedTuple

from .graph import DepGraph

DEFAULT_CYCLE_CAP = 10**6
CYCLE_CAP_ENV = "ASPGRAPH_CYCLE_CAP"


class CycleCapError(ValueError):
    """The cycle cap set in the environment is not an integer of at least 1."""


def default_cycle_cap() -> int:
    value = os.environ.get(CYCLE_CAP_ENV)
    if not value:
        return DEFAULT_CYCLE_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise CycleCapError(
            f"{CYCLE_CAP_ENV} must be an integer of at least 1, got {value!r}"
        )
    return cap


class CycleExplosionError(RuntimeError):
    """The census counted more signed simple cycles than the cycle cap."""

    def __init__(self, partial_count: int, cap: int):
        super().__init__(
            f"cycle cap hit: more than {cap} signed simple cycles "
            f"(stopped at {partial_count}); {CYCLE_CAP_ENV} sets the cap"
        )
        self.partial_count = partial_count
        self.cap = cap


class VirtualNode(NamedTuple):
    """One strongly connected component wrapped as a single node: its
    members, as ascending node numbers."""

    members: tuple[int, ...]


def _strong_components(
    size: int, roots: Iterable[int], entries: Callable[[int], Iterable[int]]
) -> Iterator[list[int]]:
    """Tarjan's strongly connected components of the part of a graph over
    the nodes 0 .. size - 1 reachable from roots, each yielded as soon as it
    closes. entries(v) gives v's adjacency entries ``2 * node + bit``, such
    as a graph's succ or pred list, and the low bit is shifted off here, so
    no caller builds a copy of its lists without signs. An explicit stack
    of entry iterators stands in for the recursion."""
    index = [-1] * size
    low = [0] * size
    count = 0
    done = size  # low value of a node whose component is closed
    stack = []
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(entries(root)))]
        while work:
            v, edges = work[-1]
            for w in edges:
                w >>= 1
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(entries(w))))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        low[w] = done
                        component.append(w)
                        if w == v:
                            break
                    yield component
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]


def find_virtual_nodes(g: DepGraph) -> list[VirtualNode]:
    """Virtual nodes for every SCC of size >= 2 or single node with a
    self-loop, ordered by smallest member; wrapping them leaves the
    condensation acyclic."""
    cyclic = []
    succ = g.succ
    size = len(succ)
    for component in _strong_components(size, range(size), succ.__getitem__):
        if len(component) == 1:
            (node,) = component
            if 2 * node not in succ[node] and 2 * node + 1 not in succ[node]:
                continue
        cyclic.append(sorted(component))
    return [VirtualNode(tuple(members)) for members in sorted(cyclic)]


def _signed_cycles(v: VirtualNode, g: DepGraph) -> Iterator[tuple[int, int]]:
    """Johnson's simple cycles of the component's node graph, over member
    positions in number order, with parallel edges merged into one hop
    (Hawick & James, 2008).

    Each start is the smallest member on a cycle among the members not yet
    used as a start, and searches only its strong component among them, so
    each cycle is found once and starts at its smallest member; members
    outside that component stay blocked. Yields (free, negative) per
    cycle: free is its count of hops joined by edges of both signs, and
    negative its count of negative-only hops.
    """
    members = v.members
    local = {m: i for i, m in enumerate(members)}
    signs: dict[tuple[int, int], int] = {}  # bit 1: a positive edge, 2: a negative one
    for i, m in enumerate(members):
        for e in g.succ[m]:
            j = local.get(e >> 1)
            if j is not None:
                signs[i, j] = signs.get((i, j), 0) | (1 if e & 1 else 2)
    succ: list[list[tuple[int, bool, bool]]] = [[] for _ in members]
    for (i, j), bits in signs.items():
        succ[i].append((j, bits == 3, bits == 2))

    s = 0
    while True:
        ahead = lambda i: [2 * j for j, _, _ in succ[i] if j >= s]  # as entries
        cyclic = [
            c
            for c in _strong_components(len(members), range(s, len(members)), ahead)
            if len(c) > 1 or 2 * c[0] in ahead(c[0])
        ]
        if not cyclic:
            return
        component = min(cyclic, key=min)
        s = min(component)
        blocked = [True] * len(members)
        for i in component:
            blocked[i] = i == s
        blocked_by = [set() for _ in members]
        # one frame per path node: (the node, its unexplored hops, the free
        # and negative hops up to it, the cycle count when it was pushed)
        found = 0
        stack = [(s, iter(succ[s]), 0, 0, found)]
        while stack:
            u, edges, free, negative, pushed_at = stack[-1]
            for w, f, n in edges:
                if w == s:
                    found += 1
                    yield free + f, negative + n
                elif not blocked[w]:
                    blocked[w] = True
                    stack.append((w, iter(succ[w]), free + f, negative + n, found))
                    break
            else:
                stack.pop()
                if found > pushed_at:
                    # a cycle ran through u: unblock it and all that waits on it
                    pending = [u]
                    while pending:
                        x = pending.pop()
                        if blocked[x]:
                            blocked[x] = False
                            pending.extend(blocked_by[x])
                            blocked_by[x].clear()
                else:
                    for w, _, _ in succ[u]:
                        blocked_by[w].add(u)
        s += 1


def _kinds(free: int, negative: int) -> tuple[int, int, int]:
    """(even, odd, positive) counts of the sign variants of a cycle with
    free hops of either sign and negative hops: with a free hop the two
    parities split evenly, and with no negative hop one variant is positive."""
    positive = 0 if negative else 1
    if free:
        half = 1 << (free - 1)
        return half - positive, half, positive
    odd = negative & 1
    return 1 - odd - positive, odd, positive


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
    """(even, odd, positive) cycle totals across all virtual nodes, each
    sign variant of a cycle counted."""
    if cap is None:
        cap = default_cycle_cap()
    even = odd = positive = 0
    for v in find_virtual_nodes(g):
        for free, negative in _signed_cycles(v, g):
            e, o, p = _kinds(free, negative)
            even += e
            odd += o
            positive += p
            if even + odd + positive > cap:
                raise CycleExplosionError(even + odd + positive, cap)
    return (even, odd, positive)
