"""Bottom-up solver over the transformed dependency graph.

Solving walks the strongly-connected-component condensation in topological
order, by Kahn's algorithm: each handle (a regular node or a virtual node
wrapping an SCC) counts its in-edges from other handles once, and removing
a handle decrements the counters of its successors; a handle whose counter
reaches zero is ready.

The ready handles are taken in batches that propagate before they branch.
Every ready regular node is taken at once, since a regular node never
branches: an unfixed one defaults to False. Only when no regular node is
ready is one virtual node taken, the one with the smallest key, and broken
into every stable labeling of its members. So a constraint's conjunction
node is processed as soon as its body is decided, and it kills bad worlds
before the next component multiplies them.

By the splitting-set theorem (Lifschitz & Turner, "Splitting a logic
program", ICLP 1994) a component's labelings depend only on the values it
reads from below: its members, the sources of their in-edges and the body
atoms of a conjunction-node source. So a virtual batch keys each world by
its values on those nodes and breaks the component once per distinct key;
the worlds that share a key share its read-only delta list, for that batch
only. The labeling search itself keeps counters (Dowling & Gallier's
linear-time Horn propagation, 1984): each member body counts its false and
its undecided literals and each head its true and its non-false bodies, so
checking a head takes constant time and a decision touches only the bodies
that mention it. Foundedness, at a leaf of the search and for a component
without negation inside, is one counter-based least fixpoint.

Each handle of a batch contributes small delta worlds holding only the
values it adds; the deltas are merged, each combination is applied to one
copy of the parent world, and the two value rules

    (i)  a True node makes every positive out-neighbour True,
    (ii) a False node makes every negative out-neighbour True,

are propagated transitively from the batch. A True demand arriving at a
False node (in particular a constraint node) marks the world inconsistent;
unsatisfiability shows up as zero surviving worlds.
"""

from __future__ import annotations

import heapq

from .cycles import VirtualNode, find_virtual_nodes
from .graph import DepGraph, NodeKind, Sign, build_cnr, cnr_to_dg, node_kind
from .syntax import Program
from .worlds import World, body_literal, eval_body, initial_world, node_bodies


class GraphView:
    """The not-yet-processed part of a graph, with SCCs wrapped.

    Handles are identified by their key (a regular node's name, a virtual
    node's smallest member). Each live handle keeps the count of its live
    in-edges from other handles; those at zero are ready. Ready regular keys
    are kept in a list and ready virtual keys in a heap, so that taking the
    next batch and removing it cost time in proportion to the batch and its
    successors.
    """

    def __init__(self, g: DepGraph, virtual: list[VirtualNode] | None = None):
        self.virtual = find_virtual_nodes(g) if virtual is None else virtual
        key_of: dict[str, str] = {}
        self._handles: dict[str, object] = {}
        for v in self.virtual:
            key = v.key
            self._handles[key] = v
            for m in v.members:
                key_of[m] = key
        for n in g.nodes:
            if n not in key_of:
                key_of[n] = n
                self._handles[n] = n
        self._waiting = dict.fromkeys(self._handles, 0)
        self._succ: dict[str, list[str]] = {key: [] for key in self._handles}
        for n in g.nodes:
            src = key_of[n]
            for edge in g.out_edges(n):
                dst = key_of[edge.dst]
                if dst != src:
                    self._waiting[dst] += 1
                    self._succ[src].append(dst)
        self._regular: list[str] = []
        self._virtual: list[str] = []
        for key, count in self._waiting.items():
            if count == 0:
                self._make_ready(key)

    def __bool__(self) -> bool:
        return bool(self._succ)

    def _make_ready(self, key: str) -> None:
        if isinstance(self._handles[key], VirtualNode):
            heapq.heappush(self._virtual, key)
        else:
            self._regular.append(key)

    def remove(self, handles) -> None:
        """Take handles out of the view and ready their successors."""
        regular = self._regular
        self._regular = []
        for h in handles:
            key = h.key if isinstance(h, VirtualNode) else h
            for dst in self._succ.pop(key, ()):
                self._waiting[dst] -= 1
                if self._waiting[dst] == 0 and dst in self._succ:
                    self._make_ready(dst)
        # Removing a whole batch empties the old regular list or pops the
        # heap's top; anything else keeps its place until it is removed.
        self._regular += [key for key in regular if key in self._succ]
        while self._virtual and self._virtual[0] not in self._succ:
            heapq.heappop(self._virtual)


def find_roots(view: GraphView) -> list:
    """The next batch of handles with no live in-edge, in key order: every
    ready regular node, or else the ready virtual node with the smallest key.

    A regular node never branches, so all of them are taken before the next
    component multiplies the worlds. The condensation is acyclic, so a
    nonempty view always has roots; a rootless nonempty view signals a
    wrapping bug.
    """
    if view._regular:
        return sorted(view._regular)
    if view._virtual:
        return [view._handles[view._virtual[0]]]
    if view:
        raise RuntimeError("nonempty view has no roots: cycle wrapping is broken")
    return []


def propagate(node: str, value: bool, w: World, g: DepGraph) -> World:
    """Transitively apply the propagation rules from one fixed node."""
    stack = [(node, value)]
    while stack and w.consistent:
        n, v = stack.pop()
        for edge in g.out_edges(n):
            effective = (edge.sign is Sign.POSITIVE) == v
            if not effective:
                continue
            current = w.value(edge.dst)
            if current is False:
                w.consistent = False
                return w
            if current is None:
                w.assign(edge.dst, True)
                stack.append((edge.dst, True))
    return w


def fix_root(node: str, w: World) -> World:
    """Delta world holding a regular root's value in w: an unfixed root
    defaults to False, a fixed value is kept."""
    value = w.value(node)
    return World({node: False if value is None else value})


def merge_root_worlds(per_root: list[list[World]]) -> list[World]:
    """Cartesian merge of the delta worlds produced by each root this
    iteration; combinations with conflicting assignments are dropped. The
    input worlds are left unchanged."""
    if not per_root:
        return []
    merged = per_root[0]
    for step, worlds in enumerate(per_root[1:]):
        next_merged = []
        for a in merged:
            for i, b in enumerate(worlds):
                # After the first step a is a copy made here and not needed
                # after its last combination: extend it in place, so that a
                # batch of single-delta roots costs linear time.
                c = a if step and i == len(worlds) - 1 else a.copy()
                for node, value in b.values.items():
                    if not c.assign(node, value):
                        break
                if c.consistent:
                    next_merged.append(c)
        merged = next_merged
        if not merged:
            return []
    return merged


def _least_fixpoint(seeds, head_of, pos_members, pos_uses, enabled) -> set[int]:
    """The seeds plus, transitively, the head of every enabled body whose
    positive member literals are all in the set: counter-based Horn
    propagation (Dowling & Gallier 1984), linear in the bodies' size."""
    founded = set(seeds)
    waiting: dict[int, int] = {}
    ready = []
    for i in enabled:
        count = sum(1 for j in pos_members[i] if j not in founded)
        waiting[i] = count
        if count == 0:
            ready.append(i)
    while ready:
        head = head_of[ready.pop()]
        if head in founded:
            continue
        founded.add(head)
        for i in pos_uses[head]:
            if i in waiting:
                waiting[i] -= 1
                if waiting[i] == 0:
                    ready.append(i)
    return founded


def _component_labelings(
    v: VirtualNode, g: DepGraph, w: World
) -> list[dict[str, bool]]:
    """Stable labelings of a component's atom members, given outside values.

    Candidates are enumerated with support pruning (a False atom may not
    have a satisfied body; a True atom needs a satisfiable one) and filtered
    for foundedness.

    Member atoms are numbered in name order and their bodies in order. Each
    body counts its false and its undecided literals, and each head its true
    and its non-false bodies, so a head is checked in constant time and a
    decision, or its undoing, touches only the bodies that mention it.
    """
    atoms = sorted(m for m in v.members if node_kind(m) is NodeKind.ATOM)
    number = {a: j for j, a in enumerate(atoms)}
    value: list[bool | None] = [True if w.value(a) is True else None for a in atoms]
    external = [val is True for val in value]
    seeds = [j for j, val in enumerate(value) if val]
    head_of: list[int] = []
    pos_members: list[list[int]] = []  # positive member literals per body
    false: list[int] = []
    undecided: list[int] = []
    outside_ok: list[int] = []  # bodies whose outside literals all hold
    uses: list[list[tuple[int, bool]]] = [[] for _ in atoms]  # (body, negated)
    pos_uses: list[list[int]] = [[] for _ in atoms]
    member_naf = False
    for head, atom in enumerate(atoms):
        for body in node_bodies(g, atom):
            i = len(head_of)
            head_of.append(head)
            pos = []
            f = u = 0
            blocked = False
            for lit, negated in body:
                j = number.get(lit)
                if j is None:
                    val = w.value(lit)
                    if val is None:
                        u += 1
                        blocked = True
                    elif val == negated:
                        f += 1
                        blocked = True
                    continue
                member_naf = member_naf or negated
                if not negated:
                    pos.append(j)
                    pos_uses[j].append(i)
                if value[j] is None:
                    u += 1
                    uses[j].append((i, negated))
                elif negated:
                    f += 1
            pos_members.append(pos)
            false.append(f)
            undecided.append(u)
            if not blocked:
                outside_ok.append(i)
    decisions = [j for j, val in enumerate(value) if val is None]

    # A component whose member atoms never occur negated in member bodies
    # has positive internal cycles only, hence exactly one stable labeling:
    # the support fixpoint from externally true members, all else False.
    if not member_naf:
        fixed = _least_fixpoint(seeds, head_of, pos_members, pos_uses, outside_ok)
        return [{a: (j in fixed) for j, a in enumerate(atoms)}]

    true_bodies = [0] * len(atoms)
    live_bodies = [0] * len(atoms)  # bodies that are not (yet) False
    for i, head in enumerate(head_of):
        if not false[i]:
            live_bodies[head] += 1
            if not undecided[i]:
                true_bodies[head] += 1
    watchers = [list(dict.fromkeys(head_of[i] for i, _ in body_uses)) for body_uses in uses]

    def head_ok(head: int) -> bool:
        val = value[head]
        if val is None:
            return True
        if val:
            return external[head] or live_bodies[head] > 0
        return not true_bodies[head]

    def decide(j: int, val: bool) -> None:
        for i, negated in uses[j]:
            undecided[i] -= 1
            if val == negated:
                if not false[i]:
                    live_bodies[head_of[i]] -= 1
                false[i] += 1
            elif not undecided[i] and not false[i]:
                true_bodies[head_of[i]] += 1

    def undo(j: int, val: bool) -> None:
        for i, negated in uses[j]:
            if val == negated:
                false[i] -= 1
                if not false[i]:
                    live_bodies[head_of[i]] += 1
            elif not undecided[i] and not false[i]:
                true_bodies[head_of[i]] -= 1
            undecided[i] += 1

    results: list[dict[str, bool]] = []

    def search(index: int) -> None:
        if index == len(decisions):
            true_bodies_now = [
                i for i in range(len(head_of)) if not false[i] and not undecided[i]
            ]
            founded = _least_fixpoint(seeds, head_of, pos_members, pos_uses, true_bodies_now)
            if all(j in founded for j, val in enumerate(value) if val):
                results.append(dict(zip(atoms, value)))
            return
        j = decisions[index]
        for val in (True, False):
            value[j] = val
            decide(j, val)
            if head_ok(j) and all(head_ok(h) for h in watchers[j]):
                search(index + 1)
            undo(j, val)
        value[j] = None

    search(0)
    return results


def break_cycles(v: VirtualNode, g: DepGraph, w: World) -> list[World]:
    """Delta worlds of every stable labeling of the virtual node's members.

    Even cycles contribute their alternative labelings, odd cycles without a
    True member kill the candidate, and purely positive components get the
    all-False labeling (modulo externally forced members). Conjunction
    members take the complement of their body's value. Each delta holds
    member values only; labelings that contradict a value of w are dropped.
    """
    conj_bodies = [
        (member, tuple(body_literal(e, g.transformed) for e in g.in_edges(member)))
        for member in sorted(v.members)
        if node_kind(member) is NodeKind.CONJ
    ]
    worlds = []
    for labeling in _component_labelings(v, g, w):
        value_of = lambda a: labeling[a] if a in labeling else w.value(a)
        for member, body in conj_bodies:
            labeling[member] = not eval_body(body, value_of)
        if all(w.value(node) in (None, value) for node, value in labeling.items()):
            worlds.append(World(labeling))
    return worlds


def _input_nodes(v: VirtualNode, g: DepGraph) -> list[str]:
    """Every node whose value break_cycles reads: the members, the sources
    of their in-edges, and the body atoms of a conjunction-node source."""
    members = sorted(v.members)
    nodes = dict.fromkeys(members)
    for member in members:
        for edge in g.in_edges(member):
            nodes[edge.src] = None
            if node_kind(edge.src) is NodeKind.CONJ:
                nodes.update(dict.fromkeys(e.src for e in g.in_edges(edge.src)))
    return list(nodes)


def solve_graph(g: DepGraph, start: World | None = None) -> list[World]:
    """All completed consistent worlds of a transformed graph."""
    view = GraphView(g)
    worlds = [start.copy() if start is not None else initial_world(g)]
    while view and worlds:
        roots = find_roots(view)
        order = [
            node
            for root in roots
            for node in (sorted(root.members) if isinstance(root, VirtualNode) else [root])
        ]
        # A virtual batch is one component. Its labelings depend only on the
        # values it reads from below (the splitting-set theorem), so it is
        # broken once per distinct context; the delta lists are read-only.
        component = roots[0] if isinstance(roots[0], VirtualNode) else None
        inputs = _input_nodes(component, g) if component is not None else []
        labelings: dict[tuple, list[World]] = {}
        survivors = []
        for w in worlds:
            if component is None:
                deltas = merge_root_worlds([[fix_root(root, w)] for root in roots])
            else:
                context = tuple(map(w.values.get, inputs))
                deltas = labelings.get(context)
                if deltas is None:
                    deltas = labelings[context] = break_cycles(component, g, w)
            for i, delta in enumerate(deltas):
                # w is not needed after its last combination: extend it in place
                merged = w if i == len(deltas) - 1 else w.copy()
                for node, value in delta.values.items():
                    merged.assign(node, value)
                for node in order:
                    if not merged.consistent:
                        break
                    propagate(node, merged.value(node), merged, g)
                if merged.consistent:
                    survivors.append(merged)
        worlds = survivors
        view.remove(roots)
    return worlds


def solve_grasp_worlds(program: Program):
    """Solve bottom-up; returns the transformed graph and completed worlds,
    ordered by their projected answer set."""
    g = cnr_to_dg(build_cnr(program))
    worlds = solve_graph(g)
    keyed = {}
    for w in worlds:
        keyed.setdefault(tuple(sorted(w.true_atoms(g))), w)
    ordered = [keyed[key] for key in sorted(keyed)]
    return g, ordered


def solve_grasp(program: Program) -> list[frozenset[str]]:
    """Answer sets of the program, sorted lexicographically as atom lists."""
    g, worlds = solve_grasp_worlds(program)
    return [w.true_atoms(g) for w in worlds]
