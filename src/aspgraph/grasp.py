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


def _member_rules(g: DepGraph, atoms: list[str]):
    bodies = {a: node_bodies(g, a) for a in atoms}
    mentions: dict[str, set[str]] = {a: set() for a in atoms}
    for head, heads_bodies in bodies.items():
        for body in heads_bodies:
            for lit_atom, _ in body:
                if lit_atom in mentions:
                    mentions[lit_atom].add(head)
    return bodies, mentions


def _founded(
    atom_values: dict[str, bool],
    members: frozenset[str],
    bodies,
    external_true: set[str],
    value_of,
) -> bool:
    """True members must be derivable without relying on the positive cycle
    itself: a least-fixpoint restricted to the component, seeded from
    externally supported members."""
    founded = set(external_true)
    changed = True
    while changed:
        changed = False
        for atom, val in atom_values.items():
            if not val or atom in founded:
                continue
            for body in bodies[atom]:
                if eval_body(body, value_of) is not True:
                    continue
                if all(
                    lit in founded
                    for lit, negated in body
                    if not negated and lit in members
                ):
                    founded.add(atom)
                    changed = True
                    break
    return all(atom in founded for atom, val in atom_values.items() if val)


def _component_labelings(
    v: VirtualNode, g: DepGraph, w: World
) -> list[dict[str, bool]]:
    """Stable labelings of a component's atom members, given outside values.

    Candidates are enumerated with support pruning (a False atom may not
    have a satisfied body; a True atom needs a satisfiable one) and filtered
    for foundedness.
    """
    atoms = sorted(m for m in v.members if node_kind(m) is NodeKind.ATOM)
    bodies, mentions = _member_rules(g, atoms)
    external_true = {a for a in atoms if w.value(a) is True}
    decisions = [a for a in atoms if a not in external_true]

    cand: dict[str, bool] = {a: True for a in external_true}

    def value_of(atom: str) -> bool | None:
        if atom in cand:
            return cand[atom]
        if atom in bodies:
            return None
        return w.value(atom)

    def head_ok(head: str) -> bool:
        val = cand.get(head)
        if val is None:
            return True
        states = [eval_body(b, value_of) for b in bodies[head]]
        if val is False:
            return not any(s is True for s in states)
        if head in external_true:
            return True
        return any(s is not False for s in states)

    # A component whose member atoms never occur negated in member bodies
    # has positive internal cycles only, hence exactly one stable labeling:
    # the support fixpoint from externally true members, all else False.
    member_naf = any(
        negated and lit in bodies
        for a in atoms
        for body in bodies[a]
        for lit, negated in body
    )
    if not member_naf:
        fixed = set(external_true)
        changed = True
        while changed:
            changed = False
            for atom in decisions:
                if atom in fixed:
                    continue
                for body in bodies[atom]:
                    outside = tuple((l, n) for l, n in body if l not in bodies)
                    inside_ok = all(
                        lit in fixed for lit, _ in body if lit in bodies
                    )
                    if inside_ok and eval_body(outside, w.value) is True:
                        fixed.add(atom)
                        changed = True
                        break
        return [{a: (a in fixed) for a in atoms}]

    results: list[dict[str, bool]] = []

    def search(index: int) -> None:
        if index == len(decisions):
            if all(head_ok(a) for a in atoms) and _founded(
                cand, v.members, bodies, external_true, value_of
            ):
                results.append(dict(cand))
            return
        atom = decisions[index]
        for value in (True, False):
            cand[atom] = value
            affected = {atom} | {h for h in mentions[atom] if h in cand}
            if all(head_ok(h) for h in affected):
                search(index + 1)
            del cand[atom]

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
        survivors = []
        for w in worlds:
            per_root = [
                break_cycles(root, g, w) if isinstance(root, VirtualNode) else [fix_root(root, w)]
                for root in roots
            ]
            deltas = merge_root_worlds(per_root)
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
