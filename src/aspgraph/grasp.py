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
that mention it. The member bodies come from the graph's body table, where
a fact is the empty body. Foundedness, at a leaf of the search and for a
component without negation inside, is the graph module's one least
fixpoint, the same one ``check_justified`` uses.

Each handle of a batch contributes small delta worlds holding only the
values it adds; the deltas are merged, each combination is applied to one
copy of the parent world, and the two value rules

    (i)  a True node makes every positive out-neighbour True,
    (ii) a False node makes every negative out-neighbour True,

are propagated transitively from the batch. A True demand arriving at a
False node (in particular a constraint node) marks the world inconsistent;
unsatisfiability shows up as zero surviving worlds.

Everything here works on node numbers, the graph's integer adjacency
lists and its body table, and builds no Edge. A world being solved is a
list of node values indexed by number, a delta world a dict from node
number to value, and a virtual node is handled as its sorted member
numbers. ``solve_grasp_worlds`` decodes the surviving worlds to names
once, at the end. The labeling search walks its tree with an explicit
stack, so a component's size is not bounded by the interpreter's
recursion limit.
"""

from __future__ import annotations

import heapq

from .cycles import VirtualNode, find_virtual_nodes
from .graph import DepGraph, build_cnr, cnr_to_dg, least_fixpoint
from .syntax import Program
from .worlds import World, eval_body, initial_world


class GraphView:
    """The not-yet-processed part of a graph, with SCCs wrapped.

    A handle is a node number: a regular node's own, or for a virtual node
    the smallest number among its members. Each live handle keeps the count
    of its live in-edges from other handles; those at zero are ready. Ready
    regular handles are kept in a list and ready virtual ones in a heap, in
    the order of their virtual nodes' keys, so that taking the next batch
    and removing it cost time in proportion to the batch and its successors.
    """

    def __init__(self, g: DepGraph, virtual: list[VirtualNode] | None = None):
        self.virtual = find_virtual_nodes(g) if virtual is None else virtual
        size = len(g.names)
        handle = list(range(size))
        self._number = g.number
        self._virtual_handles: list[int] = []
        self._virtual_rank: dict[int, int] = {}  # handle -> place in self.virtual
        for rank, v in enumerate(self.virtual):
            members = [g.number[m] for m in v.members]
            h = min(members)
            self._virtual_handles.append(h)
            self._virtual_rank[h] = rank
            for m in members:
                handle[m] = h
        self._handle = handle
        self._live = [h == i for i, h in enumerate(handle)]
        self._left = sum(self._live)
        self._waiting = [0] * size
        self._succ: list[list[int]] = [[] for _ in range(size)]
        for n, entries in enumerate(g.succ):
            src = handle[n]
            for e in entries:
                dst = handle[e >> 1]
                if dst != src:
                    self._waiting[dst] += 1
                    self._succ[src].append(dst)
        self._regular: list[int] = []
        self._ready_virtual: list[int] = []  # heap of places in self.virtual
        for h, live in enumerate(self._live):
            if live and not self._waiting[h]:
                self._make_ready(h)

    def __bool__(self) -> bool:
        return self._left > 0

    def _make_ready(self, h: int) -> None:
        rank = self._virtual_rank.get(h)
        if rank is None:
            self._regular.append(h)
        else:
            heapq.heappush(self._ready_virtual, rank)

    def remove(self, handles) -> None:
        """Take handles out of the view and ready their successors."""
        regular = self._regular
        self._regular = []
        live, waiting = self._live, self._waiting
        for h in handles:
            if isinstance(h, VirtualNode):
                h = self._handle[self._number[next(iter(h.members))]]
            if not live[h]:
                continue
            live[h] = False
            self._left -= 1
            for dst in self._succ[h]:
                waiting[dst] -= 1
                if waiting[dst] == 0 and live[dst]:
                    self._make_ready(dst)
        # Removing a whole batch empties the old regular list or pops the
        # heap's top; anything else keeps its place until it is removed.
        self._regular += [h for h in regular if live[h]]
        ready = self._ready_virtual
        while ready and not live[self._virtual_handles[ready[0]]]:
            heapq.heappop(ready)


def find_roots(view: GraphView) -> list:
    """The next batch of handles with no live in-edge: every ready regular
    node, by number, or else the ready virtual node with the smallest key.

    A regular node never branches, so all of them are taken before the next
    component multiplies the worlds. The condensation is acyclic, so a
    nonempty view always has roots; a rootless nonempty view signals a
    wrapping bug.
    """
    if view._regular:
        return sorted(view._regular)
    if view._ready_virtual:
        return [view.virtual[view._ready_virtual[0]]]
    if view:
        raise RuntimeError("nonempty view has no roots: cycle wrapping is broken")
    return []


def propagate(node: int, value: bool, w: World, g: DepGraph) -> World:
    """Transitively apply the propagation rules from one fixed node."""
    succ = g.succ
    values = w.values
    stack = [(node, value)]
    while stack and w.consistent:
        n, v = stack.pop()
        for e in succ[n]:
            if e & 1 != v:  # not effective
                continue
            dst = e >> 1
            current = values[dst]
            if current is False:
                w.consistent = False
                return w
            if current is None:
                values[dst] = True
                stack.append((dst, True))
    return w


def fix_root(node: int, w: World) -> World:
    """Delta world holding a regular root's value in w: an unfixed root
    defaults to False, a fixed value is kept."""
    value = w.values[node]
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


def _stable_labelings(
    members: list[int], g: DepGraph, w: World
) -> list[dict[int, bool]]:
    """Stable labelings of a component's atom members, given outside values.

    Candidates are enumerated with support pruning (a False atom may not
    have a satisfied body; a True atom needs a satisfiable one) and filtered
    for foundedness.

    Member atoms are numbered in name order and their bodies, read from the
    graph's body table (a fact's is empty), in table order; a member True
    from outside gets one more empty body, since its context supports it.
    Each body counts its false and its undecided literals, and each head
    its true and its non-false bodies, so a head is checked in constant
    time and a decision, or its undoing, touches only the bodies that
    mention it. The search tree is walked depth first with an explicit
    stack, True before False at each decision.
    """
    atoms = sorted(m for m in members if m < g.atom_count)
    number = {a: j for j, a in enumerate(atoms)}
    value: list[bool | None] = [True if w.values[a] is True else None for a in atoms]
    t = g.bodies
    head_of: list[int] = []
    pos_members: list[list[int]] = []  # positive member literals per body
    false: list[int] = []
    undecided: list[int] = []
    outside_ok: list[int] = []  # bodies whose outside literals all hold
    uses: list[list[tuple[int, bool]]] = [[] for _ in atoms]  # (body, negated)
    pos_uses: list[list[int]] = [[] for _ in atoms]
    member_naf = False
    for head, atom in enumerate(atoms):
        lo, hi = t.start[atom], t.start[atom + 1]
        bodies = list(zip(t.pos[lo:hi], t.neg[lo:hi]))
        if value[head]:  # True from outside: its context is an empty body
            bodies.append(((), ()))
        for body_pos, body_neg in bodies:
            i = len(head_of)
            head_of.append(head)
            pos = []
            f = u = 0
            blocked = False
            for negated, lits in ((False, body_pos), (True, body_neg)):
                for lit in lits:
                    j = number.get(lit)
                    if j is None:
                        val = w.values[lit]
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
        fixed = least_fixpoint(head_of, pos_members, pos_uses, outside_ok)
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
            return live_bodies[head] > 0
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

    results: list[dict[int, bool]] = []
    # tries[d]: how many values decision d has taken on the current path;
    # its value stays set while the search is below it.
    tries = [0] * len(decisions)
    depth = 0
    while depth >= 0:
        if depth == len(decisions):
            true_bodies_now = [
                i for i in range(len(head_of)) if not false[i] and not undecided[i]
            ]
            founded = least_fixpoint(head_of, pos_members, pos_uses, true_bodies_now)
            if all(j in founded for j, val in enumerate(value) if val):
                results.append(dict(zip(atoms, value)))
            depth -= 1
            continue
        j = decisions[depth]
        if value[j] is not None:
            undo(j, value[j])
            value[j] = None
        if tries[depth] == 2:
            tries[depth] = 0
            depth -= 1
            continue
        val = tries[depth] == 0  # True first
        tries[depth] += 1
        value[j] = val
        decide(j, val)
        if head_ok(j) and all(head_ok(h) for h in watchers[j]):
            depth += 1
    return results


def break_cycles(members: list[int], g: DepGraph, w: World) -> list[World]:
    """Delta worlds of every stable labeling of a virtual node's members.

    Even cycles contribute their alternative labelings, odd cycles without a
    True member kill the candidate, and purely positive components get the
    all-False labeling (modulo externally forced members). Conjunction
    members take the complement of their body's value. Each delta holds
    member values only; labelings that contradict a value of w are dropped.
    """
    # After the flip a positive in-edge of a conjunction node is a negated
    # literal of its body.
    conj_bodies = [
        (member, [(e >> 1, e & 1 == 1) for e in g.pred[member]])
        for member in members
        if g.conj[member]
    ]
    worlds = []
    values = w.values
    for labeling in _stable_labelings(members, g, w):
        value_of = lambda a: labeling[a] if a in labeling else values[a]
        for member, body in conj_bodies:
            labeling[member] = not eval_body(body, value_of)
        if all(values[node] in (None, value) for node, value in labeling.items()):
            worlds.append(World(labeling))
    return worlds


def _context_nodes(members: list[int], g: DepGraph) -> list[int]:
    """Every node whose value break_cycles reads: the members, the sources
    of their in-edges, and the body atoms of a conjunction-node source."""
    pred, conj = g.pred, g.conj
    nodes = dict.fromkeys(members)
    for member in members:
        for entry in pred[member]:
            src = entry >> 1
            nodes[src] = None
            if conj[src]:
                nodes.update(dict.fromkeys([e >> 1 for e in pred[src]]))
    return list(nodes)


def solve_graph(g: DepGraph) -> list[World]:
    """All completed consistent worlds of a transformed graph, as lists of
    node values by number."""
    view = GraphView(g)
    worlds = [initial_world(g)]
    while view and worlds:
        roots = find_roots(view)
        # A virtual batch is one component. Its labelings depend only on the
        # values it reads from below (the splitting-set theorem), so it is
        # broken once per distinct context; the delta lists are read-only.
        component = isinstance(roots[0], VirtualNode)
        if component:
            order = sorted(g.number[m] for m in roots[0].members)
            inputs = _context_nodes(order, g)
        else:
            order = roots
        labelings: dict[tuple, list[World]] = {}
        survivors = []
        for w in worlds:
            if not component:
                deltas = merge_root_worlds([[fix_root(root, w)] for root in roots])
            else:
                context = tuple(map(w.values.__getitem__, inputs))
                deltas = labelings.get(context)
                if deltas is None:
                    deltas = labelings[context] = break_cycles(order, g, w)
            for i, delta in enumerate(deltas):
                # w is not needed after its last combination: extend it in place
                merged = w if i == len(deltas) - 1 else w.copy()
                values = merged.values
                for node, value in delta.values.items():
                    if values[node] is None:
                        values[node] = value
                    elif values[node] != value:
                        merged.consistent = False
                for node in order:
                    if not merged.consistent:
                        break
                    propagate(node, values[node], merged, g)
                if merged.consistent:
                    survivors.append(merged)
        worlds = survivors
        view.remove(roots)
    return worlds


def solve_grasp_worlds(program: Program):
    """Solve bottom-up; returns the transformed graph and completed worlds,
    keyed by name and ordered by their projected answer set."""
    g = cnr_to_dg(build_cnr(program))
    names = g.names
    atoms = range(g.atom_count)  # numbered in name order
    keyed = {}
    for w in solve_graph(g):
        keyed.setdefault(tuple(names[n] for n in atoms if w.values[n]), w)
    ordered = [keyed[key] for key in sorted(keyed)]
    for w in ordered:
        w.values = dict(zip(names, w.values))
    return g, ordered


def solve_grasp(program: Program) -> list[frozenset[str]]:
    """Answer sets of the program, sorted lexicographically as atom lists."""
    g, worlds = solve_grasp_worlds(program)
    return [w.true_atoms(g) for w in worlds]
