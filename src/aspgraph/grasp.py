"""Bottom-up solver over the transformed dependency graph.

Solving walks the strongly-connected-component condensation in topological
order. That order depends on the graph alone, and ``find_roots`` yields it
batch by batch, by Kahn's algorithm: each handle (a regular node or a
component wrapped as a virtual node) counts its in-edges from other
handles, and taking a handle decrements the counters of its successors; a
handle whose counter reaches zero is ready. The components are found only
when the walk first stalls with nodes left, and ``solve_graph`` stops
pulling batches once its worlds are all dead, so most unsatisfiable
programs and every acyclic one are solved without looking for components.

The batches propagate before they branch. Every ready regular node is taken
at once, since a regular node never branches: an unfixed one defaults to
False, in place. Only when no regular node is ready is one component taken,
the ready component with the smallest member (its smallest atom), and broken
into every stable labeling of its members; each world gets one branch per
labeling. So a constraint's conjunction node is processed as soon as its
body is decided, and it kills bad worlds before the next component
multiplies them.

By the splitting-set theorem (Lifschitz & Turner, "Splitting a logic
program", ICLP 1994) a component's labelings depend only on the values it
reads from below: its members, the sources of their in-edges and the body
atoms of a conjunction-node source. So a component batch keys each world by
its values on those nodes and breaks the component once per distinct key;
the worlds that share a key share its read-only labelings, for that batch
only. The labeling search itself keeps counters (Dowling & Gallier's
linear-time Horn propagation, 1984): each member body counts its false and
its undecided literals and each head its true and its non-false bodies, so
checking a head takes constant time and a decision touches only the bodies
that mention it. After every decision the search sets the values those
counters force, transitively: a head with a true body is True, and a head
with no live body is False. Forcing cuts only branches that the checks
would reject later, so the labelings come out the same and in the same
order, True first. The member bodies come from the graph's body table, where
a fact is the empty body. Foundedness, at a leaf of the search and for a
component without negation inside, is the graph module's one least
fixpoint, the one that ``graph.stable``, the answer-set check, is built on.

After a batch's values are set, the two value rules

    (i)  a True node makes every positive out-neighbour True,
    (ii) a False node makes every negative out-neighbour True,

are propagated transitively from the whole batch, in one pass per world. A
True demand arriving at a False node (in particular a constraint node) marks
the world inconsistent; unsatisfiability shows up as zero surviving worlds.
Propagation sets only unfixed nodes, and only to True; a regular batch sets
only its own nodes; and the nodes fixed False from the start are constraint
nodes, which have no out-edges. So a component member is unfixed or True
when its batch comes, and every labeling agrees with it.

Everything here works on node numbers, the graph's integer adjacency
lists and its body table, and builds no Edge. A world being solved is a
list of node values indexed by number, a labeling a dict from member
number to value, and a component is handled as its ascending member numbers.
``solve_grasp_worlds`` decodes the surviving worlds to names once, at the
end. The labeling search walks its tree with an explicit stack, so a
component's size is not bounded by the interpreter's recursion limit.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

from .cycles import find_virtual_nodes
from .graph import DepGraph, build_cnr, cnr_to_dg, least_fixpoint
from .syntax import Program
from .worlds import World, initial_world


def find_roots(g: DepGraph) -> Iterator[tuple[list[int], bool]]:
    """The schedule of a graph, as (nodes, is_component) batches, yielded
    as the walk reaches them.

    A batch is every ready regular node, by number, or else the ready
    component with the smallest member (its smallest atom), as its
    ascending member numbers. A regular node never branches, so all of them
    are taken before the next component multiplies the worlds. A
    component's handle is its smallest member.

    The components are found only when the walk first needs one. Until
    then it is Kahn's algorithm over the raw graph, where a node's counter
    is its in-edge count; no member of a component can become ready there.
    At the first stall, if some node is still unscheduled, the components
    are wrapped once: each member's counter folds into its handle's,
    without the edges inside the component, and the walk goes on over the
    condensation. So an acyclic graph never looks for components, and
    neither does a solve whose worlds all die before the first stall. The
    condensation is acyclic, so every handle becomes ready; one that never
    does signals a wrapping bug.
    """
    size = len(g.names)
    succ, pred = g.succ, g.pred
    waiting = list(map(len, pred))  # per handle, once components are wrapped
    handle = list(range(size))
    components: dict[int, list[int]] = {}  # handle -> members
    wrapped = False
    regular = [n for n in range(size) if not waiting[n]]
    ready: list[int] = []  # heap of component handles
    left = size  # nodes not yet scheduled
    while True:
        if regular:
            batch = sorted(regular)
            regular.clear()
            yield batch, False
        elif ready:
            batch = components[heapq.heappop(ready)]
            yield batch, True
        elif left and not wrapped:
            wrapped = True
            for v in find_virtual_nodes(g):
                members = list(v.members)
                inside = set(members)
                h = members[0]
                components[h] = members
                count = 0
                for m in members:
                    handle[m] = h
                    count += waiting[m] - sum(e >> 1 in inside for e in pred[m])
                waiting[h] = count
                if not count:
                    heapq.heappush(ready, h)
            continue
        else:
            break
        left -= len(batch)
        for n in batch:
            src = handle[n]
            for e in succ[n]:
                dst = handle[e >> 1]
                if dst != src:
                    waiting[dst] -= 1
                    if not waiting[dst]:
                        if dst in components:
                            heapq.heappush(ready, dst)
                        else:
                            regular.append(dst)
    if left:
        raise RuntimeError("a handle never became ready: cycle wrapping is broken")


def propagate(nodes: list[int], w: World, g: DepGraph) -> World:
    """Transitively apply the propagation rules from a decided batch, its
    nodes in order; a True demand on a False node marks w inconsistent."""
    succ = g.succ
    values = w.values
    stack = nodes[::-1]
    while stack:
        n = stack.pop()
        v = values[n]
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
                stack.append(dst)
    return w


def fix_root(batch: list[int], w: World) -> None:
    """Give the unfixed nodes of a regular batch the value False, in place;
    a fixed value is kept."""
    values = w.values
    for node in batch:
        if values[node] is None:
            values[node] = False


def merge_root_worlds(deltas: list[dict[int, bool]], w: World) -> list[World]:
    """One world per labeling of a component, in order: a copy of w extended
    by the labeling, except for the last, which extends w itself. Every
    labeling agrees with the member values w already has."""
    merged = []
    for i, delta in enumerate(deltas):
        c = w if i == len(deltas) - 1 else w.copy()
        values = c.values
        for node, value in delta.items():
            values[node] = value
        merged.append(c)
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

    Before the first decision and after each one, the search sets every
    value the counters force: a head with a true body is True, and a head
    with no live body is False. Forcing follows the changed heads through
    the bodies that mention them, so it is transitive; the forced atoms go
    onto a trail per depth, which is undone on backtrack, and a decision
    already forced when the search reaches it is passed through once.
    Either value forcing rules out would fail its head's check later on
    every path, so the labelings, and their order, are the ones the search
    finds without forcing; only the dead branches are cut.
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

    def force(j: int, trail: list[int]) -> bool:
        """Check the heads a change of j touched, and set every value the
        counters force from there, transitively, onto trail: a head with a
        true body is True, one with no live body False. False on a head
        that fails its check."""
        changed = [j]
        while changed:
            k = changed.pop()
            if not head_ok(k):
                return False
            for h in watchers[k]:
                if value[h] is not None:
                    if not head_ok(h):
                        return False
                    continue
                if true_bodies[h]:
                    val = True
                elif not live_bodies[h]:
                    val = False
                else:
                    continue
                value[h] = val
                decide(h, val)
                trail.append(h)
                changed.append(h)
        return True

    for j in decisions:  # the values forced before the first decision
        if value[j] is None and (true_bodies[j] or not live_bodies[j]):
            value[j] = val = bool(true_bodies[j])
            decide(j, val)
            if not force(j, []):
                return []
    decisions = [j for j in decisions if value[j] is None]

    results: list[dict[int, bool]] = []
    # tries[d]: 0 while decision d is open, 1 or 2 once it has been set True
    # or False on the current path, PASSED once it came forced from above;
    # trails[d]: the values forced after it. Both stay while the search is
    # below d, and are undone when it comes back.
    PASSED = 3
    tries = [0] * len(decisions)
    trails: list[list[int]] = [[] for _ in decisions]
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
        t = tries[depth]
        if not t and value[j] is not None:  # forced from above: pass through once
            tries[depth] = PASSED
            depth += 1
            continue
        if t:
            trail = trails[depth]
            for k in reversed(trail):
                undo(k, value[k])
                value[k] = None
            trail.clear()
            if t != PASSED:
                undo(j, value[j])
                value[j] = None
            if t != 1:
                tries[depth] = 0
                depth -= 1
                continue
        val = not t  # True first
        tries[depth] = t + 1
        value[j] = val
        decide(j, val)
        if force(j, trails[depth]):
            depth += 1
    return results


def break_cycles(members: list[int], g: DepGraph, w: World) -> list[dict[int, bool]]:
    """Every stable labeling of a component's members, as a dict from member
    number to value.

    Even cycles contribute their alternative labelings, odd cycles without a
    True member kill the candidate, and purely positive components get the
    all-False labeling (modulo externally forced members). A conjunction
    member is True when one of its in-edges is effective: a positive edge
    from a True node or a negative one from a False node.

    Every labeling agrees with w on the members: each is unfixed or True
    from below, the search keeps a True atom True, and a conjunction member
    True from below keeps the in-edge that made it True.
    """
    pred, values = g.pred, w.values
    conj_members = [member for member in members if g.conj[member]]
    labelings = _stable_labelings(members, g, w)
    for labeling in labelings:
        # Every body atom of a conjunction member is a member or below it.
        value = lambda a: labeling[a] if a in labeling else values[a]
        for member in conj_members:
            labeling[member] = any(value(e >> 1) == e & 1 for e in pred[member])
    return labelings


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
    worlds = [initial_world(g)]
    for nodes, is_component in find_roots(g):
        # A component's labelings depend only on the values it reads from
        # below (the splitting-set theorem), so it is broken once per
        # distinct context; the labelings are read-only.
        if is_component:
            inputs = _context_nodes(nodes, g)
            labelings: dict[tuple, list[dict[int, bool]]] = {}
        survivors = []
        for w in worlds:
            if is_component:
                context = tuple(map(w.values.__getitem__, inputs))
                deltas = labelings.get(context)
                if deltas is None:
                    deltas = labelings[context] = break_cycles(nodes, g, w)
                branches = merge_root_worlds(deltas, w)
            else:
                fix_root(nodes, w)
                branches = [w]
            for branch in branches:
                if propagate(nodes, branch, g).consistent:
                    survivors.append(branch)
        worlds = survivors
        if not worlds:  # a dead solve pulls no further batch
            break
    return worlds


def solve_grasp_worlds(program: Program):
    """Solve bottom-up; returns the transformed graph and completed worlds,
    keyed by name and ordered by their projected answer set. Two worlds
    never share one: labelings of a component differ on a member atom."""
    g = cnr_to_dg(build_cnr(program))
    atoms = range(g.atom_count)  # numbered in name order
    worlds = sorted(solve_graph(g), key=lambda w: [n for n in atoms if w.values[n]])
    for w in worlds:
        w.values = dict(zip(g.names, w.values))
    return g, worlds


def solve_grasp(program: Program) -> list[frozenset[str]]:
    """Answer sets of the program, sorted lexicographically as atom lists."""
    g, worlds = solve_grasp_worlds(program)
    return [w.true_atoms(g) for w in worlds]
