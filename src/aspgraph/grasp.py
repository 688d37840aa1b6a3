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
only. A state of the labeling search is two bit masks over the members,
(known, true), and each member body is a mask pair, so a branch is a copy
of two ints. Before the first decision and after each one the search runs
``graph.fitting``, the one three-valued propagator, which igasp's forward
propagation runs too: a head with a true body is True, and a head with no
live body is False, transitively (Fitting, JLP 1985). This cuts only
branches that the support checks would reject later, so the labelings come
out the same and in the same order, True first. The member bodies come
from the graph's body table, where a fact is the empty body. Foundedness,
at a leaf of the search and for a component without negation inside, is
the graph module's one least fixpoint, the one that ``graph.stable``, the
answer-set check, is built on.

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
from .graph import DepGraph, build_cnr, cnr_to_dg, fitting, least_fixpoint
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

    Member atoms are numbered in name order, and a search state is two bit
    masks over those positions, (known, true). Each member body, in body
    table order, becomes a (pos, neg) mask pair: an outside literal that
    fails drops the body, one that holds drops the literal, and an unfixed
    one sets a bit no member has, so the body is never true or false. A
    member True from outside starts True, with one more empty body, since
    its context supports it. graph.fitting sets the values Fitting's rules
    force before the first decision and after each one; that cuts only dead
    branches, so the labelings and their order are the ones a plain search
    finds. The first open member is decided True, then False, depth first
    on a stack of states, and a leaf is kept when the one least fixpoint
    over its true bodies founds every True member.
    """
    atoms = sorted(m for m in members if m < g.atom_count)
    number = {a: j for j, a in enumerate(atoms)}
    values, t = w.values, g.bodies
    unfixed = 1 << len(atoms)  # no member's bit: never known
    everyone = unfixed - 1
    known = true = 0
    head_of: list[int] = []
    masks: list[tuple[int, int]] = []
    start = [0]
    pos_members: list[list[int]] = []  # positive member literals per body
    pos_uses: list[list[int]] = [[] for _ in atoms]
    watchers: list[list[int]] = [[] for _ in atoms]
    for head, atom in enumerate(atoms):
        lo, hi = t.start[atom], t.start[atom + 1]
        bodies = list(zip(t.pos[lo:hi], t.neg[lo:hi]))
        if values[atom] is True:  # True from outside: its context is an empty body
            known |= 1 << head
            true |= 1 << head
            bodies.append(((), ()))
        # An outside literal that fails drops the body (the breaks below), one
        # that holds drops the literal, and an unfixed one adds the unfixed bit.
        for body_pos, body_neg in bodies:
            pos = neg = 0
            inside = []  # the member literals, positive ones first
            for lit in body_pos:
                j = number.get(lit)
                if j is not None:
                    pos |= 1 << j
                    inside.append(j)
                elif values[lit] is None:
                    pos |= unfixed
                elif values[lit] is False:
                    break
            else:
                members_pos = inside[:]
                for lit in body_neg:
                    j = number.get(lit)
                    if j is not None:
                        neg |= 1 << j
                        inside.append(j)
                    elif values[lit] is None:
                        neg |= unfixed
                    elif values[lit]:
                        break
                else:
                    for j in members_pos:
                        pos_uses[j].append(len(masks))
                    for j in inside:
                        watchers[j].append(head)
                    pos_members.append(members_pos)
                    head_of.append(head)
                    masks.append((pos, neg))
        start.append(len(masks))

    # A component whose member atoms never occur negated in member bodies
    # has positive internal cycles only, hence exactly one stable labeling:
    # the support fixpoint from externally true members, all else False.
    if not any(neg & everyone for _, neg in masks):
        holding = [i for i, (pos, neg) in enumerate(masks) if not (pos | neg) & unfixed]
        fixed = least_fixpoint(head_of, pos_members, pos_uses, holding)
        return [{a: (j in fixed) for j, a in enumerate(atoms)}]

    results: list[dict[int, bool]] = []
    state = fitting(known, true, range(len(atoms)), masks, start, watchers)
    stack = [] if state is None else [state]
    while stack:
        known, true = stack.pop()
        open_members = everyone & ~known
        if open_members:
            bit = open_members & -open_members
            j = bit.bit_length() - 1
            # False is pushed first, so the True branch is searched first.
            for branch in (true, true | bit):
                state = fitting(known | bit, branch, watchers[j], masks, start, watchers)
                if state is not None:
                    stack.append(state)
            continue
        false = known ^ true
        holding = [
            i for i, (pos, neg) in enumerate(masks) if pos & true == pos and neg & false == neg
        ]
        # A true body's head is True here, so the founded atoms are True.
        if len(least_fixpoint(head_of, pos_members, pos_uses, holding)) == true.bit_count():
            results.append({a: bool(true >> j & 1) for j, a in enumerate(atoms)})
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
