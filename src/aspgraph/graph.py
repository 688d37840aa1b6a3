"""Dependency graphs with explicit conjunction nodes.

A program maps to a graph whose nodes are atoms plus two kinds of helpers:
conjunction nodes standing for multi-literal rule bodies, and constraint
nodes standing for the (always false) head of a headless constraint.
``build_cnr`` produces the conjunction-node form; ``cnr_to_dg`` flips the
sign of every edge touching a conjunction node (De Morgan), which yields a
proper dependency graph: after the flip a conjunction node is true exactly
when its rule body fails.

The graph is integers at its core. Nodes are numbered once, in node order:
the sorted atoms (so an atom's number is its rank by name), then the helper
nodes in the order their rules appear. A graph keeps its edges once, as the
arc list ``arcs`` of (src, dst, positive) triples in number order, the
negative sign first. ``cnr_to_dg`` flips the sign of every arc that touches
a conjunction node in one pass that keeps the list's order, so in the
transformed graph parallel edges between the same two nodes keep the order
of their signs before the flip.

Each node's out-list ``succ`` and in-list ``pred`` of entries
``2 * node + positive`` (a sign is one bit) are filled from the arc list
by ``fill_adjacency``, both at once, the first time either is read: each
out-list is then in (dst, sign) order and each in-list in (src, sign)
order, the arc list's. ``cnr_to_dg`` fills the transformed graph's
lists in its own call; the engines read only that graph, so the
conjunction-node graph's lists are filled only for its exports and tests.

Every rule body is compiled from the lists once per graph, on first use,
into one table (``DepGraph.bodies``): a conjunction-node source expands to
its in-edges with the flip undone, a direct source is a one-literal body,
and a fact is the empty body. Every node has a range of rows, in node
order: an atom's rows are its rule bodies, a constraint node's row is its
constraint's body, and a conjunction node's range is empty. The same pass
stores each row's atoms as bit masks and, per node, the heads of the rows
that mention it, constraint nodes among them. ``fitting`` applies
Fitting's two rules over such masks to a fixpoint, the one three-valued
propagator, and on request backchains on the constraint rows: a
constraint body that holds is a contradiction, and one with a single
undecided literal forces that literal the other way. igasp's seed runs it
on these rows with backchaining, igasp's unions on the atom rows alone,
and grasp's labeling search on a component's atom rows, remapped to bits
of the members. ``least_fixpoint`` over the atom rows is the one foundedness
check, and ``stable``, the fixpoint of the reduct's rows plus a test of
the constraint rows, is the one answer-set check: igasp keeps a candidate
and ``justify.check_justified`` accepts a world only if ``stable``
accepts its true atoms' mask. grasp's labeling search uses the
fixpoint over a component's own rows.

The engines, the model checks, justification and export read the integer
lists and the table: cycles' ``find_virtual_nodes`` and the cycle census,
grasp, igasp, ``worlds.world_from_atoms`` for grasp's worlds and the CLI,
``justify`` and ``check_justified``, and the DOT/JSON exports, which share
one output order (``export_order``). Names appear only in what these emit.
``out_edges``, ``in_edges`` and ``edges`` are the name-level view: they
build ``Edge`` objects on demand, on every call, for graph equality and
tests.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import NamedTuple

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


# The sign of an adjacency entry, indexed by its low bit.
SIGNS = (Sign.NEGATIVE, Sign.POSITIVE)


def node_kind(node_id: str) -> NodeKind:
    if node_id.startswith(CONJ_PREFIX):
        return NodeKind.CONJ
    if node_id.startswith(CONSTRAINT_PREFIX):
        return NodeKind.CONSTRAINT
    return NodeKind.ATOM


class Edge(NamedTuple):
    src: str
    dst: str
    sign: Sign

    @property
    def negative(self) -> bool:
        return self.sign is Sign.NEGATIVE


class DepGraph:
    """Numbered nodes with one sorted signed arc list; immutable by convention.

    ``names[i]`` is node i and ``number`` maps a name back. ``arcs`` holds
    every edge once as a (src, dst, positive) triple, in number order, and
    is the graph's adjacency: ``succ[i]`` and ``pred[i]``, the out- and
    in-entries ``2 * node + positive`` of node i, are filled from it on
    first read. Nodes below ``atom_count`` are the atoms, ``conj[i]`` says
    whether node i is a conjunction node, and ``fixed_nodes`` maps the
    fixed nodes to their values, in node order.
    """

    def __init__(
        self,
        names: tuple[str, ...],
        number: dict[str, int],
        arcs: list[tuple[int, int, bool]],
        fixed_nodes: dict[int, bool],
        conj: list[bool],
        atom_count: int,
        origin: dict[str, tuple[Rule, ...]],
        transformed: bool = False,
        rule_count: int = 0,
    ):
        self.names = names
        self.number = number
        self.arcs = arcs
        self.fixed_nodes = fixed_nodes
        self.conj = conj
        self.atom_count = atom_count
        self.origin = origin
        self.transformed = transformed
        self.rule_count = rule_count

    @property
    def nodes(self) -> list[str]:
        return list(self.names)

    @property
    def edges(self) -> frozenset[Edge]:
        """Every edge, built anew on each call."""
        names = self.names
        return frozenset(Edge(names[s], names[d], SIGNS[p]) for s, d, p in self.arcs)

    @cached_property
    def succ(self) -> list[list[int]]:
        """Out-entries per node; the first read of succ or pred fills both."""
        self.succ, self.pred = fill_adjacency(self)
        return self.succ

    @cached_property
    def pred(self) -> list[list[int]]:
        """In-entries per node; the first read of succ or pred fills both."""
        self.succ, self.pred = fill_adjacency(self)
        return self.pred

    @cached_property
    def bodies(self) -> Bodies:
        """The rule bodies, compiled on first use."""
        return compile_bodies(self)

    def fixed_value(self, node: str) -> bool | None:
        return self.fixed_nodes.get(self.number.get(node))

    @property
    def fixed(self) -> dict[str, bool]:
        return {self.names[i]: value for i, value in self.fixed_nodes.items()}

    def out_edges(self, node: str) -> list[Edge]:
        names = self.names
        return [Edge(node, names[e >> 1], SIGNS[e & 1]) for e in self.succ[self.number[node]]]

    def in_edges(self, node: str) -> list[Edge]:
        names = self.names
        return [Edge(names[e >> 1], node, SIGNS[e & 1]) for e in self.pred[self.number[node]]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DepGraph):
            return NotImplemented
        return (
            self.number.keys() == other.number.keys()
            and self.fixed == other.fixed
            and self.edges == other.edges
            and self.transformed == other.transformed
        )

    def __hash__(self):
        raise TypeError("DepGraph is not hashable")


class Bodies(NamedTuple):
    """Every distinct rule body of a graph, grouped by head.

    Body i has head ``head[i]``, positive atoms ``pos[i]`` and negated atoms
    ``neg[i]``, each atom once, and ``masks[i]`` holds the same two atom
    sets as bit masks, (pos_mask, neg_mask), bit a for atom a. Node n's
    bodies are ``start[n]`` up to ``start[n + 1]``, so ``start`` has one
    entry per node and one more. An atom's are its rule bodies, and a fact
    is one empty body; a constraint node's is its constraint's body; a
    conjunction node has none. The atom rows come first and end at
    ``start[atom_count]``. ``pos_uses[a]`` lists the atom rows in which a
    is a positive literal, and ``watchers[n]`` the heads of the rows that
    mention node n, constraint nodes included, once per mention; only
    atoms are mentioned, so a helper node's list is empty.
    """

    head: list[int]
    pos: list[tuple[int, ...]]
    neg: list[tuple[int, ...]]
    masks: list[tuple[int, int]]
    start: list[int]
    pos_uses: list[list[int]]
    watchers: list[list[int]]


def compile_bodies(g: DepGraph) -> Bodies:
    """The body table of a graph, before or after the conjunction flip."""
    pred, conj, flipped, fixed = g.pred, g.conj, g.transformed, g.fixed_nodes
    t = Bodies([], [], [], [], [0], [[] for _ in range(g.atom_count)], [[] for _ in g.names])
    head, pos, neg, masks, start, pos_uses, watchers = t
    # atoms, then constraint nodes: the helpers that are not conjunctions
    for node in range(len(g.names)):
        if conj[node]:
            start.append(len(pos))
            continue
        if fixed.get(node) is True:
            pos.append(())
            neg.append(())
            masks.append((0, 0))
        for entry in pred[node]:
            src = entry >> 1
            if conj[src]:  # a literal is positive where its bit is not flipped
                lits: tuple[list[int], list[int]] = ([], [])
                mask = [0, 0]
                for e in pred[src]:
                    negated = e & 1 == flipped
                    lits[negated].append(e >> 1)
                    mask[negated] |= 1 << (e >> 1)
                pos.append(tuple(lits[0]))
                neg.append(tuple(lits[1]))
                masks.append((mask[0], mask[1]))
            elif entry & 1:
                pos.append((src,))
                neg.append(())
                masks.append((1 << src, 0))
            else:
                pos.append(())
                neg.append((src,))
                masks.append((0, 1 << src))
        head += [node] * (len(pos) - len(head))
        start.append(len(pos))
    atom_rows = start[g.atom_count]
    for i in range(len(head)):
        for atom in pos[i]:
            if i < atom_rows:
                pos_uses[atom].append(i)
            watchers[atom].append(head[i])
        for atom in neg[i]:
            watchers[atom].append(head[i])
    return t


def constraint_nodes(g: DepGraph) -> list[int]:
    """The constraint nodes, the only nodes fixed False, in number order."""
    return [n for n, value in g.fixed_nodes.items() if value is False]


def fitting(
    known, true, pending, masks, start, watchers, first_constraint=None, backchained=None
) -> tuple[int, int] | None:
    """Fitting's two rules (Fitting, JLP 1985) to a fixpoint over the partial
    model (known, true), bit masks like igasp's: a head with a body whose
    positive bits are true and negated bits false is True, and a head whose
    bodies are all false is False. None when a rule contradicts a known head.
    Unlike least_fixpoint it is three-valued, and it has the second rule.

    Head h's bodies are the (pos_mask, neg_mask) pairs ``masks[start[h] :
    start[h + 1]]``, and ``watchers[n]`` lists the heads whose bodies mention
    bit n. The heads in pending (copied) are checked first, then only those
    watching a newly decided bit (Dowling & Gallier's linear-time Horn
    propagation, 1984, with the second rule added); so from a fixpoint that
    some decisions extend, pending need only hold their watchers.

    The heads from first_constraint on, when it is given, are constraint
    nodes, False in every model, and they watch their rows' atoms too. They
    are skipped, so only the atom rows propagate, unless backchained is a
    list. Then a constraint body that holds is a contradiction, and one in
    which no literal fails and exactly one is undecided forces that
    literal's atom the other way, False for a positive literal and True for
    a negated one; the atom is appended to backchained. This is smodels'
    backchaining (Simons, Niemelä & Soininen, AIJ 2002), unit propagation on
    the constraint's nogood in clasp's terms. A body that holds both a and
    not a never holds, so it forces nothing."""
    false = known ^ true
    pending = list(pending)
    first_constraint = len(start) if first_constraint is None else first_constraint
    while pending:
        head = pending.pop()
        if head >= first_constraint:
            if backchained is None:
                continue
            for pos, neg in masks[start[head] : start[head + 1]]:
                if pos & false or neg & true:
                    continue
                undecided = (pos | neg) & ~known
                if not undecided:
                    return None
                if pos & neg or undecided & (undecided - 1):
                    continue
                # one literal left: it must fail
                known |= undecided
                if neg & undecided:
                    true |= undecided
                else:
                    false |= undecided
                atom = undecided.bit_length() - 1
                backchained.append(atom)
                # the atom's own rows, then its watchers, this head among them
                pending.append(atom)
                pending.extend(watchers[atom])
                break
            continue
        forced = False
        for pos, neg in masks[start[head] : start[head + 1]]:
            if pos & false or neg & true:
                continue
            if pos & true == pos and neg & false == neg:
                forced = True
                break
            forced = None
        if forced is None:
            continue
        bit = 1 << head
        if known & bit:
            if bool(true & bit) is not forced:
                return None
            continue
        known |= bit
        if forced:
            true |= bit
        else:
            false |= bit
        pending.extend(watchers[head])
    return known, true


def least_fixpoint(head, pos, pos_uses, holding) -> set[int]:
    """The heads of the holding bodies whose positive atoms are all in the
    set, to a fixpoint: counter-based Horn propagation (Dowling & Gallier
    1984), linear in the bodies' size. head, pos and pos_uses are laid out
    as in Bodies, each atom once per body; holding lists the atom rows to
    use.

    An atom is founded when it lies in this fixpoint: a fact's empty body
    needs nothing, and a negated literal that holds needs no derivation."""
    founded: set[int] = set()
    waiting: dict[int, int] = {}
    ready = []
    for i in holding:
        waiting[i] = len(pos[i])
        if not pos[i]:
            ready.append(i)
    while ready:
        atom = head[ready.pop()]
        if atom in founded:
            continue
        founded.add(atom)
        for i in pos_uses[atom]:
            if i in waiting:
                waiting[i] -= 1
                if waiting[i] == 0:
                    ready.append(i)
    return founded


def stable(g: DepGraph, true: int) -> bool:
    """Whether the atoms of the mask true are an answer set (Gelfond &
    Lifschitz, ICLP 1988): no constraint body holds when every other atom
    is False, and the least fixpoint of the reduct, the atom rows none of
    whose negated atoms is in true, derives exactly true. This is the
    package's one answer-set check; it reads only the body table, so it
    gives the same verdict on a graph before and after the flip."""
    t = g.bodies
    false = ((1 << g.atom_count) - 1) ^ true
    constraint_rows = t.masks[t.start[g.atom_count] :]
    if any(pos & true == pos and neg & false == neg for pos, neg in constraint_rows):
        return False
    reduct = [i for i, (_, neg) in enumerate(t.masks[: t.start[g.atom_count]]) if not neg & true]
    derived = least_fixpoint(t.head, t.pos, t.pos_uses, reduct)
    return len(derived) == true.bit_count() and all(true >> a & 1 for a in derived)


def build_cnr(program: Program) -> DepGraph:
    """Conjunction-node graph of a program.

    One conjunction node per distinct rule with >= 2 body literals; rules
    with a single body literal become a direct edge. Facts fix their head
    node to True; each distinct headless constraint gets a False-fixed
    constraint node standing in for its head. Duplicate rules (same head and
    body set) collapse onto one node/edge set, with every source rule kept
    in the origin map.
    """
    names = sorted(program.atoms)
    atom_count = len(names)
    number = {name: i for i, name in enumerate(names)}
    facts: set[int] = set()
    constraints: list[int] = []
    conjunctions: list[int] = []
    origin: dict[str, tuple[Rule, ...]] = {}
    arcs: list[tuple[int, int, bool]] = []  # (src, dst, positive)
    seen: dict[tuple, tuple[str, ...]] = {}
    for rule in program.rules:
        key = (rule.head, frozenset(rule.body))
        helpers = seen.get(key)
        if helpers is not None:
            for helper in helpers:
                origin[helper] += (rule,)
            continue

        helpers = ()
        body = rule.body
        if rule.head is None:
            helper = f"{CONSTRAINT_PREFIX}{len(constraints)}"
            head = number[helper] = len(names)
            names.append(helper)
            constraints.append(head)
            origin[helper] = (rule,)
            helpers = (helper,)
        elif not body:
            facts.add(number[rule.head])
            seen[key] = ()
            continue
        else:
            head = number[rule.head]

        if len(body) == 1:
            lit = body[0]
            arcs.append((number[lit.atom], head, not lit.negated))
        else:
            helper = f"{CONJ_PREFIX}{len(conjunctions)}"
            conj = number[helper] = len(names)
            names.append(helper)
            conjunctions.append(conj)
            origin[helper] = (rule,)
            helpers += (helper,)
            for lit in key[1]:  # the body without repeated literals
                arcs.append((number[lit.atom], conj, not lit.negated))
            arcs.append((conj, head, True))
        seen[key] = helpers

    # Every edge in (src, dst, sign) number order fills the out-lists in
    # (dst, sign) order and the in-lists in (src, sign) order.
    arcs.sort()
    size = len(names)
    fixed = {**dict.fromkeys(sorted(facts), True), **dict.fromkeys(constraints, False)}
    conj = [False] * size
    for i in conjunctions:
        conj[i] = True
    return DepGraph(
        tuple(names), number, arcs, fixed, conj, atom_count, origin, rule_count=len(program.rules)
    )


def fill_adjacency(g: DepGraph) -> tuple[list[list[int]], list[list[int]]]:
    """The out- and in-lists of g, filled from its arc list in its order."""
    size = len(g.names)
    succ: list[list[int]] = [[] for _ in range(size)]
    pred: list[list[int]] = [[] for _ in range(size)]
    for src, dst, positive in g.arcs:
        succ[src].append(2 * dst + positive)
        pred[dst].append(2 * src + positive)
    return succ, pred


def flip_conjunction_signs(g: DepGraph) -> DepGraph:
    """Copy of g with the sign of every conjunction-incident arc flipped;
    the arc list keeps its order. The copy shares g's names, numbering and
    conjunction flags."""
    conj = g.conj
    arcs = [(src, dst, positive ^ (conj[src] or conj[dst])) for src, dst, positive in g.arcs]
    return DepGraph(
        g.names,
        g.number,
        arcs,
        dict(g.fixed_nodes),
        conj,
        g.atom_count,
        dict(g.origin),
        g.transformed,
        g.rule_count,
    )


def cnr_to_dg(g: DepGraph) -> DepGraph:
    """De Morgan rewrite: negate all in- and out-edges of conjunction nodes.
    The result's adjacency lists are filled here, as the engines read them."""
    if g.transformed:
        raise DoubleTransformError("graph has already been transformed")
    out = flip_conjunction_signs(g)
    out.transformed = True
    out.succ  # fills succ and pred
    return out


def atoms_of(g: DepGraph) -> frozenset[str]:
    """Atom node names; helper nodes are never reported in answer sets."""
    return frozenset(g.names[: g.atom_count])


def export_order(g: DepGraph) -> tuple[list[tuple[int, NodeKind]], list[tuple[int, int, int]]]:
    """The nodes and edges of g in output order. The nodes, with their
    kinds, are the atoms (numbered by name), then the conjunction nodes,
    then the constraint nodes, each helper kind in number order. The edges
    are (src, dst, positive) triples, by source and then target in that
    order, the negative edge first."""
    helpers = range(g.atom_count, len(g.names))
    nodes = [(i, NodeKind.ATOM) for i in range(g.atom_count)]
    nodes += [(i, NodeKind.CONJ) for i in helpers if g.conj[i]]
    nodes += [(i, NodeKind.CONSTRAINT) for i in helpers if not g.conj[i]]
    rank = [0] * len(nodes)
    for r, (i, _) in enumerate(nodes):
        rank[i] = r
    edges = [
        (src, e >> 1, e & 1)
        for src, _ in nodes
        for e in sorted(g.succ[src], key=lambda e: 2 * rank[e >> 1] + (e & 1))
    ]
    return nodes, edges


def export_dot(g: DepGraph) -> str:
    """Graphviz text: negative edges dashed with label "not", conjunction
    nodes filled black, constraint nodes double-circled."""
    if not g.names:
        return "digraph g {}"
    names = g.names
    nodes, edges = export_order(g)
    lines = ["digraph g {"]
    for node, kind in nodes:
        if kind is NodeKind.CONJ:
            attrs = ' [shape=circle, style=filled, fillcolor=black, label=""]'
        elif kind is NodeKind.CONSTRAINT:
            attrs = " [shape=doublecircle]"
        else:
            attrs = ""
        lines.append(f'  "{names[node]}"{attrs};')
    for src, dst, positive in edges:
        attrs = "" if positive else ' [label="not", style=dashed]'
        lines.append(f'  "{names[src]}" -> "{names[dst]}"{attrs};')
    lines.append("}")
    return "\n".join(lines)


def graph_to_json(g: DepGraph) -> dict:
    """JSON-ready document: {nodes: [{id, kind, fixed}], edges: [...]}."""
    names = g.names
    nodes, edges = export_order(g)
    return {
        "nodes": [
            {"id": names[n], "kind": kind.value, "fixed": g.fixed_nodes.get(n)}
            for n, kind in nodes
        ],
        "edges": [
            {"from": names[src], "to": names[dst], "sign": SIGNS[positive].value}
            for src, dst, positive in edges
        ],
        "transformed": g.transformed,
    }
