"""Top-down constraint-driven solver.

Every solve starts from its seed: the three-valued fixpoint of
propagation from the rule-less atoms and the constraint nodes, all False,
kept on the atoms. Fitting's two rules run forward (Fitting, JLP 1985),
and the constraint rows run backward: a constraint body with no false
literal and one undecided literal forces that literal false (smodels'
backchaining, Simons, Niemelä & Soininen, AIJ 2002). Every answer set
extends Fitting's model (Van Gelder, Ross & Schlipf, JACM 1991) and
falsifies every constraint body, so it extends the seed too. Two seeds
settle the solve without a proof. When the propagation contradicts, a
constraint body true among them, there is no answer set. When the seed
decides every atom, it is the one answer set if it is stable, and
``_settled`` checks that only when the backward rule forced an atom True.
Otherwise the proof search below starts from the seed.

The proof search starts from the constraint nodes (always-False heads)
and works backward: a node presumed False needs every in-edge
non-effective, a node presumed True needs at least one effective in-edge,
where an effective edge is a positive edge from a True node or a negative
edge from a False node. Every goal is proved on the seed branch, so a
proof reads each seed atom, facts and rule-less atoms among them, off the
branch. It decides the source of every other in-edge it meets, so a
finished partial model covers its constraint's ancestor cone up to the
seed. Programs without enough constraints to reach every atom get
synthesized ones: vacuous ":- a, not a." anchors that force a case split
on a. Each is proved as a goal on the program's own graph, built once per
solve, by proving a False or a True. A goal's proof models are joined,
without repeats, with the models found so far; a proof is never
propagated on its own. Propagation is monotone, so fp(left | fp(m)) =
fp(left | m), and a proof whose own propagation contradicts makes every
union containing it contradict too: the finished models are the same as
when each proof is propagated before the join. A union is
forward-propagated once, and only when its goal is open: when some head
outside the goal's cone and the cones joined before it watches the cone,
or a seed atom that the backward rule forced, which need not agree with
the bodies the cone decides. A closed goal's unions are fixpoints
already, as _finished_models shows; on the 3-colorings of C5-C8 no goal
is open. Finished models are
totalized (atoms never reached default to False), and a proof may close
an unfounded positive loop, so each candidate M, the mask of its True
atoms, is kept only if it is stable (Gelfond & Lifschitz, ICLP 1988): no
constraint body holds in M, and the least fixpoint of the reduct, the
atom rows with no negated atom in M, derives exactly M. That is one
``graph.stable`` call per candidate, on masks, before any name is
decoded.

The proof search walks the graph's own integer lists: node i is bit i,
and its in-edges are read off ``pred`` (a positive entry is effective
when its source is True). A partial model is a pair of ints, (known,
true): bit i of known says node i is decided, bit i of true that it is
True (true is always a subset of known). Two models conflict exactly
when (k1 & k2) & (t1 ^ t2) is nonzero, and their union is two ORs. The
proof branch, the seed and the nodes presumed on the path of proofs that
led to a sub-goal, is such a pair of ints too, passed down by value, so
nothing is undone on the way back. Names are decoded only when answer
sets are extracted.

prove is tabled, one table per solve shared by every goal: a sub-goal's
models are stored under (node, presumed, known & comp, true & comp) of
the branch (known, true), where comp is the bit mask of the node's
strongly connected component, and every later call with that key returns
the stored list. The key is exact. The seed is on every branch of the
solve, and every other branch node is a descendant of the node, since
the branch is the path that led to it; the sub-proof walks the node's
ancestors, so it meets such a node only if that node is also an
ancestor, and then it is in the node's component. An acyclic node's key
ignores the branch. Two kinds of node are not tabled.
Conjunction nodes: their proof is one join over their sources, which are
tabled; storing their models too measured no faster and raised the
Hamiltonian K4 solve's tracemalloc peak from 2.0 to 2.9 MB. Nodes without
out-edges, the constraint nodes among them: only a goal reaches them, and
each goal is proved once.

An in-edge whose source the branch decides needs no sub-proof: it would
return the empty model for the branch's value and none for the other. So
prove reads the edge off the branch, with no call, table probe or join:
an effective edge makes every state's edge flag True under a True
presumption and leaves a False presumption without models, and an
ineffective one changes nothing.

Partial models are combined by a hash join on the nodes that every model
on both sides decides: the right-hand models are bucketed by their true
bits on those nodes, so each left model is unioned only with the right
models that agree with it there, the only ones whose union can succeed.
A one-model right list, the most common in the proof search, skips the
buckets: its probe is one conflict test and one union.

Forward propagation is ``graph.fitting``, the package's one three-valued
propagator, over the graph's body table, which holds one (pos_mask,
neg_mask) pair per rule body and, per node, the heads whose bodies mention
it. forward_propagate only picks the heads to check first: every head, or
the heads watching the nodes a union adds to its fixpoint base; after that
only the heads watching a newly decided atom are checked again. The
constraint nodes watch their rows' atoms too, but only the seed's
propagation runs their rows; a union's runs the atom rows alone, so that
a closed goal's unions stay fixpoints. Backchaining there as well pruned
more on Hamiltonian K4 and K5, but then every 3-coloring goal would be
open. grasp's labeling search runs the same function on a component's
atom rows.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable

from .cycles import _strong_components
from .graph import DepGraph, build_cnr, cnr_to_dg, constraint_nodes, fitting, stable
from .syntax import Literal, Program, Rule

# (known, true) bit masks over node numbers; true is a subset of known.
PartialModel = tuple[int, int]


class QueryAtomUnknown(ValueError):
    """Query atom does not occur in the program."""


def _names(g: DepGraph, mask: int) -> frozenset[str]:
    """The names of the mask's nodes, in one scan of its binary digits:
    reversed, digit i is bit i."""
    bits = bin(mask)[:1:-1]
    return frozenset([name for name, bit in zip(g.names, bits) if bit == "1"])


def _join(
    left: Iterable[PartialModel], right: list[PartialModel]
) -> Callable[[PartialModel], list[PartialModel]]:
    """Hash join of two model lists on the nodes every model of both lists
    decides. Returns the probe for one left model: its successful unions
    with the right models, in right's order. A right model that disagrees
    with the left one on a shared node is never tried, since its union
    would fail; the conflict test still covers every other node. A
    one-model right list needs no buckets: its probe is one conflict test
    and one union."""
    if len(right) == 1:
        ((right_known, right_true),) = right

        def probe_one(model: PartialModel) -> list[PartialModel]:
            known, true = model
            if known & right_known & (true ^ right_true):
                return []
            return [(known | right_known, true | right_true)]

        return probe_one
    shared = -1
    for known, _ in left:
        shared &= known
    for known, _ in right:
        shared &= known
    buckets: dict[int, list[PartialModel]] = {}
    for model in right:
        buckets.setdefault(model[1] & shared, []).append(model)

    def probe(model: PartialModel) -> list[PartialModel]:
        known, true = model
        return [
            (known | k, true | t)
            for k, t in buckets.get(true & shared, ())
            if not known & k & (true ^ t)
        ]

    return probe


def merge_conjunctive(
    a: list[PartialModel], b: list[PartialModel]
) -> list[PartialModel]:
    """Pairwise unions of compatible models; conflicting pairs are dropped."""
    unions_with_b = _join(a, b)
    return list(dict.fromkeys(union for ma in a for union in unions_with_b(ma)))


def _heads(g: DepGraph) -> list[int]:
    """The atoms with at least one rule body, in number order."""
    start = g.bodies.start
    return [a for a in range(g.atom_count) if start[a] < start[a + 1]]


def forward_propagate(
    m: PartialModel,
    g: DepGraph,
    base: PartialModel | None = None,
    backchained: list[int] | None = None,
) -> PartialModel | None:
    """Fitting's fixpoint of the graph's atom rows over m, by graph.fitting:
    a rule whose body is fully decided true forces its head True, and an
    atom all of whose bodies are decided false is forced False. Returns None
    when a forced value contradicts an existing entry (the caller drops the
    model). This function only picks the heads to check first.

    base, when given, is a model contained in m that is a fixpoint already.
    A head none of whose bodies mentions a node m adds to base is forced in
    m exactly as in base, where its value agrees, so only the heads watching
    those nodes are checked first; the result is the same. Without base,
    every head is checked once.

    backchained, when a list, also runs the constraint rows, the seed's
    propagation: m must hold the constraint nodes False, a constraint body
    that holds contradicts, and one with a single undecided literal forces
    that atom the other way and appends it to the list (graph.fitting).
    Without base, every constraint node is checked once too."""
    t = g.bodies
    if base is None:
        pending = _heads(g)
        if backchained is not None:
            # fitting pops the last head first: the forward rules run first
            pending = constraint_nodes(g) + pending
    else:
        pending = []
        added = m[0] & ~base[0]
        while added:
            low = added & -added
            pending.extend(t.watchers[low.bit_length() - 1])
            added ^= low
    return fitting(*m, pending, t.masks, t.start, t.watchers, g.atom_count, backchained)


class ProofTable:
    """prove's results for one solve, keyed as the module docstring says.
    The components are found on the first lookup, so a solve whose proofs
    all stop at the seed never pays for them."""

    __slots__ = ("g", "results", "_components")

    def __init__(self, g: DepGraph):
        self.g = g
        self.results: dict[tuple[int, bool, int, int], list[PartialModel]] = {}
        self._components: list[int] | None = None

    def component(self, node: int) -> int:
        """Bit mask of the node's strongly connected component."""
        masks = self._components
        if masks is None:
            masks = self._components = _component_masks(self.g)
        return masks[node]


def _component_masks(g: DepGraph) -> list[int]:
    masks = [0] * len(g.names)
    for component in _strong_components(len(masks), range(len(masks)), g.pred.__getitem__):
        mask = 0
        for node in component:
            mask |= 1 << node
        for node in component:
            masks[node] = mask
    return masks


def prove(
    node: int, presumed: bool, known: int, true: int, table: ProofTable
) -> list[PartialModel]:
    """All partial models under which the node carries the presumed value,
    given the branch (known, true): the seed and the nodes presumed on the
    path of proofs that led here, as bit masks like a partial model's.

    The branch must hold the seed, so a fact or rule-less atom is read off
    it like any branch node. A constraint node is only ever proved False.

    A presumed-True node needs at least one effective in-edge; presumed
    False needs all in-edges non-effective. Either way the proof decides the
    source of every in-edge, so surviving models cover the full cone.
    Revisiting a branch node with the same presumption closes a cycle and
    stands as a coinductive hypothesis (the stability check of each
    candidate, graph.stable, discards unfounded positive loops); an opposite
    presumption is a contradiction and yields no models.

    Results are tabled in table and shared: callers must not mutate them.
    """
    bit = 1 << node
    if known & bit:
        return [(0, 0)] if bool(true & bit) is presumed else []
    g = table.g
    key = None
    if g.succ[node] and not g.conj[node]:
        scope = table.component(node)
        key = (node, presumed, known & scope, true & scope)
        tabled = table.results.get(key)
        if tabled is not None:
            return tabled

    # model -> has_effective_edge; a model reached both with and without an
    # effective edge keeps True, since every union of the one without is
    # also a union of the one with.
    states: dict[PartialModel, bool] = {(bit, bit if presumed else 0): False}
    known |= bit
    if presumed:
        true |= bit
    for entry in g.pred[node]:
        # the edge is effective when its source takes its sign's value
        src, effective_value = entry >> 1, entry & 1 == 1
        if known >> src & 1:
            # The branch decides the source: the edge is read off it, as
            # the module docstring says, with no sub-proof.
            if (true >> src & 1 == 1) is effective_value:
                if not presumed:
                    states = {}
                    break
                states = dict.fromkeys(states, True)
            continue
        options = []
        if presumed:
            options.append((prove(src, effective_value, known, true, table), True))
        options.append((prove(src, not effective_value, known, true, table), False))
        joins = [(_join(states, subs), effective) for subs, effective in options if subs]
        next_states: dict[PartialModel, bool] = {}
        for model, has_effective in states.items():
            for unions_with, makes_effective in joins:
                flag = has_effective or makes_effective
                for union in unions_with(model):
                    if flag or union not in next_states:
                        next_states[union] = flag
        states = next_states
        if not states:
            break
    result = [model for model, flag in states.items() if flag is presumed]
    if key is not None:
        table.results[key] = result
    return result


def _ancestor_atoms(g: DepGraph, goals: list[int], reached: set[int]) -> list[int]:
    """The atoms among goals and their ancestors that reached does not hold
    yet. The walk adds each node it meets to reached and stops at the nodes
    already there: the seed's atoms, where every proof stops, and the nodes
    whose ancestors an earlier walk met. An ancestor reached only through a
    seed atom is never proved, so it must not count as covered."""
    new = [n for n in goals if n not in reached]
    reached.update(new)
    stack = list(new)
    while stack:
        node = stack.pop()
        for entry in g.pred[node]:
            src = entry >> 1
            if src not in reached:
                reached.add(src)
                new.append(src)
                stack.append(src)
    return [n for n in new if n < g.atom_count]


def _undecided_inputs(g: DepGraph, decided: set[int]) -> dict[int, int]:
    """Per undecided atom head, a count of its (body, literal) pairs whose
    atom is undecided, which watchers lists once each. Constraint nodes
    watch atoms too, but they are no heads here."""
    counts = dict.fromkeys([h for h in _heads(g) if h not in decided], 0)
    for atom, heads in enumerate(g.bodies.watchers):
        if atom not in decided:
            for head in heads:
                if head in counts:
                    counts[head] += 1
    return counts


class _Coverage:
    """The decided atoms, kept up to date as anchors are added: the atoms
    guaranteed a value in every finished partial model. They are the seed's
    atoms, constraint-cone atoms (decided by the proofs, which stop at the
    seed), and the closure of atoms whose every rule body mentions only
    decided atoms (decided either way by forward propagation).

    An anchor is an atom a whose ":- a, not a." is proved as a goal on a's
    cone, so each counts as one more constraint goal. The closure is not
    graph.least_fixpoint: a head is decided only once all of its bodies
    are, where the fixpoint fires a head on any one body. Written as that
    fixpoint it needs a synthetic clause per head, and it measured slower
    than counting each head's undecided inputs.

    The walked nodes, the decided set and the undecided-input counts last
    across anchors, so an anchor costs only its new cone and the heads it
    newly decides: the cone walk and the watcher count run once."""

    __slots__ = ("g", "watchers", "reached", "decided", "undecided_inputs")

    def __init__(self, g: DepGraph, seed: PartialModel):
        self.g, self.watchers = g, g.bodies.watchers
        self.reached = {a for a in range(g.atom_count) if seed[0] >> a & 1}
        decided = set(self.reached)
        decided.update(_ancestor_atoms(g, constraint_nodes(g), self.reached))
        self.decided = decided
        self.undecided_inputs = _undecided_inputs(g, decided)
        self._close([h for h, count in self.undecided_inputs.items() if count == 0])

    def add(self, anchor: int) -> None:
        """Counts the anchor as one more constraint goal."""
        cone = _ancestor_atoms(self.g, [anchor], self.reached)
        new = [a for a in cone if a not in self.decided]
        for atom in new:
            # decided by the cone, so no count of its inputs may decide it again
            self.undecided_inputs.pop(atom, None)
        self._close(new)

    def _close(self, stack: list[int]) -> None:
        """Decides the atoms on stack, then each head whose count of
        undecided inputs they bring to zero."""
        decided, counts, watchers = self.decided, self.undecided_inputs, self.watchers
        decided.update(stack)
        while stack:
            for head in watchers[stack.pop()]:
                if head in counts:
                    counts[head] -= 1
                    if counts[head] == 0:
                        decided.add(head)
                        stack.append(head)


def synthesized_constraints(graph: DepGraph, seed: PartialModel) -> list[Rule]:
    """Vacuous ":- a, not a." anchors, each forcing a case split on a, for
    the atoms that neither the seed, a constraint cone nor propagation
    decides: most-depended-upon atom first, until all atoms are covered.
    Every check runs on graph, with the anchors as extra goals. The covered
    set only grows, so one pass in that order finds every anchor."""
    coverage = _Coverage(graph, seed)
    # atoms are numbered in name order, so ties go to the smallest name
    order = sorted(range(graph.atom_count), key=lambda a: (-len(graph.pred[a]), a))
    additions: list[Rule] = []
    for anchor in order:
        if anchor in coverage.decided:
            continue
        coverage.add(anchor)
        name = graph.names[anchor]
        additions.append(
            Rule(None, (Literal(name, negated=False), Literal(name, negated=True)))
        )
    return additions


def _contains(m: PartialModel, part: PartialModel) -> bool:
    return not part[0] & ~m[0] and m[1] & part[0] == part[1]


def _seed(g: DepGraph) -> tuple[PartialModel, int] | None:
    """The seed, propagation from the rule-less atoms and the constraint
    nodes, all False, with the constraint rows propagating backward, and the
    mask of the atoms the backward rule decided. It is Fitting's fixpoint
    strengthened by backchaining, over the atoms: every answer set extends
    Fitting's fixpoint and falsifies every constraint body, so it extends
    the seed too. None when the propagation contradicts: then there is no
    answer set."""
    atoms = (1 << g.atom_count) - 1  # the atoms are the first nodes
    start = atoms
    for head in _heads(g):
        start &= ~(1 << head)
    for node in constraint_nodes(g):
        start |= 1 << node
    backchained: list[int] = []
    seed = forward_propagate((start, 0), g, None, backchained)
    if seed is None:
        return None
    forced = 0
    for atom in backchained:
        forced |= 1 << atom
    # A goal is proved from its constraint node, which the branch must not
    # decide, so the seed keeps the atoms only.
    return (seed[0] & atoms, seed[1]), forced


def _settled(g: DepGraph, seed: PartialModel, backchained: int) -> list[PartialModel] | None:
    """The finished models when the seed decides every atom: the seed alone
    if it is stable, else none. None when the proof search must decide. The
    proof search would end with a total seed alone too, but its coverage
    pass made chain's igasp solves about 8 % slower.

    A total seed needs no stability check when the backward rule forced no
    atom True, the atoms in backchained. Then every True atom was forced by
    Fitting's True rule, in order, so it lies in the reduct's least model;
    and the seed is a model of the reduct, since any body holding in it
    forced its head True. So the seed is the one answer set (Van Gelder,
    Ross & Schlipf, JACM 1991: it is the well-founded model). Otherwise it
    gets the one graph.stable call: ":- not a. a :- a." forces a True with
    no founded support."""
    known, true = seed
    if known != (1 << g.atom_count) - 1:
        return None
    if backchained & true and not stable(g, true):
        return []
    return [seed]


def _finished_models(
    g: DepGraph, synthesized: list[Rule], seed: PartialModel, backchained: int
) -> list[PartialModel]:
    """Forward-propagated partial models that extend the seed and falsify
    every constraint: the program's, then each synthesized one, by one of
    its literals proved false. Every goal is proved on the seed branch.

    covered holds the seed's atoms and the cone of every goal joined so
    far, each walked up to covered: every model so far decides every node
    in it, since a proof decides its goal's whole cone up to the seed. A
    union decides covered after its goal's walk, and each head it decides
    already agrees with its bodies, except the seed atoms in backchained,
    which the constraint rows forced: a proved head has every body decided,
    and a head Fitting's rules forced stays forced. So propagation, which
    runs on the atom rows alone, can only force a head outside covered or
    reject the union where a head in backchained disagrees with the bodies
    the union decides, and either watches a node the union adds, all of
    which are in the goal's cone. When no such head watches the cone, the
    goal is closed and its unions are fixpoints already: they are kept as
    merge_conjunctive lists them. An open goal's unions are propagated,
    each from a left model it contains. This is the splitting set theorem's
    reading (Lifschitz & Turner, ICLP 1994): the atoms outside a closed cone
    cannot react to its values before their own goal comes."""
    models = [seed]
    goals = [[(c, False)] for c in constraint_nodes(g)]
    goals += [[(g.number[lit.atom], lit.negated) for lit in rule.body] for rule in synthesized]
    table = ProofTable(g)
    watchers = g.bodies.watchers
    atoms = g.atom_count
    covered = {a for a in range(atoms) if seed[0] >> a & 1}
    for goal in goals:
        # The proofs are joined unpropagated, as the module docstring says.
        proofs = [m for node, value in goal for m in prove(node, value, *seed, table)]
        unions = merge_conjunctive(models, list(dict.fromkeys(proofs)))
        cone = _ancestor_atoms(g, [node for node, _ in goal], covered)
        # the constraint nodes watch too, but propagation skips them
        if all(
            head >= atoms or head in covered and not backchained >> head & 1
            for a in cone
            for head in watchers[a]
        ):
            models = unions
        else:
            # merge_conjunctive lists the unions of each left model in the
            # order of models, so one pointer finds, for each union, a left
            # model that it contains; propagation starts from the nodes the
            # union adds.
            merged = []
            left = 0
            for m in unions:
                while not _contains(m, models[left]):
                    left += 1
                propagated = forward_propagate(m, g, models[left])
                if propagated is not None:
                    merged.append(propagated)
            models = list(dict.fromkeys(merged))
        if not models:
            return []
    return models


def solve_igasp(program: Program) -> list[frozenset[str]]:
    """Answer sets computed top-down, sorted lexicographically. A settled
    solve's model, if any, is the answer set, as _settled says. Each of the
    proof search's candidates is kept only if it passes graph.stable,
    checked on masks, and only the kept masks are decoded to names."""
    g = cnr_to_dg(build_cnr(program))
    seeded = _seed(g)
    if seeded is None:
        return []
    seed, backchained = seeded
    models = _settled(g, seed, backchained)
    atoms = (1 << g.atom_count) - 1
    if models is not None:
        return [_names(g, true & atoms) for _, true in models]
    synthesized = synthesized_constraints(g, seed)
    # prove recurses once per node of a proof path; the caller's limit is
    # restored on the way out.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * len(g.names) + 1000))
    try:
        models = _finished_models(g, synthesized, seed, backchained)
    finally:
        sys.setrecursionlimit(limit)
    candidates = dict.fromkeys(true & atoms for _, true in models)
    answer_sets = [_names(g, true) for true in candidates if stable(g, true)]
    return sorted(answer_sets, key=sorted)


def solve_query(
    program: Program, query_atom: str, positive: bool = True
) -> list[frozenset[str]]:
    """Models consistent with the query, obtained by negating the query
    literal and appending it as a constraint."""
    if query_atom not in program.atoms:
        raise QueryAtomUnknown(f"unknown atom {query_atom!r}")
    constraint = Rule(None, (Literal(query_atom, negated=positive),))
    return solve_igasp(program.extended([constraint]))
