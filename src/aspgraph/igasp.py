"""Top-down constraint-driven solver.

Solving starts from the constraint nodes (always-False heads) and works
backward: a node presumed False needs every in-edge non-effective, a node
presumed True needs at least one effective in-edge, where an effective edge
is a positive edge from a True node or a negative edge from a False node.
Each proof decides the source of every in-edge it meets, so a finished
partial model covers the whole ancestor cone of its constraint. Programs
without enough constraints to reach every atom get synthesized ones: the
negation of each fact, and vacuous ":- a, not a." anchors that force a case
split on a. Finished models are forward-propagated, totalized (atoms never
reached default to False) and kept only if the resulting world passes the
effective-edge/foundedness validation.

Partial models are combined by a hash join on the nodes that every model
on both sides decides: the right-hand models are bucketed by their values
on those nodes, so each left model is unioned only with the right models
that agree with it there, the only ones whose union can succeed.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass, field

from .graph import (
    DepGraph,
    NodeKind,
    Sign,
    atoms_of,
    build_cnr,
    cnr_to_dg,
    helper_ordinal,
    node_kind,
)
from .justify import check_justified
from .syntax import Literal, Program, Rule
from .worlds import world_from_atoms


class QueryAtomUnknown(ValueError):
    """Query atom does not occur in the program."""


@dataclass
class PartialModel:
    """Consistent partial assignment built during proof search."""

    values: dict[str, bool] = field(default_factory=dict)

    def value(self, node: str) -> bool | None:
        return self.values.get(node)

    def key(self) -> frozenset:
        return frozenset(self.values.items())

    def with_entry(self, node: str, value: bool) -> PartialModel | None:
        current = self.values.get(node)
        if current is not None and current != value:
            return None
        if current is not None:
            return self
        values = dict(self.values)
        values[node] = value
        return PartialModel(values)

    def union(self, other: PartialModel) -> PartialModel | None:
        if any(self.values.get(n) not in (None, v) for n, v in other.values.items()):
            return None
        values = dict(self.values)
        values.update(other.values)
        return PartialModel(values)


def _dedup(models: list[PartialModel]) -> list[PartialModel]:
    seen = set()
    unique = []
    for m in models:
        k = m.key()
        if k not in seen:
            seen.add(k)
            unique.append(m)
    return unique


@dataclass(frozen=True)
class ProofBranch:
    """Presumed (node, value) pairs along the current proof path."""

    path: tuple[tuple[str, bool], ...] = ()

    def find(self, node: str) -> bool | None:
        for n, v in self.path:
            if n == node:
                return v
        return None

    def extend(self, node: str, value: bool) -> ProofBranch:
        return ProofBranch(self.path + ((node, value),))


def _join(
    left: list[PartialModel], right: list[PartialModel]
) -> Callable[[PartialModel], list[PartialModel]]:
    """Hash join of two model lists on the nodes every model of both lists
    decides. Returns the probe for one left model: its successful unions
    with the right models, in right's order. A right model that disagrees
    with the left one on a shared node is never tried, since its union
    would fail; union still checks every other node."""
    shared = set(left[0].values) if left else set()
    for m in left:
        shared &= m.values.keys()
    for m in right:
        shared &= m.values.keys()
    nodes = sorted(shared)
    buckets: dict[tuple[bool, ...], list[PartialModel]] = {}
    for m in right:
        buckets.setdefault(tuple(map(m.values.__getitem__, nodes)), []).append(m)

    def probe(model: PartialModel) -> list[PartialModel]:
        bucket = buckets.get(tuple(map(model.values.__getitem__, nodes)), ())
        unions = []
        for other in bucket:
            union = model.union(other)
            if union is not None:
                unions.append(union)
        return unions

    return probe


def merge_conjunctive(
    a: list[PartialModel], b: list[PartialModel]
) -> list[PartialModel]:
    """Pairwise unions of compatible models; conflicting pairs are dropped."""
    unions_with_b = _join(a, b)
    return _dedup([union for ma in a for union in unions_with_b(ma)])


def build_causal_map(program: Program) -> dict[str, tuple[tuple[Literal, ...], ...]]:
    """Rule bodies per head atom: the conditions that force each atom True."""
    cmap: dict[str, list[tuple[Literal, ...]]] = {}
    for rule in program.rules:
        if rule.head is not None:
            cmap.setdefault(rule.head, []).append(rule.body)
    return {atom: tuple(bodies) for atom, bodies in cmap.items()}


def _body_state(
    body: tuple[Literal, ...], values: dict[str, bool]
) -> bool | None:
    state = True
    for lit in body:
        value = values.get(lit.atom)
        if value is None:
            state = None
        elif value == lit.negated:
            return False
    return state


def forward_propagate(
    m: PartialModel, cmap: dict[str, tuple[tuple[Literal, ...], ...]]
) -> PartialModel | None:
    """Least fixpoint of the causal map over m: a rule whose body is fully
    decided true forces its head True, and an atom all of whose bodies are
    decided false is forced False. Returns None when a forced value
    contradicts an existing entry (the caller drops the model)."""
    current = m
    changed = True
    while changed:
        changed = False
        for atom, bodies in cmap.items():
            known = current.values.get(atom)
            states = [_body_state(body, current.values) for body in bodies]
            if any(s is True for s in states):
                if known is False:
                    return None
                if known is None:
                    current = current.with_entry(atom, True)
                    changed = True
            elif all(s is False for s in states):
                if known is True:
                    return None
                if known is None:
                    current = current.with_entry(atom, False)
                    changed = True
    return current


def prove(
    node: str, presumed: bool, branch: ProofBranch, g: DepGraph
) -> list[PartialModel]:
    """All partial models under which the node carries the presumed value.

    A presumed-True node needs at least one effective in-edge; presumed
    False needs all in-edges non-effective. Either way the proof decides the
    source of every in-edge, so surviving models cover the full cone.
    Revisiting a branch node with the same presumption closes a cycle and
    stands as a coinductive hypothesis (the final stability validation
    discards unfounded positive loops); an opposite presumption is a
    contradiction and yields no models.
    """
    prior = branch.find(node)
    if prior is not None:
        if prior != presumed:
            return []
        return [PartialModel()]
    fixed = g.fixed_value(node)
    if fixed is True:
        return [PartialModel({node: True})] if presumed else []
    if fixed is False and presumed:
        return []
    in_edges = sorted(g.in_edges(node), key=lambda e: (e.src, e.sign.value))
    if not in_edges:
        if presumed:
            return []
        return [PartialModel({node: False})]

    sub_branch = branch.extend(node, presumed)
    start = PartialModel({node: presumed})
    # (model, has_effective_edge) pairs; an edge is effective when its source
    # carries True across a positive edge or False across a negative one.
    states: list[tuple[PartialModel, bool]] = [(start, False)]
    for edge in in_edges:
        effective_value = edge.sign is Sign.POSITIVE
        options: list[tuple[list[PartialModel], bool]] = []
        if presumed:
            options.append((prove(edge.src, effective_value, sub_branch, g), True))
        options.append((prove(edge.src, not effective_value, sub_branch, g), False))
        models = [model for model, _ in states]
        joins = [(_join(models, subs), effective) for subs, effective in options]
        next_states = []
        seen = set()
        for model, has_effective in states:
            for unions_with, makes_effective in joins:
                for union in unions_with(model):
                    flag = has_effective or makes_effective
                    k = (union.key(), flag)
                    if k not in seen:
                        seen.add(k)
                        next_states.append((union, flag))
        states = next_states
        if not states:
            return []
    required = True if presumed else False
    return _dedup([m for m, flag in states if flag is required])


def _constraint_nodes(g: DepGraph) -> list[str]:
    nodes = [n for n in g.nodes if node_kind(n) is NodeKind.CONSTRAINT]
    return sorted(nodes, key=helper_ordinal)


def _ancestor_atoms(g: DepGraph, seeds: list[str]) -> set[str]:
    # Proofs stop at fact nodes, so a fact's own rule ancestors are not
    # reached and must not count as covered.
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        node = stack.pop()
        if g.fixed_value(node) is True:
            continue
        for edge in g.in_edges(node):
            if edge.src not in seen:
                seen.add(edge.src)
                stack.append(edge.src)
    return {n for n in seen if node_kind(n) is NodeKind.ATOM}


def _decided_atoms(g: DepGraph, program: Program) -> set[str]:
    """Atoms guaranteed a value in every finished partial model: facts and
    rule-less atoms (structurally decided), constraint-cone atoms (decided
    by the proofs), and the closure of atoms whose every rule body mentions
    only decided atoms (decided either way by forward propagation)."""
    cmap = build_causal_map(program)
    decided = _ancestor_atoms(g, _constraint_nodes(g))
    decided |= program.facts
    decided |= {atom for atom in atoms_of(g) if atom not in cmap}
    changed = True
    while changed:
        changed = False
        for atom, bodies in cmap.items():
            if atom in decided:
                continue
            if all(lit.atom in decided for body in bodies for lit in body):
                decided.add(atom)
                changed = True
    return decided


def synthesized_constraints(program: Program) -> list[Rule]:
    """Constraints to add so every atom is decided by some proof or by
    propagation.

    A program with no headless constraint gets the negation of each fact as
    a constraint; atoms that neither a constraint cone nor propagation can
    decide get a vacuous ":- a, not a." anchor forcing a case split on a,
    most-depended-upon atom first, until all atoms are covered.
    """
    additions: list[Rule] = []
    if not program.constraints:
        additions.extend(
            Rule(None, (Literal(fact, negated=True),)) for fact in sorted(program.facts)
        )
    while True:
        augmented_program = program.extended(additions)
        augmented = cnr_to_dg(build_cnr(augmented_program))
        covered = _decided_atoms(augmented, augmented_program)
        candidates = [atom for atom in atoms_of(augmented) if atom not in covered]
        if not candidates:
            return additions
        anchor = min(candidates, key=lambda a: (-len(augmented.in_edges(a)), a))
        additions.append(
            Rule(None, (Literal(anchor, negated=False), Literal(anchor, negated=True)))
        )


def ensure_constraints(g: DepGraph, program: Program) -> DepGraph:
    """Transformed graph extended with synthesized constraints; unchanged
    when the program's own constraints already cover every atom."""
    additions = synthesized_constraints(program)
    if not additions:
        return g
    return cnr_to_dg(build_cnr(program.extended(additions)))


def _finished_models(
    base_graph: DepGraph, g: DepGraph, cmap: dict[str, tuple[tuple[Literal, ...], ...]]
) -> list[PartialModel]:
    """Forward-propagated partial models that falsify every constraint of g."""
    ruleless = sorted(atoms_of(base_graph) - set(cmap))
    seed = forward_propagate(PartialModel({a: False for a in ruleless}), cmap)
    models = [seed] if seed is not None else []
    for constraint in _constraint_nodes(g):
        alternatives = []
        for m in prove(constraint, False, ProofBranch(), g):
            propagated = forward_propagate(m, cmap)
            if propagated is not None:
                alternatives.append(propagated)
        merged = []
        for m in merge_conjunctive(models, _dedup(alternatives)):
            propagated = forward_propagate(m, cmap)
            if propagated is not None:
                merged.append(propagated)
        models = _dedup(merged)
        if not models:
            return []
    return models


def solve_igasp(program: Program) -> list[frozenset[str]]:
    """Answer sets computed top-down, sorted lexicographically."""
    base_graph = cnr_to_dg(build_cnr(program))
    g = ensure_constraints(base_graph, program)
    cmap = build_causal_map(program)
    # prove recurses once per node of a proof path; the caller's limit is
    # restored on the way out.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * len(g.nodes) + 1000))
    try:
        models = _finished_models(base_graph, g, cmap)
    finally:
        sys.setrecursionlimit(limit)

    answer_sets = set()
    program_atoms = atoms_of(base_graph)
    for m in models:
        candidate = frozenset(
            a for a, v in m.values.items() if v and a in program_atoms
        )
        if candidate in answer_sets:
            continue
        world = world_from_atoms(base_graph, candidate)
        if check_justified(base_graph, world):
            answer_sets.add(candidate)
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
