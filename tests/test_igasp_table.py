"""The tabled prove against the untabled proof search it replaced.

A table entry is keyed by the branch cut down to the node's strongly
connected component. That is exact because the seed is on every branch
of a solve and every other branch node is a descendant of the node
proved, so a sub-proof can meet one only if it is also an ancestor, in
the same component. These tests check the cut against the untabled
search, for every (node, presumed) of seeded random programs with even
and odd loops, on the program's seed branch and on branches that extend
it with nodes drawn inside each component, with one table shared by
every call on a program, as in a solve. A constraint node is proved
False only, as in a solve. The reference search joins with its own copy
of the bucketed hash join, so a fault in the package's join cannot hide
in both.
"""

import random
from collections.abc import Callable, Iterable

from aspgraph.cycles import cycle_stats
from aspgraph.graph import DepGraph, build_cnr, cnr_to_dg
from aspgraph.igasp import (
    PartialModel,
    ProofTable,
    _join,
    _seed,
    merge_conjunctive,
    prove,
    solve_igasp,
)
from aspgraph.oracle import enumerate_stable
from aspgraph.syntax import parse_program

from conftest import random_program_text


def reference_join(
    left: Iterable[PartialModel], right: list[PartialModel]
) -> Callable[[PartialModel], list[PartialModel]]:
    """Hash join of two model lists on the nodes every model of both lists
    decides. Returns the probe for one left model: its successful unions
    with the right models, in right's order. A right model that disagrees
    with the left one on a shared node is never tried, since its union
    would fail; the conflict test still covers every other node."""
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


def reference_prove(
    node: int, presumed: bool, branch: dict[int, bool], g: DepGraph
) -> list[PartialModel]:
    """The untabled proof search: the branch is a dict from node to
    presumed value, pushed and popped around the recursive calls."""
    prior = branch.get(node)
    if prior is not None:
        return [(0, 0)] if prior == presumed else []
    bit = 1 << node
    fixed = g.fixed_nodes.get(node)
    if fixed is True:
        return [(bit, bit)] if presumed else []
    if fixed is False and presumed:
        return []
    in_edges = g.pred[node]
    if not in_edges:
        return [] if presumed else [(bit, 0)]

    states: dict[PartialModel, bool] = {(bit, bit if presumed else 0): False}
    branch[node] = presumed
    try:
        for entry in in_edges:
            src, effective_value = entry >> 1, entry & 1 == 1
            options = []
            if presumed:
                options.append((reference_prove(src, effective_value, branch, g), True))
            options.append((reference_prove(src, not effective_value, branch, g), False))
            joins = [
                (reference_join(states, subs), effective)
                for subs, effective in options
                if subs
            ]
            next_states: dict[PartialModel, bool] = {}
            for model, has_effective in states.items():
                for unions_with, makes_effective in joins:
                    flag = has_effective or makes_effective
                    for union in unions_with(model):
                        if flag or union not in next_states:
                            next_states[union] = flag
            states = next_states
            if not states:
                return []
    finally:
        del branch[node]
    return [model for model, flag in states.items() if flag is presumed]


def components(g: DepGraph) -> list[set[int]]:
    """Each node's strongly connected component, by plain reachability."""
    size = len(g.names)

    def reach(start: int, entries: list[list[int]]) -> set[int]:
        seen, stack = {start}, [start]
        while stack:
            for entry in entries[stack.pop()]:
                if entry >> 1 not in seen:
                    seen.add(entry >> 1)
                    stack.append(entry >> 1)
        return seen

    return [reach(n, g.pred) & reach(n, g.succ) for n in range(size)]


def masks(branch: dict[int, bool]) -> tuple[int, int]:
    known = true = 0
    for node, value in branch.items():
        known |= 1 << node
        true |= value << node
    return known, true


def looping_programs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        text = random_program_text(rng, rng.randint(2, 7), rng.randint(2, 14))
        yield rng, parse_program(text)


def test_component_masks_are_the_strong_components():
    for _, program in looping_programs(60, 100):
        g = cnr_to_dg(build_cnr(program))
        table = ProofTable(g)
        for node, members in enumerate(components(g)):
            assert table.component(node) == sum(1 << m for m in members)


def test_tabled_prove_matches_untabled_reference():
    even = odd = cyclic_branches = seeded_branches = 0
    for rng, program in looping_programs(61, 150):
        g = cnr_to_dg(build_cnr(program))
        cnr_even, cnr_odd, _ = cycle_stats(build_cnr(program))
        even += cnr_even > 0
        odd += cnr_odd > 0
        table = ProofTable(g)
        seeded = _seed(g)
        if seeded is None:  # the seed contradicts: no solve proves anything
            continue
        (known, true), _ = seeded
        seed = {n: bool(true >> n & 1) for n in range(len(g.names)) if known >> n & 1}
        goals = []
        for node, members in enumerate(components(g)):
            others = sorted(members - {node} - seed.keys())
            branches = [seed]
            for _ in range(3 if others else 0):
                drawn = rng.sample(others, rng.randint(1, len(others)))
                branches.append({**seed, **{m: rng.random() < 0.5 for m in drawn}})
            constraint = node >= g.atom_count and not g.conj[node]
            presumptions = (False,) if constraint else (False, True)
            goals += [(node, presumed, b) for presumed in presumptions for b in branches]
        # in random order, so table hits come from every kind of earlier call
        rng.shuffle(goals)
        for node, presumed, branch in goals:
            cyclic_branches += len(branch) > len(seed)
            seeded_branches += bool(seed)
            expected = reference_prove(node, presumed, dict(branch), g)
            got = prove(node, presumed, *masks(branch), table)
            assert len(got) == len(set(got))
            assert set(got) == set(expected), (str(program), g.names[node], presumed, branch)
        assert solve_igasp(program) == enumerate_stable(program)
    assert even >= 10 and odd >= 10 and cyclic_branches >= 100 and seeded_branches >= 100


def test_join_probe_is_the_brute_force_union_list():
    # Every model of a case decides a common core, so some pairs conflict on
    # a node that both lists decide, which the buckets sort out, and others
    # only off it, which the conflict test must catch.
    rng = random.Random(62)
    seen = {"one": 0, "empty_left": 0, "shared_conflict": 0, "other_conflict": 0}

    def draw(core: int, count: int) -> list[PartialModel]:
        models = []
        for _ in range(count):
            known = core | rng.getrandbits(8)
            models.append((known, rng.getrandbits(8) & known))
        return models

    for _ in range(3000):
        core = rng.getrandbits(8) & rng.getrandbits(8)
        left = draw(core, rng.choice((0, 1, 2, 5)))
        right = draw(core, rng.choice((0, 1, 1, 2, 3, 6)))
        shared = -1
        for known, _ in left + right:
            shared &= known
        probe = _join(left, right)
        unions = []
        for known, true in left:
            expected = [
                (known | k, true | t) for k, t in right if not known & k & (true ^ t)
            ]
            assert probe((known, true)) == expected, (left, right)
            unions += expected
            for k, t in right:
                clash = known & k & (true ^ t)
                seen["shared_conflict"] += bool(clash & shared)
                seen["other_conflict"] += bool(clash and not clash & shared)
        assert merge_conjunctive(left, right) == list(dict.fromkeys(unions))
        seen["one"] += len(right) == 1 and bool(left)
        seen["empty_left"] += not left and bool(right)
    assert min(seen.values()) >= 100, seen
