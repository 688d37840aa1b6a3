import heapq
import importlib
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspgraph import grasp
from aspgraph.cycles import find_virtual_nodes
from aspgraph.generate import GenConfig, cycle_graph, gen_coloring, gen_hamiltonian, gen_random
from aspgraph.graph import NodeKind, Sign, build_cnr, cnr_to_dg, least_fixpoint, node_kind
from aspgraph.grasp import (
    break_cycles,
    find_roots,
    fix_root,
    merge_root_worlds,
    propagate,
    solve_grasp,
    solve_grasp_worlds,
)
from aspgraph.oracle import enumerate_stable
from aspgraph.syntax import parse_program
from aspgraph.worlds import World, initial_world

from conftest import PAPER_CONFIG, random_program_text

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def transformed(text):
    return cnr_to_dg(build_cnr(parse_program(text)))


def models(text, **kwargs):
    return [sorted(m) for m in solve_grasp(parse_program(text), **kwargs)]


def members_of(g, v):
    """A virtual node's members by number, as solve_graph passes them."""
    return sorted(g.number[m] for m in v.members)


def named(g, values):
    """Fixed node values keyed by name: a labeling maps node numbers to
    values, and a world being solved lists them."""
    pairs = enumerate(values) if isinstance(values, list) else values.items()
    return {g.names[n]: value for n, value in pairs if value is not None}


def test_even_cycle_two_worlds():
    assert models("p :- not q. q :- not p.") == [["p"], ["q"]]


def test_odd_cycle_unsatisfiable():
    assert models("p :- not q. q :- not r. r :- not p.") == []


def test_fact_and_rule():
    assert models("q. p :- q, not r.") == [["p", "q"]]


def test_program_one_empty_answer_set():
    assert models("p :- q, not r, not p.") == [[]]


def test_empty_program_has_empty_model():
    assert models("") == [[]]


def test_find_roots_fig3():
    g = transformed("p :- q, not r.")
    batch, is_component = list(find_roots(g))[0]
    assert batch == [g.number["q"], g.number["r"]] and not is_component


def test_find_roots_wrapped_cycle():
    g = transformed("p :- not q. q :- not p.")
    assert list(find_roots(g)) == [(sorted([g.number["p"], g.number["q"]]), True)]


def test_find_roots_empty_view():
    assert list(find_roots(transformed(""))) == []
    g = transformed("p :- q.")
    assert list(find_roots(g)) == [([g.number["q"]], False), ([g.number["p"]], False)]


def _brute_force_batch(g, virtual, removed):
    """Keys of the next batch: the live handles with no in-edge from a live
    node of another handle, taking the regular ones if there are any and
    else the virtual one with the smallest key."""
    handle_of = {n: n for n in g.nodes}
    for v in virtual:
        for m in v.members:
            handle_of[m] = v.key
    virtual_keys = {v.key for v in virtual}
    live = {n for n in g.nodes if handle_of[n] not in removed}
    roots = set()
    for n in live:
        handle = handle_of[n]
        members = [m for m in live if handle_of[m] == handle]
        if not any(
            e.src in live and handle_of[e.src] != handle
            for m in members
            for e in g.in_edges(m)
        ):
            roots.add(handle)
    regular = sorted(roots - virtual_keys, key=g.number.__getitem__)
    return regular or sorted(roots)[:1]


def test_find_roots_matches_brute_force_every_layer():
    rng = random.Random(25)
    for _ in range(80):
        g = transformed(random_program_text(rng, rng.randint(1, 9), rng.randint(1, 14)))
        virtual = find_virtual_nodes(g)
        removed = set()
        for nodes, is_component in list(find_roots(g)):
            names = [g.names[n] for n in nodes]
            keys = [min(names)] if is_component else names
            assert keys == _brute_force_batch(g, virtual, removed)
            removed.update(keys)
        assert _brute_force_batch(g, virtual, removed) == []


def test_rootless_view_raises(monkeypatch):
    monkeypatch.setattr(grasp, "find_virtual_nodes", lambda g: [])
    g = transformed("p :- not q. q :- not p.")
    with pytest.raises(RuntimeError, match="cycle wrapping is broken"):
        list(find_roots(g))


def reference_find_roots(g):
    """The eager schedule find_roots replaced: the components are found
    first, and the whole walk over the condensation is returned as a list."""
    size = len(g.names)
    handle = list(range(size))
    components = []  # in the order of their keys
    rank = {}  # handle -> place in components
    for v in find_virtual_nodes(g):
        members = sorted(g.number[m] for m in v.members)
        rank[members[0]] = len(components)
        components.append(members)
        for m in members:
            handle[m] = members[0]
    waiting = [0] * size
    succ = [[] for _ in range(size)]
    for n, entries in enumerate(g.succ):
        src = handle[n]
        for e in entries:
            dst = handle[e >> 1]
            if dst != src:
                waiting[dst] += 1
                succ[src].append(dst)
    regular = []
    ready = []  # heap of places in components

    def make_ready(h):
        if h in rank:
            heapq.heappush(ready, rank[h])
        else:
            regular.append(h)

    for h in range(size):
        if handle[h] == h and not waiting[h]:
            make_ready(h)
    schedule = []
    while regular or ready:
        if regular:
            batch = sorted(regular)
            regular.clear()
            schedule.append((batch, False))
        else:
            members = components[heapq.heappop(ready)]
            batch = members[:1]
            schedule.append((members, True))
        for h in batch:
            for dst in succ[h]:
                waiting[dst] -= 1
                if not waiting[dst]:
                    make_ready(dst)
    if any(waiting):
        raise RuntimeError("a handle never became ready: cycle wrapping is broken")
    return schedule


def _staged_program_text(rng):
    """A random program built in stages, each a regular chain that reads
    atoms of earlier stages and then a ring (even, odd or positive, or a
    self-loop) whose members may read the chain and earlier atoms. So the
    components are fed by regular chains, several are often ready at once,
    and many become ready only after the walk has stalled and taken an
    earlier one."""

    def literal(atom):
        return f"not {atom}" if rng.random() < 0.5 else atom

    lines = []
    below = []  # atoms of earlier stages and of this stage's chain
    for stage in range(rng.randint(1, 4)):
        source = rng.choice(below) if below and rng.random() < 0.8 else None
        for i in range(rng.randint(0, 3)):
            atom = f"c{stage}_{i}"
            lines.append(f"{atom} :- {literal(source)}." if source else f"{atom}.")
            below.append(atom)
            source = atom
        ring = [f"r{stage}_{i}" for i in range(rng.randint(1, 3))]
        for i, atom in enumerate(ring):
            body = [literal(ring[(i + 1) % len(ring)])]
            if below and rng.random() < 0.7:
                body.append(literal(rng.choice(below)))
            lines.append(f"{atom} :- {', '.join(dict.fromkeys(body))}.")
        below += ring
    for _ in range(rng.randint(0, 2)):
        body = dict.fromkeys(literal(rng.choice(below)) for _ in range(2))
        lines.append(f":- {', '.join(body)}.")
    return "\n".join(lines) + "\n"


def test_find_roots_matches_the_eager_schedule():
    rng = random.Random(27)
    several = after_stall = 0
    texts = [_staged_program_text(rng) for _ in range(1200)]
    texts += [
        random_program_text(rng, rng.randint(1, 9), rng.randint(1, 20)) for _ in range(300)
    ]
    for text in texts:
        g = transformed(text)
        schedule = list(find_roots(g))
        assert schedule == reference_find_roots(g)
        walk = "".join("C" if is_component else "R" for _, is_component in schedule)
        several += walk.count("C") >= 2
        # a component that became ready only after another one was taken
        after_stall += re.search("CR+C", walk) is not None
    assert several >= 800
    assert after_stall >= 600


def test_find_roots_matches_the_eager_schedule_on_the_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for generator in (workloads.paper_random, workloads.classic, workloads.chain):
        for item in generator(1):
            g = transformed(item.text)
            assert list(find_roots(g)) == reference_find_roots(g)


def _count_component_searches(monkeypatch):
    """The graphs grasp looks for components in, one entry per call."""
    calls = []
    original = grasp.find_virtual_nodes

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(grasp, "find_virtual_nodes", counted)
    return calls


def _record_pulled_batches(monkeypatch, schedule=None):
    """The batches solve_graph pulls from find_roots, or from the given
    schedule function, in order."""
    pulled = []
    schedule = schedule or grasp.find_roots

    def recorded(g):
        for batch in schedule(g):
            pulled.append(batch)
            yield batch

    monkeypatch.setattr(grasp, "find_roots", recorded)
    return pulled


def test_a_dead_solve_pulls_no_further_batch(monkeypatch):
    # The fact kills the only world in the first batch, before the even
    # loop's component is reached.
    calls = _count_component_searches(monkeypatch)
    pulled = _record_pulled_batches(monkeypatch)
    assert models("a. :- a. p :- not q. q :- not p.") == []
    assert len(pulled) == 1
    assert calls == []


def test_chains_never_look_for_components(monkeypatch):
    calls = _count_component_searches(monkeypatch)
    for shape in ("pos", "mixed"):
        (model,) = solve_grasp(parse_program(_chain(shape, 2000)))
        assert model == {f"a{i}" for i in range(2001)}
    assert calls == []


def test_coloring_looks_for_components_once(monkeypatch):
    calls = _count_component_searches(monkeypatch)
    assert len(solve_grasp(gen_coloring(5, cycle_graph(5)))) == 30
    assert len(calls) == 1


def test_paper_configuration_looks_for_components_only_when_reached(monkeypatch):
    programs = [gen_random(GenConfig(seed=seed, **PAPER_CONFIG)) for seed in range(30)]
    # The solves whose worlds survive to a component batch, walking the
    # eager schedule.
    reached = 0
    with monkeypatch.context() as patched:
        pulled = _record_pulled_batches(patched, reference_find_roots)
        for program in programs:
            pulled.clear()
            solve_grasp(program)
            reached += any(is_component for _, is_component in pulled)
    calls = _count_component_searches(monkeypatch)
    for program in programs:
        solve_grasp(program)
    assert len(calls) == reached
    assert 0 < reached < len(programs)


@st.composite
def _programs(draw):
    """Small programs over x0..x7: rules, facts and constraints."""
    atoms = [f"x{i}" for i in range(draw(st.integers(1, 8)))]
    literal = st.tuples(st.sampled_from(atoms), st.booleans())
    rule = st.tuples(
        st.none() | st.sampled_from(atoms), st.lists(literal, max_size=3, unique=True)
    )
    lines = []
    for head, body in draw(st.lists(rule, max_size=14)):
        text = ", ".join(f"not {a}" if negated else a for a, negated in body)
        if head is None:
            if body:
                lines.append(f":- {text}.")
        else:
            lines.append(f"{head} :- {text}." if body else f"{head}.")
    return "\n".join(lines)


@given(_programs())
@settings(max_examples=200, deadline=None)
def test_schedule_boundary_property(text):
    g = transformed(text)
    schedule = list(find_roots(g))
    components = [members_of(g, v) for v in find_virtual_nodes(g)]
    handle = list(range(len(g.names)))
    for members in components:
        for m in members:
            handle[m] = members[0]
    regular = sorted(set(range(len(g.names))).difference(*components))

    # every node appears in exactly one batch
    place = {}
    for i, (nodes, _) in enumerate(schedule):
        for n in nodes:
            assert n not in place
            place[n] = i
    assert sorted(place) == list(range(len(g.names)))

    # every in-edge from another handle comes from an earlier batch
    for n, i in place.items():
        for e in g.pred[n]:
            if handle[e >> 1] != handle[n]:
                assert place[e >> 1] < i

    # the component batches are exactly the components
    assert sorted(nodes for nodes, is_component in schedule if is_component) == sorted(
        components
    )

    def ready(members, i):
        """Every in-edge from outside the handle comes from before batch i."""
        return all(
            place[e >> 1] < i
            for m in members
            for e in g.pred[m]
            if handle[e >> 1] != handle[m]
        )

    # a regular batch is every ready regular node; a component batch comes
    # only when none is ready, and is the ready component with the least key
    for i, (nodes, is_component) in enumerate(schedule):
        waiting_regular = [n for n in regular if place[n] >= i and ready([n], i)]
        if not is_component:
            assert nodes == waiting_regular
            continue
        assert waiting_regular == []
        candidates = [c for c in components if place[c[0]] >= i and ready(c, i)]
        assert nodes == min(candidates, key=lambda c: min(g.names[m] for m in c))


def _chain(shape, n):
    lines = ["a0."]
    for i in range(1, n + 1):
        if shape == "pos":
            lines.append(f"a{i} :- a{i - 1}.")
        else:
            lines.append(f"a{i} :- a{i - 1}, not b{i}.")
    return "\n".join(lines)


def test_long_pos_chain_one_model():
    (model,) = solve_grasp(parse_program(_chain("pos", 5000)))
    assert model == {f"a{i}" for i in range(5001)}


def test_long_mixed_chain_one_model():
    (model,) = solve_grasp(parse_program(_chain("mixed", 5000)))
    assert model == {f"a{i}" for i in range(5001)}


def test_long_even_negative_ring_within_recursion_limit():
    # One 1200-atom component: the labeling search keeps its own stack, so
    # its depth is not bounded by the interpreter's recursion limit.
    n = 1200
    text = "".join(f"p{i} :- not p{(i + 1) % n}.\n" for i in range(n))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        models = solve_grasp(parse_program(text))
    finally:
        sys.setrecursionlimit(limit)
    assert models == [
        frozenset(f"p{i}" for i in range(0, n, 2)),
        frozenset(f"p{i}" for i in range(1, n, 2)),
    ]


def test_coloring_c8_fixes_few_roots(monkeypatch):
    # Breaking one component at a time lets each constraint kill its worlds
    # before the next component multiplies them. A call fixes one regular
    # batch in one world: this schedule makes 1,941 calls, and one that
    # crosses all 8 vertex components before any constraint makes 6,819.
    calls = 0
    original = grasp.fix_root

    def counted(batch, w):
        nonlocal calls
        calls += 1
        return original(batch, w)

    monkeypatch.setattr(grasp, "fix_root", counted)
    assert len(solve_grasp(gen_coloring(8, cycle_graph(8)))) == 258
    assert 0 < calls <= 3_000


def test_closed_form_counts():
    # 3-colorings of C_n: 2^n + 2 (-1)^n; Hamiltonian cycles of K_n: (n-1)!
    assert len(solve_grasp(gen_coloring(10, cycle_graph(10)))) == 1026
    assert len(solve_grasp(gen_hamiltonian(5))) == 24


def test_wide_independent_positive_loops_one_model():
    text = "\n".join(f"a{i} :- b{i}. b{i} :- a{i}." for i in range(3000))
    assert solve_grasp(parse_program(text)) == [frozenset()]


def test_fix_root_defaults_unfixed_to_false():
    g = transformed("p :- q.")
    w = initial_world(g)
    q = g.number["q"]
    assert fix_root([q], w) is None
    assert w.values[q] is False


def test_fix_root_keeps_fact():
    g = transformed("q. p :- r.")
    w = initial_world(g)
    q, r = g.number["q"], g.number["r"]
    fix_root([q, r], w)
    assert named(g, w.values) == {"q": True, "r": False}


def test_fix_root_keeps_constraint_false():
    g = transformed(":- not q.")
    w = initial_world(g)
    c = g.number["__constraint_0"]
    fix_root([c], w)
    assert w.values[c] is False


def test_propagate_false_fires_negative_edge():
    g = transformed("p :- q, not r.")
    w = initial_world(g)
    q = g.number["q"]
    w.values[q] = False
    assert propagate([q], w, g) is w
    assert named(g, w.values)["__conj_0"] is True


def test_propagate_true_conj_does_not_reach_head():
    g = transformed("p :- q, not r.")
    w = initial_world(g)
    r = g.number["r"]
    w.values[r] = True
    propagate([r], w, g)
    assert named(g, w.values)["__conj_0"] is True
    assert "p" not in named(g, w.values)


def test_propagate_into_constraint_marks_inconsistent():
    # with q and r both false the constraint body holds: the conjunction
    # node defaults False and demands True on the False-fixed constraint
    g = transformed(":- not q, not r.")
    w = initial_world(g)
    for atom in ("q", "r"):
        fix_root([g.number[atom]], w)
        propagate([g.number[atom]], w, g)
    assert w.consistent is True
    fix_root([g.number["__conj_0"]], w)
    propagate([g.number["__conj_0"]], w, g)
    assert w.consistent is False
    assert solve_grasp(parse_program(":- not q, not r.")) == []


def reference_propagate(nodes, w, g):
    """The propagation propagate replaced: one call, with its own stack, per
    batch node, from the node's value at the time of its call, as the walk
    made them until the world died."""

    def one(node, value):
        stack = [(node, value)]
        while stack and w.consistent:
            n, v = stack.pop()
            for e in g.succ[n]:
                if e & 1 != v:
                    continue
                dst = e >> 1
                if w.values[dst] is False:
                    w.consistent = False
                    return
                if w.values[dst] is None:
                    w.values[dst] = True
                    stack.append((dst, True))

    for node in nodes:
        if not w.consistent:
            break
        one(node, w.values[node])
    return w


def test_propagate_matches_the_per_node_reference_on_random_worlds():
    rng = random.Random(20)
    outcomes = {True: 0, False: 0}
    grown = 0
    for _ in range(400):
        g = transformed(random_program_text(rng, rng.randint(2, 12), rng.randint(1, 16)))
        size = len(g.names)
        for _ in range(5):
            values = [rng.choice((None, None, True, False)) for _ in range(size)]
            nodes = rng.sample(range(size), rng.randint(1, size))
            w, expected = World(list(values)), World(list(values))
            assert propagate(nodes, w, g) is w
            reference_propagate(nodes, expected, g)
            assert w.values == expected.values
            assert w.consistent == expected.consistent
            outcomes[w.consistent] += 1
            grown += w.consistent and w.values != values
    assert min(outcomes.values()) >= 200
    assert grown >= 200


def _check_walk_invariants(monkeypatch):
    """Make every solve assert the invariants that stand in for grasp's
    contradiction checks: before a component batch each member is unfixed
    or True, every labeling agrees with the member values its world has,
    and every batch node is decided when it is propagated. Returns counts
    of what was checked."""
    counts = dict.fromkeys(("merges", "true_before", "propagations"), 0)
    batch = []
    break_cycles_, merge, propagate_ = (
        grasp.break_cycles, grasp.merge_root_worlds, grasp.propagate
    )

    def checked_break(members, g, w):
        batch[:] = members
        return break_cycles_(members, g, w)

    def checked_merge(deltas, w):
        values = w.values
        assert all(values[m] in (None, True) for m in batch)
        for delta in deltas:
            assert sorted(delta) == batch
            assert all(values[n] in (None, v) for n, v in delta.items())
        counts["merges"] += 1
        counts["true_before"] += any(values[m] for m in batch)
        return merge(deltas, w)

    def checked_propagate(nodes, w, g):
        assert w.consistent
        assert None not in map(w.values.__getitem__, nodes)
        counts["propagations"] += 1
        return propagate_(nodes, w, g)

    monkeypatch.setattr(grasp, "break_cycles", checked_break)
    monkeypatch.setattr(grasp, "merge_root_worlds", checked_merge)
    monkeypatch.setattr(grasp, "propagate", checked_propagate)
    return counts


def assert_distinct_answer_sets(text):
    g, worlds = solve_grasp_worlds(parse_program(text))
    answer_sets = [w.true_atoms(g) for w in worlds]
    assert len(set(answer_sets)) == len(answer_sets)
    return len(worlds)


def test_walk_invariants_on_the_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    counts = _check_walk_invariants(monkeypatch)
    for seed in (1, 2, 3):
        for generator in (workloads.paper_random, workloads.classic, workloads.chain):
            for item in generator(seed):
                assert_distinct_answer_sets(item.text)
    assert counts["merges"] >= 3000 and counts["true_before"] >= 300
    assert counts["propagations"] >= 40_000


def test_walk_invariants_on_random_programs(monkeypatch):
    counts = _check_walk_invariants(monkeypatch)
    rng = random.Random(25)
    several = 0
    for _ in range(3000):
        # many atoms and rules for large components
        text = random_program_text(
            rng, rng.randint(10, 40), rng.randint(20, 80),
            naf=rng.uniform(0.3, 0.8), constraint_fraction=rng.choice((0.0, 0.05)),
        )
        several += assert_distinct_answer_sets(text) >= 2
    assert counts["merges"] >= 3000 and counts["true_before"] >= 2000
    assert several >= 40


def test_break_cycles_even_pair():
    g = transformed("p :- not q. q :- not p.")
    (v,) = find_virtual_nodes(g)
    labelings = break_cycles(members_of(g, v), g, initial_world(g))
    assert [(named(g, l)["p"], named(g, l)["q"]) for l in labelings] == [
        (True, False),
        (False, True),
    ]


def test_break_cycles_returns_member_values_only():
    text = "s. t :- s. p :- not q, s. q :- not p."
    g = transformed(text)
    (v,) = find_virtual_nodes(g)
    w = initial_world(g)
    for node in ("s", "t"):
        w.values[g.number[node]] = True
    labelings = break_cycles(members_of(g, v), g, w)
    assert len(labelings) == 2
    for labeling in labelings:
        assert set(named(g, labeling)) == set(v.members)
    assert models(text) == [["p", "s", "t"], ["q", "s", "t"]]


def test_break_cycles_odd_dies():
    g = transformed("p :- not q. q :- not r. r :- not p.")
    (v,) = find_virtual_nodes(g)
    assert break_cycles(members_of(g, v), g, initial_world(g)) == []


def test_break_cycles_positive_all_false():
    g = transformed("p :- q. q :- p.")
    (v,) = find_virtual_nodes(g)
    (labeling,) = break_cycles(members_of(g, v), g, initial_world(g))
    assert named(g, labeling) == {"p": False, "q": False}


def test_break_cycles_overlapping_even_cycles():
    # frozen from the exhaustive reduct oracle: {q} and {p, r}
    text = "p :- not q. q :- not p. q :- not r. r :- not q."
    g = transformed(text)
    (v,) = find_virtual_nodes(g)
    labelings = {
        tuple(sorted(a for a in ("p", "q", "r") if named(g, labeling)[a]))
        for labeling in break_cycles(members_of(g, v), g, initial_world(g))
    }
    assert labelings == {("q",), ("p", "r")}
    assert models(text) == [["p", "r"], ["q"]]


def test_break_cycles_external_truth_forces_labeling():
    # a fact inside the positive cycle keeps the loop alive
    text = "p. p :- q. q :- p."
    assert models(text) == [["p", "q"]]


def reference_stable_labelings(members, g, w):
    """The labeling search _stable_labelings replaced: it decides every
    undecided member atom, True first, and only checks the heads after each
    decision, without setting the values that the counters force."""
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


def _check_labelings_against_reference(monkeypatch):
    """Make every call of grasp._stable_labelings also run the reference
    search and assert the same labelings in the same order; returns one
    (member atoms, labelings) entry per checked call."""
    calls = []
    search = grasp._stable_labelings

    def checked(members, g, w):
        expected = reference_stable_labelings(members, g, w)
        labelings = search(members, g, w)
        assert labelings == expected
        assert [list(lab) for lab in labelings] == [list(lab) for lab in expected]
        calls.append((sum(m < g.atom_count for m in members), len(labelings)))
        return labelings

    monkeypatch.setattr(grasp, "_stable_labelings", checked)
    return calls


def test_labelings_match_the_reference_search_on_the_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    calls = _check_labelings_against_reference(monkeypatch)
    for seed in (1, 2, 3):
        for generator in (workloads.paper_random, workloads.classic, workloads.chain):
            for item in generator(seed):
                solve_grasp(parse_program(item.text))
    assert len(calls) >= 300


def test_labelings_match_the_reference_search_on_random_programs(monkeypatch):
    calls = _check_labelings_against_reference(monkeypatch)
    rng = random.Random(19)
    for _ in range(3000):
        # many atoms and rules for large components; few constraints, so
        # that more solves reach them alive
        text = random_program_text(
            rng, rng.randint(10, 40), rng.randint(20, 80),
            naf=rng.uniform(0.3, 0.8), constraint_fraction=rng.choice((0.0, 0.05)),
        )
        solve_grasp(parse_program(text))
    assert len(calls) >= 3000
    assert sum(atoms >= 20 for atoms, _ in calls) >= 300
    assert sum(found >= 2 for _, found in calls) >= 50
    assert sum(not found for _, found in calls) >= 300


def test_merge_root_worlds_counts():
    w = World([True, None, None])
    labelings = [{1: True}, {1: False, 2: True}, {2: False}]
    merged = merge_root_worlds(labelings, w)
    assert [m.values for m in merged] == [
        [True, True, None],
        [True, False, True],
        [True, None, False],
    ]


def test_merge_root_worlds_empty_inner_list_absorbs():
    assert merge_root_worlds([], World([None])) == []


def test_merge_root_worlds_leaves_inputs_unchanged():
    labelings = [{i: i % 2 == 0, i + 1: True} for i in range(0, 50, 2)]
    before = [dict(labeling) for labeling in labelings]
    w = World([None] * 51)
    merged = merge_root_worlds(labelings, w)
    assert labelings == before
    # each world is a copy but the last, which extends w itself
    assert merged[-1] is w
    assert len({id(m.values) for m in merged}) == len(labelings)
    for labeling, m in zip(labelings, merged):
        assert {n: v for n, v in enumerate(m.values) if v is not None} == labeling


def test_projection_never_contains_helpers():
    rng = random.Random(21)
    for _ in range(50):
        program = parse_program(
            random_program_text(rng, rng.randint(1, 6), rng.randint(1, 9))
        )
        for model in solve_grasp(program):
            assert all(not a.startswith("__") for a in model)


def test_completed_worlds_assign_every_node():
    g, worlds = solve_grasp_worlds(parse_program("q. p :- q, not r. :- not p."))
    assert worlds
    for w in worlds:
        assert w.is_complete(g)


def test_oracle_equivalence_random():
    rng = random.Random(22)
    for _ in range(200):
        program = parse_program(
            random_program_text(rng, rng.randint(1, 8), rng.randint(1, 12))
        )
        assert solve_grasp(program) == enumerate_stable(program)


def test_oracle_equivalence_small_random():
    rng = random.Random(23)
    for _ in range(120):
        program = parse_program(
            random_program_text(rng, rng.randint(1, 7), rng.randint(1, 10))
        )
        assert solve_grasp(program) == enumerate_stable(program)


def test_stratification_matches_oracle_on_layered_programs():
    # random programs in two strata joined by one-way dependencies
    rng = random.Random(24)
    for _ in range(60):
        lower = random_program_text(rng, 3, rng.randint(1, 5))
        upper_atoms = ["y0", "y1", "y2"]
        lines = [lower]
        for _ in range(rng.randint(1, 5)):
            head = rng.choice(upper_atoms)
            body = []
            if rng.random() < 0.8:
                body.append(("x%d" % rng.randint(0, 2), rng.random() < 0.5))
            if rng.random() < 0.8:
                body.append((rng.choice(upper_atoms), rng.random() < 0.5))
            if not body:
                lines.append(f"{head}.")
                continue
            rendered = ", ".join(f"not {a}" if neg else a for a, neg in dict.fromkeys(body))
            lines.append(f"{head} :- {rendered}.")
        program = parse_program("\n".join(lines))
        assert solve_grasp(program) == enumerate_stable(program)


def test_coloring_c8_breaks_each_context_once(monkeypatch):
    # Each vertex component is broken once per distinct valuation of the
    # nodes it reads; breaking it once per live world costs 427 calls.
    calls = 0
    original = grasp.break_cycles

    def counted(v, g, w):
        nonlocal calls
        calls += 1
        return original(v, g, w)

    monkeypatch.setattr(grasp, "break_cycles", counted)
    assert len(solve_grasp(gen_coloring(8, cycle_graph(8)))) == 258
    assert 0 < calls <= 8


def node_bodies(g, node):
    """The rule bodies feeding a node of a transformed graph, as (atom,
    negated) tuples read off its Edge view: a fact is the empty body, a
    conjunction-node source expands to the literals of its own in-edges,
    whose signs the flip has turned, and a direct atom source is a
    one-literal body."""
    bodies = [()] if g.fixed_value(node) is True else []
    for edge in g.in_edges(node):
        if node_kind(edge.src) is NodeKind.CONJ:
            bodies.append(
                tuple((e.src, e.sign is Sign.POSITIVE) for e in g.in_edges(edge.src))
            )
        else:
            bodies.append(((edge.src, edge.sign is Sign.NEGATIVE),))
    return bodies


def _eval_body(body, value_of):
    """Three-valued body evaluation; None while any literal is undecided."""
    result = True
    for atom, negated in body:
        val = value_of(atom)
        if val is None:
            result = None
        elif val == negated:
            return False
    return result


def reference_labelings(v, g, w):
    """The re-evaluating labeling search: every affected head's bodies are
    evaluated again at each decision, and foundedness is swept to a fixpoint."""
    atoms = sorted(m for m in v.members if node_kind(m) is NodeKind.ATOM)
    bodies = {a: node_bodies(g, a) for a in atoms}
    mentions = {a: set() for a in atoms}
    for head, heads_bodies in bodies.items():
        for body in heads_bodies:
            for lit_atom, _ in body:
                if lit_atom in mentions:
                    mentions[lit_atom].add(head)
    external_true = {a for a in atoms if w.value(a) is True}
    decisions = [a for a in atoms if a not in external_true]
    cand = {a: True for a in external_true}

    def value_of(atom):
        if atom in cand:
            return cand[atom]
        if atom in bodies:
            return None
        return w.value(atom)

    def head_ok(head):
        val = cand.get(head)
        if val is None:
            return True
        states = [_eval_body(b, value_of) for b in bodies[head]]
        if val is False:
            return not any(s is True for s in states)
        if head in external_true:
            return True
        return any(s is not False for s in states)

    def founded_ok():
        founded = set(external_true)
        changed = True
        while changed:
            changed = False
            for atom, val in cand.items():
                if not val or atom in founded:
                    continue
                for body in bodies[atom]:
                    if _eval_body(body, value_of) is True and all(
                        lit in founded for lit, neg in body if not neg and lit in bodies
                    ):
                        founded.add(atom)
                        changed = True
                        break
        return all(atom in founded for atom, val in cand.items() if val)

    member_naf = any(
        neg and lit in bodies for a in atoms for body in bodies[a] for lit, neg in body
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
                    inside_ok = all(lit in fixed for lit, _ in body if lit in bodies)
                    if inside_ok and _eval_body(outside, w.value) is True:
                        fixed.add(atom)
                        changed = True
                        break
        return [{a: (a in fixed) for a in atoms}]

    results = []

    def search(index):
        if index == len(decisions):
            if all(head_ok(a) for a in atoms) and founded_ok():
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


def input_nodes(v, g):
    """The names of the nodes whose values a component's labelings read."""
    members = [g.number[m] for m in sorted(v.members)]
    return [g.names[n] for n in grasp._context_nodes(members, g)]


def component_labelings(v, g, w):
    """The stable labelings of a component under a name-keyed world, by name."""
    by_number = World([w.value(name) for name in g.names])
    members = [g.number[m] for m in v.members]
    return [
        {g.names[a]: value for a, value in labeling.items()}
        for labeling in grasp._stable_labelings(members, g, by_number)
    ]


def test_component_labelings_match_reference():
    # The contexts are drawn at random, so a member fact may be unfixed or
    # False in them, which solve_graph never does: its empty body still
    # forces it True.
    rng = random.Random(26)
    components = 0
    counts = set()
    unfixed_facts = 0
    while components < 400:
        g = transformed(random_program_text(rng, rng.randint(2, 10), rng.randint(2, 18)))
        for v in find_virtual_nodes(g):
            for _ in range(3):
                w = World()
                for node in input_nodes(v, g):
                    value = rng.choice((True, False, None))
                    if value is not None:
                        w.values[node] = value
                labelings = component_labelings(v, g, w)
                assert labelings == reference_labelings(v, g, w)
                components += 1
                counts.add(min(len(labelings), 2))
                unfixed_facts += any(
                    g.fixed_value(m) is True and w.value(m) is not True for m in v.members
                )
    assert counts == {0, 1, 2}
    assert unfixed_facts > 0


@st.composite
def _shared_loop_programs(draw):
    """Even loops whose rules share body atoms: every loop is broken under
    contexts that repeat across worlds and differ between them. Each shared
    atom is free (an even loop of its own), and constraints and positive
    links tie the loops together."""
    shared = [f"s{i}" for i in range(draw(st.integers(1, 2)))]
    lines = [f"{s} :- not n{s}. n{s} :- not {s}." for s in shared]
    literal = st.tuples(st.sampled_from(shared), st.booleans())
    literals = st.lists(literal, max_size=2, unique=True)
    loops = draw(st.integers(2, 4))
    for i in range(loops):
        for head, other in ((f"a{i}", f"b{i}"), (f"b{i}", f"a{i}")):
            body = [f"not {other}"] + [f"not {a}" if neg else a for a, neg in draw(literals)]
            lines.append(f"{head} :- {', '.join(body)}.")
    loop_atoms = st.sampled_from([f"{x}{i}" for i in range(loops) for x in "ab"])
    for atom, (lit, neg) in draw(st.lists(st.tuples(loop_atoms, literal), max_size=2)):
        lines.append(f":- {atom}, {'not ' if neg else ''}{lit}.")
    for head, source in draw(st.lists(st.tuples(loop_atoms, loop_atoms), max_size=2)):
        lines.append(f"{head} :- {source}.")
    return "\n".join(lines)


@given(_shared_loop_programs())
@settings(max_examples=100, deadline=None)
def test_shared_loops_equal_oracle_property(text):
    program = parse_program(text)
    assert solve_grasp(program) == enumerate_stable(program)
