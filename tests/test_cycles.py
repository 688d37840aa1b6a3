import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from aspgraph.cycles import (
    CycleExplosionError,
    _kinds,
    _signed_cycles,
    cycle_stats,
    find_virtual_nodes,
)
from aspgraph.graph import build_cnr, cnr_to_dg
from aspgraph.syntax import parse_program

from conftest import random_program_text


KINDS = ("even", "odd", "positive")


def transformed(text):
    return cnr_to_dg(build_cnr(parse_program(text)))


def member_names(g, v):
    return {g.names[m] for m in v.members}


def census(v, g):
    """(even, odd, positive) totals of one virtual node's signed cycles."""
    totals = [0, 0, 0]
    for free, negative in _signed_cycles(v, g):
        for k, count in enumerate(_kinds(free, negative)):
            totals[k] += count
    return tuple(totals)


def counts(listed):
    """(even, odd, positive) counts of a brute-force cycle listing."""
    kinds = [kind for _, kind in listed]
    return tuple(kinds.count(k) for k in KINDS)


def test_even_pair_is_one_virtual_node():
    g = transformed("p :- not q. q :- not p.")
    virtual = find_virtual_nodes(g)
    assert len(virtual) == 1
    assert member_names(g, virtual[0]) == {"p", "q"}


def test_acyclic_graph_has_no_virtual_nodes():
    assert find_virtual_nodes(transformed("p :- q, not r.")) == []


def test_three_cycle_single_component():
    g = transformed("p :- not q. q :- not r. r :- not p.")
    virtual = find_virtual_nodes(g)
    assert len(virtual) == 1
    assert member_names(g, virtual[0]) == {"p", "q", "r"}


def test_enumerate_even_cycle():
    g = transformed("p :- not q. q :- not p.")
    (v,) = find_virtual_nodes(g)
    assert census(v, g) == cycle_stats(g) == (1, 0, 0)
    assert _brute_force_cycles(g, member_names(g, v)) == [(("p", "q"), "even")]


def test_enumerate_odd_cycle():
    g = transformed("p :- not q. q :- not r. r :- not p.")
    (v,) = find_virtual_nodes(g)
    assert census(v, g) == cycle_stats(g) == (0, 1, 0)
    [(nodes, kind)] = _brute_force_cycles(g, member_names(g, v))
    assert set(nodes) == {"p", "q", "r"}
    assert kind == "odd"


def test_enumerate_positive_cycle():
    g = transformed("p :- q. q :- p.")
    (v,) = find_virtual_nodes(g)
    assert census(v, g) == cycle_stats(g) == (0, 0, 1)
    assert _brute_force_cycles(g, member_names(g, v)) == [(("p", "q"), "positive")]


def test_direct_negative_self_loop_is_odd_one_cycle():
    g = transformed("p :- not p.")
    (v,) = find_virtual_nodes(g)
    assert census(v, g) == cycle_stats(g) == (0, 1, 0)
    assert _brute_force_cycles(g, member_names(g, v)) == [(("p",), "odd")]


def test_self_through_conjunction_counts_via_helper():
    g = transformed("p :- not q, not r, not p.")
    (v,) = find_virtual_nodes(g)
    # one negative hop into the helper, one positive out of it
    assert census(v, g) == cycle_stats(g) == (0, 1, 0)
    [(nodes, kind)] = _brute_force_cycles(g, member_names(g, v))
    assert set(nodes) == {"p", "__conj_0"}
    assert kind == "odd"


def test_parallel_signed_edges_expand():
    # p depends on q both ways; q on p once: two sign-distinct cycles
    g = transformed("p :- q. p :- not q. q :- p.")
    (v,) = find_virtual_nodes(g)
    assert census(v, g) == cycle_stats(g) == (0, 1, 1)
    kinds = sorted(kind for _, kind in _brute_force_cycles(g, member_names(g, v)))
    assert kinds == ["odd", "positive"]


def test_cycle_stats_examples():
    assert cycle_stats(transformed("p :- not q. q :- not p.")) == (1, 0, 0)
    assert cycle_stats(transformed("p :- not q. q :- not r. r :- not p.")) == (0, 1, 0)
    assert cycle_stats(transformed("")) == (0, 0, 0)
    assert cycle_stats(transformed("p :- q. q :- p.")) == (0, 0, 1)


def test_explosion_cap():
    text = " ".join(
        f"x{i} :- x{j}." for i in range(6) for j in range(6) if i != j
    )
    g = transformed(text)
    with pytest.raises(CycleExplosionError) as err:
        cycle_stats(g, cap=10)
    assert err.value.partial_count > 10
    assert err.value.cap == 10
    # C(6,2)*1! + C(6,3)*2! + C(6,4)*3! + C(6,5)*4! + C(6,6)*5! = 409 cycles
    (v,) = find_virtual_nodes(g)
    assert census(v, g) == cycle_stats(g) == (0, 0, 409)


def test_cap_env_override(monkeypatch):
    from aspgraph.cycles import default_cycle_cap

    monkeypatch.setenv("ASPGRAPH_CYCLE_CAP", "123")
    assert default_cycle_cap() == 123
    monkeypatch.delenv("ASPGRAPH_CYCLE_CAP")
    assert default_cycle_cap() == 10**6


@pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
def test_cap_env_rejects_non_positive_integers(monkeypatch, value):
    from aspgraph.cycles import CycleCapError, default_cycle_cap

    monkeypatch.setenv("ASPGRAPH_CYCLE_CAP", value)
    with pytest.raises(CycleCapError, match=f"ASPGRAPH_CYCLE_CAP.*'{value}'"):
        default_cycle_cap()


def _kind_of(negatives):
    """The reference rule: a cycle's kind by its count of negative edges."""
    if negatives == 0:
        return "positive"
    return "odd" if negatives % 2 else "even"


def test_kinds_count_every_sign_choice():
    # a free hop is negative or positive, a negative-only hop always negative
    for free in range(7):
        for negative in range(5):
            kinds = [_kind_of(sum(choice) + negative) for choice in product((0, 1), repeat=free)]
            expected = tuple(kinds.count(k) for k in KINDS)
            assert _kinds(free, negative) == expected, (free, negative)


def test_census_reads_no_node_name():
    class Unreadable:
        def __getitem__(self, i):
            raise AssertionError(f"the census read the name of node {i}")

    rng = random.Random(17)
    cyclic = 0
    for _ in range(30):
        g = transformed(random_program_text(rng, rng.randint(1, 8), rng.randint(1, 14)))
        stats = cycle_stats(g)
        cyclic += any(stats)
        g.names = Unreadable()
        assert cycle_stats(g) == stats
    assert cyclic > 10


def _brute_force_cycles(g, members):
    """Exhaustive DFS over simple edge paths; each cycle is rooted at its
    smallest node, so every sign variant appears exactly once."""
    edges = {}
    for e in g.edges:
        if e.src in members and e.dst in members:
            edges.setdefault(e.src, []).append(e)
    found = []

    def walk(start, node, path, negatives):
        for e in edges.get(node, ()):
            if e.dst == start:
                found.append((tuple(path), _kind_of(negatives + e.negative)))
            elif e.dst not in path and e.dst > start:
                walk(start, e.dst, path + [e.dst], negatives + e.negative)

    for start in sorted(members):
        walk(start, start, [start], 0)
    return found


def test_agreement_with_brute_force_on_small_graphs():
    rng = random.Random(13)
    for _ in range(60):
        g = transformed(random_program_text(rng, rng.randint(1, 5), rng.randint(1, 8)))
        for v in find_virtual_nodes(g):
            assert census(v, g) == counts(_brute_force_cycles(g, member_names(g, v)))


def test_cycle_stats_agrees_with_brute_force():
    rng = random.Random(15)
    for _ in range(100):
        g = transformed(random_program_text(rng, rng.randint(1, 7), rng.randint(1, 12)))
        listed = [
            cycle
            for v in find_virtual_nodes(g)
            for cycle in _brute_force_cycles(g, member_names(g, v))
        ]
        assert cycle_stats(g) == counts(listed)


def test_partition_and_condensation_acyclic():
    rng = random.Random(14)
    for _ in range(60):
        g = transformed(random_program_text(rng, rng.randint(1, 7), rng.randint(1, 10)))
        virtual = find_virtual_nodes(g)
        member_of = {}
        for v in virtual:
            for m in v.members:
                assert g.names[m] not in member_of
                member_of[g.names[m]] = v
        handle = lambda n: id(member_of[n]) if n in member_of else n
        # collapse members, then Kahn's algorithm must consume every handle
        successors = {handle(n): set() for n in g.nodes}
        in_degree = dict.fromkeys(successors, 0)
        for e in g.edges:
            a, b = handle(e.src), handle(e.dst)
            if a != b and b not in successors[a]:
                successors[a].add(b)
                in_degree[b] += 1
        ready = [h for h, d in in_degree.items() if d == 0]
        consumed = 0
        while ready:
            consumed += 1
            for b in successors[ready.pop()]:
                in_degree[b] -= 1
                if in_degree[b] == 0:
                    ready.append(b)
        assert consumed == len(successors)


def _mutual_reachability_classes(g):
    """Strongly connected components by brute force: the nodes each node
    reaches, then the classes of nodes that reach each other; singletons
    are kept only with a self-loop."""
    reach = {}
    for n in g.nodes:
        seen, todo = {n}, [n]
        while todo:
            for e in g.out_edges(todo.pop()):
                if e.dst not in seen:
                    seen.add(e.dst)
                    todo.append(e.dst)
        reach[n] = seen
    classes = {frozenset(m for m in reach[n] if n in reach[m]) for n in g.nodes}
    self_loops = {e.src for e in g.edges if e.src == e.dst}
    kept = [c for c in classes if len(c) > 1 or c <= self_loops]
    return sorted(kept, key=min)


def test_virtual_nodes_match_mutual_reachability():
    rng = random.Random(16)
    for _ in range(200):
        n_atoms = rng.randint(1, 25)
        g = transformed(random_program_text(rng, n_atoms, rng.randint(1, 2 * n_atoms)))
        virtual = find_virtual_nodes(g)
        members = [frozenset(g.names[m] for m in v.members) for v in virtual]
        assert sorted(members, key=min) == _mutual_reachability_classes(g)
        # ascending members, the components ordered by their smallest
        assert all(list(v.members) == sorted(v.members) for v in virtual)
        smallest = [v.members[0] for v in virtual]
        assert smallest == sorted(smallest)


@pytest.fixture
def recursion_limit_150():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_deep_ring_and_chain_need_no_recursion(recursion_limit_150):
    n = 20_000
    ring = transformed(" ".join(f"x{(i + 1) % n} :- x{i}." for i in range(n)))
    (v,) = find_virtual_nodes(ring)
    assert len(v.members) == n
    assert cycle_stats(ring) == (0, 0, 1)
    chain = transformed(" ".join(f"x{i + 1} :- x{i}." for i in range(n)))
    assert find_virtual_nodes(chain) == []
    assert cycle_stats(chain) == (0, 0, 0)


# complete digraph on 4 atoms: C(4,2)*1! + C(4,3)*2! + C(4,4)*3! = 20 cycles
COMPLETE_4 = " ".join(f"x{i} :- x{j}." for i in range(4) for j in range(4) if i != j)
# one node cycle whose p <- q hop has both signs: 2 sign-distinct cycles
PARALLEL_SIGNS = "p :- q. p :- not q. q :- p."


@pytest.mark.parametrize("text, count", [(COMPLETE_4, 20), (PARALLEL_SIGNS, 2)])
def test_cap_boundary(text, count):
    g = transformed(text)
    (v,) = find_virtual_nodes(g)
    assert sum(cycle_stats(g, cap=count)) == sum(census(v, g)) == count
    with pytest.raises(CycleExplosionError) as err:
        cycle_stats(g, cap=count - 1)
    assert err.value.partial_count > count - 1
    assert err.value.cap == count - 1


def test_import_loads_only_the_standard_library():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; before = set(sys.modules); import aspgraph; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'aspgraph'}))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(src)!r}); {probe}"],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"
    tomllib = pytest.importorskip("tomllib")
    with open(src.parent / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []
