import json
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from aspgraph.graph import (
    NodeKind,
    Sign,
    atoms_of,
    build_cnr,
    cnr_to_dg,
    export_dot,
    graph_to_json,
    least_fixpoint,
    node_kind,
)
from aspgraph.grasp import solve_graph, solve_grasp_worlds
from aspgraph.justify import (
    AtomUnknown,
    JustificationTree,
    WorldIncomplete,
    check_justified,
    export_dot_world,
    justify,
    render_text,
    tree_to_json,
)
from aspgraph.oracle import enumerate_stable
from aspgraph.syntax import parse_program
from aspgraph.worlds import World, world_from_atoms

from conftest import is_effective, random_program_text

LEAF_REASONS = ("fact", "no rules", "coinductive assumption (loop)",
                "shown elsewhere in this tree")


def transformed(text):
    return cnr_to_dg(build_cnr(parse_program(text)))


def solved(text):
    return solve_grasp_worlds(parse_program(text))


def leaves(tree):
    if not tree.children:
        yield tree
    for child in tree.children:
        yield from leaves(child)


def test_justify_fact_chain():
    g, (w,) = solved("q. p :- q.")
    tree = justify(g, w, "p")
    assert tree.node == "p" and tree.value is True
    (child,) = tree.children
    assert child.node == "q" and child.value is True
    assert "positive edge from true q" in child.reason
    assert child.reason.endswith("fact")
    assert child.primary


def test_justify_negative_support():
    g, (w,) = solved("p :- not q.")
    tree = justify(g, w, "p")
    (child,) = tree.children
    assert child.node == "q" and child.value is False
    assert "negative edge from false q" in child.reason
    assert child.reason.endswith("no rules")


def test_justify_fact_is_single_node():
    g, (w,) = solved("q.")
    tree = justify(g, w, "q")
    assert tree.children == ()
    assert tree.reason == "fact"


def test_justify_conjunction_annotated_with_rule():
    g, (w,) = solved("q. p :- q, not r.")
    tree = justify(g, w, "p")
    (conj,) = tree.children
    assert conj.node == "__conj_0"
    assert "p :- q, not r." in conj.reason
    assert {c.node for c in conj.children} == {"q", "r"}


def test_justify_loop_marker_on_even_cycle():
    g, worlds = solved("p :- not q. q :- not p.")
    w = next(w for w in worlds if w.value("p"))
    tree = justify(g, w, "p")
    reasons = [leaf.reason for leaf in leaves(tree)]
    assert any(r.endswith(LEAF_REASONS[2]) for r in reasons)


def test_justify_false_atom_lists_all_in_edges():
    g, (w,) = solved("q. p :- q, not r. x :- r.")
    tree = justify(g, w, "x")
    assert tree.value is False
    (child,) = tree.children
    assert child.node == "r"
    assert "not effective" in child.reason


def test_justify_unknown_atom():
    g, (w,) = solved("q.")
    with pytest.raises(AtomUnknown):
        justify(g, w, "z")
    with pytest.raises(AtomUnknown):
        justify(g, w, "__conj_0")


def test_justify_incomplete_world():
    g = transformed("p :- q.")
    with pytest.raises(WorldIncomplete):
        justify(g, World({"p": False}), "p")


def test_world_over_node_numbers_rejected():
    # solve_graph's worlds hold one value per node number, not per name
    g = transformed("a. b :- a.")
    (w,) = solve_graph(g)
    assert w.values == [True, True]
    for call in (justify, check_justified, export_dot_world):
        args = (g, w, "a") if call is justify else (g, w)
        with pytest.raises(TypeError, match="keyed by node name"):
            call(*args)
    for method, args in ((w.is_complete, (g,)), (w.value, ("a",)), (w.true_atoms, (g,))):
        with pytest.raises(TypeError, match="keyed by node name"):
            method(*args)


def test_justify_all_atoms_of_all_models():
    rng = random.Random(41)
    for _ in range(60):
        program = parse_program(
            random_program_text(rng, rng.randint(1, 7), rng.randint(1, 10))
        )
        g, worlds = solve_grasp_worlds(program)
        for w in worlds:
            for atom in atoms_of(g):
                tree = justify(g, w, atom)
                for leaf in leaves(tree):
                    assert leaf.reason.endswith(LEAF_REASONS), leaf.reason


def test_tree_size_bounded():
    rng = random.Random(42)
    for _ in range(60):
        program = parse_program(
            random_program_text(rng, rng.randint(1, 7), rng.randint(1, 10))
        )
        g, worlds = solve_grasp_worlds(program)
        for w in worlds:
            for atom in atoms_of(g):
                assert justify(g, w, atom).size() <= 2 * len(g.nodes)


def test_check_justified_on_solver_worlds():
    rng = random.Random(43)
    for _ in range(80):
        program = parse_program(
            random_program_text(rng, rng.randint(1, 7), rng.randint(1, 10))
        )
        g, worlds = solve_grasp_worlds(program)
        for w in worlds:
            assert check_justified(g, w)


def test_check_justified_rejects_unsupported_true():
    g = transformed("p :- q.")
    w = world_from_atoms(g, {"p"})
    assert not check_justified(g, w)


def test_check_justified_rejects_violated_constraint():
    g = transformed(":- not q.")
    w = world_from_atoms(g, set())
    assert not check_justified(g, w)


def test_check_justified_rejects_unfounded_positive_loop():
    g = transformed("p :- q. q :- p.")
    assert not check_justified(g, world_from_atoms(g, {"p", "q"}))
    assert check_justified(g, world_from_atoms(g, set()))


def _supports_via(g, edge, w, founded):
    # A negative edge fires from a False node: negation-as-failure support
    # needs no further derivation unless the source is a conjunction node,
    # in which case the body's positive literals must themselves be founded.
    src = edge.src
    if node_kind(src) is not NodeKind.CONJ:
        if edge.sign is Sign.POSITIVE:
            return src in founded
        return True
    return all(
        inner.src in founded
        for inner in g.in_edges(src)
        if inner.sign is Sign.NEGATIVE  # transformed sign of a positive literal
    )


def sweep_founded_atoms_ok(g, w):
    """Reference: re-sweep the unfounded True atoms until nothing changes."""
    true_atoms = {n for n in atoms_of(g) if w.value(n)}
    founded = {n for n in true_atoms if g.fixed_value(n) is True}
    changed = True
    while changed:
        changed = False
        for atom in true_atoms - founded:
            for edge in g.in_edges(atom):
                if is_effective(edge, w) and _supports_via(g, edge, w, founded):
                    founded.add(atom)
                    changed = True
                    break
    return founded == true_atoms


def founded_atoms_ok(g, w):
    """The foundedness part of check_justified on a name-keyed world: every
    True atom lies in the least fixpoint of the bodies that hold."""
    values = [w.value(name) for name in g.names]
    t = g.bodies
    holding = [
        i
        for i in range(len(t.head))
        if all(values[a] for a in t.pos[i]) and not any(values[a] for a in t.neg[i])
    ]
    founded = least_fixpoint(t.head, t.pos, t.pos_uses, holding)
    return all(a in founded for a in range(g.atom_count) if values[a])


def test_founded_atoms_equals_sweep_reference():
    rng = random.Random(45)
    outcomes = set()
    for _ in range(300):
        program = parse_program(
            random_program_text(rng, rng.randint(1, 8), rng.randint(1, 12), naf=0.3)
        )
        g = transformed(str(program))
        atoms = sorted(program.atoms)
        for _ in range(8):
            w = world_from_atoms(g, [a for a in atoms if rng.random() < 0.6])
            expected = sweep_founded_atoms_ok(g, w)
            assert founded_atoms_ok(g, w) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_check_justified_long_shuffled_chain():
    # names numbered in random order, so no name-ordered loop follows the chain
    numbers = random.Random(46).sample(range(5001), 5001)
    names = [f"a{k}" for k in numbers]
    text = f"{names[0]}.\n" + "".join(
        f"{names[i]} :- {names[i - 1]}.\n" for i in range(1, len(names))
    )
    g = transformed(text)
    assert check_justified(g, world_from_atoms(g, names))
    assert not check_justified(g, world_from_atoms(g, names[:-1]))


def test_validator_agrees_with_oracle():
    rng = random.Random(44)
    for _ in range(60):
        program = parse_program(
            random_program_text(rng, rng.randint(1, 5), rng.randint(1, 8))
        )
        g = transformed(str(program))
        atoms = sorted(program.atoms)
        stable = set(enumerate_stable(program))
        for size in range(len(atoms) + 1):
            for subset in combinations(atoms, size):
                candidate = frozenset(subset)
                w = world_from_atoms(g, candidate)
                assert check_justified(g, w) == (candidate in stable)


def test_render_and_json_shapes():
    g, (w,) = solved("q. p :- q.")
    tree = justify(g, w, "p")
    text = render_text(tree)
    assert "p = True" in text and "q = True" in text
    doc = tree_to_json(tree)
    assert doc["node"] == "p" and doc["children"][0]["node"] == "q"


def reference_render(tree, indent=""):
    """The recursive rendering render_text replaced."""
    value = "True" if tree.value else "False"
    star = " *" if tree.primary else ""
    lines = [f"{indent}{tree.node} = {value}  [{tree.reason}]{star}"]
    for child in tree.children:
        lines.append(reference_render(child, indent + "  "))
    return "\n".join(lines)


def test_render_text_matches_the_recursive_rendering():
    rng = random.Random(31)
    trees = 0
    for _ in range(150):
        program = parse_program(random_program_text(rng, rng.randint(2, 8), rng.randint(2, 14)))
        g, worlds = solve_grasp_worlds(program)
        for w in worlds[:2]:
            for atom in sorted(program.atoms):
                tree = justify(g, w, atom)
                assert render_text(tree) == reference_render(tree)
                trees += tree.size() > 2
    assert trees >= 100


def test_render_text_deeper_than_the_recursion_limit():
    depth = 1200
    tree = JustificationTree("a0", False, "no rules")
    for i in range(1, depth):
        tree = JustificationTree(f"a{i}", True, f"rule {i}", (tree,), primary=i % 2 == 0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = render_text(tree)
    finally:
        sys.setrecursionlimit(limit)
    lines = text.split("\n")
    assert len(lines) == depth
    assert lines[0] == f"a{depth - 1} = True  [rule {depth - 1}]"
    assert lines[1] == f"  a{depth - 2} = True  [rule {depth - 2}] *"
    assert lines[-1] == "  " * (depth - 1) + "a0 = False  [no rules]"


def test_export_dot_world_highlights_effective_edges():
    g, (w,) = solved("q. p :- q.")
    dot = export_dot_world(g, w)
    assert "color=red" in dot
    assert dot.startswith("digraph")


GOLDEN = Path(__file__).parent / "golden"


def test_export_and_justify_output_is_pinned():
    # a has eleven rule bodies, so the helper names' order (__conj_10 before
    # __conj_2) and the helpers' number order disagree. The program also has
    # a fact with a rule, a body that can never hold (q :- r, not r.) and a
    # constraint numbered before the conjunction nodes and one after them.
    program = parse_program((GOLDEN / "export_order.lp").read_text())
    cnr = build_cnr(program)
    g, worlds = solve_grasp_worlds(program)
    w = worlds[0]
    assert w.true_atoms(g) == {"a", "b", "d", "f"}
    outputs = {
        "cnr.dot": export_dot(cnr),
        "dg.dot": export_dot(cnr_to_dg(cnr)),
        "dg.json": json.dumps(graph_to_json(g), indent=1),
        "world.dot": export_dot_world(g, w),
        "justify_a.txt": render_text(justify(g, w, "a")),
        "justify_q.txt": render_text(justify(g, w, "q")),
    }
    for name, text in outputs.items():
        assert text + "\n" == (GOLDEN / f"export_order.{name}").read_text(), name
