"""The model checks against their first integer forms.

``reference_world_from_atoms`` and ``reference_check_justified`` are the
per-node generator versions that ``worlds.world_from_atoms`` and
``justify.check_justified`` replaced. The world must be the same on every
graph, before and after the flip. The verdict must be the same on the
transformed graph. The first form read every node as an OR of its
effective in-edges, which is a conjunction node's reading only after the
flip, so on the conjunction-node graph it rejected answer sets; there the
verdict must be ``reference_answer_set``'s, which asks the oracle.
"""

import random

from aspgraph import grasp
from aspgraph.graph import build_cnr, cnr_to_dg, least_fixpoint
from aspgraph.justify import check_justified
from aspgraph.oracle import is_stable
from aspgraph.syntax import parse_program
from aspgraph.worlds import World, world_from_atoms

from conftest import random_program_text


def reference_world_from_atoms(g, true_atoms):
    true_atoms = frozenset(true_atoms)
    names = g.names
    values = [i < g.atom_count and name in true_atoms for i, name in enumerate(names)]
    combine = any if g.transformed else all
    for node, entries in enumerate(g.pred):
        if g.conj[node]:
            values[node] = combine([values[e >> 1] == e & 1 for e in entries])
    return World(dict(zip(names, values)))


def reference_check_justified(g, w):
    if not w.is_complete(g):
        return False
    values = list(map(w.values.__getitem__, g.names))
    fixed_nodes = g.fixed_nodes
    for node, entries in enumerate(g.pred):
        value = values[node]
        fixed = fixed_nodes.get(node)
        if fixed is not None and value != fixed:
            return False
        effective = any(values[e >> 1] == e & 1 for e in entries)
        if value and not effective and fixed is not True:
            return False
        if not value and effective:
            return False
    t = g.bodies
    value_of = values.__getitem__
    true_atoms = [a for a in range(g.atom_count) if values[a]]
    holding = [
        i
        for a in true_atoms
        for i in range(t.start[a], t.start[a + 1])
        if all(map(value_of, t.pos[i])) and not any(map(value_of, t.neg[i]))
    ]
    founded = least_fixpoint(t.head, t.pos, t.pos_uses, holding)
    return all(a in founded for a in true_atoms)


def reference_answer_set(program, g, w):
    """Whether w is complete, is the world of its true atoms M, and M is a
    stable model by the reduct oracle."""
    if not w.is_complete(g):
        return False
    true_atoms = {n for n in g.names[: g.atom_count] if w.values[n]}
    expected = world_from_atoms(g, true_atoms).values
    if any(w.values[n] != value for n, value in expected.items()):
        return False
    return is_stable(program, true_atoms)


def test_validators_match_their_references():
    rng = random.Random(16)
    checks = accepted = 0
    for _ in range(300):
        text = random_program_text(rng, rng.randint(1, 7), rng.randint(1, 12))
        program = parse_program(text)
        models = grasp.solve_grasp(program)
        cnr = build_cnr(program)
        for g in (cnr, cnr_to_dg(cnr)):
            names = g.names
            worlds = [world_from_atoms(g, model) for model in models]
            for _ in range(4):
                # a random node set, helpers included, and an unknown name
                chosen = [n for n in names if rng.random() < 0.5] + ["zz_unknown"]
                w = world_from_atoms(g, chosen)
                assert w == reference_world_from_atoms(g, chosen)
                worlds.append(w)
                # a random complete world, helpers included
                worlds.append(World({n: rng.random() < 0.5 for n in names}))
            for w in list(worlds):
                perturbed = dict(w.values)
                flip = rng.choice(names)
                perturbed[flip] = not perturbed[flip]
                worlds.append(World(perturbed))
                incomplete = dict(w.values)
                del incomplete[rng.choice(names)]
                worlds.append(World(incomplete))
            for w in worlds:
                verdict = check_justified(g, w)
                if g.transformed:
                    assert verdict == reference_check_justified(g, w)
                else:
                    assert verdict == reference_answer_set(program, g, w)
                checks += 1
                accepted += verdict
    assert checks > 10_000 and accepted > 500


def test_check_justified_accepts_an_answer_set_on_the_conjunction_node_graph():
    # {q} is the one answer set: the conjunction node of p's body is False,
    # since r is. Read as an OR of its in-edges, it had an effective edge
    # from q, so the first form rejected the answer set on this graph.
    program = parse_program("q. p :- q, r.")
    cnr = build_cnr(program)
    for g in (cnr, cnr_to_dg(cnr)):
        assert check_justified(g, world_from_atoms(g, {"q"}))
        assert not check_justified(g, world_from_atoms(g, {"q", "p"}))
        assert not check_justified(g, world_from_atoms(g, set()))
    assert not reference_check_justified(cnr, world_from_atoms(cnr, {"q"}))
