import random

import pytest

from aspgraph import grasp, igasp
from aspgraph import graph as graph_module
from aspgraph.generate import GenConfig, cycle_graph, gen_coloring, gen_random
from aspgraph.graph import (
    DoubleTransformError,
    Edge,
    NodeKind,
    Sign,
    atoms_of,
    build_cnr,
    cnr_to_dg,
    constraint_nodes,
    export_dot,
    flip_conjunction_signs,
    graph_to_json,
    node_kind,
)
from aspgraph.justify import export_dot_world, justify
from aspgraph.syntax import parse_program

from conftest import PAPER_CONFIG, random_program_text


def edges_of(g):
    return {(e.src, e.dst, e.sign) for e in g.edges}


def test_build_cnr_conjunction():
    g = build_cnr(parse_program("p :- q, not r."))
    assert set(g.nodes) == {"p", "q", "r", "__conj_0"}
    assert edges_of(g) == {
        ("q", "__conj_0", Sign.POSITIVE),
        ("r", "__conj_0", Sign.NEGATIVE),
        ("__conj_0", "p", Sign.POSITIVE),
    }


def test_build_cnr_self_through_conjunction():
    # a rule whose head occurs in its own body loops through the conjunction
    g = build_cnr(parse_program("p :- not q, not r, not p."))
    assert ("p", "__conj_0", Sign.NEGATIVE) in edges_of(g)
    assert ("__conj_0", "p", Sign.POSITIVE) in edges_of(g)


def test_build_cnr_headless_constraint():
    g = build_cnr(parse_program(":- not q, not r."))
    assert g.fixed_value("__constraint_0") is False
    assert edges_of(g) == {
        ("q", "__conj_0", Sign.NEGATIVE),
        ("r", "__conj_0", Sign.NEGATIVE),
        ("__conj_0", "__constraint_0", Sign.POSITIVE),
    }


def test_build_cnr_fact():
    g = build_cnr(parse_program("q."))
    assert g.nodes == ["q"]
    assert g.fixed_value("q") is True
    assert not g.edges


def test_single_literal_body_direct_edge():
    g = build_cnr(parse_program("p :- not r."))
    assert edges_of(g) == {("r", "p", Sign.NEGATIVE)}


def test_fact_with_rules_keeps_in_edges():
    g = build_cnr(parse_program("a. a :- b."))
    assert g.fixed_value("a") is True
    assert ("b", "a", Sign.POSITIVE) in edges_of(g)


def test_duplicate_rules_collapse():
    g1 = build_cnr(parse_program("p :- q, not r."))
    g2 = build_cnr(parse_program("p :- q, not r. p :- q, not r."))
    assert set(g1.nodes) == set(g2.nodes)
    assert g1.edges == g2.edges
    assert len(g2.origin["__conj_0"]) == 2


def test_cnr_to_dg_flips_conjunction_edges():
    g = cnr_to_dg(build_cnr(parse_program("p :- q, not r.")))
    assert edges_of(g) == {
        ("q", "__conj_0", Sign.NEGATIVE),
        ("r", "__conj_0", Sign.POSITIVE),
        ("__conj_0", "p", Sign.NEGATIVE),
    }


def test_cnr_to_dg_without_conjunctions_is_identity():
    cnr = build_cnr(parse_program("p :- not r. q :- p."))
    dg = cnr_to_dg(cnr)
    assert dg.edges == cnr.edges


def test_cnr_to_dg_program_two_mixed():
    # only the two-literal rule's edges flip; the direct edge stays
    dg = cnr_to_dg(build_cnr(parse_program("p :- q, not p. p :- not r.")))
    assert ("r", "p", Sign.NEGATIVE) in edges_of(dg)
    assert ("q", "__conj_0", Sign.NEGATIVE) in edges_of(dg)
    assert ("p", "__conj_0", Sign.POSITIVE) in edges_of(dg)
    assert ("__conj_0", "p", Sign.NEGATIVE) in edges_of(dg)


def test_double_transform_rejected():
    g = cnr_to_dg(build_cnr(parse_program("p :- q, not r.")))
    with pytest.raises(DoubleTransformError):
        cnr_to_dg(g)


def test_atoms_of_excludes_helpers():
    g = build_cnr(parse_program("p :- q, not r. :- not q, not r."))
    assert atoms_of(g) == {"p", "q", "r"}
    assert atoms_of(build_cnr(parse_program(""))) == frozenset()
    assert atoms_of(build_cnr(parse_program(":- not q, not r."))) == {"q", "r"}


def test_node_kind_classification():
    assert node_kind("p") is NodeKind.ATOM
    assert node_kind("__conj_3") is NodeKind.CONJ
    assert node_kind("__constraint_0") is NodeKind.CONSTRAINT


def test_export_dot_shapes():
    g = build_cnr(parse_program("p :- q, not r."))
    dot = export_dot(g)
    assert dot.count("->") == 3
    assert dot.count("fillcolor=black") == 1
    assert 'label="not", style=dashed' in dot
    assert export_dot(build_cnr(parse_program(""))) == "digraph g {}"


def test_export_dot_constraint_double_circle():
    dot = export_dot(build_cnr(parse_program(":- not q, not r.")))
    assert "doublecircle" in dot


def test_export_dot_deterministic():
    text = "m :- p. m :- not q. m :- r. :- not m. :- n."
    dot = export_dot(build_cnr(parse_program(text)))
    assert dot == export_dot(build_cnr(parse_program(text)))
    # five atoms, two constraint anchors, five single-literal edges
    assert dot.count("doublecircle") == 2
    assert dot.count("->") == 5
    assert dot.count("fillcolor=black") == 0


def test_graph_json_document():
    g = build_cnr(parse_program("p :- not q."))
    doc = graph_to_json(g)
    assert doc["nodes"] == [
        {"id": "p", "kind": "atom", "fixed": None},
        {"id": "q", "kind": "atom", "fixed": None},
    ]
    assert doc["edges"] == [{"from": "q", "to": "p", "sign": "negative"}]


def _distinct_rule_keys(program):
    return {(r.head, frozenset(r.body)) for r in program.rules}


def test_node_and_edge_count_formulas():
    rng = random.Random(5)
    for _ in range(150):
        program = parse_program(
            random_program_text(rng, rng.randint(1, 8), rng.randint(1, 12))
        )
        g = build_cnr(program)
        keys = _distinct_rule_keys(program)
        multi = sum(1 for head, body in keys if len(body) >= 2)
        headless = sum(1 for head, _ in keys if head is None)
        assert len(g.nodes) == len(program.atoms) + multi + headless
        expected_edges = sum(
            len(body) + 1 if len(body) >= 2 else len(body)
            for _, body in keys
        )
        assert len(g.edges) == expected_edges


def test_flip_is_involution():
    rng = random.Random(6)
    for _ in range(100):
        program = parse_program(
            random_program_text(rng, rng.randint(1, 8), rng.randint(1, 12))
        )
        cnr = build_cnr(program)
        assert flip_conjunction_signs(flip_conjunction_signs(cnr)) == cnr


def test_build_deterministic():
    text = "p :- q, not r. :- p, q. r :- not p. s."
    a = build_cnr(parse_program(text))
    b = build_cnr(parse_program(text))
    assert a == b and a.nodes == b.nodes


def _reference_flip(cnr):
    """Adjacency of the transformed graph as first built: every edge of cnr
    in (src, dst, sign) order by node number, conjunction-incident signs
    flipped after the sort, so parallel edges keep the order of their
    original signs."""
    out = {n: [] for n in cnr.nodes}
    in_ = {n: [] for n in cnr.nodes}
    number = cnr.number
    for e in sorted(cnr.edges, key=lambda e: (number[e.src], number[e.dst], e.sign.value)):
        touches = NodeKind.CONJ in (node_kind(e.src), node_kind(e.dst))
        edge = Edge(e.src, e.dst, e.sign.flipped() if touches else e.sign)
        out[e.src].append(edge)
        in_[e.dst].append(edge)
    return out, in_


def test_transformed_adjacency_order_matches_reference():
    rng = random.Random(8)
    texts = [
        "p :- q, not q, r. s :- not q, q. :- q, not q.",
        "a :- not b, b. b :- a, not a, c. c. :- not c, a.",
    ] + [random_program_text(rng, rng.randint(1, 8), rng.randint(1, 14)) for _ in range(200)]
    for text in texts:
        program = parse_program(text)
        cnr = build_cnr(program)
        dg = cnr_to_dg(cnr)
        out, in_ = _reference_flip(cnr)
        assert dg.nodes == cnr.nodes
        assert dg.nodes[: len(program.atoms)] == sorted(program.atoms)
        for n in dg.nodes:
            assert dg.out_edges(n) == out[n]
            assert dg.in_edges(n) == in_[n]
        assert dg.fixed == cnr.fixed
        assert list(dg.fixed) == [n for n in dg.nodes if n in dg.fixed]
        assert dg.origin == cnr.origin
        for g in (cnr, dg):
            listed = [e for n in g.nodes for e in g.out_edges(n)]
            assert len(listed) == len(g.edges)
            assert g.edges == set(listed) == {e for n in g.nodes for e in g.in_edges(n)}


def table_bodies(g):
    """A graph's body table as (head, positive atoms, negated atoms) names,
    the head None for a constraint, after checking its layout: atom a's
    bodies are start[a] to start[a + 1], the rows after them are one per
    constraint node in node order, each atom is listed once per body, and
    pos_uses inverts pos on the atom rows."""
    t = g.bodies
    assert t.start[0] == 0 and len(t.start) == len(g.names) + 1
    for a in range(g.atom_count):
        assert all(t.head[i] == a for i in range(t.start[a], t.start[a + 1]))
    constraints = [i for i, name in enumerate(g.names) if node_kind(name) is NodeKind.CONSTRAINT]
    assert t.head[t.start[g.atom_count] :] == constraints
    for n in range(g.atom_count, len(g.names)):
        assert t.start[n + 1] - t.start[n] == (n in constraints)
    assert len(t.head) == len(t.pos) == len(t.neg)
    for lits in t.pos + t.neg:
        assert len(set(lits)) == len(lits)
    assert [sorted(uses) for uses in t.pos_uses] == [
        [i for i, pos in enumerate(t.pos[: t.start[g.atom_count]]) if a in pos]
        for a in range(g.atom_count)
    ]
    names = g.names
    return [
        (
            names[head] if head < g.atom_count else None,
            frozenset(names[a] for a in pos),
            frozenset(names[a] for a in neg),
        )
        for head, pos, neg in zip(t.head, t.pos, t.neg)
    ]


def program_bodies(program):
    """The program's distinct rules as (head, positive atoms, negated atoms),
    the head None for a constraint; a fact has two empty sets."""
    return {
        (
            rule.head,
            frozenset(lit.atom for lit in rule.body if not lit.negated),
            frozenset(lit.atom for lit in rule.body if lit.negated),
        )
        for rule in program.rules
    }


def test_body_table_holds_the_distinct_headed_rules():
    rng = random.Random(9)
    texts = [
        "p :- q, q. p :- q. q. q :- r, not r.",
        "p :- q, not q. p :- not q, q. :- p, q. r :- p, s, not t.",
    ] + [random_program_text(rng, rng.randint(1, 8), rng.randint(1, 14)) for _ in range(200)]
    for text in texts:
        program = parse_program(text)
        cnr = build_cnr(program)
        expected = program_bodies(program)
        for g in (cnr, cnr_to_dg(cnr)):
            bodies = table_bodies(g)
            assert len(bodies) == len(expected) and set(bodies) == expected
    first = table_bodies(cnr_to_dg(build_cnr(parse_program(texts[0]))))
    assert sorted(first) == [
        ("p", frozenset({"q"}), frozenset()),
        ("q", frozenset(), frozenset()),
        ("q", frozenset({"r"}), frozenset({"r"})),
    ]
    second = table_bodies(cnr_to_dg(build_cnr(parse_program(texts[1]))))
    assert second[-1] == (None, frozenset({"p", "q"}), frozenset())


def test_parallel_edges_keep_original_sign_order():
    dg = cnr_to_dg(build_cnr(parse_program("p :- q, not q, r.")))
    assert [(e.dst, e.sign) for e in dg.out_edges("q")] == [
        ("__conj_0", Sign.POSITIVE),
        ("__conj_0", Sign.NEGATIVE),
    ]
    assert [(e.src, e.sign) for e in dg.in_edges("__conj_0")] == [
        ("q", Sign.POSITIVE),
        ("q", Sign.NEGATIVE),
        ("r", Sign.NEGATIVE),
    ]


@pytest.fixture
def edges_built(monkeypatch):
    """The number of Edge objects built so far in the test, as a one-item list."""
    # Edge is a named tuple, built in its __new__
    created = [0]
    original = Edge.__new__

    def counted(cls, *args, **kwargs):
        created[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Edge, "__new__", counted)
    return created


def test_solvers_build_no_edge_objects(edges_built):
    # The engines and the model checks read the integer adjacency lists;
    # Edge objects are built only by the name-level view.
    # seed 0 is one of the paper-configuration programs igasp refutes quickly
    programs = [gen_random(GenConfig(seed=0, **PAPER_CONFIG)), gen_coloring(5, cycle_graph(5))]
    for program in programs:
        _, worlds = grasp.solve_grasp_worlds(program)
        answer_sets = igasp.solve_igasp(program)
        assert len(answer_sets) == len(worlds)
    assert len(answer_sets) == 30
    assert edges_built[0] == 0
    g = build_cnr(programs[1])
    g.in_edges(g.names[0])
    assert edges_built[0] == len(g.pred[0]) > 0


def test_justify_and_exports_build_no_edge_objects(edges_built):
    # Justification and the DOT/JSON exports walk the integer lists too.
    program = gen_coloring(5, cycle_graph(5))
    cnr = build_cnr(program)
    g, worlds = grasp.solve_grasp_worlds(program)
    assert len(worlds) == 30
    for w in worlds:
        for atom in g.names[: g.atom_count]:
            assert justify(g, w, atom).size() > 0
        export_dot_world(g, w)
    for graph in (cnr, g):
        export_dot(graph)
        graph_to_json(graph)
    assert edges_built[0] == 0


def test_one_igasp_solve_compiles_one_body_table(monkeypatch):
    # Synthesis, the causal map, the constraints' bodies and validation read
    # the program graph's one table: the synthesized constraints are proved
    # as goals on that graph, never built into another.
    compiled = 0
    original = graph_module.compile_bodies

    def counted(g):
        nonlocal compiled
        compiled += 1
        return original(g)

    monkeypatch.setattr(graph_module, "compile_bodies", counted)
    texts = [
        "p :- not q. q :- not p. :- p, q.",  # no constraint added
        "a0. a1 :- a0.",  # settled by the seed, nothing added
        "p :- not q. q :- not p. a :- not b. b :- not a.",  # two anchors added
    ]
    programs = [parse_program(text) for text in texts] + [gen_coloring(5, cycle_graph(5))]
    for program in programs:
        compiled = 0
        assert igasp.solve_igasp(program)
        assert compiled == 1


def test_a_solve_compiles_each_graphs_table_at_most_once(monkeypatch):
    # igasp's propagation, synthesis, constraint test and stability check,
    # and grasp's labeling search, all read the graph's one table.
    compiled = []
    original = graph_module.compile_bodies

    def counted(g):
        compiled.append(g)  # kept alive, so no two graphs share an id
        return original(g)

    reached = {"prove": 0, "break_cycles": 0}

    def counting(module, name):
        wrapped = getattr(module, name)

        def call(*args):
            reached[name] += 1
            return wrapped(*args)

        monkeypatch.setattr(module, name, call)

    monkeypatch.setattr(graph_module, "compile_bodies", counted)
    counting(igasp, "prove")
    counting(grasp, "break_cycles")
    # the second program's positive loop is rooted in an even loop, so the
    # seed leaves it open and its unfounded model reaches graph.stable
    texts = [
        "p :- not q. q :- not p. :- p, q.",
        "p :- q. q :- p. p :- r. r :- not s. s :- not r. :- not p.",
    ]
    programs = [parse_program(text) for text in texts] + [gen_coloring(5, cycle_graph(5))]
    for program in programs:
        for solve, reaches in ((igasp.solve_igasp, "prove"), (grasp.solve_grasp, "break_cycles")):
            compiled.clear()
            reached[reaches] = 0
            solve(program)
            assert reached[reaches] > 0  # the proof search, or a component
            assert len({id(g) for g in compiled}) == len(compiled) == 1


def test_the_body_tables_masks_and_watchers_restate_its_rows():
    rng = random.Random(31)
    for _ in range(200):
        cnr = build_cnr(parse_program(random_program_text(rng, rng.randint(1, 8), 10)))
        for g in (cnr, cnr_to_dg(cnr)):
            t = g.bodies
            watchers = [[] for _ in g.names]  # every node, helpers included
            for i, (pos, neg) in enumerate(zip(t.pos, t.neg)):
                assert t.masks[i] == (sum(1 << a for a in pos), sum(1 << a for a in neg))
                for atom in pos + neg:  # constraint rows too
                    watchers[atom].append(t.head[i])
            assert t.watchers == watchers


def reference_fitting(t, heads, known, true, constraints=()):
    """Fitting's two rules by brute force: re-evaluate every head until
    nothing changes; None at the first contradiction. A constraint head,
    known False, also forces the one undecided literal of a body with no
    failing literal the other way, unless the body holds an atom both ways."""
    changed = True
    while changed:
        changed = False
        for head in list(heads) + list(constraints):
            rows = [t.masks[i] for i in range(len(t.head)) if t.head[i] == head]
            false = known ^ true
            if any(pos & true == pos and neg & false == neg for pos, neg in rows):
                forced = True
            elif all(pos & false or neg & true for pos, neg in rows):
                forced = False
            else:
                if head in constraints:
                    for pos, neg in rows:
                        lits = (pos | neg) & ~known
                        undecided = [a for a in range(lits.bit_length()) if lits >> a & 1]
                        if pos & false or neg & true or pos & neg or len(undecided) != 1:
                            continue
                        bit = 1 << undecided[0]
                        known |= bit
                        true |= bit if neg & bit else 0
                        changed = True
                        break
                continue
            bit = 1 << head
            if known & bit:
                if bool(true & bit) is not forced:
                    return None
                continue
            known |= bit
            true |= bit if forced else 0
            changed = True
    return known, true


def test_fitting_matches_a_brute_force_fixpoint():
    rng = random.Random(35)
    outcomes = set()
    backchained = 0
    texts = [random_program_text(rng, rng.randint(1, 10), rng.randint(1, 20)) for _ in range(300)]
    # a body holding both b and not b never holds, so it forces nothing
    texts += [":- not a, b, not b. b :- not c. c :- not b.", ":- a, not a. a :- not b. b :- not a."]
    for i, text in enumerate(texts):
        g = cnr_to_dg(build_cnr(parse_program(text)))
        t = g.bodies
        heads = [a for a in range(g.atom_count) if t.start[a] < t.start[a + 1]]
        constraints = constraint_nodes(g)
        known = rng.getrandbits(g.atom_count) & rng.getrandbits(g.atom_count)
        true = known & rng.getrandbits(g.atom_count)
        # without first_constraint a constraint node is one more head
        everyone = heads + constraints
        expected = reference_fitting(t, everyone, known, true)
        outcomes.add("contradiction" if expected is None else expected == (known, true))
        for _ in range(3):
            pending = rng.sample(everyone, len(everyone))
            result = graph_module.fitting(known, true, pending, t.masks, t.start, t.watchers)
            assert result == expected
        # With the constraint nodes known False, their rows propagate
        # backward when fitting is given a list for the atoms they force,
        # and are skipped otherwise. A forced atom's own rows are checked,
        # so every atom is a head here: a rule-less atom forced True
        # contradicts.
        everyone = list(range(g.atom_count)) + constraints
        for known, true in ((known, true), (0, 0)):
            known |= sum(1 << c for c in constraints)
            expected = reference_fitting(t, range(g.atom_count), known, true, constraints)
            plain = reference_fitting(t, everyone, known, true)
            atom_rows = reference_fitting(t, range(g.atom_count), known, true)
            backchained += expected is not None and plain is not None and expected != plain
            for _ in range(3):
                pending = rng.sample(everyone, len(everyone))
                args = known, true, pending, t.masks, t.start, t.watchers, g.atom_count
                forced = []
                assert graph_module.fitting(*args, forced) == expected, text
                if expected is not None:
                    # each forced atom once, decided by the result, not by the start
                    assert len(set(forced)) == len(forced), text
                    assert all(expected[0] >> a & 1 and not known >> a & 1 for a in forced)
                assert graph_module.fitting(*args) == atom_rows, text
        if i == 300:  # the planted defect: a False must not force b
            a, b = g.number["a"], g.number["b"]
            start = sum(1 << c for c in constraints) | 1 << a
            forced = []
            state = graph_module.fitting(
                start, 0, constraints, t.masks, t.start, t.watchers, g.atom_count, forced
            )
            assert state is not None and not state[0] >> b & 1 and forced == []
    assert outcomes == {"contradiction", True, False}
    assert backchained > 20, backchained


def test_a_solve_fills_only_the_transformed_graphs_lists(monkeypatch):
    # The arc list is each graph's adjacency; succ and pred are filled from
    # it once, on first read. The engines read only the transformed graph.
    filled = []
    original = graph_module.fill_adjacency

    def counted(g):
        filled.append(g.transformed)
        return original(g)

    monkeypatch.setattr(graph_module, "fill_adjacency", counted)
    texts = [
        "p :- not q. q :- not p. :- p, q.",
        "a0. a1 :- a0.",
        "p :- q, not q, r. s :- not q, q. :- q, not q.",
    ]
    programs = [parse_program(text) for text in texts] + [gen_coloring(5, cycle_graph(5))]
    for program in programs:
        for solve in (grasp.solve_grasp_worlds, igasp.solve_igasp):
            filled.clear()
            solve(program)
            assert filled == [True]
        filled.clear()
        cnr = build_cnr(program)
        assert flip_conjunction_signs(flip_conjunction_signs(cnr)) == cnr
        assert filled == []  # a cnr graph nobody reads never fills
        assert cnr.pred and cnr.succ
        assert filled == [False]  # one fill gives both lists
