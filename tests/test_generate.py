import json
import pickle
from itertools import permutations, product

import pytest

from aspgraph.generate import (
    ConfigError,
    GenConfig,
    complete_graph,
    cycle_graph,
    gen_classic,
    gen_coloring,
    gen_hamiltonian,
    gen_random,
    render_with_header,
)
from aspgraph.grasp import solve_grasp
from aspgraph.oracle import enumerate_stable
from aspgraph.syntax import parse_program, print_program


def test_seed_determinism():
    config = GenConfig(num_atoms=5, num_rules=8, seed=42)
    assert render_with_header(config, gen_random(config)) == render_with_header(
        config, gen_random(config)
    )


def test_different_seeds_differ():
    a = gen_random(GenConfig(num_atoms=6, num_rules=10, seed=1))
    b = gen_random(GenConfig(num_atoms=6, num_rules=10, seed=2))
    assert print_program(a) != print_program(b)


def test_degenerate_single_atom():
    program = gen_random(GenConfig(num_atoms=1, num_rules=1, naf_probability=0.0))
    (rule,) = program.rules
    assert rule.head == "x0" or rule.head is None
    assert all(not lit.negated for lit in rule.body)


def test_requested_rule_count():
    program = gen_random(GenConfig(num_atoms=4, num_rules=25, seed=9))
    assert len(program.rules) == 25


def test_no_duplicate_body_literals():
    program = gen_random(GenConfig(num_atoms=3, num_rules=60, seed=10))
    for rule in program.rules:
        assert len(set(rule.body)) == len(rule.body)


def test_constraint_fraction_extreme():
    program = gen_random(
        GenConfig(num_atoms=4, num_rules=30, constraint_fraction=1.0, seed=3)
    )
    assert all(r.head is None for r in program.rules)


def test_config_validation():
    with pytest.raises(ConfigError):
        GenConfig(num_atoms=0, num_rules=1)
    with pytest.raises(ConfigError):
        GenConfig(num_atoms=1, num_rules=0)
    with pytest.raises(ConfigError):
        GenConfig(num_atoms=1, num_rules=1, naf_probability=1.5)
    with pytest.raises(ConfigError):
        GenConfig(num_atoms=1, num_rules=1, constraint_fraction=-0.1)


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("num_atoms", True, "an integer"),
        ("num_atoms", 2.5, "an integer"),
        ("num_rules", "5", "an integer"),
        ("max_body_len", 3.0, "an integer"),
        ("seed", False, "an integer"),
        ("naf_probability", True, "a real number"),
        ("constraint_fraction", "0.1", "a real number"),
        ("constraint_fraction", None, "a real number"),
    ],
)
def test_config_rejects_values_of_the_wrong_type(field, value, kind):
    # bool is an int, so True would otherwise pass for a 1-atom config
    with pytest.raises(ConfigError, match=f"^{field} must be {kind}, got {value!r}$"):
        GenConfig(**{"num_atoms": 4, "num_rules": 5, field: value})


def test_config_fractions_may_be_integers():
    config = GenConfig(num_atoms=4, num_rules=5, naf_probability=1, constraint_fraction=0)
    assert (config.naf_probability, config.constraint_fraction) == (1, 0)


def test_config_is_an_immutable_record():
    config = GenConfig(num_atoms=3, num_rules=4, seed=7)
    with pytest.raises(AttributeError):
        config.seed = 8
    with pytest.raises(AttributeError):
        del config.seed
    assert config == GenConfig(3, 4, 3, 0.5, 0.05, 7)
    assert hash(config) == hash(GenConfig(3, 4, seed=7))
    assert config != GenConfig(3, 4, seed=8)
    assert repr(config) == (
        "GenConfig(num_atoms=3, num_rules=4, max_body_len=3, naf_probability=0.5, "
        "constraint_fraction=0.05, seed=7)"
    )
    assert list(config.asdict().items()) == [
        ("num_atoms", 3),
        ("num_rules", 4),
        ("max_body_len", 3),
        ("naf_probability", 0.5),
        ("constraint_fraction", 0.05),
        ("seed", 7),
    ]
    assert pickle.loads(pickle.dumps(config)) == config


def test_config_replace_validates_the_copy():
    config = GenConfig(num_atoms=3, num_rules=4, seed=7)
    assert config.replace(seed=8, num_rules=2) == GenConfig(3, 2, seed=8)
    assert config.seed == 7
    with pytest.raises(ConfigError, match="seed must fit in 64 unsigned bits"):
        config.replace(seed=2**64)
    with pytest.raises(ConfigError, match="num_atoms must be an integer"):
        config.replace(num_atoms=True)
    with pytest.raises(TypeError):
        config.replace(atoms=3)


def test_header_round_trips_config():
    config = GenConfig(num_atoms=3, num_rules=4, seed=7)
    text = render_with_header(config, gen_random(config))
    header = text.splitlines()[0]
    assert header.startswith("% genconfig: ")
    assert GenConfig(**json.loads(header[len("% genconfig: "):])) == config
    # the body parses back to the same program
    assert parse_program(text) == gen_random(config)


def test_generated_programs_parse_and_solve():
    for seed in range(25):
        config = GenConfig(num_atoms=5, num_rules=8, seed=seed)
        program = parse_program(print_program(gen_random(config)))
        solve_grasp(program)


def _proper_colorings(n, edges, colors):
    count = 0
    for assignment in product(range(colors), repeat=n):
        if all(assignment[u] != assignment[v] for u, v in edges):
            count += 1
    return count


def test_coloring_cycle_four():
    edges = cycle_graph(4)
    program = gen_coloring(4, edges, 3)
    models = solve_grasp(program)
    assert len(models) == _proper_colorings(4, edges, 3) == 18
    assert set(models) == set(enumerate_stable(program))


def test_coloring_complete_four_unsat():
    edges = complete_graph(4)
    program = gen_coloring(4, edges, 3)
    assert solve_grasp(program) == []
    assert _proper_colorings(4, edges, 3) == 0


def test_coloring_models_are_proper_colorings():
    program = gen_coloring(3, cycle_graph(3), 3)
    for model in solve_grasp(program):
        chosen = {a for a in model if a.startswith("col_")}
        assert len(chosen) == 3  # exactly one color per node


def _directed_ham_cycles(n):
    count = 0
    for perm in permutations(range(1, n)):
        count += 1  # every cyclic order 0 -> perm -> 0 is one directed cycle
    return count


def test_hamiltonian_complete_four():
    program = gen_hamiltonian(4)
    models = solve_grasp(program)
    assert len(models) == _directed_ham_cycles(4) == 6
    for model in models:
        chosen = sorted(a for a in model if a.startswith("go_"))
        assert len(chosen) == 4


def test_hamiltonian_no_cycle_possible():
    # a path graph has no hamiltonian cycle
    program = gen_hamiltonian(3, [(0, 1), (1, 2)])
    assert solve_grasp(program) == []


def test_gen_classic_dispatch():
    assert gen_classic("coloring", nodes=3, edges=cycle_graph(3)).atoms
    assert gen_classic("hamiltonian", nodes=3).atoms
    with pytest.raises(ConfigError):
        gen_classic("sudoku")
