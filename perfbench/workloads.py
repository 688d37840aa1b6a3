"""The benchmark's three workloads, each generated from a workload seed.

A workload is a fixed list of programs (``Item``) plus the ops run on each.
Generation only produces program text; parsing is part of every timed solve.
Why each workload exists and which layers it stresses is written down in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from aspgraph.generate import (
    GenConfig,
    cycle_graph,
    gen_coloring,
    gen_hamiltonian,
    gen_random,
)
from aspgraph.syntax import print_program

# The configuration of the paper's benchmark table (and of `aspgraph bench`).
PAPER_CONFIG = dict(
    num_atoms=300,
    num_rules=300,
    max_body_len=3,
    naf_probability=0.5,
    constraint_fraction=0.05,
)
PAPER_PROGRAMS = 100

COLORING_NODES = (5, 6, 7, 8)
HAMILTONIAN_NODES = (3, 4)

# Chain lengths per shape. Justify needs about one interpreter frame per
# level of the tree (two per chain link for the conjunction-node shape), so
# at the default recursion limit the shortest chain of each shape is
# justified and the others raise RecursionError: the lengths sit well clear
# of that threshold on both sides, so the failure count repeats exactly.
CHAIN_LENGTHS = {
    "pos": (300, 800, 2000),
    "naf": (300, 800, 2000),
    "mixed": (150, 600, 1200),
}


@dataclass(frozen=True)
class Item:
    """One program of a workload and what the benchmark does with it."""

    name: str
    text: str
    # Model count known in closed form; None where no reference exists.
    expected_models: int | None = None
    igasp: bool = False
    census: bool = False
    # "all": justify every true atom of every model; or one atom name.
    justify: str | None = None


def paper_random(seed: int) -> list[Item]:
    """PAPER_PROGRAMS programs of the paper's random configuration."""
    rng = random.Random(seed)
    items = []
    for index in range(PAPER_PROGRAMS):
        program_seed = rng.randrange(2**32)
        program = gen_random(GenConfig(seed=program_seed, **PAPER_CONFIG))
        items.append(
            Item(f"random-{index}-{program_seed}", print_program(program), census=True)
        )
    return items


def classic(seed: int) -> list[Item]:
    """3-coloring of C_n and Hamiltonian cycles of the complete digraph K_n.

    The seed relabels the vertices, which renames atoms and reorders rules
    (so helper-node numbering and every name-ordered loop in the engines
    change) but not the answer: C_n has 2^n + 2(-1)^n colorings and K_n has
    (n-1)! Hamiltonian cycles.
    """
    rng = random.Random(seed)
    items = []
    for n in COLORING_NODES:
        perm = rng.sample(range(n), n)
        edges = [(perm[u], perm[v]) for u, v in cycle_graph(n)]
        items.append(
            Item(
                f"coloring-C{n}",
                print_program(gen_coloring(n, edges)),
                expected_models=2**n + 2 * (-1) ** n,
                igasp=True,
                justify="all",
            )
        )
    for n in HAMILTONIAN_NODES:
        perm = rng.sample(range(n), n)
        arcs = [(perm[u], perm[v]) for u in range(n) for v in range(n) if u != v]
        items.append(
            Item(
                f"hamiltonian-K{n}",
                print_program(gen_hamiltonian(n, arcs)),
                expected_models=math.factorial(n - 1),
                igasp=True,
                justify="all",
            )
        )
    return items


def chain_text(shape: str, names: list[str]) -> str:
    """A stratified chain over atoms names[0..n] with exactly one answer set.

    pos:   a_0.  a_i :- a_{i-1}.               (all a_i true)
    naf:   a_i :- not a_{i-1}.  (a_0 rule-less, so the values alternate)
    mixed: a_0.  a_i :- a_{i-1}, not b_i.      (b_i rule-less, all a_i true)
    """
    lines = [] if shape == "naf" else [f"{names[0]}."]
    for i in range(1, len(names)):
        if shape == "pos":
            lines.append(f"{names[i]} :- {names[i - 1]}.")
        elif shape == "naf":
            lines.append(f"{names[i]} :- not {names[i - 1]}.")
        else:
            lines.append(f"{names[i]} :- {names[i - 1]}, not b{i}.")
    return "\n".join(lines) + "\n"


def chain(seed: int) -> list[Item]:
    """Rule chains of three shapes. The seed numbers the chain's atoms in a
    random order, which changes every name-ordered loop in the engines but
    not the work a chain of that length takes."""
    rng = random.Random(seed)
    items = []
    for shape, lengths in CHAIN_LENGTHS.items():
        for n in lengths:
            numbers = rng.sample(range(n + 1), n + 1)
            names = [f"a{k}" for k in numbers]
            # the true atom farthest from the start: in naf, every odd link
            deepest = n if shape != "naf" or n % 2 else n - 1
            items.append(
                Item(
                    f"chain-{shape}-{n}",
                    chain_text(shape, names),
                    expected_models=1,
                    igasp=True,
                    justify=names[deepest],
                )
            )
    return items


WORKLOADS = {
    "paper-random": paper_random,
    "classic": classic,
    "chain": chain,
}
