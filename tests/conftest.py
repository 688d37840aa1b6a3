import random

import pytest

from aspgraph.graph import Sign
from aspgraph.syntax import parse_program


def random_program_text(rng: random.Random, n_atoms: int, n_rules: int,
                        naf: float = 0.5, constraint_fraction: float = 0.15) -> str:
    """Ad-hoc random program text, independent of the package generator."""
    atoms = [f"x{i}" for i in range(n_atoms)]
    lines = []
    for _ in range(n_rules):
        headless = rng.random() < constraint_fraction
        length = rng.randint(1, 3) if headless else rng.randint(0, 3)
        literals = []
        seen = set()
        for _ in range(length):
            atom, negated = rng.choice(atoms), rng.random() < naf
            if (atom, negated) not in seen:
                seen.add((atom, negated))
                literals.append(f"not {atom}" if negated else atom)
        if headless and not literals:
            continue
        if headless:
            lines.append(f":- {', '.join(literals)}.")
        elif literals:
            lines.append(f"{rng.choice(atoms)} :- {', '.join(literals)}.")
        else:
            lines.append(f"{rng.choice(atoms)}.")
    return "\n".join(lines) + "\n"


# The settings of the paper's random benchmark programs.
PAPER_CONFIG = dict(
    num_atoms=300, num_rules=300, max_body_len=3, naf_probability=0.5, constraint_fraction=0.05
)


def is_effective(edge, w) -> bool:
    """Reference effectiveness of an Edge in a name-keyed world: a positive
    edge from a True node or a negative edge from a False node."""
    value = w.value(edge.src)
    if value is None:
        return False
    return (edge.sign is Sign.POSITIVE) == value


@pytest.fixture
def parse():
    return parse_program
