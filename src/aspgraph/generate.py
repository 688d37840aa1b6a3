"""Random program generation and classic benchmark encodings.

Random generation is reproducible: the same ``GenConfig`` gives the same
program on every platform and on Python 3.10 to 3.13, which
``tests/test_generate.py`` pins. The configuration is serialized into a
header comment, so any generated file can be regenerated.

``gen_random`` reads a private ``random.Random(config.seed)`` (Mersenne
Twister, Matsumoto & Nishimura 1998) in this order, per rule:

1. ``random() < constraint_fraction`` makes the rule headless;
2. the body length: ``1 + below(max_body_len)`` if headless, else
   ``below(max_body_len + 1)``;
3. per literal, at most ``4 * length + 16`` times until the body is
   full: the atom index ``below(num_atoms)``, then ``random() <
   naf_probability`` for negation; a literal already in the body is
   dropped;
4. the head atom ``below(num_atoms)`` if the rule has one.

``below(m)`` draws ``getrandbits(m.bit_length())`` again while the result
is at least m: the draws that ``random.Random.choice`` and ``randint`` make
for an index below m on these Python versions. Atom i is named ``x{i}``.
"""

from __future__ import annotations

import random

from .syntax import Literal, Program, Rule, print_program


class ConfigError(ValueError):
    """Invalid generator configuration."""


class GenConfig:
    """A validated, immutable random-generation configuration: equal and
    hashed as the tuple of its fields."""

    __slots__ = (
        "num_atoms",
        "num_rules",
        "max_body_len",
        "naf_probability",
        "constraint_fraction",
        "seed",
    )

    def __init__(
        self,
        num_atoms: int,
        num_rules: int,
        max_body_len: int = 3,
        naf_probability: float = 0.5,
        constraint_fraction: float = 0.05,
        seed: int = 0,
    ):
        integers = {
            "num_atoms": num_atoms,
            "num_rules": num_rules,
            "max_body_len": max_body_len,
            "seed": seed,
        }
        fractions = {"naf_probability": naf_probability, "constraint_fraction": constraint_fraction}
        # bool is a subclass of int, so it is refused first
        for name, value in integers.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name, value in fractions.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        for name in ("num_atoms", "num_rules", "max_body_len"):
            if integers[name] < 1:
                raise ConfigError(f"{name} must be positive")
        for name, value in fractions.items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be within [0, 1]")
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        values = (num_atoms, num_rules, max_body_len, naf_probability, constraint_fraction, seed)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return GenConfig, self._fields()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.asdict().items())
        return f"GenConfig({fields})"

    def asdict(self) -> dict:
        """The fields by name, in declaration order."""
        return dict(zip(self.__slots__, self._fields()))

    def replace(self, **changes) -> GenConfig:
        """A copy with some fields changed, validated as a new config."""
        return GenConfig(**{**self.asdict(), **changes})


def gen_random(config: GenConfig) -> Program:
    """Seed-deterministic random program.

    Heads are uniform over the atom pool, body literals uniform with the
    naf flag drawn per ``naf_probability``, a ``constraint_fraction`` share
    of rules is headless, and no rule carries duplicate body literals. The
    draws are those the module docstring lists, in its order.
    """
    rng = random.Random(config.seed)
    getrandbits = rng.getrandbits
    draw = rng.random

    def below(m: int) -> int:
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        return r

    n = config.num_atoms
    bits = n.bit_length()
    naf = config.naf_probability
    new = tuple.__new__  # skips the named tuples' Python-level __new__
    atoms = [f"x{i}" for i in range(n)]
    # literals[i] is x_i and literals[n + i] is not x_i
    literals = [new(Literal, (atom, False)) for atom in atoms]
    literals += [new(Literal, (atom, True)) for atom in atoms]
    rules: list[Rule] = []
    for index in range(config.num_rules):
        headless = draw() < config.constraint_fraction
        if headless:
            length = 1 + below(config.max_body_len)
        else:
            length = below(config.max_body_len + 1)
        body: list[Literal] = []
        seen: set[int] = set()
        # The first draw always enters the body, so a headless rule is
        # never empty. The atom index is below(n), inlined.
        for _ in range(4 * length + 16 if length else 0):
            i = getrandbits(bits)
            while i >= n:
                i = getrandbits(bits)
            if draw() < naf:
                i += n
            if i not in seen:
                seen.add(i)
                body.append(literals[i])
                if len(body) == length:
                    break
        head = None if headless else atoms[below(n)]
        rules.append(new(Rule, (head, tuple(body), index)))
    return Program(tuple(rules))


def render_with_header(config: GenConfig, program: Program) -> str:
    import json  # loaded only by the commands that write a header

    return f"% genconfig: {json.dumps(config.asdict(), sort_keys=True)}\n" + print_program(
        program
    )


def cycle_graph(n: int) -> list[tuple[int, int]]:
    if n < 3:
        raise ConfigError("cycle graph needs at least 3 nodes")
    return [(i, (i + 1) % n) for i in range(n)]


def complete_graph(n: int) -> list[tuple[int, int]]:
    if n < 2:
        raise ConfigError("complete graph needs at least 2 nodes")
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def gen_coloring(
    nodes: int, edges: list[tuple[int, int]], colors: int = 3
) -> Program:
    """Ground graph-coloring program: an each-node color choice through
    mutually exclusive naf rules, and one constraint per edge and color."""
    if nodes < 1 or colors < 2:
        raise ConfigError("coloring needs >= 1 node and >= 2 colors")
    if any(not (0 <= u < nodes and 0 <= v < nodes) or u == v for u, v in edges):
        raise ConfigError("edge endpoints must be distinct nodes in range")
    rules: list[Rule] = []
    for v in range(nodes):
        for c in range(colors):
            body = tuple(
                Literal(f"col_{v}_{other}", negated=True)
                for other in range(colors)
                if other != c
            )
            rules.append(Rule(f"col_{v}_{c}", body, len(rules)))
    for u, v in edges:
        for c in range(colors):
            body = (Literal(f"col_{u}_{c}"), Literal(f"col_{v}_{c}"))
            rules.append(Rule(None, body, len(rules)))
    return Program(tuple(rules))


def gen_hamiltonian(
    nodes: int, edges: list[tuple[int, int]] | None = None
) -> Program:
    """Ground Hamiltonian-cycle program over a digraph (default: complete).

    Each arc is an in/out choice; constraints enforce at most one chosen
    successor and predecessor per node and reachability of every node from
    node 0 along chosen arcs (closing the cycle back into 0).
    """
    if nodes < 2:
        raise ConfigError("hamiltonian needs at least 2 nodes")
    if edges is None:
        arcs = [(u, v) for u in range(nodes) for v in range(nodes) if u != v]
    else:
        arcs = list(edges)
        if any(not (0 <= u < nodes and 0 <= v < nodes) or u == v for u, v in arcs):
            raise ConfigError("arc endpoints must be distinct nodes in range")
    rules: list[Rule] = []

    def add(head, body):
        rules.append(Rule(head, tuple(body), len(rules)))

    for u, v in arcs:
        add(f"go_{u}_{v}", [Literal(f"skip_{u}_{v}", negated=True)])
        add(f"skip_{u}_{v}", [Literal(f"go_{u}_{v}", negated=True)])
    by_src: dict[int, list[int]] = {}
    by_dst: dict[int, list[int]] = {}
    for u, v in arcs:
        by_src.setdefault(u, []).append(v)
        by_dst.setdefault(v, []).append(u)
    for u, targets in sorted(by_src.items()):
        for i, v in enumerate(sorted(targets)):
            for w in sorted(targets)[i + 1 :]:
                add(None, [Literal(f"go_{u}_{v}"), Literal(f"go_{u}_{w}")])
    for v, sources in sorted(by_dst.items()):
        for i, u in enumerate(sorted(sources)):
            for w in sorted(sources)[i + 1 :]:
                add(None, [Literal(f"go_{u}_{v}"), Literal(f"go_{w}_{v}")])
    for u, v in arcs:
        if u == 0:
            add(f"reach_{v}", [Literal(f"go_{u}_{v}")])
        else:
            add(f"reach_{v}", [Literal(f"reach_{u}"), Literal(f"go_{u}_{v}")])
    for v in range(nodes):
        add(None, [Literal(f"reach_{v}", negated=True)])
    return Program(tuple(rules))


def gen_classic(problem: str, **params) -> Program:
    """Dispatch for the classic encodings: 'coloring' or 'hamiltonian'."""
    if problem == "coloring":
        return gen_coloring(**params)
    if problem == "hamiltonian":
        return gen_hamiltonian(**params)
    raise ConfigError(f"unknown classic problem {problem!r}")
