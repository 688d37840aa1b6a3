"""Reference stable-model enumerator.

Deliberately naive ground truth for differential testing: checks every
interpretation I against the reduct fixpoint condition
``I == least_model(reduct(program, I))`` plus constraint satisfaction.
"""

from __future__ import annotations

from itertools import combinations

from .syntax import Program, Rule

# Constraints survive the reduct as rules with this reserved head; it can
# never clash with user atoms (identifiers must start with a lowercase letter).
FALSE_HEAD = "__false"

DEFAULT_ATOM_CAP = 20


class TooManyAtoms(ValueError):
    """Program exceeds the exhaustive-search atom cap."""


def reduct(program: Program, interpretation: frozenset[str] | set[str]) -> Program:
    """Gelfond-Lifschitz reduct of ``program`` w.r.t. ``interpretation``.

    Rules with a naf-literal whose atom is in the interpretation are dropped;
    remaining naf-literals are stripped. Headless constraints come out as
    rules headed by the reserved FALSE_HEAD atom.
    """
    reduced = []
    for rule in program.rules:
        if any(lit.negated and lit.atom in interpretation for lit in rule.body):
            continue
        positive = tuple(lit for lit in rule.body if not lit.negated)
        head = rule.head if rule.head is not None else FALSE_HEAD
        reduced.append(Rule(head, positive, len(reduced)))
    return Program(tuple(reduced))


def least_model(positive_program: Program) -> frozenset[str]:
    """Least fixpoint of rule application for a naf-free program."""
    if any(lit.negated for rule in positive_program.rules for lit in rule.body):
        raise ValueError("least_model requires a naf-free program")
    derived: set[str] = set()
    pending = list(positive_program.rules)
    changed = True
    while changed:
        changed = False
        remaining = []
        for rule in pending:
            if all(lit.atom in derived for lit in rule.body):
                if rule.head not in derived:
                    derived.add(rule.head)
                    changed = True
            else:
                remaining.append(rule)
        pending = remaining
    return frozenset(derived)


def is_stable(program: Program, interpretation: frozenset[str] | set[str]) -> bool:
    """True iff the interpretation is an answer set of the program."""
    model = least_model(reduct(program, interpretation))
    if FALSE_HEAD in model:
        return False
    return model == frozenset(interpretation)


def enumerate_stable(
    program: Program, atom_cap: int = DEFAULT_ATOM_CAP
) -> list[frozenset[str]]:
    """All answer sets, found by exhaustive search over interpretations.

    Subsets are visited by increasing size, then lexicographically, so
    minimal models surface first while searching. Output is sorted.
    """
    atoms = sorted(program.atoms)
    if len(atoms) > atom_cap:
        raise TooManyAtoms(f"{len(atoms)} atoms exceed the oracle atom cap of {atom_cap}")
    stable = []
    for size in range(len(atoms) + 1):
        for subset in combinations(atoms, size):
            candidate = frozenset(subset)
            if is_stable(program, candidate):
                stable.append(candidate)
    return sorted(stable, key=sorted)
