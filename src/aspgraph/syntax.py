"""Parsing and printing of ground answer set programs.

Concrete syntax is Prolog-style with ``not`` for negation as failure:

    rule    ::= head "." | head ":-" body "." | ":-" body "."
    body    ::= literal ("," literal)*
    literal ::= "not" atom | atom
    atom    ::= [a-z][a-zA-Z0-9_]*

``%`` starts a line comment. Whitespace is insignificant; a rule may span
lines and is terminated by ``.``. ``not`` is a reserved word and cannot be
used as an atom name. A headless rule is an integrity constraint and must
have a non-empty body.

``Literal`` and ``Rule`` are named tuples: immutable, compared and hashed
as tuples of their fields, so a rule body hashes in C. ``Program`` is a
slotted class whose fields cannot be assigned.

``parse_program`` takes the tokens as plain strings with one ``findall``,
in which a character no token can start comes out as a token of its own;
if there is none, it parses that list. Token positions are not tracked:
the line and column of an error are worked out from the text only when a
``ParseError`` is raised.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class ParseError(ValueError):
    """Syntax error with 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class EmptyConstraintError(ParseError):
    """A bare ':- .' constraint with no body literals."""


class Literal(NamedTuple):
    """A body literal: an atom, possibly under negation as failure."""

    atom: str
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else self.atom


class Rule(NamedTuple):
    """A fact (empty body), normal rule, or headless constraint (head None)."""

    head: str | None
    body: tuple[Literal, ...]
    source_index: int = 0

    @property
    def is_fact(self) -> bool:
        return self.head is not None and not self.body

    @property
    def is_constraint(self) -> bool:
        return self.head is None

    def __str__(self) -> str:
        body = ", ".join(str(lit) for lit in self.body)
        if self.head is None:
            return f":- {body}."
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {body}."


class Program:
    """An ordered list of ground rules, immutable: equal when the rules are."""

    __slots__ = ("rules", "_atoms")

    def __init__(self, rules: tuple[Rule, ...]):
        names = {rule.head for rule in rules}
        names.discard(None)  # the head of a constraint
        names.update([lit.atom for rule in rules for lit in rule.body])
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_atoms", frozenset(names))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Program, (self.rules,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rules == other.rules
        return NotImplemented

    def __hash__(self):
        return hash((self.rules,))

    def __repr__(self) -> str:
        return f"Program(rules={self.rules!r})"

    @property
    def atoms(self) -> frozenset[str]:
        return self._atoms

    def extended(self, extra_rules) -> Program:
        """A new program with rules appended, source indexes continuing."""
        base = len(self.rules)
        renumbered = tuple(
            Rule(r.head, r.body, base + i) for i, r in enumerate(extra_rules)
        )
        return Program(self.rules + renumbered)

    def __str__(self) -> str:
        return print_program(self)


# A comment, an identifier, ':-', ',' or '.'; the last alternative takes a
# character no token can start, so scanning skips nothing but whitespace.
_TOKEN_RE = re.compile(r"%[^\n]*|[a-z][a-zA-Z0-9_]*|:-|[,.]|\S")
_TOKEN_START = frozenset("abcdefghijklmnopqrstuvwxyz%,.")

# Tokens that cannot name an atom; "" stands for the end of input.
_NOT_ATOM = frozenset(("not", ":-", ",", ".", ""))


def _position(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset pos."""
    line_start = text.rfind("\n", 0, pos) + 1
    return text.count("\n", 0, pos) + 1, pos - line_start + 1


def _token_error(text: str, index: int, message: str, error=ParseError):
    """error at the index-th token of text, comments not counted, or at the
    end of text when the tokens run out."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text) if m[0][0] != "%"]
    pos = starts[index] if index < len(starts) else len(text)
    return error(message, *_position(text, pos))


def parse_program(text: str) -> Program:
    """Parse program text, returning rules in textual order.

    Raises ParseError (with line/column of the first offending token) on
    ill-formed input and EmptyConstraintError for a bare ':- .'. A character
    no token can start is reported before any syntax error.
    """
    tokens = _TOKEN_RE.findall(text)
    bad = {t for t in set(tokens) if t[0] not in _TOKEN_START and t != ":-"}
    if bad:
        first = next(m for m in _TOKEN_RE.finditer(text) if m[0] in bad)
        raise ParseError(
            f"unexpected character {first[0]!r}", *_position(text, first.start())
        )
    if "%" in text:
        tokens = [t for t in tokens if t[0] != "%"]
    last = len(tokens)
    tokens.append("")

    def expected(what: str, i: int):
        found = repr(tokens[i]) if i < last else "end of input"
        return _token_error(text, i, f"expected {what}, found {found}")

    new = tuple.__new__  # skips the named tuples' Python-level __new__
    rules = []
    i = 0
    while i < last:
        head = tokens[i]
        if head == ":-":
            head = None
            i += 1
            if tokens[i] == ".":
                raise _token_error(
                    text, i - 1, "constraint must have a non-empty body",
                    EmptyConstraintError,
                )
        elif head in _NOT_ATOM:
            raise expected("rule head or ':-'", i)
        elif tokens[i + 1] == ".":
            rules.append(new(Rule, (head, (), len(rules))))
            i += 2
            continue
        elif tokens[i + 1] != ":-":
            raise expected("':-' or '.'", i + 1)
        else:
            i += 2
        literals = []
        while True:
            atom = tokens[i]
            negated = atom == "not"
            if negated:
                i += 1
                atom = tokens[i]
                if atom in _NOT_ATOM:
                    raise expected("atom after 'not'", i)
            elif atom in _NOT_ATOM:
                raise expected("literal", i)
            literals.append(new(Literal, (atom, negated)))
            i += 1
            if tokens[i] != ",":
                break
            i += 1
        if tokens[i] != ".":
            raise expected("'.'", i)
        i += 1
        # drops repeated conjuncts, keeping the first of each
        body = tuple(dict.fromkeys(literals) if len(literals) > 1 else literals)
        rules.append(new(Rule, (head, body, len(rules))))
    return Program(tuple(rules))


def print_program(program: Program) -> str:
    """Canonical text form, one rule per line; reparses to an equal Program."""
    return "".join(f"{rule}\n" for rule in program.rules)
