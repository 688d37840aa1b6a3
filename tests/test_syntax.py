import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspgraph.syntax import (
    EmptyConstraintError,
    Literal,
    ParseError,
    Program,
    Rule,
    parse_program,
    print_program,
)


def test_parse_normal_rule():
    program = parse_program("p :- q, not r, not p.")
    assert len(program.rules) == 1
    rule = program.rules[0]
    assert rule.head == "p"
    assert rule.body == (Literal("q"), Literal("r", True), Literal("p", True))
    assert program.atoms == {"p", "q", "r"}


def test_parse_fact():
    program = parse_program("q.")
    assert program.rules == (Rule("q", (), 0),)
    assert program.rules[0].is_fact


def test_parse_headless_constraint():
    program = parse_program(":- not q, not r.")
    rule = program.rules[0]
    assert rule.head is None
    assert rule.body == (Literal("q", True), Literal("r", True))


def test_empty_body_after_arrow_is_error():
    with pytest.raises(ParseError):
        parse_program("p :- .")


def test_bare_constraint_rejected():
    with pytest.raises(EmptyConstraintError):
        parse_program(":- .")


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("p :- q,\n not .")
    assert err.value.line == 2
    assert err.value.column == 6


# input -> (error class, message, line, column); one row per message kind,
# plus positions after comments, line breaks, tabs and CRLF
PARSE_ERRORS = [
    ("p :- q@.", ParseError, "unexpected character '@'", 1, 7),
    ("P.", ParseError, "unexpected character 'P'", 1, 1),
    ("p :- . @", ParseError, "unexpected character '@'", 1, 8),
    ("p : q.", ParseError, "unexpected character ':'", 1, 3),
    ("p :- q. -", ParseError, "unexpected character '-'", 1, 9),
    ("pX_1 :- 1q.", ParseError, "unexpected character '1'", 1, 9),
    (", p.", ParseError, "expected rule head or ':-', found ','", 1, 1),
    ("not.", ParseError, "expected rule head or ':-', found 'not'", 1, 1),
    ("p q.", ParseError, "expected ':-' or '.', found 'q'", 1, 3),
    ("p :- .", ParseError, "expected literal, found '.'", 1, 6),
    ("p :- not .", ParseError, "expected atom after 'not', found '.'", 1, 10),
    ("p :- not not q.", ParseError, "expected atom after 'not', found 'not'", 1, 10),
    ("p :- q r.", ParseError, "expected '.', found 'r'", 1, 8),
    ("p :- q", ParseError, "expected '.', found end of input", 1, 7),
    (":- .", EmptyConstraintError, "constraint must have a non-empty body", 1, 1),
    ("q.\n:-\n  .", EmptyConstraintError, "constraint must have a non-empty body", 2, 1),
    ("% a comment\np :- q r.", ParseError, "expected '.', found 'r'", 2, 8),
    ("p :-\n  q,\n  not r. s", ParseError, "expected ':-' or '.', found end of input", 3, 11),
    ("\tp q.", ParseError, "expected ':-' or '.', found 'q'", 1, 4),
    ("p.\r\nq r.", ParseError, "expected ':-' or '.', found 'r'", 2, 3),
    ("p :- q % no dot", ParseError, "expected '.', found end of input", 1, 16),
    ("p :- q % no dot\n", ParseError, "expected '.', found end of input", 2, 1),
]


@pytest.mark.parametrize("text, error, message, line, column", PARSE_ERRORS)
def test_parse_error_contract(text, error, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert type(err.value) is error
    assert str(err.value) == f"{line}:{column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_duplicate_body_literals_deduplicated():
    program = parse_program("p :- q, q, not q.")
    assert program.rules[0].body == (Literal("q"), Literal("q", True))


def test_contradictory_pair_accepted():
    program = parse_program("p :- q, not q.")
    assert len(program.rules[0].body) == 2


def test_comments_and_multiline_rules():
    text = """
    % a comment
    p :-   % another
        q,
        not r.
    q.
    """
    program = parse_program(text)
    assert [r.head for r in program.rules] == ["p", "q"]


def test_not_is_reserved():
    with pytest.raises(ParseError):
        parse_program("not.")
    with pytest.raises(ParseError):
        parse_program("p :- not not q.")


def test_uppercase_atom_rejected():
    with pytest.raises(ParseError):
        parse_program("P :- q.")


def test_rule_order_and_source_index():
    program = parse_program("a. b :- a. :- not b.")
    assert [r.source_index for r in program.rules] == [0, 1, 2]
    assert [r.head for r in program.rules] == ["a", "b", None]


def test_print_single_rules():
    assert print_program(parse_program("p :- not q.")) == "p :- not q.\n"
    assert print_program(parse_program("q.")) == "q.\n"
    assert print_program(parse_program(":- a, not b.")) == ":- a, not b.\n"


def test_round_trip_program_two():
    text = "p :- q, not p. p :- not r."
    program = parse_program(text)
    assert parse_program(print_program(program)) == program
    assert len(program.rules) == 2


def test_atom_table_matches_identifiers():
    program = parse_program("alpha :- beta, not gamma_2. :- alpha.")
    assert program.atoms == {"alpha", "beta", "gamma_2"}


_atom = st.from_regex(r"[a-z][a-zA-Z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s != "not"
)
_literal = st.builds(Literal, _atom, st.booleans())


@st.composite
def _programs(draw):
    rules = []
    for index in range(draw(st.integers(0, 6))):
        body = tuple(
            dict.fromkeys(draw(st.lists(_literal, max_size=4)))
        )
        head = draw(st.one_of(st.none(), _atom))
        if head is None and not body:
            head = draw(_atom)
        rules.append(Rule(head, body, index))
    return Program(tuple(rules))


@given(_programs())
@settings(max_examples=200, deadline=None)
def test_round_trip_identity(program):
    assert parse_program(print_program(program)) == program


@given(st.text(alphabet="pqr:-,. notx\n%", max_size=60))
@settings(max_examples=400, deadline=None)
def test_parse_total_over_garbage(text):
    try:
        parse_program(text)
    except ParseError:
        pass


@given(st.text(max_size=40))
@settings(max_examples=200, deadline=None)
def test_parse_total_over_unicode(text):
    try:
        parse_program(text)
    except ParseError:
        pass


_soup = st.lists(
    st.sampled_from(
        ["p", "q", "not", "ab_1", ":-", ",", ".", " ", "\t", "\n", "\r\n", "% c\n", "%", "@", "X"]
    ),
    max_size=25,
).map("".join)


@given(_soup)
@settings(max_examples=400, deadline=None)
def test_parse_round_trips_or_error_lies_in_text(text):
    try:
        program = parse_program(text)
    except ParseError as err:
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1
    else:
        assert parse_program(print_program(program)) == program
