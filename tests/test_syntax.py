import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspgraph.generate import GenConfig, cycle_graph, gen_coloring, gen_random
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


# -- the record contract: Literal and Rule are immutable named tuples


def test_record_fields_cannot_be_assigned():
    lit = Literal("q", True)
    rule = Rule("p", (lit,), 3)
    for record, name, value in ((lit, "atom", "r"), (lit, "negated", False),
                                (rule, "head", "x"), (rule, "body", ()),
                                (rule, "source_index", 0)):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert (lit, rule) == (Literal("q", True), Rule("p", (Literal("q", True),), 3))


def test_equal_records_hash_alike():
    assert Literal("q") == Literal("q", False)
    assert hash(Literal("q")) == hash(Literal("q", False))
    assert Literal("q") != Literal("q", True)
    body = (Literal("q"), Literal("r", True))
    assert hash(Rule("p", body, 2)) == hash(Rule("p", tuple(body), 2))
    assert len({Rule(None, body), Rule(None, body, 0), Rule(None, body, 1)}) == 2
    # a body deduplicated as a frozenset, the way build_cnr keys rules
    assert frozenset(body + body[:1]) == frozenset(reversed(body))


def test_record_defaults_str_and_repr():
    lit, neg = Literal("q"), Literal("r", True)
    assert (lit.negated, Rule("p", ()).source_index) == (False, 0)
    assert (str(lit), str(neg)) == ("q", "not r")
    assert repr(neg) == "Literal(atom='r', negated=True)"
    rule = Rule("p", (lit, neg), 4)
    assert repr(rule) == (
        "Rule(head='p', body=(Literal(atom='q', negated=False), "
        "Literal(atom='r', negated=True)), source_index=4)"
    )
    fact, constraint = Rule("q", ()), Rule(None, (neg,))
    assert (str(rule), str(fact), str(constraint)) == ("p :- q, not r.", "q.", ":- not r.")
    assert [r.is_fact for r in (rule, fact, constraint)] == [False, True, False]
    assert [r.is_constraint for r in (rule, fact, constraint)] == [False, False, True]


def test_parsed_records_equal_constructed_ones():
    rule = parse_program("p :- q, not r, q.").rules[0]
    assert type(rule) is Rule and all(type(lit) is Literal for lit in rule.body)
    assert rule == Rule("p", (Literal("q"), Literal("r", negated=True)), 0)
    assert parse_program(":- not r.").rules[0] == Rule(None, (Literal("r", True),))


def test_generated_programs_equal_their_reparse():
    for seed in range(5):
        program = gen_random(GenConfig(seed=seed, num_atoms=60, num_rules=80))
        assert parse_program(print_program(program)) == program
    for n in (3, 5, 8):
        program = gen_coloring(n, cycle_graph(n))
        assert parse_program(print_program(program)) == program


def test_comments_parse_like_the_text_without_them():
    with_comments = (
        "% header\n"
        "p :- q, % first conjunct\n"
        "     not r.  % end of rule\n"
        "%% a line of its own\n"
        "q. r :- not p. % last\n"
    )
    without = "\np :- q, \n     not r.  \n\nq. r :- not p. \n"
    assert "%" not in without
    program = parse_program(with_comments)
    assert program == parse_program(without)
    assert print_program(program) == "p :- q, not r.\nq.\nr :- not p.\n"
