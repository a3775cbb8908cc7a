import random

import pytest

from caretcalc import canonical_encode, evaluate_word, reduce
from caretcalc.errors import ParseError
from caretcalc.group_ops import GeneratorWord
from caretcalc.wordlang import (
    ParseDiagnostic,
    format_word,
    parse_pair,
    parse_tree,
    parse_word,
)


def test_parse_word_examples():
    assert parse_word("x1^2 x0^-2").letters == ((1, 1), (1, 1), (0, -1), (0, -1))
    assert parse_word("").letters == ()
    assert parse_word("   ").letters == ()
    assert parse_word("x2*x1^2*x0^-1").letters == ((2, 1), (1, 1), (1, 1), (0, -1))
    assert parse_word("x0").letters == ((0, 1),)
    assert parse_word("x10^+2").letters == ((10, 1), (10, 1))
    assert parse_word("  x3   x3  ").letters == ((3, 1), (3, 1))


def test_parse_runs_leave_exponents_unexpanded():
    assert parse_word("x1^2 x0^-2").runs == ((1, 2), (0, -2))
    assert parse_word("x2*x1^999999999 x2").runs == ((2, 1), (1, 999999999), (2, 1))
    assert parse_word("  ").runs == ()
    # adjacent runs of one index and sign merge; opposite signs do not
    assert parse_word("x1^3 x1 x0^-2").runs == ((1, 4), (0, -2))
    assert parse_word("x0 x0^-1 x0").runs == ((0, 1), (0, -1), (0, 1))
    for text in ("x1^2 x0^-2", "x10^+2 x3", "x0 x0^-1", ""):
        assert GeneratorWord(parse_word(text).letters) == parse_word(text)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("y1", 0),
        ("x", 1),
        ("x^2", 1),
        ("x1^0", 3),
        ("x1^-0", 4),
        ("x1^", 3),
        ("x1^x2", 3),
        ("x1**x0", 3),
        ("x1 x", 4),
        ("x1 * x0", 3),
        ("*x1", 0),
    ],
)
def test_parse_word_diagnostics(text, offset):
    with pytest.raises(ParseError) as err:
        parse_word(text)
    assert err.value.diagnostic.offset == offset, err.value


@pytest.mark.parametrize(
    "text,offset,expected,found",
    [
        ("y1", 0, "a generator letter starting with 'x'", "'y'"),
        ("x", 1, "a generator index (digits)", "end of input"),
        ("x^2", 1, "a generator index (digits)", "'^'"),
        ("x1^0", 3, "a nonzero exponent", "0"),
        ("x1^-0", 4, "a nonzero exponent", "0"),
        ("x1^", 3, "an exponent (digits)", "end of input"),
        ("x1^x2", 3, "an exponent (digits)", "'x'"),
        ("x1**x0", 3, "a generator letter starting with 'x'", "'*'"),
        ("x1 x", 4, "a generator index (digits)", "end of input"),
        ("x1 * x0", 3, "a generator letter starting with 'x'", "'*'"),
        ("*x1", 0, "a generator letter starting with 'x'", "'*'"),
        ("x1*", 3, "a generator letter starting with 'x'", "end of input"),
        # digits are ASCII only, though str.isdigit takes all four
        ("x\u0663", 1, "a generator index (digits)", "'\u0663'"),
        ("x\uff11", 1, "a generator index (digits)", "'\uff11'"),
        ("x\u00b2", 1, "a generator index (digits)", "'\u00b2'"),
        ("x1^\u00b2", 3, "an exponent (digits)", "'\u00b2'"),
    ],
)
def test_word_diagnostics_pinned(text, offset, expected, found):
    # every word rejected above, and a trailing '*', with its whole diagnostic
    with pytest.raises(ParseError) as err:
        parse_word(text)
    assert err.value.diagnostic == ParseDiagnostic(offset, expected, found)
    assert str(err.value) == f"at offset {offset}: expected {expected}, found {found}"


def test_over_long_numbers_are_parse_errors():
    # past CPython's default 4,300-digit int() limit: refused by length,
    # at the first digit, so every Python gives this error
    long = "9" * 5000
    for text, offset, what in (
        ("x" + long, 1, "a generator index"),
        ("x1^" + long, 3, "an exponent"),
        ("x0 x2^-" + long + " x1", 7, "an exponent"),
    ):
        with pytest.raises(ParseError) as err:
            parse_word(text)
        assert err.value.diagnostic == ParseDiagnostic(
            offset, f"{what} of at most 4300 digits", "5000 digits")
    # 4,300 digits are still read
    assert parse_word("x" + "9" * 4300 + "^-" + "7" * 4300).runs == (
        (int("9" * 4300), -int("7" * 4300)),)


def test_format_word():
    assert format_word(GeneratorWord(())) == ""
    assert format_word(GeneratorWord(((0, 1),))) == "x0"
    assert format_word(GeneratorWord(((1, 1), (1, 1), (0, -1), (0, -1)))) == "x1^2 x0^-2"
    assert format_word(GeneratorWord(((0, -1), (0, 1)))) == "x0^-1 x0"
    assert format_word(GeneratorWord(((2, 1), (2, 1), (2, 1)))) == "x2^3"
    assert format_word(GeneratorWord(((2, 1), (2, 2), (1, -5)))) == "x2^3 x1^-5"


def test_word_round_trip_random():
    rng = random.Random(83)
    for _ in range(1000):
        letters = tuple(
            (rng.randrange(0, 12), rng.choice((1, -1)))
            for _ in range(rng.randrange(0, 12))
        )
        word = GeneratorWord(letters)
        assert parse_word(format_word(word)).letters == letters


def test_parse_tree_examples():
    assert parse_tree(".").root == "."
    assert parse_tree("(..)").carets == 1
    assert parse_tree("((..).)").root == "((..).)"
    assert parse_tree(" ((..).) ").root == "((..).)"


def test_parse_pair_examples():
    pair = parse_pair("((..).)|(.(..))")
    assert pair.reduced
    assert pair.serialize() == "((..).)|(.(..))"
    unreduced = parse_pair("(..)|(..)")
    assert not unreduced.reduced


def test_parse_pair_count_mismatch():
    with pytest.raises(ParseError) as err:
        parse_pair("(..)|((..).)")
    assert "match the first tree" in str(err.value)


@pytest.mark.parametrize(
    "text",
    ["", "(", "(.)", "(..", "..", "(..))", "x", "((..).·)"],
)
def test_parse_tree_rejects(text):
    with pytest.raises(ParseError):
        parse_tree(text)


@pytest.mark.parametrize("text", ["(..)", "(..)|", "|(..)", "(..)|(..)|(..)"])
def test_parse_pair_rejects(text):
    with pytest.raises(ParseError):
        parse_pair(text)


@pytest.mark.parametrize(
    "parser,text,offset,expected,found",
    [
        (parse_tree, "", 0, "'.' or '('", "end of input"),
        (parse_tree, "(", 1, "'.' or '('", "end of input"),
        (parse_tree, "(.)", 2, "'.' or '('", "')'"),
        (parse_tree, "(..", 3, "')'", "end of input"),
        (parse_tree, "..", 1, "end of input", "'.'"),
        (parse_tree, "(..))", 4, "end of input", "')'"),
        (parse_tree, "x", 0, "'.' or '('", "'x'"),
        (parse_tree, "((..).·)", 6, "')'", "'·'"),
        (parse_pair, "(..)", 4, "'|' between the two trees", "end of input"),
        (parse_pair, "(..)|", 5, "'.' or '('", "end of input"),
        (parse_pair, "|(..)", 0, "'.' or '('", "'|'"),
        (parse_pair, "(..)|(..)|(..)", 9, "end of input", "'|'"),
    ],
)
def test_tree_diagnostics_pinned(parser, text, offset, expected, found):
    # every text rejected above, with its whole diagnostic
    with pytest.raises(ParseError) as err:
        parser(text)
    assert err.value.diagnostic == ParseDiagnostic(offset, expected, found)
    assert str(err.value) == f"at offset {offset}: expected {expected}, found {found}"


def test_pair_round_trip_random():
    rng = random.Random(89)
    for _ in range(1000):
        word = [
            (rng.randrange(0, 4), rng.choice((1, -1)))
            for _ in range(rng.randrange(0, 9))
        ]
        enc = canonical_encode(evaluate_word(word))
        assert canonical_encode(parse_pair(enc)) == enc


def test_deep_nesting_does_not_crash():
    text = "."
    for _ in range(5000):
        text = "(" + text + ".)"
    assert parse_tree(text).root == text
    pair = parse_pair(text + "|" + text)
    assert not pair.reduced
    assert reduce(pair).is_identity


def test_parser_totality_fuzz():
    alphabet = ".()|x0123456789^ *-+qz"
    for seed in range(2000):
        rng = random.Random(seed)
        text = "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 50))
        )
        for parser in (parse_word, parse_tree, parse_pair):
            try:
                parser(text)
            except ParseError:
                pass  # a diagnostic is the expected failure mode
