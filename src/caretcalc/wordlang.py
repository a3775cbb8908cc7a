"""Text formats for generator words, trees, and tree pairs.

These grammars are the package's wire formats (see FORMATS.md):

    word  :=  ws [ letter (sep letter)* ] ws
    letter:=  "x" digits [ "^" signed-nonzero-int ]
    sep   :=  " "+ | "*"
    tree  :=  "." | "(" tree tree ")"
    pair  :=  tree "|" tree

Canonical output uses a single space between letters and omits "^1".
Parsing never crashes: malformed text raises ParseError with a byte
offset, `expected`, and `found`.  A word is its runs: "x1^-3" is the one
run (1, -3), never spelled out, and "x1^3 x1" the one run (1, 4), since
adjacent runs of one index and sign merge; an exponent of 0 is rejected.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import ParseError
from .group_ops import GeneratorWord
from .tree_core import CaretTree, TreePairDiagram, count_carets


@dataclass(frozen=True)
class ParseDiagnostic:
    offset: int
    expected: str
    found: str

    def __str__(self) -> str:
        return f"at offset {self.offset}: expected {self.expected}, found {self.found}"


# Every scanner reads its text with _END appended, which no rule takes, so
# it moves a local index and never checks for the end of the string.
_END = "\0"


def _fail(padded: str, at: int, expected: str):
    found = repr(padded[at]) if at < len(padded) - 1 else "end of input"
    diag = ParseDiagnostic(at, expected, found)
    raise ParseError(str(diag), diag)


def _skip_spaces(padded: str, at: int) -> int:
    while padded[at] == " ":
        at += 1
    return at


def _digits_end(padded: str, at: int) -> int:
    # ASCII only: str.isdigit also takes other scripts' digits, which
    # int() reads, and superscripts, which int() rejects
    while "0" <= padded[at] <= "9":
        at += 1
    return at


def _digit_limit() -> int:
    """The most digits a number may have: CPython's default cap on int()
    of decimal text, or the interpreter's own cap when that is lower.  A
    longer number is refused by its length, before int(), so every Python
    gives a parse error rather than int()'s own."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(4300, limit or 4300)


def _number(padded: str, mark: int, what: str, limit: int) -> tuple[int, int]:
    """The number whose digits start at ``mark``, and the position past them."""
    at = _digits_end(padded, mark)
    if at == mark:
        _fail(padded, at, f"{what} (digits)")
    if at - mark > limit:
        diag = ParseDiagnostic(mark, f"{what} of at most {limit} digits",
                               f"{at - mark} digits")
        raise ParseError(str(diag), diag)
    return int(padded[mark:at]), at


def parse_word(text: str) -> GeneratorWord:
    """Parse generator-word notation like "x2 x1^2 x0^-1" or "x2*x1*x0"
    into its runs.  Nothing is spelled out, so a caller can see what a
    word costs before building it."""
    end = len(text)
    padded = text + _END
    limit = _digit_limit()
    at = _skip_spaces(padded, 0)
    runs: list[tuple[int, int]] = []
    if at == end:
        return GeneratorWord()
    while True:
        if padded[at] != "x":
            _fail(padded, at, "a generator letter starting with 'x'")
        index, at = _number(padded, at + 1, "a generator index", limit)
        exponent = 1
        if padded[at] == "^":
            at += 1
            sign = 1
            if padded[at] in "+-":
                sign = -1 if padded[at] == "-" else 1
                at += 1
            mark = at
            magnitude, at = _number(padded, mark, "an exponent", limit)
            if magnitude == 0:
                diag = ParseDiagnostic(mark, "a nonzero exponent", "0")
                raise ParseError(str(diag), diag)
            exponent = sign * magnitude
        runs.append((index, exponent))
        mark = at
        at = _skip_spaces(padded, at)
        if at == end:
            break
        if at == mark:
            if padded[at] != "*":
                _fail(padded, at, "a separator (' ' or '*') or end of input")
            at += 1
    return GeneratorWord(tuple(runs))


def format_word(word: GeneratorWord) -> str:
    """Canonical spelling: one letter per run, "^1" omitted."""
    return " ".join(f"x{index}" if exponent == 1 else f"x{index}^{exponent}"
                    for index, exponent in word.runs)


def _parse_tree_text(padded: str, start: int) -> tuple[str, int]:
    """The tree whose text begins at ``start``, checked against the
    grammar, and the position just past it.  The stack counts the finished
    subtrees of each open caret: a loop, not recursion, so deep nesting
    cannot blow the interpreter stack."""
    at = start
    stack: list[int] = []
    while True:
        ch = padded[at]
        if ch == "(":
            at += 1
            stack.append(0)
            continue
        if ch != ".":
            _fail(padded, at, "'.' or '('")
        at += 1
        while True:
            if not stack:
                return padded[start:at], at
            stack[-1] += 1
            if stack[-1] == 1:
                break
            if padded[at] != ")":
                _fail(padded, at, "')'")
            at += 1
            stack.pop()


def parse_tree(text: str) -> CaretTree:
    """Parse dot-parenthesis tree notation into a tree whose ``root`` is
    the text with its spaces dropped.  A library entry point for one
    tree, as ``parse_pair`` is for a pair: the CLI reads only words,
    through ``parse_word``."""
    padded = text + _END
    tree, at = _parse_tree_text(padded, _skip_spaces(padded, 0))
    at = _skip_spaces(padded, at)
    if at < len(text):
        _fail(padded, at, "end of input")
    return CaretTree(tree)


def parse_pair(text: str) -> TreePairDiagram:
    """Parse "negative|positive" into the reduced pair of that element,
    through ``TreePairDiagram.of``."""
    padded = text + _END
    negative, at = _parse_tree_text(padded, _skip_spaces(padded, 0))
    if padded[at] != "|":
        _fail(padded, at, "'|' between the two trees")
    mark = at + 1
    positive, at = _parse_tree_text(padded, mark)
    at = _skip_spaces(padded, at)
    if at < len(text):
        _fail(padded, at, "end of input")
    n_neg, n_pos = count_carets(negative), count_carets(positive)
    if n_neg != n_pos:
        diag = ParseDiagnostic(
            mark,
            f"a tree with {n_neg} carets to match the first tree",
            f"a tree with {n_pos} carets",
        )
        raise ParseError(str(diag), diag)
    return TreePairDiagram.of(CaretTree(negative), CaretTree(positive))
