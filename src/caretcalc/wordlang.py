"""Text formats for generator words, trees, and tree pairs.

These grammars are the package's wire formats (see FORMATS.md):

    word  :=  ws [ letter (sep letter)* ] ws
    letter:=  "x" digits [ "^" signed-nonzero-int ]
    sep   :=  " "+ | "*"
    tree  :=  "." | "(" tree tree ")"
    pair  :=  tree "|" tree

Canonical output uses a single space between letters and omits "^1".
Parsing never crashes: malformed text raises ParseError with a byte
offset, `expected`, and `found`.  Exponents expand, so "x1^-3" is the
three letters (1,-1),(1,-1),(1,-1); an exponent of 0 is rejected.
``parse_runs`` keeps each letter as written, exponent unexpanded.
"""

from __future__ import annotations

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


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def skip_spaces(self) -> int:
        n = 0
        while self.peek() == " ":
            self.pos += 1
            n += 1
        return n

    def fail(self, expected: str):
        found = repr(self.peek()) if not self.at_end() else "end of input"
        diag = ParseDiagnostic(self.pos, expected, found)
        raise ParseError(str(diag), diag)

    def digits(self, what: str) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail(what)
        return int(self.text[start : self.pos])


def parse_runs(text: str) -> list[tuple[int, int]]:
    """Parse generator-word notation like "x2 x1^2 x0^-1" or "x2*x1*x0"
    into one (index, exponent) run per letter as written.  Nothing is
    expanded, so a caller can see what a word costs before building it."""
    cur = _Cursor(text)
    cur.skip_spaces()
    runs: list[tuple[int, int]] = []
    if cur.at_end():
        return runs
    while True:
        if cur.peek() != "x":
            cur.fail("a generator letter starting with 'x'")
        cur.take()
        index = cur.digits("a generator index (digits)")
        exponent = 1
        if cur.peek() == "^":
            cur.take()
            sign = 1
            if cur.peek() in ("+", "-"):
                sign = -1 if cur.take() == "-" else 1
            mark = cur.pos
            magnitude = cur.digits("an exponent (digits)")
            if magnitude == 0:
                diag = ParseDiagnostic(mark, "a nonzero exponent", "0")
                raise ParseError(str(diag), diag)
            exponent = sign * magnitude
        runs.append((index, exponent))
        spaces = cur.skip_spaces()
        if cur.at_end():
            break
        if spaces == 0:
            if cur.peek() != "*":
                cur.fail("a separator (' ' or '*') or end of input")
            cur.take()
    return runs


def expand_runs(runs: list[tuple[int, int]]) -> GeneratorWord:
    """The word of (index, exponent) runs, each exponent spelled out."""
    letters: list[tuple[int, int]] = []
    for index, exponent in runs:
        step = 1 if exponent > 0 else -1
        letters.extend([(index, step)] * abs(exponent))
    return GeneratorWord(tuple(letters))


def parse_word(text: str) -> GeneratorWord:
    """Parse generator-word notation like "x2 x1^2 x0^-1" or "x2*x1*x0"."""
    return expand_runs(parse_runs(text))


def format_word(word: GeneratorWord) -> str:
    """Canonical spelling: adjacent equal letters collapse to an exponent."""
    out: list[str] = []
    letters = list(word)
    i = 0
    while i < len(letters):
        index, sign = letters[i]
        j = i
        while j < len(letters) and letters[j] == (index, sign):
            j += 1
        exponent = sign * (j - i)
        out.append(f"x{index}" if exponent == 1 else f"x{index}^{exponent}")
        i = j
    return " ".join(out)


def _parse_tree_text(cur: _Cursor) -> str:
    """The text of the tree at the cursor, checked against the grammar.
    The stack counts the finished subtrees of each open caret: a loop, not
    recursion, so deep nesting cannot blow the interpreter stack.  The
    scan reads a copy of the text with one character past its end, which
    no tree takes, and moves the cursor only when it stops."""
    start = at = cur.pos
    text = cur.text + " "
    stack: list[int] = []
    while True:
        ch = text[at]
        if ch == "(":
            at += 1
            stack.append(0)
            continue
        if ch != ".":
            cur.pos = at
            cur.fail("'.' or '('")
        at += 1
        while True:
            if not stack:
                cur.pos = at
                return text[start:at]
            stack[-1] += 1
            if stack[-1] == 1:
                break
            if text[at] != ")":
                cur.pos = at
                cur.fail("')'")
            at += 1
            stack.pop()


def parse_tree(text: str) -> CaretTree:
    """Parse dot-parenthesis tree notation; inverse of CaretTree.serialize."""
    cur = _Cursor(text)
    cur.skip_spaces()
    tree = _parse_tree_text(cur)
    cur.skip_spaces()
    if not cur.at_end():
        cur.fail("end of input")
    return CaretTree(tree)


def parse_pair(text: str) -> TreePairDiagram:
    """Parse "negative|positive"; the result is reduced or not as given."""
    cur = _Cursor(text)
    cur.skip_spaces()
    negative = _parse_tree_text(cur)
    if cur.peek() != "|":
        cur.fail("'|' between the two trees")
    cur.take()
    mark = cur.pos
    positive = _parse_tree_text(cur)
    cur.skip_spaces()
    if not cur.at_end():
        cur.fail("end of input")
    n_neg, n_pos = count_carets(negative), count_carets(positive)
    if n_neg != n_pos:
        diag = ParseDiagnostic(
            mark,
            f"a tree with {n_neg} carets to match the first tree",
            f"a tree with {n_pos} carets",
        )
        raise ParseError(str(diag), diag)
    return TreePairDiagram.of(CaretTree(negative), CaretTree(positive))
