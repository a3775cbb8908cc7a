"""Finite rooted binary trees and tree pair diagrams.

A tree is its canonical text, and that string is the only form the package
keeps in memory::

    tree := "." | "(" tree tree ")"

A "." is a leaf and "(" L R ")" a caret with subtrees L and R.  Leaves are
numbered 0..n from left to right, which is the order of their dots, and
carets 1..n in infix order (left subtree, caret, right subtree): caret i is
the one whose left subtree ends at leaf i - 1.  Split at its dots, a tree
of n carets falls into n + 2 pieces; piece i, between leaves i - 1 and i,
closes the carets that end at leaf i - 1 and opens those that start at
leaf i.  Two adjacent dots, that is an empty piece, can only be the two
leaves of one caret: ".." marks an exposed caret.

A caret's leaf interval is the run of leaves below it: caret q spans leaves
lo .. hi - 1 and splits them at leaf q, its left subtree holding lo .. q - 1
and its right subtree q .. hi - 1.  A caret whose interval reaches the last
leaf (hi = n + 1) has its right side on the right boundary of the tree and
is a right caret; otherwise it is a left caret when its interval starts at
leaf 0, its left side on the left boundary, and interior when neither
holds.  The top caret spans every leaf, so it is a right caret like the
rest of the right spine; the ")" that end the text close exactly that
spine's carets (``right_spine_carets``).  ``graft`` adds carets at leaves.

Every function here works with string methods, slices and loops, never by
recursion, so tree depth is bounded by memory, not by the interpreter's
recursion limit.  Nested tuples appear only at one boundary:
``serialize_node`` turns a tuple tree (a caret is ``(left, right)``, a leaf
``None``) into text.  A pair is built from outside input as text only, by
``wordlang.parse_pair`` or ``TreePairDiagram.of``.

A pair is ``negative "|" positive``.  Group elements are represented by
pairs of trees with equal caret counts; a pair is reduced when no caret is
exposed in both trees over the same pair of leaf numbers, and every element
of F has exactly one reduced pair (Cannon-Floyd-Parry 1996).  Every
``TreePairDiagram`` is that pair: its constructor refuses any other with
MalformedPairError, after one linear pass over the two texts.
``reduce_text`` is the one loop that reduces, on the two texts, and
``TreePairDiagram.of`` runs it on outside input.  So no operation checks
reducedness again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import MalformedPairError

# A tuple tree, accepted only by serialize_node: None for a leaf, or a
# (left, right) tuple for a caret.
Node = Optional[tuple]


def count_carets(tree: str) -> int:
    return tree.count("(")


def serialize_node(node: Node) -> str:
    """The text of a tuple tree."""
    if node is None:
        return "."
    parts: list[str] = []
    stack: list[object] = [node]
    while stack:
        item = stack.pop()
        if item is None:
            parts.append(".")
        elif isinstance(item, str):
            parts.append(item)
        else:
            left, right = item
            parts.append("(")
            stack.append(")")
            stack.append(right)
            stack.append(left)
    return "".join(parts)


def spine(n: int) -> str:
    """Right spine with n carets (the all-right 'vine')."""
    return "(." * n + "." + ")" * n


def graft(tree: str, subtrees: dict[int, str]) -> str:
    """``tree`` with ``subtrees[leaf]`` in place of each of those leaves,
    which come in ascending order; ValueError for a leaf it lacks."""
    out: list[str] = []
    done, at, seen = 0, -1, -1
    for leaf, sub in subtrees.items():
        if leaf <= seen:
            raise ValueError(f"leaf {leaf} is negative or out of order")
        for _ in range(leaf - seen):
            at = tree.find(".", at + 1)
            if at < 0:
                raise ValueError(f"no leaf {leaf} in {tree}")
        out += (tree[done:at], sub)
        done, seen = at + 1, leaf
    out.append(tree[done:])
    return "".join(out)


def right_spine_carets(tree: str) -> int:
    """Carets of the right spine: the ")" that end the text."""
    return len(tree) - len(tree.rstrip(")"))


# One character per leaf: "1" for the left leaf of an exposed caret, "0"
# for any other leaf.
_MARKS = str.maketrans(".", "0", "()")


def _exposure_marks(tree: str) -> str:
    return tree.replace("..", "1.").translate(_MARKS)


class TreeSurvey:
    """The leaf interval of every caret of one tree, by infix caret number.

    Caret q spans leaves ``lo[q] .. hi[q] - 1`` and splits them at leaf q.
    Index 0 is unused, so that both lists take caret numbers 1..n directly.
    One scan of the tree's pieces builds them; nothing is kept with the
    tree, so each call of ``CaretTree.survey`` scans again.
    """

    __slots__ = ("carets", "lo", "hi")

    def __init__(self, root: str):
        pieces = root.split(".")
        n = len(pieces) - 2
        self.carets = n
        self.lo = lo = [0] * (n + 1)
        self.hi = hi = [n + 1] * (n + 1)
        # Piece q closes one level per ")", numbers caret q at the level it
        # comes back to and opens one level per "(".  A caret starts at the
        # piece that opened its level and ends at the piece that closes it;
        # the carets still open after piece n reach the last leaf.
        caret_at = [0] * (n + 2)  # the caret numbered at each open level
        opened_at = [0] * (n + 2)  # the piece that opened each level
        depth = len(pieces[0])
        for q in range(1, n + 1):
            piece = pieces[q]
            opens = piece.count("(")
            level = depth - (len(piece) - opens)
            for closed in range(level + 1, depth + 1):
                hi[caret_at[closed]] = q
            lo[q] = opened_at[level]
            caret_at[level] = q
            depth = level + opens
            for opened in range(level + 1, depth + 1):
                opened_at[opened] = q


@dataclass(frozen=True)
class CaretTree:
    """Immutable wrapper around a tree's text."""

    root: str

    @property
    def carets(self) -> int:
        return count_carets(self.root)

    def survey(self) -> TreeSurvey:
        """Every caret's leaf interval, built afresh by one scan of the tree."""
        return TreeSurvey(self.root)


@dataclass(frozen=True)
class TreePairDiagram:
    """The reduced pair (negative, positive) of an element: two trees with
    equal caret counts and no caret exposed in both over the same leaves.

    The constructor raises MalformedPairError for trees of unequal caret
    counts or with a caret exposed in both over the same leaves;
    :meth:`of` reduces outside input.
    """

    negative: CaretTree
    positive: CaretTree

    def __post_init__(self):
        common = _common_exposed(self.negative.root, self.positive.root)
        if common:
            raise MalformedPairError(
                f"pair is not reduced: the caret over leaves {common[0]} and "
                f"{common[0] + 1} is exposed in both trees"
            )

    @classmethod
    def of(cls, negative: CaretTree, positive: CaretTree) -> "TreePairDiagram":
        """The reduced pair of the element ``negative | positive``.
        Raises MalformedPairError when the caret counts differ."""
        neg, pos = reduce_text(negative.root, positive.root)
        return cls(CaretTree(neg), CaretTree(pos))

    @property
    def reduced(self) -> bool:
        """No caret exposed in both trees over the same leaves, read off
        the two texts.  True for every pair the constructor accepts."""
        return not _common_exposed(self.negative.root, self.positive.root)

    @property
    def carets(self) -> int:
        return self.negative.carets

    @property
    def is_identity(self) -> bool:
        """Both trees bare: the identity, as a reduced pair.  The in-ball
        test of radius 0 reads it."""
        return self.negative.root == "." and self.positive.root == "."

    def serialize(self) -> str:
        return self.negative.root + "|" + self.positive.root


def _common_exposed(neg: str, pos: str) -> list[int]:
    """Left-leaf numbers of the carets exposed in both trees over the same
    leaves, ascending: where the two trees' exposure marks, read as binary
    numbers, share a 1.  Raises MalformedPairError when the caret counts
    differ."""
    marks, other = _exposure_marks(neg), _exposure_marks(pos)
    if len(marks) != len(other):
        raise MalformedPairError(
            f"caret counts differ: negative has {len(marks) - 1}, "
            f"positive has {len(other) - 1}"
        )
    both = int(marks, 2) & int(other, 2)
    if not both:
        return []
    marks = format(both, f"0{len(marks)}b")
    leaves = []
    leaf = marks.find("1")
    while leaf >= 0:
        leaves.append(leaf)
        leaf = marks.find("1", leaf + 1)
    return leaves


def _collapse(tree: str, leaves: list[int]) -> str:
    """``tree`` with the exposed caret over each of ``leaves`` (left-leaf
    numbers, ascending) made a leaf.  The scan goes from one ".." to the
    next, counting the dots it passes; each "(..)" to go is overwritten
    with a "." between marks, and the marks are dropped at the end."""
    text = bytearray(tree, "ascii")
    # the last ".." passed and the dots before it, starting from a virtual
    # ".." just before the text
    at = dots = -2
    for leaf in leaves:
        while dots != leaf:
            after = tree.find("..", at + 2)
            dots += 2 + tree.count(".", at + 2, after)
            at = after
        text[at - 1 : at + 3] = b"x.xx"
    return text.translate(None, b"x").decode("ascii")


def reduce_text(neg: str, pos: str) -> tuple[str, str]:
    """The texts of the reduced pair of the element ``neg | pos``.

    Each round collapses every caret exposed in both trees over the same
    leaves, and the rounds go on until there is none.  Cancelling exposed
    carets one at a time, in any order, ends in the same pair.  Raises
    MalformedPairError when the caret counts differ.
    """
    while True:
        common = _common_exposed(neg, pos)
        if not common:
            return neg, pos
        neg, pos = _collapse(neg, common), _collapse(pos, common)


def reduce(pair: TreePairDiagram) -> TreePairDiagram:
    """``pair`` itself: a ``TreePairDiagram`` is already the reduced pair
    of its element.  Kept because callers written when pairs could be
    unreduced still call it, among them ``bench/workloads.py``, whose
    tracer also wraps it; ``TreePairDiagram.of`` reduces two trees."""
    return pair


def canonical_encode(pair: TreePairDiagram) -> str:
    """Serialized reduced pair, usable as a dictionary key."""
    return pair.serialize()
