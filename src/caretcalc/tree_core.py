"""Finite rooted binary trees and tree pair diagrams.

A tree is stored as nested tuples: a caret is a pair ``(left, right)`` and a
missing child is ``None``.  The empty tree (a single exposed leaf) is ``None``.
Carets are numbered 1..n in infix order (left subtree, caret, right subtree)
and leaves 0..n from left to right.  The caret at the top has level 1.

Every walk here is a loop over an explicit stack, so tree depth is bounded
by memory, not by the interpreter's recursion limit.  For the same reason
the walks never compare or hash whole trees: both recurse in C.  An edit
copies only the path from the root to the edited subtree and shares every
other subtree with its input.

Serialized form of a tree::

    tree := "." | "(" tree tree ")"

and a pair is ``negative "|" positive``.  Group elements are represented by
pairs of trees with equal caret counts; a pair is reduced when no caret is
exposed (two leaf children) in both trees over the same pair of leaf numbers.
``reduce`` is the one function that turns a pair into its reduced form;
``TreePairDiagram.of`` only computes the ``reduced`` flag of outside input.

Convention: a caret whose side lies on the left (right) boundary of its tree
is a left (right) caret, everything else is interior.  The top caret sits on
both boundaries; this module classifies it as a right caret throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import MalformedPairError, UnreducedDiagramError

# A tree node: None for a leaf, or a (left, right) tuple for a caret.
Node = Optional[tuple]

LEFT = "left"
RIGHT = "right"
INTERIOR = "interior"


def count_carets(node: Node) -> int:
    if node is None:
        return 0
    total = 0
    stack = [node]
    while stack:
        left, right = stack.pop()
        total += 1
        if left is not None:
            stack.append(left)
        if right is not None:
            stack.append(right)
    return total


def count_leaves(node: Node) -> int:
    return count_carets(node) + 1


def serialize_node(node: Node) -> str:
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


def spine(n: int) -> Node:
    """Right spine with n carets (the all-right 'vine')."""
    node: Node = None
    for _ in range(n):
        node = (None, node)
    return node


def _frames(node: Node, starts: set[int], old: Node) -> dict[int, tuple]:
    """Frame of each subtree ``old`` (a leaf or an exposed caret) whose
    leftmost leaf is in ``starts``.  A frame is (subtree, went_left, parent
    frame), the root's parent frame is None: the chain of parent frames is
    the path to the root.  The preorder scan meets the leaves left to right
    and stops after the last one wanted."""
    found: dict[int, tuple] = {}
    seen, last = 0, max(starts)
    stack = [(node, None, None)]
    while stack and seen <= last:
        frame = stack.pop()
        nd = frame[0]
        if seen in starts and nd == old:
            found[seen] = frame
        if nd is None:
            seen += 1
        else:
            stack += ((nd[1], False, frame), (nd[0], True, frame))
    return found


def _replace(frames: list[tuple], new: Node = None) -> Node:
    """The tree with ``new`` in place of the subtree at each of ``frames``
    (disjoint, all of one tree), copying only their ancestors."""
    copies: dict[int, Node] = {}
    node = new
    for frame in frames:
        node = new
        while frame[2] is not None:
            up = frame[2]
            left, right = copies.get(id(up), up[0])
            node = copies[id(up)] = (node, right) if frame[1] else (left, node)
            frame = up
    return node


def _splice(node: Node, leaf: int, old: Node, new: Node) -> Node:
    """Copy of ``node`` with ``new`` in place of the subtree ``old`` (a leaf
    or an exposed caret) whose leftmost leaf is ``leaf``; ValueError if
    there is none."""
    found = _frames(node, {leaf}, old)
    if not found:
        raise ValueError(f"no subtree {serialize_node(old)} at leaf {leaf}")
    return _replace([found[leaf]], new)


def attach_at_leaf(node: Node, leaf: int, sub: Node) -> Node:
    """Replace leaf number ``leaf`` with the subtree ``sub``."""
    return _splice(node, leaf, None, sub)


def add_caret_at_leaf(node: Node, leaf: int) -> Node:
    return attach_at_leaf(node, leaf, (None, None))


def remove_exposed_at(node: Node, leaf: int) -> Node:
    """Collapse the exposed caret whose leaves are (leaf, leaf + 1)."""
    return _splice(node, leaf, (None, None), None)


def _exposed(node: Node) -> tuple[set[int], int]:
    """Left-leaf numbers of exposed carets, and the number of leaves."""
    starts: set[int] = set()
    seen = 0
    stack = [node]
    while stack:
        nd = stack.pop()
        if nd is None:
            seen += 1
        elif nd == (None, None):
            starts.add(seen)
            seen += 2
        else:
            stack.append(nd[1])
            stack.append(nd[0])
    return starts, seen


def exposed_leaf_starts(node: Node) -> set[int]:
    """Left-leaf numbers of exposed carets (both children leaves)."""
    return _exposed(node)[0]


class TreeSurvey:
    """Structural tables for one tree, indexed by infix caret number.

    Index 0 is unused so that ``left_child[p]`` works directly with caret
    numbers 1..n.  ``on_left_spine`` includes the top caret, which ``kind``
    calls RIGHT.  A survey lives as long as its tree (``CaretTree.survey``
    keeps it), so every table here costs memory per surveyed tree.
    """

    __slots__ = (
        "carets",
        "left_child",
        "right_child",
        "parent",
        "level",
        "kind",
        "on_left_spine",
        "exposed",
    )

    def __init__(self, root: Node):
        n = count_carets(root)
        self.carets = n
        self.left_child = left_child = [None] * (n + 1)
        self.right_child = right_child = [None] * (n + 1)
        self.parent = parent = [None] * (n + 1)
        self.level = levels = [0] * (n + 1)
        self.kind = kinds = [""] * (n + 1)
        self.on_left_spine = on_left_spine = [False] * (n + 1)
        self.exposed = exposed = [False] * (n + 1)
        # In infix order a caret's left child is the last caret seen one
        # level below it, and a right child's parent is the last caret seen
        # one level above it: everything in between lies deeper.
        latest = [0] * (n + 2)
        stack: list = []
        idx = 0
        node, level, on_left, on_right, is_right = root, 1, True, True, False
        while stack or node is not None:
            while node is not None:
                stack.append((node, level, on_left, on_right, is_right))
                node, level, on_right, is_right = node[0], level + 1, False, False
            node, level, on_left, on_right, is_right = stack.pop()
            idx += 1
            left, right = node
            if left is not None:
                child = latest[level + 1]
                left_child[idx] = child
                parent[child] = idx
            if is_right:
                up = latest[level - 1]
                right_child[up] = idx
                parent[idx] = up
            levels[idx] = level
            on_left_spine[idx] = on_left
            kinds[idx] = RIGHT if on_right else LEFT if on_left else INTERIOR
            exposed[idx] = left is None and right is None
            latest[level] = idx
            node, level, on_left, is_right = right, level + 1, False, True


@dataclass(frozen=True)
class CaretTree:
    """Immutable wrapper around a tree node."""

    root: Node

    @property
    def carets(self) -> int:
        return count_carets(self.root)

    @property
    def is_empty(self) -> bool:
        return self.root is None

    def serialize(self) -> str:
        return serialize_node(self.root)

    def survey(self) -> TreeSurvey:
        """Structural tables, built on the first call and kept with the tree."""
        return self._survey

    @cached_property
    def _survey(self) -> TreeSurvey:
        return TreeSurvey(self.root)


@dataclass(frozen=True)
class TreePairDiagram:
    """A pair (negative, positive) of trees with equal caret counts.

    ``reduced`` is trusted by :func:`reduce`; use :meth:`of` for external
    input, which computes it.
    """

    negative: CaretTree
    positive: CaretTree
    reduced: bool

    @classmethod
    def of(cls, negative: CaretTree, positive: CaretTree) -> "TreePairDiagram":
        flag = not _common_exposed(negative.root, positive.root)
        return cls(negative, positive, flag)

    @classmethod
    def from_nodes(cls, negative: Node, positive: Node) -> "TreePairDiagram":
        return cls.of(CaretTree(negative), CaretTree(positive))

    @property
    def carets(self) -> int:
        return self.negative.carets

    @property
    def is_identity(self) -> bool:
        return self.negative.root is None and self.positive.root is None

    def serialize(self) -> str:
        return self.negative.serialize() + "|" + self.positive.serialize()


def _common_exposed(neg: Node, pos: Node) -> set[int]:
    """Leaf numbers where both trees have an exposed caret; raises
    MalformedPairError when the caret counts differ."""
    neg_starts, neg_leaves = _exposed(neg)
    pos_starts, pos_leaves = _exposed(pos)
    if neg_leaves != pos_leaves:
        raise MalformedPairError(
            f"caret counts differ: negative has {neg_leaves - 1}, "
            f"positive has {pos_leaves - 1}"
        )
    return neg_starts & pos_starts


def is_reduced(pair: TreePairDiagram) -> bool:
    return not _common_exposed(pair.negative.root, pair.positive.root)


def _same_shape(a: Node, b: Node) -> bool:
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is not y:
            if x is None or y is None:
                return False
            stack += ((x[0], y[0]), (x[1], y[1]))
    return True


def reduce(pair: TreePairDiagram) -> TreePairDiagram:
    """The reduced pair of the same element.

    A pair flagged ``reduced`` comes back unchanged: the flag is trusted, so
    set it only on pairs known to be reduced (generators, the identity,
    results of this function); :meth:`TreePairDiagram.of` computes it for
    outside input.  Otherwise one scan of each tree looks for carets
    exposed in both over the same leaves.  From each, the cancellation
    climbs both trees while the parents hold it on the same side and their
    other subtrees have the same shape; the largest subtree so shared over
    the same leaves collapses to a leaf.  This ends where cancelling exposed
    carets one at a time, in any order, ends, and costs the paths to those
    carets and the collapsed subtrees, not whole trees.  Raises
    MalformedPairError when the caret counts differ.
    """
    if pair.reduced:
        return pair
    common = _common_exposed(pair.negative.root, pair.positive.root)
    if not common:
        return TreePairDiagram(pair.negative, pair.positive, True)
    neg_frames = _frames(pair.negative.root, common, (None, None))
    pos_frames = _frames(pair.positive.root, common, (None, None))
    climbed: set[int] = set()
    neg_tops, pos_tops = [], []
    for leaf in common:
        neg, pos = neg_frames[leaf], pos_frames[leaf]
        # A climb that reaches a parent an earlier climb went into ends there.
        while neg[2] is None or id(neg[2]) not in climbed:
            up, up_pos, went_left = neg[2], pos[2], neg[1]
            other = 1 if went_left else 0  # the parent's other child
            if (up is None or up_pos is None or went_left != pos[1]
                    or not _same_shape(up[0][other], up_pos[0][other])):
                neg_tops.append(neg)
                pos_tops.append(pos)
                break
            neg, pos = up, up_pos
            climbed.add(id(up))
    return TreePairDiagram(CaretTree(_replace(neg_tops)), CaretTree(_replace(pos_tops)), True)


def canonical_encode(pair: TreePairDiagram) -> str:
    """Serialized reduced pair, usable as a dictionary key."""
    if not pair.reduced:
        raise UnreducedDiagramError(
            "canonical_encode requires a reduced pair; call reduce() first"
        )
    return pair.serialize()
