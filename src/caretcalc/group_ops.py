"""Group arithmetic on tree pair diagrams.

The generator with index i has, on its negative side, a right spine of i
carets with one extra caret hanging left at the bottom, and on its positive
side a right spine of i + 2 carets.  For the product g * h we grow both
diagrams until the positive tree of g equals the negative tree of h, then
keep g's negative and h's positive tree and reduce.  With this composition
the defining relations hold, e.g. x0^-1 x1 x0 = x2; the relator tests pin
the orientation, so do not flip either convention independently.

Right multiplication by a single generator only rearranges three adjacent
subtrees along the right spine of the positive tree; apply_generator does
that surgery directly, and multiplying by the generator's diagram must give
the identical result (both routes are kept and tested against each other).

Both routes build an unreduced result and hand it to ``reduce``, the one
place that settles reducedness; their inputs pass through it too, which
is a flag check when they are already reduced.  Tree walks are loops over
explicit stacks, as in ``tree_core``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .tree_core import (
    CaretTree,
    Node,
    TreePairDiagram,
    add_caret_at_leaf,
    attach_at_leaf,
    count_carets,
    count_leaves,
    reduce,
    spine,
)

Letter = tuple[int, int]  # (generator index, sign in {+1, -1})


@dataclass(frozen=True)
class GeneratorWord:
    """A word in the generators, as a tuple of (index, sign) letters."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        for index, sign in self.letters:
            if index < 0:
                raise ValueError(f"generator index must be >= 0, got {index}")
            if sign not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {sign}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def inverse(self) -> "GeneratorWord":
        return GeneratorWord(tuple((i, -s) for i, s in reversed(self.letters)))

    def __mul__(self, other: "GeneratorWord") -> "GeneratorWord":
        return GeneratorWord(self.letters + other.letters)


@dataclass(frozen=True)
class GeneratingSet:
    """Distinct generator indices, sorted ascending; must contain 0."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("generator indices must be distinct")
        if tuple(sorted(self.indices)) != self.indices:
            raise ValueError("generator indices must be sorted ascending")
        if not self.indices or self.indices[0] != 0:
            raise ValueError("a generating set must contain index 0")
        if any(i < 0 for i in self.indices):
            raise ValueError("generator indices must be nonnegative")

    @classmethod
    def of(cls, indices) -> "GeneratingSet":
        return cls(tuple(sorted(set(indices))))

    @property
    def max_index(self) -> int:
        return self.indices[-1]

    @property
    def is_consecutive(self) -> bool:
        return self.indices == tuple(range(len(self.indices)))

    def letters(self) -> tuple[Letter, ...]:
        out: list[Letter] = []
        for i in self.indices:
            out.append((i, 1))
            out.append((i, -1))
        return tuple(out)

    def __contains__(self, index: int) -> bool:
        return index in self.indices

    def __iter__(self):
        return iter(self.indices)


def identity() -> TreePairDiagram:
    return TreePairDiagram(CaretTree(None), CaretTree(None), True)


@lru_cache(maxsize=None)
def _generator_nodes(index: int) -> tuple[Node, Node]:
    hang: Node = ((None, None), None)
    negative = attach_at_leaf(spine(index), index, hang)
    positive = spine(index + 2)
    return negative, positive


def generator_diagram(index: int, sign: int) -> TreePairDiagram:
    """Reduced diagram of the generator x_index or its inverse."""
    if index < 0:
        raise ValueError(f"generator index must be >= 0, got {index}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    negative, positive = _generator_nodes(index)
    if sign == 1:
        return TreePairDiagram(CaretTree(negative), CaretTree(positive), True)
    return TreePairDiagram(CaretTree(positive), CaretTree(negative), True)


def invert(pair: TreePairDiagram) -> TreePairDiagram:
    """Swap the two trees; reduced pairs stay reduced."""
    return TreePairDiagram(pair.positive, pair.negative, pair.reduced)


Grafts = list[tuple[int, Node]]  # (leaf number, subtree), in leaf order


def _overhangs(a: Node, b: Node) -> tuple[Grafts, Grafts]:
    """Walk two trees side by side and list the subtrees of ``b`` hanging
    below leaves of ``a``, and those of ``a`` below leaves of ``b``;
    grafting each list onto its tree gives the smallest tree that refines
    both."""
    below_a: Grafts = []
    below_b: Grafts = []
    leaf_a = leaf_b = 0
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is not None and y is not None:
            stack.append((x[1], y[1]))
            stack.append((x[0], y[0]))
            continue
        if y is not None:
            below_a.append((leaf_a, y))
        elif x is not None:
            below_b.append((leaf_b, x))
        leaf_a += count_leaves(x)
        leaf_b += count_leaves(y)
    return below_a, below_b


def _graft(node: Node, extras: Grafts) -> Node:
    # right to left, so the leaf numbers still to come stay valid
    for leaf, sub in reversed(extras):
        node = attach_at_leaf(node, leaf, sub)
    return node


def multiply(g: TreePairDiagram, h: TreePairDiagram) -> TreePairDiagram:
    """Reduced product g * h via a common refinement of the middle trees."""
    g = reduce(g)
    h = reduce(h)
    into_g, into_h = _overhangs(g.positive.root, h.negative.root)
    negative = _graft(g.negative.root, into_g)
    positive = _graft(h.positive.root, into_h)
    return reduce(TreePairDiagram(CaretTree(negative), CaretTree(positive), False))


def _spine_split(node: Node) -> list[Node]:
    """Left subtrees hanging off the right spine, top to bottom."""
    out: list[Node] = []
    while node is not None:
        out.append(node[0])
        node = node[1]
    return out


def _spine_build(subtrees: list[Node], rest: Node = None) -> Node:
    node = rest
    for sub in reversed(subtrees):
        node = (sub, node)
    return node


def apply_generator(pair: TreePairDiagram, index: int, sign: int) -> TreePairDiagram:
    """Right-multiply by x_index^sign using direct subtree surgery.

    The move acts on the subtrees hanging left off the right spine of the
    positive tree, numbered from 0 at the top.  For sign +1 subtree number
    index must be a caret A ^ B, and with C the spine below it,
    (A ^ B) ^ C becomes A ^ (B ^ C); sign -1 is the inverse move on
    subtrees index and index + 1.  Spine carets or the caret A ^ B that
    are missing are first added to both trees at the same leaves.
    """
    if index < 0:
        raise ValueError(f"generator index must be >= 0, got {index}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    pair = reduce(pair)
    neg = pair.negative.root
    parts = _spine_split(pair.positive.root)
    need = index + 1 if sign == 1 else index + 2
    if len(parts) < need:
        neg = attach_at_leaf(neg, count_carets(neg), spine(need - len(parts)))
        parts += [None] * (need - len(parts))
    if sign == 1:
        if parts[index] is None:
            neg = add_caret_at_leaf(neg, sum(count_leaves(p) for p in parts[:index]))
            parts[index] = (None, None)
        a, b = parts[index]
        moved = (a, (b, _spine_build(parts[index + 1 :])))
    else:
        moved = ((parts[index], parts[index + 1]), _spine_build(parts[index + 2 :]))
    pos = _spine_build(parts[:index], moved)
    return reduce(TreePairDiagram(CaretTree(neg), CaretTree(pos), False))


def evaluate_word(word: GeneratorWord) -> TreePairDiagram:
    """Fold the word left to right starting from the identity."""
    pair = identity()
    for index, sign in word:
        pair = apply_generator(pair, index, sign)
    return pair


def _leaf_exponents(node: Node) -> list[int]:
    """Exponent of each leaf: carets off the right spine whose leftmost
    descendant leaf is that leaf."""
    counts = [0] * count_leaves(node)
    seen = 0
    stack = [(node, True)]
    while stack:
        nd, on_right_spine = stack.pop()
        if nd is None:
            seen += 1
            continue
        if not on_right_spine:
            counts[seen] += 1
        stack.append((nd[1], on_right_spine))
        stack.append((nd[0], False))
    return counts


def normal_form(pair: TreePairDiagram) -> GeneratorWord:
    """Unique positive-then-negative word for the element.

    The positive part reads the negative tree's leaf exponents in ascending
    index order; the negative part reads the positive tree's in descending
    order.  Evaluating the word returns the original reduced pair.
    """
    pair = reduce(pair)
    letters: list[Letter] = []
    pos_part = _leaf_exponents(pair.negative.root)
    for k, count in enumerate(pos_part):
        letters.extend([(k, 1)] * count)
    neg_part = _leaf_exponents(pair.positive.root)
    for k in range(len(neg_part) - 1, -1, -1):
        letters.extend([(k, -1)] * neg_part[k])
    return GeneratorWord(tuple(letters))
