"""Group arithmetic on tree pair diagrams.

The generator with index i has, on its negative side, a right spine of i
carets with one extra caret hanging left at the bottom, and on its positive
side a right spine of i + 2 carets.  For the product g * h we grow both
diagrams until the positive tree of g equals the negative tree of h, then
keep g's negative and h's positive tree and reduce.  With this composition
the defining relations hold, e.g. x0^-1 x1 x0 = x2; the relator tests pin
the orientation, so do not flip either convention independently.

Right multiplication by a single generator only rearranges three adjacent
subtrees along the right spine of the positive tree; ``apply_letter`` does
that surgery directly on the two texts of a pair and returns the texts of
the reduced result, and multiplying by the generator's diagram must give
the identical result (both routes are kept and tested against each other).
The step has two halves.  ``plan`` reads only the positive tree: it grows
its spine, walks down it with ``_subtree_end``, the subtree cutter of
``_overhangs``, reading no subtree below the ones that move, cuts and
moves the subtrees, and says what the negative tree needs: growth at its
last leaf, and then a caret hung from a leaf, or a check of a leaf for a
common caret.  ``enact`` applies a plan to one negative tree, and
``apply_letter`` is ``enact`` of ``plan``, the one code path of the step.
Ball growth plans a letter once per positive tree and enacts it on every
element of its frontier that shares the tree.  ``apply_generator``
is the same step on a ``TreePairDiagram``: it checks the letter, calls
``apply_letter`` and wraps the result once.

A word is its runs: ``GeneratorWord`` holds (index, exponent) pairs,
adjacent ones of one index and sign merged, and ``evaluate_word`` and
``normal_form`` read and write runs; only ``GeneratorWord.letters``
spells a word out.  A run x_i^a needs no product at all: ``_run``
writes its reduced pair down, a right spine of i carets over a left comb
of a + 1 carets against a right spine of i + a + 1 carets (the standard
pair of x_i, Cannon-Floyd-Parry 1996, with its left caret grown into a
comb).  Letters and runs of up to 4 letters are folded by
``apply_letter`` into blocks of at most 64 letters, each started from its
first run written down, and a longer run is written down.  The blocks
and the written runs are multiplied as a balanced product, so each takes
part in O(log L) products for a word of L letters, and no step runs over
the whole product.  ``x0^k`` costs O(k), and so does its normal form, read
off the trees' leaves as runs.

Every ``TreePairDiagram`` is reduced (see ``tree_core``), and
``reduce_text`` is the one loop that reduces.  ``multiply`` builds an
unreduced product of two reduced pairs and hands it over; any diagram of
g * h reduces to the same pair, so its inputs need no reduction of their
own.  ``apply_letter`` starts from a reduced pair, so it hands its result
over only when the caret the move creates is common to both trees, and
otherwise returns the cut texts as they are.  Trees are text, as in
``tree_core``, and every edit here is a scan and a few slices of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from typing import Iterable, Iterator, Optional

from .tree_core import (
    CaretTree,
    TreePairDiagram,
    graft,
    reduce_text,
    spine,
)

Letter = tuple[int, int]  # (generator index, sign in {+1, -1})
Run = tuple[int, int]  # (generator index, nonzero exponent)


def _check_letter(index: int, sign: int) -> None:
    if index < 0:
        raise ValueError(f"generator index must be >= 0, got {index}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")


def _checked_key(run: Run) -> tuple[int, bool]:
    """The index and sign of a run, which ``groupby`` merges on;
    ValueError for a negative index or an exponent that is 0 or not an
    int."""
    index, exponent = run
    if not isinstance(index, int) or index < 0:
        raise ValueError(f"generator index must be an int >= 0, got {index!r}")
    if not isinstance(exponent, int) or exponent == 0:
        raise ValueError(f"exponent must be a nonzero int, got {exponent!r}")
    return index, exponent > 0


def _merged(runs: Iterable[Run]) -> Iterator[Run]:
    """The runs in order, adjacent runs of one index and sign summed into
    one, each checked as it is read, so the first bad run is the one
    named.  A run that merges with none is passed on as it is."""
    for _, group in groupby(runs, _checked_key):
        run = next(group)
        for _, exponent in group:
            run = run[0], run[1] + exponent
        yield run


@dataclass(frozen=True)
class GeneratorWord:
    """A word in the generators, as a tuple of (index, exponent) runs.

    Adjacent runs of one index and sign are merged when the word is
    built, so each word has one tuple of runs and ``==`` compares words.
    ``letters`` and iteration spell the word out as (index, +1 or -1)
    letters, one shared tuple per run; nothing in the package reads them.
    ValueError for a negative index or an exponent that is 0 or not an
    int.
    """

    runs: tuple[Run, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(_merged(self.runs)))

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(iter(self))

    def __iter__(self) -> Iterator[Letter]:
        return chain.from_iterable(
            repeat((index, 1 if exponent > 0 else -1), abs(exponent))
            for index, exponent in self.runs
        )


@dataclass(frozen=True)
class GeneratingSet:
    """Distinct generator indices, sorted ascending; must contain 0."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("generator indices must be distinct")
        if tuple(sorted(self.indices)) != self.indices:
            raise ValueError("generator indices must be sorted ascending")
        # sorted, so a negative index would come before 0
        if any(i < 0 for i in self.indices):
            raise ValueError("generator indices must be nonnegative")
        if not self.indices or self.indices[0] != 0:
            raise ValueError("a generating set must contain index 0")

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
    return TreePairDiagram(CaretTree("."), CaretTree("."))


def _run(index: int, sign: int, count: int) -> TreePairDiagram:
    """Reduced pair of x_index^(sign * count), count >= 1, written down:
    the negative tree is a right spine of index carets over a left comb of
    count + 1 carets, the positive tree a right spine of index + count + 1
    carets; sign -1 swaps them.  ValueError for a bad index or sign."""
    _check_letter(index, sign)
    comb = "(." * index + "(" * (count + 1) + "." + ".)" * (count + 1) + ")" * index
    negative, positive = CaretTree(comb), CaretTree(spine(index + count + 1))
    if sign == 1:
        return TreePairDiagram(negative, positive)
    return TreePairDiagram(positive, negative)


def generator_diagram(index: int, sign: int) -> TreePairDiagram:
    """Reduced diagram of the generator x_index or its inverse.

    A library entry point that no subcommand needs: the product with it
    is the independent check of the generator step ``apply_letter``."""
    return _run(index, sign, 1)


def invert(pair: TreePairDiagram) -> TreePairDiagram:
    """Swap the two trees; reduced pairs stay reduced."""
    return TreePairDiagram(pair.positive, pair.negative)


# Depth change of each character; a running sum gives the depth after it.
_STEP = {"(": 1, ".": 0, ")": -1}


def _subtree_end(tree: str, start: int) -> int:
    """End of the subtree whose text begins at ``start``: the first
    position past it where as many ")" as "(" have been read."""
    depth, end = _STEP[tree[start]], start + 1
    while depth:
        depth += _STEP[tree[end]]
        end += 1
    return end


def _overhangs(a: str, b: str) -> tuple[dict[int, str], dict[int, str]]:
    """Walk two trees side by side and map leaves of ``a`` to the subtrees
    of ``b`` hanging below them, and leaves of ``b`` to those of ``a``;
    grafting each onto its tree gives the smallest tree that refines
    both.  Where the texts differ, one has a leaf and the other a caret.
    Leaves are counted on from the last difference, so the walk is linear."""
    below_a: dict[int, str] = {}
    below_b: dict[int, str] = {}
    i = j = 0
    # the dots of a before counted_a and of b before counted_b, which are
    # the positions of the last difference
    leaves_a = leaves_b = counted_a = counted_b = 0
    while i < len(a):
        if a[i] == b[j]:
            i, j = i + 1, j + 1
            continue
        leaves_a += a.count(".", counted_a, i)
        leaves_b += b.count(".", counted_b, j)
        counted_a, counted_b = i, j
        if a[i] == ".":
            end = _subtree_end(b, j)
            below_a[leaves_a] = b[j:end]
            i, j = i + 1, end
        else:
            end = _subtree_end(a, i)
            below_b[leaves_b] = a[i:end]
            i, j = end, j + 1
    return below_a, below_b


def multiply(g: TreePairDiagram, h: TreePairDiagram) -> TreePairDiagram:
    """Reduced product g * h via a common refinement of the middle trees."""
    into_g, into_h = _overhangs(g.positive.root, h.negative.root)
    negative = graft(g.negative.root, into_g)
    positive = graft(h.positive.root, into_h)
    negative, positive = reduce_text(negative, positive)
    return TreePairDiagram(CaretTree(negative), CaretTree(positive))


def _grow_spine(tree: str, carets: int) -> str:
    """``tree`` with a right spine of ``carets`` carets at its last leaf."""
    last = tree.rindex(".")
    return tree[:last] + spine(carets) + tree[last + 1 :]


def _leaf_dot(tree: str, leaf: int) -> int:
    """Position of the dot of leaf number ``leaf``: the first dot left once
    the dots before it are masked."""
    return tree.replace(".", ",", leaf).find(".")


# What a generator step does, read off the positive tree alone: carets to
# grow at the last leaf of both trees, the new positive tree, and the leaf
# of the negative tree that needs more (None when nothing does): a caret
# hung from it when the last field is True, else a check whether the
# created caret is common there.
Plan = tuple[int, str, Optional[int], bool]


def plan(pos: str, index: int, sign: int) -> Plan:
    """The first half of the step by x_index^sign, the half that reads
    only the positive tree ``pos`` of a reduced pair; ``enact`` applies
    it to any negative tree of such a pair.  index must be >= 0 and sign
    +1 or -1.

    The move acts on the subtrees hanging left off the right spine of the
    positive tree, numbered from 0 at the top.  For sign +1 subtree number
    index must be a caret A ^ B, and with C the spine below it,
    (A ^ B) ^ C becomes A ^ (B ^ C); sign -1 is the inverse move on
    subtrees index and index + 1.  Spine carets or the caret A ^ B that
    are missing are first added to both trees at the same leaves.

    Subtree k + 1 starts just past the "(" that ends subtree k, so
    ``index`` cuts reach subtree index, and two more cut the moving pair.

    The pair must be reduced because only the caret the move creates is
    checked: B ^ C for sign +1, X ^ Y for sign -1.  No other caret of
    the positive tree becomes exposed and no leaf number changes, so from
    a reduced pair that caret is the only one that can become common.  It
    can be common only when it is exposed, and then the plan names its
    left leaf for ``enact`` to check.  Growing the spines makes only their bottom
    caret common, and the move always rebuilds it.  When subtree index is
    a leaf L, the caret added to the negative tree over L and L + 1 makes
    L + 1 a right leaf there, so B ^ C, over L + 1 and L + 2, is not
    common.
    """
    need = index + (1 if sign == 1 else 2)
    # the spine is short exactly when the last ``need`` characters are not
    # all ")", so only they are read, not the whole text
    tail = pos[-need:]
    grow = need - (len(tail) - len(tail.rstrip(")")))
    if grow:
        pos = _grow_spine(pos, grow)
    at = 1  # the start of subtree 0, just past the top "("
    for _ in range(index):
        at = _subtree_end(pos, at) + 1
    if sign == -1:
        # (X (Y R)) -> ((X Y) R): the "(" between X and Y moves to before
        # X, and a ")" from the end to after Y
        x_end = _subtree_end(pos, at)
        y_end = _subtree_end(pos, x_end + 1)
        pos = (pos[:at] + "(" + pos[at:x_end] + pos[x_end + 1 : y_end] + ")"
               + pos[y_end:-1])
        created = at
    elif pos[at] == "(":
        # ((A B) C) -> (A (B C)): the "(" of A ^ B moves to after A and
        # its ")" to the end
        a_end = _subtree_end(pos, at + 1)
        b_end = _subtree_end(pos, a_end)
        pos = (pos[:at] + pos[at + 1 : a_end] + "(" + pos[a_end:b_end]
               + pos[b_end + 1 :] + ")")
        created = a_end - 1
    else:
        # subtree index is a leaf: hang a caret from it in both trees
        leaf = pos.count(".", 0, at)
        return grow, pos[:at] + ".(." + pos[at + 1 :] + ")", leaf, True
    if pos.startswith("(..", created):
        # the created caret is exposed: common if its left leaf starts a
        # ".." in the negative tree too
        return grow, pos, pos.count(".", 0, created), False
    return grow, pos, None, False


def enact(neg: str, step: Plan) -> tuple[str, str]:
    """The second half of the step: the texts of the reduced pair that
    ``step``, a ``plan`` of the positive tree, makes of the pair with
    negative tree ``neg``.  It grows the spine, then hangs a caret from
    the named leaf, or runs ``reduce_text`` when the created caret is
    common, which cancels it and whatever that exposes in turn."""
    grow, pos, leaf, hang = step
    if grow:
        neg = _grow_spine(neg, grow)
    if leaf is None:
        return neg, pos
    dot = _leaf_dot(neg, leaf)
    if hang:
        return neg[:dot] + "(..)" + neg[dot + 1 :], pos
    if neg.startswith("..", dot):
        return reduce_text(neg, pos)
    return neg, pos


def apply_letter(neg: str, pos: str, index: int, sign: int) -> tuple[str, str]:
    """The texts of the reduced pair of ``neg | pos`` times x_index^sign,
    by direct subtree surgery: ``enact`` of the ``plan`` of ``pos``.
    ``neg | pos`` must be the texts of a reduced pair, index must be >= 0
    and sign +1 or -1."""
    return enact(neg, plan(pos, index, sign))


def apply_generator(pair: TreePairDiagram, index: int, sign: int) -> TreePairDiagram:
    """Right-multiply by x_index^sign: ``apply_letter`` on the pair's
    texts, wrapped as a pair.  ValueError for a bad index or sign."""
    _check_letter(index, sign)
    neg, pos = apply_letter(pair.negative.root, pair.positive.root, index, sign)
    return TreePairDiagram(CaretTree(neg), CaretTree(pos))


# Most letters in one block of ``evaluate_word``.  On the benchmark's
# ``deep-words`` (100-400 letter words, 100-900 caret trees; seed 1, three
# 5 s runs each, 2-core Xeon, Python 3.11) the median op took 3.2-3.6 ms
# with blocks of 64 or 128 letters and 3.4-4.2 ms with 16, 32 or 256.
_BLOCK = 64

# Longest run folded into a block.  Folding a run costs one step per
# letter and writing it down one more unit of the product.  On words made
# only of runs of one length (600-800 letters, indices up to 3, 12 or 40;
# same machine) folding was faster for runs of 2 and 3 letters, even at 4,
# and slower from 5 on, up to 5x for runs of 64.
_FOLDED_RUN = 4


def _units(runs: Iterable[Run]) -> Iterator[TreePairDiagram]:
    """The units of a word of merged runs, in order, whose product is the
    word: its blocks of folded letters and its written-down runs (the
    rule is in ``evaluate_word``)."""
    room = _BLOCK
    for index, exponent in runs:
        sign, count = (1, exponent) if exponent > 0 else (-1, -exponent)
        if count > room or count > _FOLDED_RUN:
            if room < _BLOCK:
                yield TreePairDiagram(CaretTree(neg), CaretTree(pos))
                room = _BLOCK
            yield _run(index, sign, count)
            continue
        if room == _BLOCK:
            first = _run(index, sign, count)
            neg, pos = first.negative.root, first.positive.root
        else:
            for _ in range(count):
                neg, pos = apply_letter(neg, pos, index, sign)
        room -= count
        if not room:
            yield TreePairDiagram(CaretTree(neg), CaretTree(pos))
            room = _BLOCK
    if room < _BLOCK:
        yield TreePairDiagram(CaretTree(neg), CaretTree(pos))


def evaluate_word(word: Iterable[Run]) -> TreePairDiagram:
    """The reduced pair of a word of (index, exponent) runs; a letter is
    a run of exponent +1 or -1, so runs and letters may be mixed.

    Adjacent runs of one index and sign are merged as they stream by, and
    the word is cut into units (``_units``).  Letters are folded by the
    generator step ``apply_letter`` into blocks of at most ``_BLOCK``
    letters.  A block starts from its first run written down by ``_run``,
    since a step from the identity walks a spine of up to i carets to take
    x_i.  A step reads only the spine subtrees it moves and slices the two
    texts, while ``multiply`` walks both middle trees one character at a
    time and reduces, so a step is the cheaper way to take a letter while
    the block is small.  Blocks of 64 and 128 letters timed lowest of 16
    to 256 (see ``_BLOCK``), and the smaller keeps the block's texts
    shorter.  A run longer than ``_FOLDED_RUN`` letters, or too long for
    the block's room, ends the block and is written down by ``_run`` in
    time linear in i + |a|, with no step and no product, so ``x0^k``
    costs O(k); folding it would cost a step per letter.

    The units are multiplied as a balanced product: the stack holds
    products of units, each covering fewer units than the one below it,
    and after a unit is pushed the top two merge while they cover equally
    many units, like the carries of a binary counter.  The stack, folded
    right to left, is the word.  With L letters each unit takes part in
    O(log L) products, so for bounded indices the word costs O(L log L),
    and only O(log L) partial products and one block are alive at once.
    A letter-by-letter fold of the whole word would instead slice the
    whole product at every step, which is quadratic.  The empty word is
    the identity; ValueError for a negative index or an exponent that is
    0 or not an int.
    """
    stack: list[tuple[int, TreePairDiagram]] = []
    for product in _units(_merged(word)):
        units = 1
        while stack and stack[-1][0] == units:
            below, left = stack.pop()
            units, product = units + below, multiply(left, product)
        stack.append((units, product))
    if not stack:
        return identity()
    _, product = stack.pop()
    while stack:
        product = multiply(stack.pop()[1], product)
    return product


# where a stretch of spine carets over leaves ends, and a run of opens
_STRETCH_END = re.compile(r"\(\(|\.\.")
_OPENS = re.compile(r"\(+")


def _leaf_runs(tree: str) -> list[Run]:
    """The (leaf, exponent) pairs of the leaves with a nonzero exponent,
    in leaf order.  A leaf's exponent counts the carets off the right
    spine whose leftmost descendant leaf it is.  Those are the carets
    opened just before the leaf's dot, less the first of them when it is
    the next caret of the right spine, which is so exactly when every
    caret still open is a right-spine caret.

    The walk steps from one run of opens to the next, and ``str.count``
    reads the leaves and closes between them.  While every open caret is
    on the spine, one match skips the spine carets over leaves that
    follow, each of exponent 0: all of a right spine, such as the
    positive tree of x0^k, is one match, and a left comb is one run."""
    runs = []
    at = depth = on_spine = leaf = 0
    while True:
        if depth == on_spine:
            # a stretch "(.(.(." of spine carets over leaves ends where a
            # spine caret over a caret, "((", or the last leaf, "..",
            # comes next: each "(" before that is one of them
            found = _STRETCH_END.search(tree, at)
            carets = tree.count("(", at, found.start()) if found else 0
            depth += carets
            on_spine += carets
            leaf += carets
            at += 2 * carets
        found = _OPENS.search(tree, at)
        if found is None:
            return runs
        start, end = found.span()
        leaf += tree.count(".", at, start)
        depth -= tree.count(")", at, start)
        exponent = end - start
        if depth == on_spine:
            on_spine += 1
            exponent -= 1
        depth += end - start
        if exponent:
            runs.append((leaf, exponent))
        leaf += 1
        at = end + 1


def normal_form(pair: TreePairDiagram) -> GeneratorWord:
    """Unique positive-then-negative word for the element.

    The positive part reads the negative tree's leaf exponents in ascending
    index order; the negative part reads the positive tree's in descending
    order.  Evaluating the word returns the original reduced pair.
    """
    negative = _leaf_runs(pair.positive.root)
    return GeneratorWord(tuple(_leaf_runs(pair.negative.root))
                         + tuple((leaf, -count) for leaf, count in reversed(negative)))
