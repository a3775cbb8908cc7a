"""Group arithmetic on tree pair diagrams.

The generator with index i has, on its negative side, a right spine of i
carets with one extra caret hanging left at the bottom, and on its positive
side a right spine of i + 2 carets.  For the product g * h we grow both
diagrams until the positive tree of g equals the negative tree of h, then
keep g's negative and h's positive tree and reduce.  With this composition
the defining relations hold, e.g. x0^-1 x1 x0 = x2; the relator tests pin
the orientation, so do not flip either convention independently.

Right multiplication by a single generator only rearranges subtrees that
hang left off the right spine of the positive tree.  The step holds that
tree as its spine list, the texts of those subtrees from the top (the top
forest of Belk and Brown's forest diagrams of F, 2005): ``_spine`` splits
a text into its list in one walk, and ``_join`` is one ``str.join``.  On
the list x_i splits entry i into its two subtrees and x_i^-1 merges
entries i and i + 1, so a letter costs the subtree it moves, not the
subtrees above it.  ``_move`` makes that move in place and says what the
negative tree needs: growth at its last leaf, and then a caret hung from
a leaf, or a check of a leaf for a common caret, which ``_enact`` does.
A common caret is cancelled where it stands by ``_cancel``: it pops the
spine list's last entries and cuts one subtree out of the negative
text, so a step never reduces the whole pair.  Every step is finished
here, in one of two ways.  ``plan`` moves a copy of a list and keeps it,
the letter and its join, and ``enact`` finishes the planned step on a
negative tree, running ``_cancel`` on a copy of the planned list when
the created caret is common, so one plan serves every negative tree of
its positive tree: ball growth splits each positive tree once, plans a
letter once per tree, and enacts the plan on every element of its
frontier that shares the tree, and ``apply_letter`` enacts the plan of
one letter.  A block of ``evaluate_word`` instead keeps its positive
tree as one list from its first move to its last, with ``_enact`` and
``_cancel`` in place on it.  Multiplying by the generator's diagram
must give the identical result (both routes are kept and tested
against each other).
``apply_generator`` is the step on a ``TreePairDiagram``: it checks the
letter, calls ``apply_letter`` and wraps the result once.

A word is its runs: ``GeneratorWord`` holds (index, exponent) pairs,
adjacent ones of one index and sign merged, and ``evaluate_word`` and
``normal_form`` read and write runs; only ``GeneratorWord.letters``
spells a word out.  A run x_i^a needs no product at all: ``_run``
writes the texts of its reduced pair down, a right spine of i carets
over a left comb of a + 1 carets against a right spine of i + a + 1
carets (the standard pair of x_i, Cannon-Floyd-Parry 1996, with its
left caret grown into a comb).  Letters and runs of up to 4 letters are
folded by ``_move``, ``_enact`` and ``_cancel`` into blocks of at most
1024 letters, each started from its first run written down, and a
longer run is written down.  The blocks and the written runs are
multiplied as a balanced product, so each takes part in O(log L)
products for a word of L letters, and no step runs over the whole
product.  ``x0^k`` costs O(k), and so does its normal form, read off
the trees' leaves as runs.

Below the public functions a pair is the tuple of its two texts,
(negative, positive): ``_run``, ``_units``, the text product ``_product``
and the step ``apply_letter`` take and return texts.  A
``TreePairDiagram``, whose constructor checks that the pair is reduced
(see ``tree_core``), is built only where a public function returns one:
``evaluate_word`` once per word, ``multiply`` once per product, and
``generator_diagram``, ``apply_generator``, ``invert`` and ``identity``.
``reduce_text`` reduces a whole pair in one pass, cancelling each common
caret with the carets it exposes in turn.  Here only ``_product`` hands
it texts: an unreduced product of two reduced pairs' texts, whose result
``multiply`` wraps without checking it again (any diagram of g * h
reduces to the same pair, so the inputs need no reduction of their own).
A step starts from a reduced pair, so only the caret it created can be
common, and ``_cancel`` follows the same cascade from there on the spine
list.  Trees are text, as in ``tree_core``, and every edit here is a
scan and a few slices of it, or a few entries of a spine list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, groupby, islice, repeat
from typing import Iterable, Iterator, Optional

from .tree_core import (
    CaretTree,
    TreePairDiagram,
    _reduced,
    graft,
    reduce_text,
    spine,
)

Letter = tuple[int, int]  # (generator index, sign in {+1, -1})
Run = tuple[int, int]  # (generator index, nonzero exponent)
Texts = tuple[str, str]  # (negative, positive) texts of a reduced pair


def _check_letter(index: int, sign: int) -> None:
    if index < 0:
        raise ValueError(f"generator index must be >= 0, got {index}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")


def _checked_key(run: Run) -> tuple[int, bool]:
    """The index and sign of a run, which ``groupby`` merges on;
    ValueError for an index that is negative or not an int, or an
    exponent that is 0 or not an int (a bool is not an int here)."""
    index, exponent = run
    if type(index) is not int or index < 0:
        raise ValueError(f"generator index must be an int >= 0, got {index!r}")
    if type(exponent) is not int or exponent == 0:
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
    ValueError for an index that is negative or not an int, or an
    exponent that is 0 or not an int; a bool is not an int here.
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


def _int_indices(indices) -> tuple[int, ...]:
    """``indices`` as a tuple; ValueError unless each one is an int (a
    bool is not)."""
    indices = tuple(indices)
    if any(type(i) is not int for i in indices):
        raise ValueError(f"generator indices must be ints, got {indices!r}")
    return indices


@dataclass(frozen=True)
class GeneratingSet:
    """Distinct int generator indices, sorted ascending; must contain 0."""

    indices: tuple[int, ...]

    def __post_init__(self):
        _int_indices(self.indices)
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
        # checked first: sorting a str or None among ints raises TypeError
        return cls(tuple(sorted(set(_int_indices(indices)))))

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


def _run(index: int, sign: int, count: int) -> Texts:
    """The texts of the reduced pair of x_index^(sign * count), count >= 1,
    written down: the negative tree is a right spine of index carets over
    a left comb of count + 1 carets, the positive tree a right spine of
    index + count + 1 carets; sign -1 swaps them.  ValueError for a bad
    index or sign."""
    _check_letter(index, sign)
    comb = "(." * index + "(" * (count + 1) + "." + ".)" * (count + 1) + ")" * index
    texts = comb, spine(index + count + 1)
    return texts if sign == 1 else texts[::-1]


def _pair(texts: Texts) -> TreePairDiagram:
    """The pair of two texts, checked by the constructor."""
    return TreePairDiagram(CaretTree(texts[0]), CaretTree(texts[1]))


def generator_diagram(index: int, sign: int) -> TreePairDiagram:
    """Reduced diagram of the generator x_index or its inverse.

    A library entry point that no subcommand needs: the product with it
    is the independent check of the generator step ``apply_letter``."""
    return _pair(_run(index, sign, 1))


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


def _product(g: Texts, h: Texts) -> Texts:
    """The texts of the reduced product of the pairs with texts g and h,
    via a common refinement of the middle trees."""
    into_g, into_h = _overhangs(g[1], h[0])
    return reduce_text(graft(g[0], into_g), graft(h[1], into_h))


def multiply(g: TreePairDiagram, h: TreePairDiagram) -> TreePairDiagram:
    """Reduced product g * h: ``_product`` of the two pairs' texts, with
    the result built as a pair once, here, and not checked again, since
    ``reduce_text`` has just returned it."""
    return _reduced(*_product((g.negative.root, g.positive.root),
                              (h.negative.root, h.positive.root)))


def _grow_spine(tree: str, carets: int) -> str:
    """``tree`` with a right spine of ``carets`` carets at its last leaf."""
    last = tree.rindex(".")
    return tree[:last] + spine(carets) + tree[last + 1 :]


def _leaf_dot(tree: str, leaf: int) -> int:
    """Position of the dot of leaf number ``leaf``: the first dot left once
    the dots before it are masked."""
    return tree.replace(".", ",", leaf).find(".")


# A tree's spine list: the texts of the subtrees hanging left off its
# right spine, from the top.  The tree is
# "(" + "(".join(spine) + "." + ")" * len(spine).
Spine = list[str]

# where a stretch "(.(.(." of spine carets over leaves ends: at a spine
# caret over a caret, "((", or at the last leaf, ".."
_STRETCH_END = re.compile(r"\(\(|\.\.")


def _spine(tree: str) -> Spine:
    """The spine list of ``tree``, in one walk of its text from spine
    caret to spine caret: a subtree is cut by ``_subtree_end``, a leaf
    taken as it is, and a stretch of spine carets over leaves is one
    search."""
    spine: Spine = []
    at = 0
    while tree[at] == "(":
        if tree[at + 1] != ".":
            end = _subtree_end(tree, at + 1)
            spine.append(tree[at + 1 : end])
            at = end
        else:
            leaves = tree.count("(", at, _STRETCH_END.search(tree, at).start())
            spine += repeat(".", leaves)
            at += 2 * leaves
    return spine


def _join(spine: Spine) -> str:
    """The tree whose spine list is ``spine``."""
    return f"({'('.join(spine)}.{')' * len(spine)}" if spine else "."


# What a generator step does to the negative tree, read off the positive
# tree alone, for ``_enact``: carets to grow at its last leaf, and the leaf
# that needs more (None when nothing does): a caret hung from it when the
# last field is True, else a check whether the created caret is common
# there.
Move = tuple[int, Optional[int], bool]


def _move(spine: Spine, index: int, sign: int) -> Move:
    """The step by x_index^sign on the spine list of the positive tree of
    a reduced pair, in place; returns what the negative tree needs.
    index must be >= 0 and sign +1 or -1.

    For sign +1 entry index must be a caret A ^ B, and with C the spine
    below it, (A ^ B) ^ C becomes A ^ (B ^ C): the entry splits into A and
    B, and only A is walked.  Sign -1 is the inverse move: entries X and Y
    at index and index + 1 merge into X ^ Y.  Spine carets that are
    missing are first added to both trees at the last leaf, as "."
    entries; a missing caret A ^ B is hung from leaf entry index in both
    trees, which puts a "." entry before it.

    The pair must be reduced because only the caret the move creates is
    checked: B ^ C for sign +1, X ^ Y for sign -1.  No other caret of the
    positive tree becomes exposed and no leaf number changes, so from a
    reduced pair that caret is the only one that can become common.  It
    can be common only when it is exposed, and then the move names its
    left leaf for the negative tree's check.  Growing the spines makes
    only their bottom caret common, and the move always rebuilds it.  When
    entry index is a leaf L, the caret added to the negative tree over L
    and L + 1 makes L + 1 a right leaf there, so B ^ C, over L + 1 and
    L + 2, is not common.
    """
    grow = index + (1 if sign == 1 else 2) - len(spine)
    if grow > 0:
        spine += repeat(".", grow)
    else:
        grow = 0
    entry = spine[index]
    if sign == -1:
        right = spine.pop(index + 1)
        spine[index] = f"({entry}{right})"
        # the leaf that X ^ Y starts at, if it is exposed
        hang, named = False, index if entry == "." == right else None
    elif entry == ".":
        spine.insert(index, ".")
        hang, named = True, index
    else:
        a_end = _subtree_end(entry, 1)
        spine[index : index + 1] = entry[1:a_end], entry[a_end:-1]
        # B ^ C is exposed when B is a leaf and C the last leaf
        exposed = a_end == len(entry) - 2 and index + 2 == len(spine)
        hang, named = False, index + 1 if exposed else None
    if named is None:
        return grow, None, False
    # a subtree of c carets has 3c + 1 characters and c + 1 leaves
    return grow, (len("".join(spine[:named])) + 2 * named) // 3, hang


# A generator step planned on a positive tree: the ``Move``, the moved
# spine list, the letter, and the text of the new positive tree.
Plan = tuple[Move, Spine, Letter, str]


def plan(spine: Spine, index: int, sign: int) -> Plan:
    """The first half of the step by x_index^sign, the half that reads
    only the positive tree of a reduced pair, given as its spine list:
    ``_move`` on a copy of the list, which is then joined.  ``enact``
    finishes the step on any negative tree of such a pair.  index must be
    >= 0 and sign +1 or -1."""
    moved = spine.copy()
    return _move(moved, index, sign), moved, (index, sign), _join(moved)


def _enact(neg: str, move: Move) -> tuple[str, int]:
    """The negative tree that ``move`` makes of ``neg``, and the dot of
    the left leaf of the caret the move created when that caret is common
    to both trees, else -1.  It grows the spine, then hangs a caret from
    the named leaf or checks it.  When the caret is common the caller
    cancels it with ``_cancel``, on the spine list the move was made on."""
    grow, leaf, hang = move
    if grow:
        neg = _grow_spine(neg, grow)
    if leaf is None:
        return neg, -1
    dot = _leaf_dot(neg, leaf)
    if hang:
        return neg[:dot] + "(..)" + neg[dot + 1 :], -1
    return neg, dot if neg.startswith("..", dot) else -1


def _cancel(spine: Spine, neg: str, dot: int, index: int, sign: int) -> str:
    """Cancel the common caret that the step by x_index^sign created, and
    every caret that this exposes in both trees in turn: the spine list
    is changed in place and the negative tree is returned.  ``dot`` is
    the one ``_enact`` returned, the dot of the caret's left leaf in
    ``neg``.

    From a reduced pair only the created caret is common, and once a
    common caret collapses to a leaf only its parent in each tree can
    become exposed; carets to its right shift their leaf numbers equally
    in both trees.  In the positive tree the created caret is entry index
    (X ^ Y, sign -1), whose parent is exposed only when the entry is the
    last one, or the last spine caret (B ^ C, sign +1), and the parent of
    a last spine caret is the one above it, exposed when its entry is a
    leaf: so the cascade pops the last entry while it is ".".  In the
    negative tree the collapsed carets make one subtree, ``neg[start:end]``,
    and its parent is exposed over the same leaves when the character
    next to it on the side of the positive tree's parent is a dot.  The
    text is sliced once, at the end."""
    # the text of the created caret, "(..)"
    start, end = dot - 1, dot + 3
    if sign == -1:
        spine[index] = "."
        # the spine caret above entry index is over that leaf and the
        # last leaf, or not exposed
        if index + 1 < len(spine) or neg[end] != ".":
            return f"{neg[:start]}.{neg[end:]}"
        start, end = start - 1, end + 2
    spine.pop()
    # the collapsed leaf is the last: its parent is over the leaf before
    # it and itself
    while spine and spine[-1] == "." and neg[start - 1] == ".":
        spine.pop()
        start, end = start - 2, end + 1
    return f"{neg[:start]}.{neg[end:]}"


def enact(neg: str, step: Plan) -> Texts:
    """The second half of the step: the texts of the reduced pair that
    the planned ``step`` makes of ``neg`` and the planned positive tree.
    ``_enact`` changes ``neg``, and when the created caret is common
    ``_cancel`` cancels it on a copy of the planned list, which is then
    joined; the plan itself is left as it was, so one plan serves every
    negative tree of its positive tree."""
    move, moved, letter, pos = step
    neg, dot = _enact(neg, move)
    if dot < 0:
        return neg, pos
    moved = moved.copy()
    return _cancel(moved, neg, dot, *letter), _join(moved)


def apply_letter(neg: str, pos: str, index: int, sign: int) -> Texts:
    """The texts of the reduced pair of ``neg | pos`` times x_index^sign,
    by direct subtree surgery: ``enact`` of the ``plan`` on the spine
    list of ``pos``.  ``neg | pos`` must be the texts of a reduced pair,
    index must be >= 0 and sign +1 or -1."""
    return enact(neg, plan(_spine(pos), index, sign))


def apply_generator(pair: TreePairDiagram, index: int, sign: int) -> TreePairDiagram:
    """Right-multiply by x_index^sign: ``apply_letter`` on the pair's
    texts, wrapped as a pair.  ValueError for a bad index or sign."""
    _check_letter(index, sign)
    return _pair(apply_letter(pair.negative.root, pair.positive.root, index, sign))


# Most letters in one block of ``evaluate_word``.  A step cancels in
# place, so a block costs a step per letter, and every step slices the
# negative text, which grows with the block: an unbounded block is
# quadratic.  Timed on a 2-core Xeon, Python 3.11: the benchmark's
# ``deep-words`` batch of 16 words (100-400 letters, 100-900 caret trees;
# median of 15 batches, seeds 1 / 2 / 3) and the 10^6 and 10^5 random
# letters (seed 1) of the two long-word CI steps; every block size gave
# the same pairs:
#
#   block | deep-words, ms      | 10^6 over x0..x12 | 10^5 over x0..x2000
#   64    | 50.8 / 48.3 / 49.2  | 8.6 s             | 7.1 s
#   128   | 46.0 / 45.7 / 44.9  |                   |
#   256   | 41.7 / 43.7 / 42.5  | 6.7 s             | 4.7 s
#   512   | 41.5 / 42.4 / 41.2  | 6.6 s             | 3.8 s
#   1024  | 41.9 / 42.9 / 41.7  | 5.6 s             | 3.2 s
#   2048  |                     | 6.3 s             | 2.8 s
#   4096  |                     | 7.2 s             | 2.4 s
#
# From 512 on a ``deep-words`` word is one block but for its x0^k run.
# Past 1024 the low-index word slows as its blocks' texts grow, while the
# high-index word, whose texts are long from the first letter, still
# gains from fewer products.
_BLOCK = 1024

# Longest run folded into a block.  Folding a run costs one step per
# letter and writing it down one more unit of the product.  On words made
# only of runs of one length (600-800 letters, indices up to 3, 12 or 40;
# same machine) folding was faster for runs of 2 and 3 letters, even at 4,
# and slower from 5 on, up to 5x for runs of 64.
_FOLDED_RUN = 4


def _signed(exponent: int) -> tuple[int, int]:
    """The sign and the letter count of a run's exponent."""
    return (1, exponent) if exponent > 0 else (-1, -exponent)


def _fold(block: list[Run]) -> Texts:
    """The texts of a block of runs: its first run written down by
    ``_run``, and each later letter a ``_move`` on the spine list of the
    positive tree, with ``_enact`` on the negative tree and ``_cancel``
    where the created caret is common.  The list is split once, before
    the first move, and joined once, at the end."""
    index, exponent = block[0]
    neg, pos = _run(index, *_signed(exponent))
    if len(block) == 1:
        return neg, pos
    spine = _spine(pos)
    for index, exponent in islice(block, 1, None):
        sign, count = _signed(exponent)
        for _ in range(count):
            neg, dot = _enact(neg, _move(spine, index, sign))
            if dot >= 0:
                neg = _cancel(spine, neg, dot, index, sign)
    return neg, _join(spine)


def _units(runs: Iterable[Run]) -> Iterator[Texts]:
    """The texts of the units of a word of merged runs, in order, whose
    product is the word: its blocks of folded letters (``_fold``) and its
    written-down runs (the rule is in ``evaluate_word``).  No pair is
    built here."""
    block: list[Run] = []
    room = _BLOCK
    for run in runs:
        sign, count = _signed(run[1])
        if count > room or count > _FOLDED_RUN:
            if block:
                yield _fold(block)
                block, room = [], _BLOCK
            yield _run(run[0], sign, count)
            continue
        block.append(run)
        room -= count
        if not room:
            yield _fold(block)
            block, room = [], _BLOCK
    if block:
        yield _fold(block)


def evaluate_word(word: Iterable[Run]) -> TreePairDiagram:
    """The reduced pair of a word of (index, exponent) runs; a letter is
    a run of exponent +1 or -1, so runs and letters may be mixed.

    Adjacent runs of one index and sign are merged as they stream by, and
    the word is cut into units (``_units``).  Letters are folded into
    blocks of at most ``_BLOCK`` letters (``_fold``).  A block starts from
    its first run written down by ``_run``, since a step from the identity
    would grow a spine of i carets to take x_i.  A step moves entries of
    the positive tree's spine list, reading only the subtree it splits,
    and slices the negative tree's text, cancelling a common caret in
    place (``_cancel``), while ``_product`` walks both middle trees one
    character at a time and reduces the whole product, so a step is the
    cheaper way to take a letter while the block's texts are short.  The
    bound ``_BLOCK`` keeps them short; its timings are there.  A run
    longer than ``_FOLDED_RUN`` letters, or too long for the block's
    room, ends the block and is written down by ``_run`` in time linear
    in i + |a|, with no step and no product, so ``x0^k`` costs O(k);
    folding it would cost a step per letter.

    The units' texts are multiplied by ``_product`` as a balanced
    product: the stack holds products of units, each covering fewer units
    than the one below it, and after a unit is pushed the top two merge
    while they cover equally many units, like the carries of a binary
    counter.  The stack, folded right to left, is the word.  With L
    letters each unit takes part in O(log L) products, so for bounded
    indices the word costs O(L log L), and only O(log L) partial products
    and one block are alive at once.  A letter-by-letter fold of the whole
    word would instead slice the whole product at every step, which is
    quadratic.  Units and partial products stay texts, and the result is
    the one pair built, so the constructor's check runs once per word.
    The empty word is the identity; ValueError for an index that is
    negative or not an int, or an exponent that is 0 or not an int.
    """
    stack: list[tuple[int, Texts]] = []
    for product in _units(_merged(word)):
        units = 1
        while stack and stack[-1][0] == units:
            below, left = stack.pop()
            units, product = units + below, _product(left, product)
        stack.append((units, product))
    if not stack:
        return identity()
    _, product = stack.pop()
    while stack:
        product = _product(stack.pop()[1], product)
    return _pair(product)


# a run of opens
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
