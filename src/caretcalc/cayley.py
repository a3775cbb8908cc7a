"""Brute-force word metrics on the Cayley graph, for arbitrary finite
generating subsets {x_i : i in X} with 0 in X.

Everything here is breadth-first search over elements held as texts: the
canonical encoding "negative|positive" of a reduced pair is the element,
so a search makes no tree pair at all.  The lengths are exact and serve as
the independent oracle for the closed-form machinery in
:mod:`caretcalc.metrics`.

The searches come in two kinds, and each stores what it has seen in the
layout that is smaller for it:

* ``ball``, ``lengths_for`` and ``coarse_isometry_check`` grow balls
  from the identity (``_grow``).  A ball shares its trees widely: the
  28,631 elements of ``ball({0,1,2}, 7)`` hold 3,871 distinct positive
  and 3,871 distinct negative trees, 7.4 elements per positive tree.  A
  ball is also closed under inversion, which swaps the two trees, and F
  has no element of order 2, so every element but the identity has its
  own inverse, of the same length.  So their table keeps one slot per
  pair {u, u^-1}: ``table[high][low] = length``, where low <= high are
  the two tree texts, each kept once for the whole search.  That ball's
  table has 14,316 slots in 1,152 rows, and an element costs half a slot
  instead of its own ~50-character key: a traced peak of ~45 B in place
  of ~68 B with a slot per element and ~137 B with a key per element.
  The frontier holds every element of a sphere, u and u^-1 alike,
  carried from radius to radius grouped by positive tree.  A step by a
  letter moves subtrees of the positive tree only, so ``_grow`` splits
  each positive tree into its spine list once (``group_ops._spine``),
  makes each ``group_ops.plan`` once per tree and letter, and enacts the
  plan on the negative tree of every element of the group
  (``group_ops.enact``), which also cancels a caret the step made common.
* A single length (``bfs_length``) and a shortest path inside a ball
  (``in_ball_geodesic``) are searched from both ends at once
  (``_meet``): the side with the smaller frontier grows by one shell
  until it reaches a state the other side has seen, which gives the
  distance exactly.  Their searches share few trees (1.03-1.5 elements
  per positive tree on the benchmark's length queries), so they keep one
  encoding per state, split each state's positive tree once, and plan
  and enact every letter on it.

The Cayley graph is bipartite.  Every relator x_i^-1 x_n x_i x_{n+1}^-1
has exponent sum 0, so the exponent sum is a homomorphism F -> Z, every
edge changes its parity, and the lengths of two neighbours differ by
exactly 1.  So a ball decides membership in the ball one radius larger:
an element lies in it exactly when it, or one of its neighbours, lies in
the smaller ball.  An edge from u to v stays in the ball of radius R
exactly when l(u) <= R - 1 or l(v) <= R - 1, and that test takes the
ball of radius R - 2, which ``_ball_tests`` enumerates itself, and one
step, so the in-ball search never enumerates the two outer spheres,
which are most of the ball.  Most elements that test meets lie outside
the ball, and most of those are ruled out without the step by
l_infinity, the length over the whole infinite set {x_i}, which two
texts give at once: every length here is over a subset of that set, so
none is below l_infinity, and both have the parity of the exponent sum,
since every x_i^+-1 moves it by one.  The parity also makes a bound
exact: a path between a and b through the identity stays in the ball and
is l(a) + l(b) long, and the distance has the parity of that sum, so a
search that has ruled out every path of length l(a) + l(b) - 2 or less
has its answer.  On top of the ball sit three probes:

* ``probe_mac`` builds the witness pair whose in-ball distance blows up
  (the obstruction to minimal almost convexity) and checks its three
  defining properties by search, on the ball two radii smaller;
* ``coarse_isometry_check`` grows each set's ball once, to the radius
  and then on until it holds the other ball too, measures the largest
  additive gap between the two word metrics on both balls, and compares
  it against the claimed constant when one set is a shifted copy of the
  other;
* ``probe_subset_monotonicity`` confirms that enlarging the generating
  set never increases word length.

State caps make every search abort loudly (SearchCapExceededError, which
says the radius or the depth of each side reached) instead of returning a
silently truncated answer; a two-sided search counts the states of both
sides against one cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Optional

from .errors import SearchCapExceededError
from .group_ops import (
    GeneratingSet,
    Letter,
    _spine,
    enact,
    evaluate_word,
    identity,
    invert,
    multiply,
    normal_form,
    plan,
)
from .metrics import _l_infinity, length_consecutive
from .tree_core import TreePairDiagram, canonical_encode

DEFAULT_STATE_CAP = 5_000_000

CONFIRMED = "witness-confirmed"
REFUTED = "refuted"


def _lookup(table: dict, neg: str, pos: str) -> Optional[int]:
    """The length that a table in the layout of ``BallIndex.table`` holds
    for the element with these texts, read from the slot of its inverse
    pair, in the row of the larger text; None when it holds none."""
    if neg > pos:
        neg, pos = pos, neg
    row = table.get(pos)
    return None if row is None else row.get(neg)


@dataclass(frozen=True)
class BallIndex:
    """All elements with l_X <= radius, one slot per element and its
    inverse: for tree texts low <= high, ``table[high][low]`` is the
    length of both ``low|high`` and ``high|low``.  Only the identity,
    ".|.", is its own inverse, so the ball holds ``2 * slots - 1``
    elements.

    A ball shares its trees widely and is closed under inversion (see
    the module docstring), so a row per tree text, whose keys are texts
    each kept once, costs a third of the bytes of one
    "negative|positive" key per element.  ``items`` makes the encodings
    of both orientations, one at a time, for a reader that wants them.
    """

    gens: GeneratingSet
    radius: int
    table: dict

    @property
    def size(self) -> int:
        return 2 * sum(map(len, self.table.values())) - 1

    def items(self) -> Iterator[tuple[str, int]]:
        """Each element's encoding and length, row by row: a slot gives
        ``low|high`` and then ``high|low``, which for the identity is the
        same element, given once."""
        for pos, row in self.table.items():
            for neg, length in row.items():
                yield f"{neg}|{pos}", length
                if neg != pos:
                    yield f"{pos}|{neg}", length

    def sphere_sizes(self) -> list[int]:
        counts = [0] * (self.radius + 1)
        for row in self.table.values():
            for length in row.values():
                counts[length] += 2
        counts[0] = 1
        return counts

    def export_lines(self) -> Iterator[str]:
        """One "encoding TAB length" line per element, by length and then
        by encoding, yielded one at a time.  One pass puts each encoding
        in its length's bucket; each bucket is then sorted, its lines
        yielded, and emptied, so the export holds each encoding once and
        no line longer than its reader does."""
        spheres: list[list[str]] = [[] for _ in range(self.radius + 1)]
        for enc, length in self.items():
            spheres[length].append(enc)
        for length, encs in enumerate(spheres):
            encs.sort()
            tail = f"\t{length}"
            for enc in encs:
                yield enc + tail
            encs.clear()


def _steps(letters: tuple[Letter, ...]) -> list[tuple[Letter, Letter]]:
    """Each letter with its inverse, both taken from ``letters``, so that
    a shell can test ``letter is back``."""
    shared = {letter: letter for letter in letters}
    return [(letter, shared[letter[0], -letter[1]]) for letter in letters]


def _grow(
    letters: tuple[Letter, ...],
    cap: int,
    radius: Optional[int] = None,
) -> Iterator[dict]:
    """The table of the ball of radius r about the identity, in the
    layout of ``BallIndex.table``, for r = 0, 1, 2, ... up to ``radius``
    (without end when it is None): one table, yielded after each shell
    and grown in place.

    The frontier is ``{positive: [(negative, back, front)]}``, grouped by
    positive tree, so a shell reads its groups as they stand.  It takes
    the groups in the order their trees were first reached, splits a
    group's tree into its spine list, plans a letter on the list at its
    first use in the group, enacts it on every member, and clears the
    group's list once it is done, so the frontier's memory falls while
    the table grows.  Where the move made a caret common (863 of the
    38,766 steps of ``ball({0,1,2}, 7)``) ``enact`` cancels that caret
    and the carets it exposes in turn, on a copy of the plan's spine
    list.  A shell never applies an entry's back letter: that neighbour
    is already seen.

    A neighbour w = u x is new when the slot of {w, w^-1} is, and then
    both go to the frontier: w to its positive tree's group with back
    letter x^-1, and w^-1 to the group of w's negative tree.  The back
    letter of w^-1 is the first letter a of w's path, since w^-1 a is
    one shorter, and needs no lookup: it is the ``front`` that every
    entry carries, the back letter of its inverse, which w takes from u,
    whose path starts with the same letter (at radius 1, it is x).
    Every new element's two texts pass through one dict, ``names``, so
    equal trees share one string for the whole search.  The last shell
    of a ball keeps no frontier.  A slot adds two elements, so one that
    would take the count beyond ``cap`` raises SearchCapExceededError
    naming the cap and the radius; every sphere is even, and every
    ball odd, so a cap trips at the radius it would trip at with a slot
    per element.

    The order of expansion decides only which letter first reaches an
    element, and so its back letter; no answer reads it, and
    ``BallIndex.export_lines`` sorts each sphere.  On ``ball({0,1,2}, 7)``
    taking the groups last in first out cut the traced peak by ~4 % but
    ran 3-6 % slower, and keeping the expanded lists raised it by ~17 %
    (both measured with a slot per element).  Packing back and front into
    one small int, so that an entry is a 2-tuple, cut the traced peak from
    44.8 to 42.9 B per element and left the max RSS of ``probe-mac --gens
    0,1,2 --k 5`` at 186 MiB (2-core Xeon, Python 3.11.7), so the entry
    keeps the two letters.
    """
    start = identity().negative.root
    table = {start: {start: 0}}
    frontier = {start: [(start, None, None)]}
    names: dict[str, str] = {}
    size = 1
    steps = _steps(letters)
    r = 0
    yield table
    while r != radius:
        r += 1
        keep = r != radius
        new: dict[str, list] = {}
        for pos, members in frontier.items():
            spine = _spine(pos)
            plans: dict = {}
            for neg, back, front in members:
                for letter, undo in steps:
                    if letter is back:
                        continue
                    step = plans.get(letter)
                    if step is None:
                        step = plans[letter] = plan(spine, *letter)
                    n, p = enact(neg, step)
                    flip = n > p
                    hi, lo = (n, p) if flip else (p, n)
                    row = table.get(hi)
                    if row is not None and lo in row:
                        continue
                    if size + 2 > cap:
                        raise SearchCapExceededError(
                            f"ball enumeration exceeded the state cap of {cap} "
                            f"elements at radius {r}", size)
                    hi = names.setdefault(hi, hi)
                    if row is None:
                        row = table[hi] = {}
                    lo = names.setdefault(lo, lo)
                    row[lo] = r
                    size += 2
                    if keep:
                        n, p = (hi, lo) if flip else (lo, hi)
                        first = letter if front is None else front
                        new.setdefault(p, []).append((n, undo, first))
                        new.setdefault(n, []).append((p, first, undo))
            members.clear()
        frontier = new
        yield table


def ball(gens: GeneratingSet, radius: int, cap: int = DEFAULT_STATE_CAP) -> BallIndex:
    """Exact breadth-first enumeration of the ball of the given radius."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    for table in _grow(gens.letters(), cap, radius):
        pass
    return BallIndex(gens=gens, radius=radius, table=table)


def _check_reachable(pair: TreePairDiagram, gens: GeneratingSet) -> None:
    """Refuse an element outside <x0> when the set is {x0}: that search
    would never end, since each shell adds only two states.  Any other
    set holds x0 and some x_i, which generate F (x1 is x0^(i-1) x_i
    x0^(1-i)), so every element is reachable."""
    if gens.indices == (0,) and any(i != 0 for i, _ in normal_form(pair).runs):
        raise ValueError(
            f"{canonical_encode(pair)} is not in the subgroup generated by x0"
        )


def _cover(tables: Iterable[dict], wanted: Iterable[tuple[str, str]]) -> dict:
    """The first of ``tables`` that holds a length for every element in
    ``wanted``, each given by its two texts in either order.  Each table
    is searched only for the elements the one before lacked, so the
    tables must be one table grown in place, as ``_grow`` yields it, and
    must not run out first: ``_grow`` with no radius never does."""
    for table in tables:
        wanted = [texts for texts in wanted if _lookup(table, *texts) is None]
        if not wanted:
            return table


def lengths_for(
    targets: Iterable[TreePairDiagram],
    gens: GeneratingSet,
    cap: int = DEFAULT_STATE_CAP,
) -> dict[str, int]:
    """Exact lengths of several elements at once, by their encodings: one
    ball grows from the identity (``_grow``) until it holds every target
    (``_cover``).

    Every target is reached at some radius: ``_check_reachable`` keeps a
    target of the set {x0} inside <x0>, any other set generates F, and no
    sphere of F, or of the infinite cyclic <x0>, is empty, so the search
    ends by seeing every target or at the cap."""
    wanted = {}
    for t in targets:
        _check_reachable(t, gens)
        wanted[canonical_encode(t)] = t.negative.root, t.positive.root
    table = _cover(_grow(gens.letters(), cap), wanted.values())
    return {enc: _lookup(table, *texts) for enc, texts in wanted.items()}


def _meet(
    a: TreePairDiagram,
    b: TreePairDiagram,
    letters: tuple[Letter, ...],
    cap: int,
    what: str,
    inner: Optional[Callable[[str, str], bool]] = None,
    bound: Optional[int] = None,
) -> Optional[int]:
    """Distance from a to b by breadth-first search from both ends.

    Each side keeps a dict from the encoding of every state it has seen to
    that state's back letter, the inverse of the letter that first reached
    it (None at the side's start), and a frontier of encodings.  Each step
    grows the side with the smaller frontier by one shell: it splits each
    entry's positive tree into its spine list once and steps by every
    letter but its back letter, whose neighbour is already seen.  While
    the two seen sets are disjoint the distance exceeds the sum of the two
    depths, so the first neighbour that the other side has seen ends the
    search with exactly that sum, whichever neighbour it is.  With
    ``inner`` (a test of an element's two texts for length <= R - 1) the
    search stays in the ball of radius R: an entry that fails it keeps
    only the neighbours that pass it.  With ``bound``, the length U of a
    path from a to b that the search may take, it stops as soon as its two
    depths sum to U - 2 with the seen sets still disjoint: the distance
    then exceeds U - 2, is at most U, and has the parity of U (the graph
    is bipartite), so it is U, and the last two half-shells are never
    grown.  The cap counts the states of both sides together.  None means
    one side ran out of vertices.
    """
    steps = _steps(letters)
    seen = ({canonical_encode(a): None}, {canonical_encode(b): None})
    if seen[0].keys() == seen[1].keys():
        return 0
    frontiers = [list(seen[0]), list(seen[1])]
    depths = [0, 0]
    while frontiers[0] and frontiers[1]:
        if bound is not None and depths[0] + depths[1] >= bound - 2:
            return bound
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        depths[side] += 1
        mine, other = seen[side], seen[1 - side]
        new: list[str] = []
        for enc in frontiers[side]:
            neg, _, pos = enc.partition("|")
            spine = _spine(pos)
            back = mine[enc]
            free = inner is None or inner(neg, pos)
            for letter, undo in steps:
                if letter is back:
                    continue
                n, p = enact(neg, plan(spine, *letter))
                key = f"{n}|{p}"
                if key in mine:
                    continue
                if key in other:
                    return depths[0] + depths[1]
                if not free and not inner(n, p):
                    continue
                if len(mine) + len(other) >= cap:
                    raise SearchCapExceededError(
                        f"{what} exceeded the state cap of {cap} states (both sides) "
                        f"at depth {depths[0]} from the start and {depths[1]} from "
                        "the goal",
                        len(mine) + len(other),
                    )
                mine[key] = undo
                new.append(key)
        frontiers[side] = new
    return None


def bfs_length(
    pair: TreePairDiagram, gens: GeneratingSet, cap: int = DEFAULT_STATE_CAP
) -> int:
    """Exact word length of one element, by a two-sided search from the
    identity and from the element at once; the state cap counts both
    sides.  The Cayley graph of an infinite group has no last shell, so
    the search ends by meeting or at the cap."""
    _check_reachable(pair, gens)
    return _meet(identity(), pair, gens.letters(), cap, "length search")


def _ball_tests(
    gens: GeneratingSet, radius: int, cap: int
) -> tuple[Callable[[str, str], bool], Callable[[TreePairDiagram], Optional[int]]]:
    """Two exact tests of the ball of ``radius`` over ``gens``:
    ``inner(neg, pos)``, whether the element with those texts has length
    <= radius - 1, and ``reach(pair)``, the pair's length if it is <=
    radius, else None.  They read the ball of radius max(radius - 2, 0),
    which is enumerated first, under ``cap``.

    An element of that ball has its length in the table, and from radius
    1 on lies in the ball of radius - 1.  Neighbours' lengths differ by
    exactly 1 (see the module docstring), and an element the ball does
    not hold is longer than its radius.  So from radius 2 on, such an
    element has length radius - 1 exactly when one of its neighbours is
    in that ball, and an element beyond radius - 1 has length radius
    exactly when a neighbour passes ``inner``.

    Before the table and the step, ``inner`` screens every element by its
    l_infinity (``metrics._l_infinity``, read off the two texts), and
    ``reach`` every element the table lacks.  The generators are a subset
    of the infinite set {x_i}, so l_X >= l_infinity, and the screen is
    exact: ``inner`` fails at l_infinity >= radius and ``reach`` gives
    None at l_infinity > radius.  Every element but the identity has
    l_infinity >= 1, so below radius 2, where the table is the identity,
    the screen alone decides ``inner``: it passes the identity at radius
    1 and nothing at radius 0.  The two also share the parity of the
    exponent sum, so for an element of length radius + 1, the most common
    miss of the in-ball search, l_infinity is either radius + 1, and the
    step is skipped, or at most radius - 1.
    """
    table = ball(gens, max(radius - 2, 0), cap=cap).table
    letters = gens.letters()

    def near(neg: str, pos: str, test: Callable[[str, str], bool]) -> bool:
        spine = _spine(pos)
        return any(test(*enact(neg, plan(spine, *letter))) for letter in letters)

    def indexed(neg: str, pos: str) -> bool:
        return _lookup(table, neg, pos) is not None

    def inner(neg: str, pos: str) -> bool:
        if _l_infinity(neg, pos) >= radius:
            return False
        return indexed(neg, pos) or near(neg, pos, indexed)

    def reach(pair: TreePairDiagram) -> Optional[int]:
        neg, pos = pair.negative.root, pair.positive.root
        length = _lookup(table, neg, pos)
        if length is not None:
            return length
        if _l_infinity(neg, pos) > radius:
            return None
        if inner(neg, pos):
            return radius - 1
        return radius if near(neg, pos, inner) else None

    return inner, reach


def in_ball_geodesic(
    a: TreePairDiagram,
    b: TreePairDiagram,
    gens: GeneratingSet,
    radius: int,
    cap: int = DEFAULT_STATE_CAP,
) -> Optional[int]:
    """Length of the shortest path from a to b that never leaves the ball.

    Both endpoints must lie in the ball.  Breadth-first search from both
    endpoints at once over the in-ball subgraph only: vertices outside
    the ball are never expanded, and the state cap counts both sides.
    Returns None only if one side exhausts its component without meeting
    the other, which cannot happen for a genuine ball (it is connected
    through the identity) but is reported rather than asserted.

    Neighbours' lengths differ by exactly 1 (see the module docstring),
    so an edge from u to v stays in the ball exactly when u or v has
    length <= radius - 1, which ``_ball_tests`` decides from the ball of
    radius - 2, which it enumerates, and one step.  The same tests give
    each endpoint's exact length, and the path through the identity,
    l(a) + l(b) long, stays in the ball, so ``_meet`` takes that sum as
    its bound.  Some pairs meet it, the MAC witnesses among them (F is
    maximally nonconvex: J. Belk, K.-U. Bux, 2005), and for those the
    search stops two half-shells before its sides would meet.
    """
    inner, reach = _ball_tests(gens, radius, cap)
    bound = 0
    for name, p in (("a", a), ("b", b)):
        length = reach(p)
        if length is None:
            raise ValueError(f"endpoint {name} lies outside the ball of radius {radius}")
        bound += length
    return _meet(a, b, gens.letters(), cap, "in-ball search", inner, bound)


@dataclass(frozen=True)
class MacProbeReport:
    """Outcome of one minimal-almost-convexity witness check."""

    gens: GeneratingSet
    k: int
    g_encoding: str
    h_encoding: str
    g_length: int
    h_length: int
    distance: int
    min_in_ball_path: Optional[int]
    formula_g_length: Optional[int]
    formula_h_length: Optional[int]
    verdict: str

    @property
    def confirmed(self) -> bool:
        return self.verdict == CONFIRMED

    def to_dict(self) -> dict:
        return {
            "gens": list(self.gens),
            "k": self.k,
            "g": self.g_encoding,
            "h": self.h_encoding,
            "g_length": self.g_length,
            "h_length": self.h_length,
            "distance": self.distance,
            "min_in_ball_path": self.min_in_ball_path,
            "formula_g_length": self.formula_g_length,
            "formula_h_length": self.formula_h_length,
            "verdict": self.verdict,
        }


def _check_witness_family(gens: GeneratingSet, k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if 1 not in gens or gens.max_index < 2:
        raise ValueError(
            "the witness family needs x_0, x_1 and one more generator: "
            f"got indices {list(gens)}"
        )


def mac_witness_pair(
    gens: GeneratingSet, k: int
) -> tuple[TreePairDiagram, TreePairDiagram]:
    """The two elements whose in-ball distance defeats minimal almost
    convexity: g = x_1^{k+1} x_{k+m+1} x_0^{-k} with m = max(X), which
    equals x_m x_1^{k+1} x_0^{-k}, and h = x_1^{k+1} x_0^{-(k+1)}.
    """
    _check_witness_family(gens, k)
    m = gens.max_index
    g = evaluate_word([(1, k + 1), (k + m + 1, 1), (0, -k)])
    g_alt = evaluate_word([(m, 1), (1, k + 1), (0, -k)])
    if canonical_encode(g) != canonical_encode(g_alt):
        raise AssertionError("the two spellings of the witness disagree")
    h = evaluate_word([(1, k + 1), (0, -(k + 1))])
    return g, h


def probe_mac(
    gens: GeneratingSet, k: int, cap: int = DEFAULT_STATE_CAP
) -> MacProbeReport:
    """Check the witness pair: both on the sphere of radius 2k+2, at
    distance 2 from each other, yet at in-ball distance >= 4k+4.

    The in-ball tests (``_ball_tests``) enumerate the ball of radius 2k
    first, and the witness pairs, whose trees grow with k, are built after
    it.  The same one-step tests read |g| and |h| off it, once: a witness
    in the ball of radius 2k+2 but not in that of radius 2k+1 has length
    2k+2, and only a length they cannot give (beyond 2k+2, so a refuted
    witness) comes from ``bfs_length``, as |g^-1 h| always does.  Then
    the in-ball search runs as in ``in_ball_geodesic``, with |g| + |h| as
    its bound.
    """
    _check_witness_family(gens, k)
    radius = 2 * k + 2
    inner, reach = _ball_tests(gens, radius, cap)
    g, h = mac_witness_pair(gens, k)
    g_length, h_length = reach(g), reach(h)
    if g_length is None:
        g_length = bfs_length(g, gens, cap=cap)
    if h_length is None:
        h_length = bfs_length(h, gens, cap=cap)
    distance = bfs_length(multiply(invert(g), h), gens, cap=cap)
    min_path: Optional[int] = None
    if g_length <= radius and h_length <= radius:
        min_path = _meet(g, h, gens.letters(), cap, "in-ball search", inner,
                         g_length + h_length)
    formula_g = formula_h = None
    if gens.is_consecutive:
        n = gens.max_index
        formula_g = length_consecutive(g, n).length
        formula_h = length_consecutive(h, n).length
    ok = (
        g_length == radius
        and h_length == radius
        and distance == 2
        and min_path is not None
        and min_path >= 4 * k + 4
        and formula_g in (None, radius)
        and formula_h in (None, radius)
    )
    return MacProbeReport(
        gens=gens,
        k=k,
        g_encoding=canonical_encode(g),
        h_encoding=canonical_encode(h),
        g_length=g_length,
        h_length=h_length,
        distance=distance,
        min_in_ball_path=min_path,
        formula_g_length=formula_g,
        formula_h_length=formula_h,
        verdict=CONFIRMED if ok else REFUTED,
    )


@dataclass(frozen=True)
class CoarseIsometryReport:
    """Largest observed gap between two word metrics over finite balls."""

    x_gens: GeneratingSet
    y_gens: GeneratingSet
    radius: int
    elements_checked: int
    max_difference: int
    claimed_bound: Optional[int]

    @property
    def within_bound(self) -> Optional[bool]:
        if self.claimed_bound is None:
            return None
        return self.max_difference <= self.claimed_bound

    def to_dict(self) -> dict:
        return {
            "gens_a": list(self.x_gens),
            "gens_b": list(self.y_gens),
            "radius": self.radius,
            "elements_checked": self.elements_checked,
            "max_difference": self.max_difference,
            "claimed_bound": self.claimed_bound,
            "within_bound": self.within_bound,
        }


def _shift_down(gens: GeneratingSet) -> Optional[tuple[int, GeneratingSet]]:
    """Slide the nonzero indices so the smallest becomes 1; the additive
    constant 2*(smallest - 1) relates the two word metrics."""
    nonzero = [i for i in gens if i != 0]
    if not nonzero:
        return None
    first = nonzero[0]
    return first, GeneratingSet.of([0] + [i - first + 1 for i in nonzero])


def claimed_additive_bound(
    x_gens: GeneratingSet, y_gens: GeneratingSet
) -> Optional[int]:
    if x_gens == y_gens:
        return 0
    down_x = _shift_down(x_gens)
    if down_x is not None and down_x[1] == y_gens:
        return 2 * (down_x[0] - 1)
    down_y = _shift_down(y_gens)
    if down_y is not None and down_y[1] == x_gens:
        return 2 * (down_y[0] - 1)
    return None


def coarse_isometry_check(
    x_gens: GeneratingSet,
    y_gens: GeneratingSet,
    radius: int,
    cap: int = DEFAULT_STATE_CAP,
) -> CoarseIsometryReport:
    """Measure max |l_X - l_Y| over the union of both balls of the given
    radius.

    Each set's ball grows once, in one ``_grow``: X's to the radius, then
    Y's.  An element of one ball that the other lacks is longer than the
    radius in the other, so each set's growth then goes on, X's first,
    until its table holds every slot of the union (``_cover``), and is
    closed, which frees its frontier.  An element and its inverse share a
    slot and a length, so the gap and the 2 * slots - 1 elements checked
    are read off the slots.  A cap met past the radius reads "ball
    enumeration exceeded ... at radius r", as one met within it does.

    With {x0} on exactly one side and radius >= 1, the other ball holds
    the other set's smallest nonzero generator, which lies outside <x0>,
    so no search over {x0} measures it: ValueError naming that generator,
    before either ball is built."""
    alone = (x_gens.indices == (0,), y_gens.indices == (0,))
    if radius >= 1 and alone[0] != alone[1]:
        other = y_gens if alone[0] else x_gens
        raise ValueError(f"x{other.indices[1]} is not in the subgroup generated by x0")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    grows = [_grow(gens.letters(), cap) for gens in (x_gens, y_gens)]
    # a growth yields the ball of radius 0 first, so item R is that of R
    tables = [next(islice(grow, radius, None)) for grow in grows]
    slots = {(high, low) for table in tables for high, row in table.items() for low in row}
    for grow, table in zip(grows, tables):
        _cover(chain([table], grow), slots)
        grow.close()
    table_x, table_y = tables
    max_diff = max(abs(table_x[high][low] - table_y[high][low]) for high, low in slots)
    return CoarseIsometryReport(
        x_gens=x_gens,
        y_gens=y_gens,
        radius=radius,
        elements_checked=2 * len(slots) - 1,
        max_difference=max_diff,
        claimed_bound=claimed_additive_bound(x_gens, y_gens),
    )


def probe_subset_monotonicity(
    small: GeneratingSet,
    large: GeneratingSet,
    radius: int,
    cap: int = DEFAULT_STATE_CAP,
) -> bool:
    """True when l_large(g) <= l_small(g) for every g in the small ball."""
    if not set(small.indices) <= set(large.indices):
        raise ValueError(
            f"{list(small)} is not a subset of {list(large)}"
        )
    ball_small = ball(small, radius, cap=cap)
    ball_large = ball(large, radius, cap=cap)
    large = ball_large.table
    for pos, row in ball_small.table.items():
        large_row = large.get(pos, {})
        for neg, length in row.items():
            if large_row.get(neg, length + 1) > length:
                return False
    return True
