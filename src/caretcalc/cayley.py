"""Brute-force word metrics on the Cayley graph, for arbitrary finite
generating subsets {x_i : i in X} with 0 in X.

Everything here is breadth-first search over elements held as texts: the
canonical encoding "negative|positive" of a reduced pair is the element,
so a search makes no tree pair at all.  The lengths are exact and serve as
the independent oracle for the closed-form machinery in
:mod:`caretcalc.metrics`.  Two places read the closed form: the in-ball
length function over a consecutive set (``_ball_tests``), which the ball
route and the tests check, and ``word_length``, the one place that picks
the route of a single length, which ``len`` and the ``formula_*`` fields
of ``probe_mac`` go through, and which the probe checks against the
lengths its witness's words certify.

Every set but {x0} is a shifted copy of a set that holds x1.  Let phi fix
x0 and raise every other index by one: x0^-1 x_n x0 = x_{n+1} for
n >= 1, so phi(g) = x0^-1 g x0.  A set whose smallest nonzero index is
j = s + 1 is phi^s(S) for its base S, which holds x0 and x1
(``_shift_down``), and conjugation by x0^s maps the Cayley graph over it
onto the one over S as labelled graphs, fixing the identity
(``_conjugate``).  So lengths, balls and in-ball distances carry over
exactly: ``word_length``, ``in_ball_geodesic`` and ``probe_mac`` answer a
shifted set on the conjugates over its base, and at s = 0 the map is the
identity and makes no product.  ``bfs_length`` and the ball growths
search the set they are given.

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
exactly when l(u) <= R - 1 or l(v) <= R - 1.  ``_ball_tests`` makes one
function, ``length(neg, pos, limit)``, the exact length of an element
when it is at most the limit, which decides that test (at R - 1) and
gives the endpoints' lengths (at R).  Over {x0, ..., xn} with n >= 1,
the base of every shifted copy of it, it reads the closed form and
enumerates no ball.  Over any other base it takes the ball of radius
R - 2, which ``_ball_tests`` enumerates
itself, and one or two steps, so the in-ball search never enumerates
the two outer spheres, which are most of the ball.  Most elements that
search meets lie outside the ball, and most of those are ruled out
without the closed form or a step by l_infinity, the
length over the whole infinite set {x_i}, which two texts give at once:
every length here is over a subset of that set, so
none is below l_infinity, and both have the parity of the exponent sum,
since every x_i^+-1 moves it by one.  The parity also makes a bound
exact: a path between a and b through the identity stays in the ball and
is l(a) + l(b) long, and the distance has the parity of that sum, so a
search that has ruled out every path of length l(a) + l(b) - 2 or less
has its answer.  On top of the ball sit three probes:

* ``probe_mac`` builds the witness pair whose in-ball distance blows up
  (the obstruction to minimal almost convexity), certifies the pair's
  lengths and their distance from its own words and l_infinity, and
  searches only for its in-ball distance, with that length function and
  the in-ball search that ``in_ball_geodesic`` runs too (``_in_ball``),
  over the base set between the conjugated witnesses;
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
from .metrics import DEFAULT_STATE_CAP, LengthReport, _l_infinity, _weight, length_consecutive
from .tree_core import TreePairDiagram, TreeSurvey, canonical_encode

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
    ``inner`` (a test of an element's two texts for length <= R - 1,
    which ``_in_ball`` reads off ``_ball_tests``' length function) the
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


def _shift_down(gens: GeneratingSet) -> tuple[int, GeneratingSet]:
    """The base (s, S) of ``gens``: S holds x0 and x1, and gens = phi^s(S),
    where phi fixes x0 and raises every other index by one; (0, gens) for
    {x0}.  Every other set holds some x_j, and s = j - 1."""
    s = gens.indices[1] - 1 if len(gens.indices) > 1 else 0
    return s, GeneratingSet(tuple(0 if i == 0 else i - s for i in gens))


def _conjugate(pair: TreePairDiagram, s: int) -> TreePairDiagram:
    """x0^s g x0^-s, the element that stands for g over the base of a set
    shifted by s; g itself at s = 0, with no product.

    phi(g) = x0^-1 g x0, since x0^-1 x_n x0 = x_{n+1} for n >= 1, so the
    conjugation maps the Cayley graph over phi^s(S) onto the one over S as
    labelled graphs and fixes the identity: lengths, balls and in-ball
    distances carry over exactly."""
    if not s:
        return pair
    x0 = evaluate_word([(0, s)])
    return multiply(multiply(x0, pair), invert(x0))


def word_length(
    pair: TreePairDiagram,
    gens: GeneratingSet,
    method: str = "auto",
    cap: int = DEFAULT_STATE_CAP,
) -> tuple[str, int, Optional[LengthReport]]:
    """The exact length of ``pair`` over ``gens``, as (method, length,
    report): the one place that picks a length route.

    ``gens`` maps to its base (s, S) (``_shift_down``).  When S is
    consecutive, {x0, ..., xn} with n >= 1, the length is the closed form
    over S of x0^s g x0^-s (``_conjugate``): method "formula" at s = 0,
    which returns the closed form's report, and "conjugate" at s >= 1,
    which returns none.  Otherwise, and always under method "bfs", it is
    ``bfs_length`` over ``gens``, method "bfs", the route that stays
    independent of the closed form.  Method "formula" on a set with no
    closed form, {x0} or one whose nonzero indices have a gap, raises
    ValueError naming the set, before any work."""
    if method not in ("auto", "formula", "bfs"):
        raise ValueError(f"method must be auto, formula or bfs, got {method!r}")
    s, base = _shift_down(gens)
    closed = base.max_index >= 1 and base.is_consecutive
    if method == "formula" and not closed:
        raise ValueError(f"the closed form needs x0 and one or more consecutive "
                         f"indices after it, got {list(gens)}")
    if method == "bfs" or not closed:
        return "bfs", bfs_length(pair, gens, cap), None
    report = length_consecutive(_conjugate(pair, s), base.max_index, cap)
    return ("conjugate", report.length, None) if s else ("formula", report.length, report)


def _ball_tests(
    gens: GeneratingSet, radius: int, cap: int
) -> Callable[[str, str, int], Optional[int]]:
    """The length function of the ball of ``radius`` over ``gens``:
    ``length(neg, pos, limit)``, for ``limit`` <= radius, is the exact
    length of the element with those texts when it is <= limit, and None
    otherwise.  The in-ball search asks it at radius - 1 (``_in_ball``)
    and of its endpoints at radius.

    It screens first by l_infinity (``metrics._l_infinity``, read off the
    two texts).  The generators are a subset of the infinite set {x_i},
    so l_X >= l_infinity, and the screen is exact: an element with
    l_infinity > limit gets None at once.  The two also share the parity
    of the exponent sum, so for an element of length radius + 1, the most
    common miss of the in-ball search, l_infinity is either radius + 1,
    and the element is refused at once, or at most radius - 1.

    Its callers, ``in_ball_geodesic`` and ``probe_mac``, hand it the base
    set of theirs (``_shift_down``) and search between conjugates, so a
    shifted copy of a consecutive set reads the closed form too.  Over a
    consecutive set {x0, ..., xn} with n >= 1, an element that passes the
    screen gets its length from the closed form: l_infinity
    plus twice ``metrics._weight`` on the two texts' surveys, each call
    under ``cap``.  No ball is enumerated.  The k = 2 witness search over
    {x0, x1, x2} runs the closed form for 48 of its 241 inner tests, and
    ``probe-mac --gens 0,1,2 --k 5`` takes ~0.7 s at ~22 MiB, against
    ~3 s at ~65 MiB on the ball of radius 10 (2-core Xeon, Python 3.11).

    Every other set, {x0} and those whose nonzero indices have a gap, has
    no closed form here and reads the ball of radius ``inside`` =
    max(radius - 2, 0), which is enumerated first, under ``cap``: below
    radius 2 it holds only the identity.  An element of that ball has its
    length in the table, and one it lacks is longer than ``inside``.
    Neighbours' lengths differ by exactly 1 (see the module docstring),
    so such an element has length inside + 1 exactly when one of its
    neighbours is in the table, which only an element with l_infinity <=
    inside + 1 can have, and otherwise length inside + 2 exactly when one
    of its neighbours has length inside + 1.  No limit exceeds radius <=
    inside + 2, so an element that is neither is beyond every limit; each
    step is tried only when its length is within the limit.
    """
    n = gens.max_index
    if gens.is_consecutive and n:

        def length(neg: str, pos: str, limit: int) -> Optional[int]:
            flat = _l_infinity(neg, pos)
            if flat > limit:
                return None
            exact = flat + 2 * _weight(TreeSurvey(neg), TreeSurvey(pos), n, cap)[0]
            return exact if exact <= limit else None

        return length

    inside = max(radius - 2, 0)
    table = ball(gens, inside, cap=cap).table
    letters = gens.letters()

    def near(neg: str, pos: str, test: Callable[[str, str], bool]) -> bool:
        spine = _spine(pos)
        return any(test(*enact(neg, plan(spine, *letter))) for letter in letters)

    def held(neg: str, pos: str) -> bool:
        return _lookup(table, neg, pos) is not None

    def rim(neg: str, pos: str) -> bool:
        """Whether an element the table lacks has length inside + 1."""
        return _l_infinity(neg, pos) <= inside + 1 and near(neg, pos, held)

    def length(neg: str, pos: str, limit: int) -> Optional[int]:
        flat = _l_infinity(neg, pos)
        if flat > limit:
            return None
        found = _lookup(table, neg, pos)
        if found is not None:
            return found if found <= limit else None
        if flat <= inside + 1 <= limit and near(neg, pos, held):
            return inside + 1
        if inside + 2 <= limit and near(neg, pos, rim):
            return inside + 2
        return None

    return length


def _in_ball(
    a: TreePairDiagram, b: TreePairDiagram, gens: GeneratingSet, radius: int, cap: int,
    length: Callable[[str, str, int], Optional[int]], bound: int,
) -> Optional[int]:
    """The in-ball search of ``in_ball_geodesic`` and ``probe_mac``:
    ``_meet`` from a to b, whose inner test is ``length`` (from
    ``_ball_tests``) at radius - 1, with ``bound``, the sum of the two
    endpoints' lengths."""
    return _meet(a, b, gens.letters(), cap, "in-ball search",
                 lambda n, p: length(n, p, radius - 1) is not None, bound)


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
    length <= radius - 1, which ``_ball_tests``' length function decides:
    by the closed form over {x0, ..., xn} with n >= 1, and otherwise from
    the ball of radius - 2, which it enumerates, and one or two steps.
    The same function gives each endpoint's exact length, and the path
    through the identity, l(a) + l(b) long, stays in the ball, so the
    search (``_in_ball``) takes that sum as its bound.  Over a shifted set
    the search runs over its base between the conjugated endpoints, which
    gives the same distance (see ``_conjugate``).  Some pairs meet
    it, the MAC witnesses among them (F is maximally nonconvex: J. Belk,
    K.-U. Bux, 2005), and for those the search stops two half-shells
    before its sides would meet.  At a radius below 0 the ball is empty,
    so every endpoint lies outside it.
    """
    s, gens = _shift_down(gens)
    a, b = _conjugate(a, s), _conjugate(b, s)
    length = _ball_tests(gens, radius, cap)
    bound = 0
    for name, p in (("a", a), ("b", b)):
        found = length(p.negative.root, p.positive.root, radius)
        if found is None:
            raise ValueError(f"endpoint {name} lies outside the ball of radius {radius}")
        bound += found
    return _in_ball(a, b, gens, radius, cap, length, bound)


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
    if len(gens.indices) < 3:
        # named by x_j, the smallest nonzero index, or x_1 for {x0}
        raise ValueError(
            f"the witness family needs x_0, x_{max(gens.max_index, 1)} and one more "
            f"generator: got indices {list(gens)}"
        )


def mac_witness_pair(
    gens: GeneratingSet, k: int
) -> tuple[TreePairDiagram, TreePairDiagram]:
    """The two elements whose in-ball distance defeats minimal almost
    convexity: g = x_j^{k+1} x_{k+m+1} x_0^{-k} with j the smallest
    nonzero index of X and m = max(X) > j, which equals
    x_m x_j^{k+1} x_0^{-k}, and h = x_j^{k+1} x_0^{-(k+1)}.  Over a set
    holding x1 (j = 1) this is the paper's pair; over phi^s(S) it is phi^s of
    the pair over S (see ``_conjugate``).

    On return g is the value of the word x_m x_j^{k+1} x_0^{-k}, checked
    against the first spelling (AssertionError when the two disagree), and
    h that of x_j^{k+1} x_0^{-(k+1)}: both are words of 2k + 2 letters
    over X, so neither is longer than 2k + 2.
    """
    _check_witness_family(gens, k)
    j, m = gens.indices[1], gens.max_index
    g = evaluate_word([(j, k + 1), (k + m + 1, 1), (0, -k)])
    g_alt = evaluate_word([(m, 1), (j, k + 1), (0, -k)])
    if canonical_encode(g) != canonical_encode(g_alt):
        raise AssertionError("the two spellings of the witness disagree")
    h = evaluate_word([(j, k + 1), (0, -(k + 1))])
    return g, h


def probe_mac(
    gens: GeneratingSet, k: int, cap: int = DEFAULT_STATE_CAP
) -> MacProbeReport:
    """Check the witness pair: both on the sphere of radius 2k+2, at
    distance 2 from each other, yet at in-ball distance >= 4k+4.

    The witness words have 2k + 2 letters and use x_{k+m+1}, so a k for
    which either exceeds ``cap`` is refused first, with
    SearchCapExceededError, as ``len`` refuses such a word: before any
    ball or witness is built.  Then the in-ball length function
    (``_ball_tests``) is made over the base set (``_shift_down``), which
    over a base that is not consecutive enumerates the ball of radius 2k,
    and the witness pairs, whose trees grow with k, are built after it.

    The first two properties are certified by the witness's own words,
    with no search.  g and h are words of 2k + 2 letters over X
    (``mac_witness_pair``), and no length over a subset of {x_i} is below
    l_infinity, so l_infinity(g) = l_infinity(h) = 2k + 2 gives |g| = |h|
    = 2k + 2.  And g x_0^-1 x_m^-1 = h gives |g^-1 h| <= 2; the word has
    exponent sum -2, so g^-1 h is not the identity and its length is even:
    it is 2.  A witness that fails either check is a construction bug, not
    a refuted claim, and raises AssertionError.  Then the in-ball search
    (``_in_ball``) runs as in ``in_ball_geodesic``, over the base between
    the conjugated witnesses, with |g| + |h| as its bound.  When the base
    is consecutive the ``formula_*`` fields read the closed form through
    ``word_length``, which the verdict checks against the certified
    2k + 2.
    """
    _check_witness_family(gens, k)
    letters, top = 2 * k + 2, k + gens.max_index + 1
    if letters > cap or top > cap:
        raise SearchCapExceededError(
            f"the witness words of k = {k} have {letters} letters and use x{top}, "
            f"beyond the cap of {cap}", max(letters, top))
    radius = 2 * k + 2
    s, base = _shift_down(gens)
    length = _ball_tests(base, radius, cap)
    g, h = mac_witness_pair(gens, k)
    step = evaluate_word([(0, -1), (gens.max_index, -1)])
    flat = tuple(_l_infinity(p.negative.root, p.positive.root) for p in (g, h))
    if flat != (radius, radius) or canonical_encode(multiply(g, step)) != canonical_encode(h):
        raise AssertionError("the witness's words do not certify its lengths")
    ends = _conjugate(g, s), _conjugate(h, s)
    min_path = _in_ball(*ends, base, radius, cap, length, 2 * radius)
    formula_g = formula_h = None
    if base.is_consecutive:
        formula_g, formula_h = (word_length(p, base, "formula", cap)[1] for p in ends)
    ok = (
        min_path is not None
        and min_path >= 4 * k + 4
        and formula_g in (None, radius)
        and formula_h in (None, radius)
    )
    return MacProbeReport(
        gens=gens,
        k=k,
        g_encoding=canonical_encode(g),
        h_encoding=canonical_encode(h),
        g_length=radius,
        h_length=radius,
        distance=2,
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


def claimed_additive_bound(
    x_gens: GeneratingSet, y_gens: GeneratingSet
) -> Optional[int]:
    """The claimed constant between the two word metrics: 0 for equal
    sets, and 2s when one set is phi^s(S) for the other set S, its base
    (``_shift_down``); None otherwise.  Under that map 2s is a theorem:
    the length of g over phi^s(S) is the length over S of x0^s g x0^-s,
    and conjugating by x0^s changes an S-length by at most 2s."""
    if x_gens == y_gens:
        return 0
    (s_x, base_x), (s_y, base_y) = _shift_down(x_gens), _shift_down(y_gens)
    if base_x == base_y and 0 in (s_x, s_y):
        return 2 * (s_x + s_y)
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
