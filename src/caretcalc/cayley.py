"""Brute-force word metrics on the Cayley graph, for arbitrary finite
generating subsets {x_i : i in X} with 0 in X.

Everything here is breadth-first search over elements held as texts: the
canonical encoding "negative|positive" of a reduced pair is the element,
so a search makes no tree pair at all.  The lengths are exact and serve as
the independent oracle for the closed-form machinery in
:mod:`caretcalc.metrics`.

The searches come in two kinds, and each stores what it has seen in the
layout that is smaller for it:

* ``ball`` and ``lengths_for`` grow one ball from the identity
  (``_grow``).  A ball shares its trees widely: the 28,631 elements of
  ``ball({0,1,2}, 7)`` hold 3,871 distinct positive and 3,871 distinct
  negative trees, 7.4 elements per positive tree, and since a ball is
  closed under inversion the two sets of trees are the same texts.  So
  their table is ``table[positive][negative] = length``, each tree text
  kept once for the whole search, and the frontier is carried from
  radius to radius already grouped the same way.  An element costs a
  slot in its row instead of its own ~50-character key: a traced peak of
  ~68 B in place of ~137 B per element of that ball.  A step by a letter
  rearranges subtrees of the positive tree only, so ``_grow`` makes each
  ``group_ops.plan`` once per positive tree and letter, and enacts it on
  the negative tree of every element of the group (``group_ops.enact``).
* A single length (``bfs_length``) and a shortest path inside a ball
  (``in_ball_geodesic``) are searched from both ends at once
  (``_meet``): the side with the smaller frontier grows by one shell
  until it reaches a state the other side has seen, which gives the
  distance exactly.  Their searches share few trees (1.03-1.5 elements
  per positive tree on the benchmark's length queries), so they keep one
  encoding per state and step on each with ``group_ops.apply_letter``.

The Cayley graph is bipartite.  Every relator x_i^-1 x_n x_i x_{n+1}^-1
has exponent sum 0, so the exponent sum is a homomorphism F -> Z, every
edge changes its parity, and the lengths of two neighbours differ by
exactly 1.  So the ball of radius R - 1 decides membership in the ball of
radius R: a neighbour v of a vertex u of the ball lies in it exactly when
l(u) <= R - 1 or l(v) <= R - 1, and a vertex lies in it exactly when it,
or (for R >= 1) one of its neighbours, is within R - 1.  The in-ball
search therefore never enumerates the outer sphere, which is most of the
ball.  On top of the ball index sit three probes:

* ``probe_mac`` builds the witness pair whose in-ball distance blows up
  (the obstruction to minimal almost convexity) and checks its three
  defining properties by search, on the ball one radius smaller;
* ``coarse_isometry_check`` measures the largest observed additive gap
  between two word metrics and compares it against the claimed constant
  when one set is a shifted copy of the other;
* ``probe_subset_monotonicity`` confirms that enlarging the generating
  set never increases word length.

State caps make every search abort loudly (SearchCapExceededError, which
says the radius or the depth of each side reached) instead of returning a
silently truncated answer; a two-sided search counts the states of both
sides against one cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .errors import SearchCapExceededError
from .group_ops import (
    GeneratingSet,
    Letter,
    apply_letter,
    enact,
    evaluate_word,
    identity,
    invert,
    multiply,
    normal_form,
    plan,
)
from .metrics import length_consecutive
from .tree_core import CaretTree, TreePairDiagram, canonical_encode

DEFAULT_STATE_CAP = 5_000_000

CONFIRMED = "witness-confirmed"
REFUTED = "refuted"


def _texts(item) -> tuple[str, str]:
    """The negative and positive texts of a pair or of its encoding."""
    if isinstance(item, TreePairDiagram):
        return item.negative.root, item.positive.root
    neg, _, pos = item.partition("|")
    return neg, pos


def _lookup(table: dict, item) -> Optional[int]:
    """The length that a table in the layout of ``BallIndex.table`` holds
    for a pair or an encoding; None when it holds none."""
    neg, pos = _texts(item)
    row = table.get(pos)
    return None if row is None else row.get(neg)


@dataclass(frozen=True)
class BallIndex:
    """All elements with l_X <= radius, grouped by positive tree:
    ``table[positive][negative]`` is the length of the element with those
    two trees.

    A ball shares its trees widely (see the module docstring), so a row
    per positive tree, whose keys are negative texts each kept once, costs
    half the bytes of one "negative|positive" key per element.
    ``items`` makes the encodings, one at a time, for a reader that wants
    them; ``pair_of`` parses nothing.
    """

    gens: GeneratingSet
    radius: int
    table: dict

    @property
    def size(self) -> int:
        return sum(map(len, self.table.values()))

    def __contains__(self, item) -> bool:
        return _lookup(self.table, item) is not None

    def length_of(self, item) -> int:
        length = _lookup(self.table, item)
        if length is None:
            raise KeyError(item if isinstance(item, str) else canonical_encode(item))
        return length

    def pair_of(self, encoding: str) -> TreePairDiagram:
        """The reduced pair of a member; KeyError for anything else."""
        if encoding not in self:
            raise KeyError(encoding)
        neg, pos = _texts(encoding)
        return TreePairDiagram(CaretTree(neg), CaretTree(pos))

    def items(self) -> Iterator[tuple[str, int]]:
        """Each element's encoding and length, row by row."""
        for pos, row in self.table.items():
            tail = "|" + pos
            for neg, length in row.items():
                yield neg + tail, length

    def sphere_sizes(self) -> list[int]:
        counts = [0] * (self.radius + 1)
        for row in self.table.values():
            for length in row.values():
                counts[length] += 1
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
    overflow: str,
    radius: Optional[int] = None,
) -> Iterator[dict]:
    """The table of the ball of radius r about the identity, in the
    layout of ``BallIndex.table``, for r = 0, 1, 2, ... up to ``radius``
    (without end when it is None): one table, yielded after each shell
    and grown in place.

    The frontier is ``{positive: [(negative, back letter)]}``, grouped as
    the table is, so a shell reads its groups as they stand.  It takes the
    groups in the order their trees were first reached, plans a letter at
    its first use in a group, enacts it on every member, and clears the
    group's list once it is done, so the frontier's memory falls while
    the table grows.  A shell never applies an entry's back letter, the
    inverse of the letter that reached it: that neighbour is already
    seen.  Every new element's two texts pass through one dict,
    ``names``, so equal trees share one string for the whole search,
    whether they stand as negative or positive trees.  The last shell
    of a ball keeps no frontier.  Recording an element beyond ``cap``
    raises SearchCapExceededError with ``overflow`` and the radius.

    The order of expansion decides only which letter first reaches an
    element, and so its back letter; no answer reads it, and
    ``BallIndex.export_lines`` sorts each sphere.  On ``ball({0,1,2}, 7)``
    taking the groups last in first out cut the traced peak by ~4 % but
    ran 3-6 % slower, and keeping the expanded lists raised it by ~17 %.
    """
    start = identity()
    neg, pos = start.negative.root, start.positive.root
    table = {pos: {neg: 0}}
    frontier = {pos: [(neg, None)]}
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
            plans: dict = {}
            for neg, back in members:
                for letter, undo in steps:
                    if letter is back:
                        continue
                    step = plans.get(letter)
                    if step is None:
                        step = plans[letter] = plan(pos, *letter)
                    n, p = enact(neg, step)
                    row = table.get(p)
                    if row is not None and n in row:
                        continue
                    if size >= cap:
                        raise SearchCapExceededError(f"{overflow} at radius {r}", size)
                    p = names.setdefault(p, p)
                    if row is None:
                        row = table[p] = {}
                    n = names.setdefault(n, n)
                    row[n] = r
                    size += 1
                    if keep:
                        new.setdefault(p, []).append((n, undo))
            members.clear()
        frontier = new
        yield table


def ball(gens: GeneratingSet, radius: int, cap: int = DEFAULT_STATE_CAP) -> BallIndex:
    """Exact breadth-first enumeration of the ball of the given radius."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    for table in _grow(
        gens.letters(), cap,
        f"ball enumeration exceeded the state cap of {cap} elements", radius,
    ):
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


def lengths_for(
    targets: Iterable[TreePairDiagram],
    gens: GeneratingSet,
    cap: int = DEFAULT_STATE_CAP,
) -> dict[str, int]:
    """Exact lengths of several elements at once, by a single expanding
    search from the identity that stops when every target has been seen.

    Every target is reached at some radius: ``_check_reachable`` keeps a
    target of the set {x0} inside <x0>, any other set generates F, and no
    sphere of F, or of the infinite cyclic <x0>, is empty, so the search
    ends by seeing every target or at the cap."""
    wanted = set()
    for t in targets:
        _check_reachable(t, gens)
        wanted.add(canonical_encode(t))
    for table in _grow(
        gens.letters(), cap, f"length search exceeded the state cap of {cap} states"
    ):
        found = {enc: _lookup(table, enc) for enc in wanted}
        if None not in found.values():
            break
    return found


def _meet(
    a: TreePairDiagram,
    b: TreePairDiagram,
    letters: tuple[Letter, ...],
    cap: int,
    what: str,
    inner: Optional[Callable[[str, str], bool]] = None,
) -> Optional[int]:
    """Distance from a to b by breadth-first search from both ends.

    Each side keeps a dict from the encoding of every state it has seen to
    that state's back letter, the inverse of the letter that first reached
    it (None at the side's start), and a frontier of encodings.  Each step
    grows the side with the smaller frontier by one shell: it steps on each
    entry's two texts by every letter but its back letter, whose neighbour
    is already seen.  While the two seen sets are disjoint the distance
    exceeds the sum of the two depths, so the first neighbour that the
    other side has seen ends the search with exactly that sum, whichever
    neighbour it is.  With ``inner`` (a test of an element's two texts for
    length <= R - 1) the search stays in the ball of radius R: an entry
    that fails it keeps only the neighbours that pass it.  The cap counts
    the states of both sides together.  None means one side ran out of
    vertices.
    """
    steps = _steps(letters)
    seen = ({canonical_encode(a): None}, {canonical_encode(b): None})
    if seen[0].keys() == seen[1].keys():
        return 0
    frontiers = [list(seen[0]), list(seen[1])]
    depths = [0, 0]
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        depths[side] += 1
        mine, other = seen[side], seen[1 - side]
        new: list[str] = []
        for enc in frontiers[side]:
            neg, pos = _texts(enc)
            back = mine[enc]
            free = inner is None or inner(neg, pos)
            for letter, undo in steps:
                if letter is back:
                    continue
                texts = apply_letter(neg, pos, *letter)
                key = "|".join(texts)
                if key in mine:
                    continue
                if key in other:
                    return depths[0] + depths[1]
                if not free and not inner(*texts):
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


def _covering_ball(
    gens: GeneratingSet, radius: int, ball_index: Optional[BallIndex], cap: int
) -> BallIndex:
    """The index an in-ball search of ``radius`` reads: ``ball_index`` if
    it is over ``gens`` and reaches radius - 1, else ValueError; without
    one, the ball of radius - 1 is enumerated."""
    if ball_index is None:
        return ball(gens, max(radius - 1, 0), cap=cap)
    if ball_index.gens != gens or ball_index.radius < radius - 1:
        raise ValueError("ball index does not cover the requested ball")
    return ball_index


def in_ball_geodesic(
    a: TreePairDiagram,
    b: TreePairDiagram,
    gens: GeneratingSet,
    radius: int,
    ball_index: Optional[BallIndex] = None,
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
    so the search reads only rows of length <= radius - 1: an edge from
    u to v stays in the ball exactly when u or v has such a row, and an
    endpoint lies in it exactly when it or one of its neighbours does (for
    radius 0, when it is the identity).  Without ``ball_index`` it
    enumerates the ball of radius ``radius - 1``; a given index must have
    at least that radius, and its longer rows are never read.
    """
    table = _covering_ball(gens, radius, ball_index, cap).table
    letters = gens.letters()

    def inner(neg: str, pos: str) -> bool:
        row = table.get(pos)
        return row is not None and row.get(neg, radius) < radius

    def within(p: TreePairDiagram) -> bool:
        if radius <= 0:
            return radius == 0 and p.is_identity
        neg, pos = p.negative.root, p.positive.root
        return inner(neg, pos) or any(
            inner(*apply_letter(neg, pos, *letter)) for letter in letters
        )

    for name, p in (("a", a), ("b", b)):
        if not within(p):
            raise ValueError(f"endpoint {name} lies outside the ball of radius {radius}")
    return _meet(a, b, letters, cap, "in-ball search", inner)


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
    gens: GeneratingSet,
    k: int,
    cap: int = DEFAULT_STATE_CAP,
    ball_index: Optional[BallIndex] = None,
) -> MacProbeReport:
    """Check the witness pair: both on the sphere of radius 2k+2, at
    distance 2 from each other, yet at in-ball distance >= 4k+4.

    The in-ball search needs only the ball of radius 2k+1 (see
    ``in_ball_geodesic``), so that is the ball enumerated when
    ``ball_index`` is None; a given index must have radius >= 2k+1.  The
    lengths of g and h, which lie beyond it, come from ``bfs_length``.
    The witness pairs, whose trees grow with k, are built last.
    """
    _check_witness_family(gens, k)
    radius = 2 * k + 2
    ball_index = _covering_ball(gens, radius, ball_index, cap)
    g, h = mac_witness_pair(gens, k)
    g_length = bfs_length(g, gens, cap=cap)
    h_length = bfs_length(h, gens, cap=cap)
    distance = bfs_length(multiply(invert(g), h), gens, cap=cap)
    min_path: Optional[int] = None
    if g_length <= radius and h_length <= radius:
        min_path = in_ball_geodesic(
            g, h, gens, radius, ball_index=ball_index, cap=cap
        )
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
    """Sweep both balls of the given radius and measure max |l_X - l_Y|."""
    ball_x = ball(x_gens, radius, cap=cap)
    ball_y = ball(y_gens, radius, cap=cap)
    lengths_x = dict(ball_x.items())
    lengths_y = dict(ball_y.items())
    only_y = [ball_y.pair_of(e) for e in lengths_y.keys() - lengths_x.keys()]
    only_x = [ball_x.pair_of(e) for e in lengths_x.keys() - lengths_y.keys()]
    if only_y:
        lengths_x.update(lengths_for(only_y, x_gens, cap=cap))
    if only_x:
        lengths_y.update(lengths_for(only_x, y_gens, cap=cap))
    universe = set(lengths_x) | set(lengths_y)
    max_diff = max(
        (abs(lengths_x[e] - lengths_y[e]) for e in universe), default=0
    )
    return CoarseIsometryReport(
        x_gens=x_gens,
        y_gens=y_gens,
        radius=radius,
        elements_checked=len(universe),
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
    for enc, length in ball_small.items():
        if enc not in ball_large or ball_large.length_of(enc) > length:
            return False
    return True
