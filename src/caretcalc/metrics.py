"""Word-length machinery for consecutive generating sets {x_0, ..., x_n}.

The exact word length of a reduced pair g splits as

    length(g, n) = l_infinity(g) + 2 * penalty_weight(g, n)

where ``l_infinity`` counts carets off the right spine in both trees and the
penalty weight is the minimum, over all valid penalty trees, of the number
of vertices at depth >= 2 with a vertex exactly n - 1 below them.  That is
the same as height >= n - 1: a longest path down from a vertex passes a
vertex at every distance up to its height.

A penalty tree is an oriented tree rooted at the phantom vertex 0 (the
space left of either tree) whose edges follow the caret adjacency order,
which contains every penalty caret, and whose leaves are all penalty
carets (the bare root being the one exception).  Carets that are not
penalty carets may appear as interior routing vertices.

``penalty_weight`` finds the minimum with one engine at every n.  The
chain 0 -> 1 -> ... -> top, or the first tree in search order, ends it
when it meets a lower bound from the least depth of each caret; otherwise
a program over caret index gives the exact weight and the search's first
tree of that weight.  The first tree exists for every reduced pair, and
at n = 1 it always meets the bound, so the n = 1 weight is a count (the
penalty carets that vertex 0 does not precede) and the program runs only
at n >= 2.  In the program a caret at depth >= 2 decides whether it
counts when it takes its first child: counting costs 1, and not counting
caps the levels below it at n - 2.  The cheapest decisions for a tree
cost exactly its weight, so a placed caret needs only a few small fields
(levels left, undecided, owes a child) while it may still take a child.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from .errors import InvalidPenaltyTreeError, SearchCapExceededError
from .tree_core import TreePairDiagram, TreeSurvey, count_carets, right_spine_carets

DEFAULT_PENALTY_CAP = 10_000_000

TYPE_N_NEGATIVE = "TypeN-negative"
TYPE_N_POSITIVE = "TypeN-positive"
RIGHT_IN_BOTH = "Right-in-both-not-final"


def l_infinity(pair: TreePairDiagram) -> int:
    """Carets that are not right carets, summed over both trees.

    The top caret counts as a right caret.  This is the word length with
    respect to the full infinite generating set.
    """
    return _l_infinity(pair.negative.root, pair.positive.root)


def _l_infinity(neg: str, pos: str) -> int:
    """``l_infinity`` of the pair with these two texts, which need not be
    reduced: twice the carets of one tree, less each tree's right spine."""
    return 2 * count_carets(neg) - right_spine_carets(neg) - right_spine_carets(pos)


def adjacency(pair: TreePairDiagram) -> frozenset[tuple[int, int]]:
    """The caret order of a pair, as a frozenset of (p, q) edges: (p, q)
    is present when the space of caret p touches the space of caret q
    along a shared edge in either tree.  Vertex 0 stands for the space
    left of the trees and precedes every left-boundary caret.

    In leaf intervals (see ``tree_core``): in each tree, every caret q
    comes after the caret numbered by the leaf its interval starts at
    (vertex 0 for leaf 0), and before the caret numbered by the leaf just
    past its interval, when there is one.  ``penalty_weight`` reads the
    same intervals straight off the surveys and builds no edge set."""
    return _edges(pair.negative.survey(), pair.positive.survey())


def _edges(neg: TreeSurvey, pos: TreeSurvey) -> frozenset[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    for sv in (neg, pos):
        n, lo, hi = sv.carets, sv.lo, sv.hi
        for q in range(1, n + 1):
            edges.add((lo[q], q))
            if hi[q] <= n:
                edges.add((q, hi[q]))
    return frozenset(edges)


def penalty_carets(pair: TreePairDiagram) -> tuple[tuple[int, str], ...]:
    """The carets that force detours for consecutive generating sets, as
    a tuple of (caret, rule), by increasing caret.

    A caret p is flagged when the next caret p + 1 is interior and hangs
    inside p's right subtree (in either tree), or when p is a right caret
    in both trees and is not the final caret.  ``penalty_weight`` reads
    the same rules off the two surveys and builds no tuple."""
    return tuple(_flags(pair.negative.survey(), pair.positive.survey()))


def _flags(neg: TreeSurvey, pos: TreeSurvey) -> Iterator[tuple[int, str]]:
    """(p, rule) for each rule that flags caret p, by increasing p."""
    n = neg.carets
    nlo, nhi, plo, phi = neg.lo, neg.hi, pos.lo, pos.hi
    # p + 1 hangs inside p's right subtree when its interval starts at leaf
    # p, which is not leaf 0, so it is interior unless it reaches leaf n.
    for p in range(1, n):
        if nlo[p + 1] == p and nhi[p + 1] <= n:
            yield p, TYPE_N_NEGATIVE
        if plo[p + 1] == p and phi[p + 1] <= n:
            yield p, TYPE_N_POSITIVE
        if nhi[p] == phi[p] == n + 1:
            yield p, RIGHT_IN_BOTH


@dataclass(frozen=True)
class PenaltyTree:
    """Oriented tree rooted at vertex 0, stored as (child, parent) edges.

    ``pair`` is the element the tree was built for, when there is one:
    ``penalty_weight_of_tree`` then checks the tree against that pair's
    caret order and penalty carets.  Two trees are equal when their edges
    and their pairs are.
    """

    parents: tuple[tuple[int, int], ...]
    pair: Optional[TreePairDiagram] = None

    # Built on first read and kept: the tree is frozen.
    @cached_property
    def parent_map(self) -> Mapping[int, int]:
        """child -> parent, read-only."""
        return MappingProxyType(dict(self.parents))

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset({0} | {c for c, _ in self.parents})

    def serialize(self) -> str:
        """Comma-separated "parent>child" edges, or "-" for the bare root."""
        return ",".join(f"{p}>{c}" for c, p in self.parents) or "-"


def penalty_weight_of_tree(tree: PenaltyTree, n: int) -> int:
    """Vertices at depth >= 2 whose subtree still reaches down n - 1 steps,
    once the tree is checked against its construction rules
    (InvalidPenaltyTreeError when it breaks one).

    A tree that carries its pair is checked against that pair alone: one
    survey per tree gives the caret count, the caret order and the
    penalty carets, so the check shares no list with the search that
    built the tree.  A tree without a pair is checked only as a tree.

    Every edge raises the caret index, so one pass over the children in
    increasing order meets each parent before its children: it checks
    each edge and gives each depth.  One pass back meets each vertex
    after its children, so its height is then final, and height 0 marks
    a leaf, which must be a penalty caret; the weight is counted on the
    way."""
    if n < 1:
        raise ValueError(f"generating-set index n must be >= 1, got {n}")
    pm, vertices = tree.parent_map, tree.vertices
    if len(pm) != len(tree.parents):
        raise InvalidPenaltyTreeError("a vertex appears with two parents")
    if 0 in pm:
        raise InvalidPenaltyTreeError("vertex 0 is the root and has no parent")
    if tree.pair is None:
        # no pair to check against: the tree's own vertices, edges and
        # leaves are all allowed
        carets, edges = max(vertices), {(p, c) for c, p in tree.parents}
        required = vertices
    else:
        neg, pos = tree.pair.negative.survey(), tree.pair.positive.survey()
        carets, edges = neg.carets, _edges(neg, pos)
        required = {p for p, _ in _flags(neg, pos)}
    order = sorted(pm)
    depth = {0: 0}
    for child in order:
        parent = pm[child]
        if child < 1:
            raise InvalidPenaltyTreeError(f"bad vertex index {child}")
        if parent not in vertices:
            raise InvalidPenaltyTreeError(f"parent {parent} of {child} not in tree")
        if parent >= child:
            raise InvalidPenaltyTreeError(
                f"edge {parent} -> {child} does not increase the caret index"
            )
        if child > carets:
            raise InvalidPenaltyTreeError(f"vertex {child} is not a caret")
        if (parent, child) not in edges:
            raise InvalidPenaltyTreeError(
                f"edge {parent} -> {child} not allowed by the caret order"
            )
        depth[child] = depth[parent] + 1
    missing = required - vertices
    if missing:
        raise InvalidPenaltyTreeError(
            f"penalty carets {sorted(missing)} missing from the tree"
        )
    height = dict.fromkeys(depth, 0)
    weight = 0
    for child in reversed(order):
        h = height[child]
        if h == 0 and child not in required:
            raise InvalidPenaltyTreeError(f"leaf {child} is not a penalty caret")
        weight += depth[child] >= 2 and h >= n - 1
        parent = pm[child]
        if height[parent] <= h:
            height[parent] = h + 1
    return weight


def penalty_weight(
    pair: TreePairDiagram, n: int, cap: int = DEFAULT_PENALTY_CAP
) -> tuple[int, PenaltyTree]:
    """Exact minimum weight over all penalty trees, with a witness.

    Trees are ordered as a depth-first search over parent choices in
    increasing caret order would meet them: each caret is first left out
    (when it need not be in the tree), then hung from its placed
    predecessors by depth, then by index.  The witness is the chain
    0 -> 1 -> ... -> top penalty caret when no tree weighs less, and
    otherwise the first tree in that order of the least weight.

    No tree weighs less than a floor, from the least depth each caret can
    have.  The answer is the chain if it meets the floor, else the first
    tree in the order (every penalty caret hung from its shallowest placed
    predecessor, every other caret left out) if that meets it, and
    otherwise what ``_program`` finds: its decisions (a caret at depth
    >= 2 counts, at a cost of 1, or caps the levels below it at n - 2)
    cost at least the weight of the tree they build, and exactly that
    weight when made cheaply, so their least cost is the least weight,
    and the witness is read back along the least-cost links of its
    forward pass.

    The first tree always exists: every caret q has vertex 0 or a penalty
    caret among its predecessors, so each penalty caret, hung in
    increasing order, finds a placed one.  In each tree the caret lo[q]
    (vertex 0 when lo[q] = 0) precedes q, so if lo[q] = 0 in either tree,
    vertex 0 precedes q.  Otherwise, in a tree T, p = lo[q] >= 1 precedes
    q.  Leaf p is the leftmost leaf below q,
    so its parent is caret p + 1, which is q or on q's left spine below
    it, and whose interval starts at leaf p: p is Type N in T unless
    p + 1 is a right caret in T.  In that case q = p + 1, as the carets
    in q's left subtree stop at leaf q - 1, short of the last leaf; and
    p is a right caret in T too, as the parent of q on T's right spine
    (q starts past leaf 0, so is not the top), split at leaf lo[q] = p.
    So if neither tree makes lo[q] Type N, q - 1 is a right caret in both
    trees and is not the final caret, and it is therefore flagged
    right-in-both.

    At n = 1 every vertex at depth >= 2 counts, and the first tree hangs
    a penalty caret at depth 1 just when vertex 0 precedes it (least[q]
    = 1), so it weighs #{penalty q : least[q] > 1}: the penalty carets
    with lo[q] != 0 in both trees.  The n = 1 floor holds that count, so
    the first tree meets it, the n = 1 weight is that count, and
    ``_program`` runs only at n >= 2.

    The flags, least depths, floor, chain and first tree are all read off
    the two surveys' lo/hi lists, with unsorted predecessor lists up to
    the top penalty caret; only ``_program`` sorts those lists and builds
    successor lists.  No edge set is built.  The witness carries ``pair``
    and nothing of the search, so ``penalty_weight_of_tree`` checks it
    against the pair's own surveys.

    Raises SearchCapExceededError, not a possibly wrong minimum, at the
    cap of ``cap`` states: one per caret of the first tree, plus one per
    state of each cut of the program.
    """
    if n < 1:
        raise ValueError(f"generating-set index n must be >= 1, got {n}")
    # one survey per tree: the flags and the predecessors are read off
    # their lo/hi lists
    neg, pos = pair.negative.survey(), pair.positive.survey()
    required = sorted({p for p, _ in _flags(neg, pos)})
    if not required:
        return 0, PenaltyTree((), pair)

    top = required[-1]
    # preds[q]: the predecessors of caret q in the caret order, unsorted
    # and with repeats.  They are lo[q] in each tree and each caret whose
    # interval ends at leaf q - 1, so all come before q.  least[q] is the
    # least depth caret q can have in any penalty tree, and a required
    # caret at depth d counts its ancestors at depths 2 .. d - n + 1, so
    # no tree weighs less than the floor.  At n = 1 every vertex at depth
    # >= 2 counts, so so does every required caret that cannot hang at
    # depth 1.
    nlo, nhi, plo, phi = neg.lo, neg.hi, pos.lo, pos.hi
    preds: list[list[int]] = [[] for _ in range(top + 1)]
    least = [0] * (top + 1)
    for q in range(1, top + 1):
        ps = preds[q]
        ps += nlo[q], plo[q]
        d = top
        for p in ps:
            if least[p] < d:
                d = least[p]
        least[q] = d + 1
        h = nhi[q]
        if h <= top:
            preds[h].append(q)
        h = phi[q]
        if h <= top:
            preds[h].append(q)
    floor = max(max([least[q] for q in required]) - n, 0)
    if n == 1:
        floor = max(floor, sum([least[q] > 1 for q in required]))

    best_weight = max(top - n, 0)  # the chain's weight
    best_parents = None  # the chain, written out below if it stays best
    if best_weight > floor:
        if top > cap:
            raise SearchCapExceededError(
                f"penalty search exceeded {cap} states", cap + 1)
        # the first tree, which always exists (see above): each required
        # caret hangs from its shallowest placed predecessor, the lower
        # index on a tie; depth -1 marks a caret left out of it
        depth = [0] + [-1] * top
        parent = [-1] * (top + 1)
        for c in required:
            hang, low = -1, top
            for p in preds[c]:
                d = depth[p]
                if 0 <= d < low or d == low and p < hang:
                    hang, low = p, d
            parent[c] = hang
            depth[c] = low + 1
        height = [0] * (top + 1)
        for c in reversed(required):
            p = parent[c]
            if height[p] <= height[c]:
                height[p] = height[c] + 1
        weight = sum([depth[c] >= 2 and height[c] >= n - 1 for c in required])
        if weight < best_weight:
            best_weight = weight
            best_parents = tuple((c, parent[c]) for c in required)
        if best_weight > floor:
            best_weight, best_parents = _program(
                n, top, preds, frozenset(required), best_weight, best_parents, cap)
    if best_parents is None:
        best_parents = tuple((c, c - 1) for c in range(1, top + 1))
    return best_weight, PenaltyTree(best_parents, pair)


def _program(
    n: int,
    top: int,
    preds: list[list[int]],
    required: frozenset[int],
    best_weight: int,
    best_parents: Optional[tuple[tuple[int, int], ...]],
    cap: int,
) -> tuple[int, Optional[tuple[tuple[int, int], ...]]]:
    """The least weight by a program over caret index, and the first tree
    of that weight in the search order.  It runs only at n >= 2: at n = 1
    the first tree always meets the floor (see ``penalty_weight``).
    ``preds`` holds each caret's predecessors, unsorted and with repeats,
    as ``penalty_weight`` read them off the surveys; the program sorts
    them and builds the successor lists itself, and reads no edge set.

    Building a tree caret by caret, a caret at depth >= 2 decides whether
    it counts when it takes its first child.  Counting costs 1; not
    counting caps the levels below it at n - 2.  A tree's cheapest
    decisions cost exactly its weight: a caret of height >= n - 1 must
    count, and one below that need not.  So what the choices from caret c
    on see of a placed caret with a useful successor at or after c is a
    few small fields (levels left, undecided, owes a child), packed per
    caret into one int: the state at the cut before c.

    A forward pass finds the states at each cut that a tree lighter than
    ``best_weight`` passes through, counting them against ``cap`` after
    the ``top`` carets of the first tree, and links each state to the
    states before it that reach it at its least cost.  If none reaches
    the end, ``best_parents`` (None for the chain) is the answer.
    Otherwise a backward pass follows the links from the end to mark the
    states on some least-cost path, expanding no state again, and a walk
    decides carets 1 .. top in the search order, taking the first option
    an optimal tree can go on from: one that lands on a marked state at
    that state's least cost.
    One tree can come from several decision sequences, so the walk
    carries every state the tree so far can be in.
    """
    # predecessors in increasing order, the order of the search's options,
    # and the successors up to top
    preds = [sorted(set(ps)) for ps in preds]
    succs: list[list[int]] = [[] for _ in range(top + 1)]
    for q in range(1, top + 1):
        for p in preds[q]:
            if p:
                succs[p].append(q)
    # A placed caret's field: the levels that may still hang below it
    # (n standing for no limit) in its low bits, then whether it is
    # undecided (depth >= 2, no child, no limit) and whether it owes a
    # child (a routing vertex with none yet).  A caret with no level left
    # takes no child, so a field is 0 just when the caret is not placed,
    # or has no useful successor to come.
    undecided = 1 << n.bit_length()
    owes = undecided << 1
    width = n.bit_length() + 2
    full = (1 << width) - 1
    fresh = n | undecided
    # each way a placed caret, by its field less the owes bit, takes a
    # child: (cost, its field after, the child's field less the owes bit);
    # an undecided caret counts, or caps the levels below it
    ways = {room: [(0, room, room - 1)] for room in range(1, n - 1)}
    ways[n] = [(0, n, fresh)]
    ways[fresh] = [(1, n, fresh)] + [(0, n - 2, n - 3)] * (n > 2)
    # A caret only helps as a routing vertex if some chain of allowed edges
    # leads from it to a penalty caret.  It leaves the state after its last
    # useful successor, and a state in which it leaves owing a child is a
    # dead end.
    useful = bytearray(top + 1)
    lives = bytearray(top + 1)
    gone = [0] * (top + 1)
    owed = [0] * (top + 1)
    for v in range(top, 0, -1):
        last = max((q for q in succs[v] if useful[q]), default=0)
        useful[v] = last > 0 or v in required
        if last:
            lives[v] = 1
            gone[last] |= full << width * v
            owed[last] |= owes << width * v

    def moves(s: int, c: int) -> list[tuple[int, int, int]]:
        """(parent or -1, cost, next state) of each choice for caret c."""
        out = [] if c in required else [(-1, 0, s)]
        if useful[c]:
            own = width * c
            debt = 0 if c in required else owes
            for p in preds[c]:
                if not p:  # depth 1: never counts, no limit below
                    out.append((0, 0, s | (n | debt) << own if lives[c] else s))
                    continue
                at = width * p
                f = s >> at & full
                if not f:
                    continue
                rest = s & ~(full << at)
                for cost, after, field in ways[f & ~owes]:
                    t = rest | after << at
                    if field and lives[c]:
                        t |= (field | debt) << own
                    elif debt:
                        continue  # a routing vertex that can take no child
                    out.append((p, cost, t))
        if not owed[c]:
            return out
        return [(p, cost, t & ~gone[c]) for p, cost, t in out
                if not t & owed[c]]

    # forward: the least cost that reaches each state.  A state no cheaper
    # than the best tree so far is dropped, as the search keeps that tree
    # on a tie; a prefix of a lighter tree costs no more than it, so stays.
    # links[c + 1][t] holds the states at cut c that reach t at its least
    # cost: one as a bare int, several (a tie) as a list.
    cuts: list[dict[int, int]] = [{}, {0: 0}]
    links: list[dict[int, int | list[int]]] = [{}, {}]
    states = top
    for c in range(1, top + 1):
        cut: dict[int, int] = {}
        link: dict[int, int | list[int]] = {}
        for s, g in cuts[c].items():
            for _, cost, t in moves(s, c):
                total = g + cost
                was = cut.get(t, best_weight)
                if total < was:
                    cut[t] = total
                    link[t] = s
                elif total == was < best_weight:
                    # the moves from one s are consecutive, so s can only
                    # repeat the last link
                    froms = link[t]
                    if type(froms) is not list:
                        if froms != s:
                            link[t] = [froms, s]
                    elif froms[-1] != s:
                        froms.append(s)
        states += len(cut)
        if states > cap:
            raise SearchCapExceededError(
                f"penalty search exceeded {cap} states", states)
        cuts.append(cut)
        links.append(link)
    if not cuts[top + 1]:
        return best_weight, best_parents
    least = cuts[top + 1][0]
    # backward: the states on some least-cost path, by following the links
    # back from the end
    on: dict[int, set[int]] = {top + 1: {0}}
    for c in range(top, 0, -1):
        mark: set[int] = set()
        link = links[c + 1]
        for t in on[c + 1]:
            froms = link[t]
            if type(froms) is list:
                mark.update(froms)
            else:
                mark.add(froms)
        on[c] = mark
    # walk: the states an optimal tree with the carets so far can be in; a
    # move from one of them stays optimal just when it lands on a path
    # state at that state's least cost
    parent = [-1] * (top + 1)
    depth = [0] * (top + 1)
    live = {0}
    for c in range(1, top + 1):
        here, after, onward = cuts[c], cuts[c + 1], on[c + 1]
        ahead: dict[int, set[int]] = {}
        for s in live:
            g = here[s]
            for p, cost, t in moves(s, c):
                if t in onward and g + cost == after[t]:
                    ahead.setdefault(p, set()).add(t)
        p = parent[c] = min(ahead, key=lambda p: (p >= 0, depth[p], p))
        live = ahead[p]
        if p >= 0:
            depth[c] = depth[p] + 1
    return least, tuple((v, parent[v]) for v in range(1, top + 1)
                        if parent[v] >= 0)


@dataclass(frozen=True)
class LengthReport:
    """Exact length of one element for the generating set {x_0, ..., x_n}."""

    encoding: str
    n: int
    l_infinity: int
    penalty_weight: int
    length: int
    witness: PenaltyTree = field(compare=False)

    def serialize(self) -> str:
        return (
            f"{self.encoding}\tn={self.n}\tl_inf={self.l_infinity}"
            f"\tpenalty={self.penalty_weight}\tlength={self.length}"
            f"\twitness={self.witness.serialize()}"
        )


def length_consecutive(
    pair: TreePairDiagram, n: int, cap: int = DEFAULT_PENALTY_CAP
) -> LengthReport:
    """Exact word length for the consecutive generating set {x_0, ..., x_n}."""
    flat = l_infinity(pair)
    weight, witness = penalty_weight(pair, n, cap=cap)
    return LengthReport(
        encoding=pair.serialize(),
        n=n,
        l_infinity=flat,
        penalty_weight=weight,
        length=flat + 2 * weight,
        witness=witness,
    )
