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

``penalty_weight`` finds the minimum by a branch-and-bound search.  At
n = 2, once that search would have to back up, a program over caret index
finishes the job: the weight there counts vertices at depth >= 2 that
have a child, so a placed caret needs only its class (free to use, costs
1 to use, owes a child) while it may still take one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    InvalidPenaltyTreeError,
    SearchCapExceededError,
    UnreducedDiagramError,
)
from .tree_core import TreePairDiagram, TreeSurvey, right_spine_carets

DEFAULT_PENALTY_CAP = 10_000_000

TYPE_N_NEGATIVE = "TypeN-negative"
TYPE_N_POSITIVE = "TypeN-positive"
RIGHT_IN_BOTH = "Right-in-both-not-final"


def _require_reduced(pair: TreePairDiagram, op: str) -> None:
    if not pair.reduced:
        raise UnreducedDiagramError(f"{op} requires a reduced pair")


def l_infinity(pair: TreePairDiagram) -> int:
    """Carets that are not right carets, summed over both trees.

    The top caret counts as a right caret.  This is the word length with
    respect to the full infinite generating set.
    """
    _require_reduced(pair, "l_infinity")
    neg, pos = pair.negative.root, pair.positive.root
    return 2 * pair.carets - right_spine_carets(neg) - right_spine_carets(pos)


@dataclass(frozen=True)
class AdjacencyRelation:
    """Caret order: (p, q) present when the space of caret p touches the
    space of caret q along a shared edge in either tree.  Vertex 0 stands
    for the space left of the trees and precedes every left-boundary caret.

    In leaf intervals (see ``tree_core``): in each tree, every caret q
    comes after the caret numbered by the leaf its interval starts at
    (vertex 0 for leaf 0), and before the caret numbered by the leaf just
    past its interval, when there is one.
    """

    carets: int
    edges: frozenset[tuple[int, int]]

    def predecessors(self, q: int) -> list[int]:
        return sorted(p for p, qq in self.edges if qq == q)

    def successors(self, p: int) -> list[int]:
        return sorted(q for pp, q in self.edges if pp == p)


def _tree_edges(sv: TreeSurvey, edges: set[tuple[int, int]]) -> None:
    n, lo, hi = sv.carets, sv.lo, sv.hi
    for q in range(1, n + 1):
        edges.add((lo[q], q))
        if hi[q] <= n:
            edges.add((q, hi[q]))


def _adjacency(neg: TreeSurvey, pos: TreeSurvey) -> AdjacencyRelation:
    edges: set[tuple[int, int]] = set()
    _tree_edges(neg, edges)
    _tree_edges(pos, edges)
    return AdjacencyRelation(carets=neg.carets, edges=frozenset(edges))


def adjacency(pair: TreePairDiagram) -> AdjacencyRelation:
    return _adjacency(pair.negative.survey(), pair.positive.survey())


@dataclass(frozen=True)
class PenaltyCaretSet:
    """Caret indexes flagged as penalty carets, with the rule that fired."""

    flags: tuple[tuple[int, str], ...]

    @property
    def indices(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.flags)

    def reasons(self, index: int) -> tuple[str, ...]:
        return tuple(r for i, r in self.flags if i == index)


def penalty_carets(pair: TreePairDiagram) -> PenaltyCaretSet:
    """Flag carets that force detours for consecutive generating sets.

    A caret p is flagged when the next caret p + 1 is interior and hangs
    inside p's right subtree (in either tree), or when p is a right caret
    in both trees and is not the final caret.
    """
    return _penalty_carets(pair.negative.survey(), pair.positive.survey())


def _penalty_carets(neg: TreeSurvey, pos: TreeSurvey) -> PenaltyCaretSet:
    n = neg.carets
    flags: list[tuple[int, str]] = []
    # p + 1 hangs inside p's right subtree when its interval starts at leaf
    # p, which is not leaf 0, so it is interior unless it reaches leaf n.
    for p in range(1, n):
        if neg.lo[p + 1] == p and neg.hi[p + 1] <= n:
            flags.append((p, TYPE_N_NEGATIVE))
        if pos.lo[p + 1] == p and pos.hi[p + 1] <= n:
            flags.append((p, TYPE_N_POSITIVE))
        if neg.hi[p] == pos.hi[p] == n + 1:
            flags.append((p, RIGHT_IN_BOTH))
    return PenaltyCaretSet(flags=tuple(flags))


@dataclass(frozen=True)
class PenaltyTree:
    """Oriented tree rooted at vertex 0, stored as (child, parent) edges.

    ``adjacency`` and ``required`` carry the context the tree was built
    against, so that its construction rules can be revalidated later.
    """

    parents: tuple[tuple[int, int], ...]
    adjacency: Optional[AdjacencyRelation] = None
    required: Optional[frozenset] = None

    @property
    def parent_map(self) -> dict[int, int]:
        return dict(self.parents)

    @property
    def vertices(self) -> frozenset:
        return frozenset({0} | {c for c, _ in self.parents})

    @property
    def leaves(self) -> frozenset:
        used = {p for _, p in self.parents}
        return frozenset(v for v in self.vertices if v not in used)

    def depths(self) -> dict[int, int]:
        pm = self.parent_map
        depth = {0: 0}
        for v in sorted(pm):
            depth[v] = depth[pm[v]] + 1
        return depth

    def heights(self) -> dict[int, int]:
        pm = self.parent_map
        height = {v: 0 for v in self.vertices}
        for v in sorted(pm, reverse=True):
            height[pm[v]] = max(height[pm[v]], height[v] + 1)
        return height

    def serialize(self) -> str:
        """Comma-separated "parent>child" edges, or "-" for the bare root."""
        return ",".join(f"{p}>{c}" for c, p in self.parents) or "-"


def _validate_penalty_tree(tree: PenaltyTree) -> None:
    pm = tree.parent_map
    if len(pm) != len(tree.parents):
        raise InvalidPenaltyTreeError("a vertex appears with two parents")
    if 0 in pm:
        raise InvalidPenaltyTreeError("vertex 0 is the root and has no parent")
    vertices = tree.vertices
    for child, parent in pm.items():
        if child < 1:
            raise InvalidPenaltyTreeError(f"bad vertex index {child}")
        if parent not in vertices:
            raise InvalidPenaltyTreeError(f"parent {parent} of {child} not in tree")
        if parent >= child:
            raise InvalidPenaltyTreeError(
                f"edge {parent} -> {child} does not increase the caret index"
            )
    if tree.adjacency is not None:
        for child, parent in pm.items():
            if child > tree.adjacency.carets:
                raise InvalidPenaltyTreeError(f"vertex {child} is not a caret")
            if (parent, child) not in tree.adjacency.edges:
                raise InvalidPenaltyTreeError(
                    f"edge {parent} -> {child} not allowed by the caret order"
                )
    if tree.required is not None:
        missing = set(tree.required) - set(vertices)
        if missing:
            raise InvalidPenaltyTreeError(
                f"penalty carets {sorted(missing)} missing from the tree"
            )
        if vertices != {0}:
            for leaf in tree.leaves:
                if leaf not in tree.required:
                    raise InvalidPenaltyTreeError(
                        f"leaf {leaf} is not a penalty caret"
                    )


def penalty_weight_of_tree(tree: PenaltyTree, n: int) -> int:
    """Vertices at depth >= 2 whose subtree still reaches down n - 1 steps."""
    if n < 1:
        raise ValueError(f"generating-set index n must be >= 1, got {n}")
    _validate_penalty_tree(tree)
    depth = tree.depths()
    height = tree.heights()
    return sum(1 for v in depth if depth[v] >= 2 and height[v] >= n - 1)


def penalty_weight(
    pair: TreePairDiagram, n: int, cap: int = DEFAULT_PENALTY_CAP
) -> tuple[int, PenaltyTree]:
    """Exact minimum weight over all penalty trees, with a witness.

    Depth-first search over parent assignments in increasing caret order,
    pruned by the best weight so far (adding vertices never lowers one) and
    seeded with the chain 0 -> 1 -> ... -> top penalty caret.  The stack is
    the caret index: caret c is decided at depth c, its state is entry c of
    per-caret arrays, and backtracking is c -= 1.  Hanging c can raise only
    the count of its ancestor n - 1 up; higher ones had c's parent below.

    Two lower bounds, from the least depth each caret can have, cut the
    search without changing its answer.  It stops at the first tree that
    meets the floor no tree can beat, and at n = 1 it prunes a branch once
    the penalty carets still to come must lift it to the best weight.  The
    first optimal tree in search order is never pruned, so it stays the
    witness.

    At n = 2 the search never backs up.  When its first descent does not
    end at a tree that meets the floor, ``_program_n2`` gives the exact
    weight and walks to the same first optimal tree, in time that grows
    with the states at its cuts, not with the trees searched.  Raises
    SearchCapExceededError, not a possibly wrong minimum, at the cap of
    ``cap`` states: one per caret decision of the search, plus one per
    state of each cut of the program.
    """
    if n < 1:
        raise ValueError(f"generating-set index n must be >= 1, got {n}")
    _require_reduced(pair, "penalty_weight")
    # one survey per tree, shared by the caret order and the penalty flags
    # and dropped before the search
    neg, pos = pair.negative.survey(), pair.positive.survey()
    adj = _adjacency(neg, pos)
    required = _penalty_carets(neg, pos).indices
    del neg, pos
    if not required:
        return 0, PenaltyTree((), adjacency=adj, required=required)

    top = max(required)
    preds: list[list[int]] = [[] for _ in range(top + 1)]
    succs: list[list[int]] = [[] for _ in range(top + 1)]
    for p, q in adj.edges:
        if q <= top:
            preds[q].append(p)
            if p >= 1:
                succs[p].append(q)
    for lst in preds:
        lst.sort()
    # least[q] is the least depth caret q can have in any penalty tree, and
    # a required caret at depth d counts its ancestors at depths 2 ..
    # d - n + 1, so no tree weighs less than the floor.  At n = 1 every
    # vertex at depth >= 2 counts, so rest[c] required carets from c on
    # are still to add one each.
    least = [0] * (top + 1)
    for q in range(1, top + 1):
        least[q] = 1 + min(least[p] for p in preds[q])
    floor = max(max(least[q] for q in required) - n, 0)
    rest = [0] * (top + 2)
    if n == 1:
        for q in range(top, 0, -1):
            rest[q] = rest[q + 1] + (q in required and least[q] > 1)
        floor = max(floor, rest[1])

    # A caret only helps as a routing vertex if some chain of allowed
    # edges leads from it to a penalty caret.
    useful = bytearray(top + 1)
    for c in range(top, 0, -1):
        useful[c] = c in required or any(useful[q] for q in succs[c])
    # A routing vertex with no child is a dead end once caret c passes the
    # last useful caret it could take as a child.  That happens at one c,
    # so each caret c checks only the routing vertices expiring there:
    # every earlier deadline was checked, and met, on the same branch.
    expiring: list[list[int]] = [[] for _ in range(top + 2)]
    for c in range(1, top + 1):
        children = [q for q in succs[c] if useful[q]]
        if children and c not in required:
            expiring[max(children) + 1].append(c)

    # -1 leaves a caret out and 0 is the root; caret top + 1 stays out and
    # has no choices, so the search backs up from it
    parent = [0] + [-1] * (top + 1)
    options: list[list[int]] = [[] for _ in range(top + 2)]  # untried, reversed
    depth = [0] * (top + 1)
    nchild = [0] * (top + 1)
    below = [0] * (top + 1)  # vertices exactly n - 1 under each at depth >= 2
    raised = [0] * (top + 1)  # the ancestor whose count c's choice raised
    best_weight = max(top - n, 0)  # the chain's weight
    best_parents = tuple((c, c - 1) for c in range(1, top + 1))
    weight = states = 0
    # the search runs until a tree meets the floor, which none can beat
    c = 1 if best_weight > floor else 0
    while c:
        # carets below c are placed; prune too heavy trees and dead ends
        if weight + rest[c] < best_weight and (not expiring[c] or all(
                parent[v] < 0 or nchild[v] for v in expiring[c])):
            if c > top:
                best_weight = weight
                best_parents = tuple(
                    (v, parent[v]) for v in range(1, top + 1) if parent[v] >= 0
                )
                if best_weight <= floor:
                    break
            else:
                states += 1
                if states > cap:
                    raise SearchCapExceededError(
                        f"penalty search exceeded {cap} states", states
                    )
                # pop() tries leaving c out, then placed preds by depth, index
                ahead = [p for p in preds[c] if parent[p] >= 0] if useful[c] else []
                ahead.sort(key=depth.__getitem__)
                options[c] = ahead[::-1] + ([] if c in required else [-1])
        # undo c's choice and take its next; back up while it has none
        while c:
            p = parent[c]
            if p >= 0:
                nchild[p] -= 1
                if depth[c] > n:
                    below[raised[c]] -= 1
                    if not below[raised[c]]:
                        weight -= 1
                parent[c] = -1
            if options[c]:
                p = parent[c] = options[c].pop()
                if p >= 0:
                    depth[c] = depth[p] + 1
                    nchild[p] += 1
                    if depth[c] > n:
                        a = c
                        for _ in range(n - 1):
                            a = parent[a]
                        raised[c] = a
                        below[a] += 1
                        if below[a] == 1:
                            weight += 1
                c += 1
                break
            if n == 2:  # the search would back up: the program takes over
                best_weight, best_parents = _program_n2(
                    top, preds, succs, useful, required, best_weight,
                    best_parents, cap, states)
                c = 0
                break
            c -= 1
    witness = PenaltyTree(best_parents, adjacency=adj, required=required)
    return best_weight, witness


# What the program knows of a placed caret, two bits at bit 2 * caret: it is
# free to use as a parent (depth 1, or depth >= 2 with a child already),
# costs 1 to use (a penalty caret at depth >= 2 with no child yet), or owes a
# child (a routing vertex with none yet; at depth >= 2 its cost was paid
# when it was placed).  0 marks a caret that is not placed, or no longer
# has a useful successor to come.
_FREE, _COSTS, _OWES = 1, 2, 3


def _program_n2(
    top: int,
    preds: list[list[int]],
    succs: list[list[int]],
    useful: bytearray,
    required: frozenset[int],
    best_weight: int,
    best_parents: tuple[tuple[int, int], ...],
    cap: int,
    states: int,
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The least n = 2 weight by a program over caret index, and the
    search's first tree of that weight.

    At n = 2 the weight counts vertices at depth >= 2 with a child.  The
    program cuts the carets before each caret c; a state is the class of
    every placed caret with a useful successor at or after c, which is all
    that the choices from c on see.  A forward pass finds the states at
    each cut that a tree lighter than the search's best so far passes
    through, counting them against ``cap`` after the search's own
    ``states``.  If none reaches the end, that best tree is the search's
    answer and is kept.  Otherwise a backward pass gives each state its
    least completion cost, and the walk decides carets 1 .. top in the
    search's option order (leave out, then placed predecessors by depth,
    then index), taking the first option an optimal tree can go on from:
    the tree the branch-and-bound would stop at, found without
    backtracking.
    """
    req = bytearray(top + 1)
    for q in required:
        req[q] = 1
    # a caret leaves the state after its last useful successor; low marks
    # one bit of each leaver, so an owed caret shows as both bits set
    gone = [0] * (top + 1)
    low = [0] * (top + 1)
    lives = bytearray(top + 1)
    for v in range(1, top + 1):
        last = max((q for q in succs[v] if useful[q]), default=0)
        if last:
            lives[v] = 1
            gone[last] |= 3 << 2 * v
            low[last] |= 1 << 2 * v

    def moves(s: int, c: int) -> list[tuple[int, int, int]]:
        """(parent or -1, cost, next state) of each choice for caret c."""
        out = [] if req[c] else [(-1, 0, s)]
        if useful[c]:
            own = 2 * c
            for p in preds[c]:
                if not p:
                    cls = _FREE if req[c] else _OWES
                    out.append((0, 0, s | cls << own if lives[c] else s))
                    continue
                k = s >> 2 * p & 3
                if k:
                    t = s & ~(3 << 2 * p) | _FREE << 2 * p
                    cls = _COSTS if req[c] else _OWES
                    if lives[c]:
                        t |= cls << own
                    out.append((p, (k == _COSTS) + (cls == _OWES), t))
        if not low[c]:
            return out
        # an owed caret whose last useful successor has passed is a dead end
        return [(p, cost, t & ~gone[c]) for p, cost, t in out
                if not t & t >> 1 & low[c]]

    # forward: the least cost that reaches each state.  A state no cheaper
    # than the search's best tree is dropped, as the search keeps that tree
    # on a tie; a prefix of a lighter tree costs no more than it, so stays.
    cuts: list[dict[int, int]] = [{}, {0: 0}]
    for c in range(1, top + 1):
        cut: dict[int, int] = {}
        for s, g in cuts[c].items():
            for _, cost, t in moves(s, c):
                if g + cost < cut.get(t, best_weight):
                    cut[t] = g + cost
        states += len(cut)
        if states > cap:
            raise SearchCapExceededError(
                f"penalty search exceeded {cap} states", states)
        cuts.append(cut)
    if not cuts[top + 1]:
        return best_weight, best_parents
    least = cuts[top + 1][0]
    # backward, in place: each kept state's least cost to the end
    never = top + 1  # above any weight
    cuts[top + 1][0] = 0
    for c in range(top, 0, -1):
        after, cut = cuts[c + 1], cuts[c]
        for s in cut:
            cut[s] = min((cost + after.get(t, never) for _, cost, t
                          in moves(s, c)), default=never)
    parent = [-1] * (top + 1)
    depth = [0] * (top + 1)
    s, left = 0, least
    for c in range(1, top + 1):
        after = cuts[c + 1]
        choice = {p: (cost, t) for p, cost, t in moves(s, c)}
        order = sorted(choice, key=lambda p: (p >= 0, depth[p], p))
        for p in order:
            cost, t = choice[p]
            if cost + after.get(t, never) == left:
                break
        parent[c], s, left = p, t, left - cost
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
    _require_reduced(pair, "length_consecutive")
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
