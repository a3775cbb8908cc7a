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
from typing import Optional

from .errors import InvalidPenaltyTreeError, SearchCapExceededError
from .tree_core import TreePairDiagram, TreeSurvey, right_spine_carets

DEFAULT_PENALTY_CAP = 10_000_000

TYPE_N_NEGATIVE = "TypeN-negative"
TYPE_N_POSITIVE = "TypeN-positive"
RIGHT_IN_BOTH = "Right-in-both-not-final"


def l_infinity(pair: TreePairDiagram) -> int:
    """Carets that are not right carets, summed over both trees.

    The top caret counts as a right caret.  This is the word length with
    respect to the full infinite generating set.
    """
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
    """The caret order of a pair: the public form of what ``penalty_weight``
    builds from the two surveys it shares with the penalty flags."""
    return _adjacency(pair.negative.survey(), pair.positive.survey())


@dataclass(frozen=True)
class PenaltyCaretSet:
    """Caret indexes flagged as penalty carets, with the rule that fired."""

    flags: tuple[tuple[int, str], ...]

    @property
    def indices(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.flags)


def penalty_carets(pair: TreePairDiagram) -> PenaltyCaretSet:
    """Flag carets that force detours for consecutive generating sets.

    A caret p is flagged when the next caret p + 1 is interior and hangs
    inside p's right subtree (in either tree), or when p is a right caret
    in both trees and is not the final caret.  The public form of what
    ``penalty_weight`` builds from the two surveys it shares with the
    caret order.
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

    Raises SearchCapExceededError, not a possibly wrong minimum, at the
    cap of ``cap`` states: one per caret of the first tree, plus one per
    state of each cut of the program.
    """
    if n < 1:
        raise ValueError(f"generating-set index n must be >= 1, got {n}")
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
    # vertex at depth >= 2 counts, so so does every required caret that
    # cannot hang at depth 1.
    least = [0] * (top + 1)
    for q in range(1, top + 1):
        least[q] = 1 + min(least[p] for p in preds[q])
    floor = max(max(least[q] for q in required) - n, 0)
    if n == 1:
        floor = max(floor, sum(least[q] > 1 for q in required))

    best_weight = max(top - n, 0)  # the chain's weight
    best_parents = tuple((c, c - 1) for c in range(1, top + 1))
    if best_weight > floor:
        if top > cap:
            raise SearchCapExceededError(
                f"penalty search exceeded {cap} states", cap + 1)
        # the first tree, which always exists (see above); depth -1 marks a
        # caret left out of it
        order = sorted(required)
        depth = [0] + [-1] * top
        parent = [-1] * (top + 1)
        for c in order:
            parent[c] = p = min((p for p in preds[c] if depth[p] >= 0),
                                key=depth.__getitem__)
            depth[c] = depth[p] + 1
        height = [0] * (top + 1)
        for c in range(top, 0, -1):
            if parent[c] >= 0:
                height[parent[c]] = max(height[parent[c]], height[c] + 1)
        weight = sum(depth[c] >= 2 and height[c] >= n - 1 for c in required)
        if weight < best_weight:
            best_weight = weight
            best_parents = tuple((c, parent[c]) for c in order)
        if best_weight > floor:
            best_weight, best_parents = _program(
                n, top, preds, succs, required, best_weight, best_parents,
                cap, top)
    witness = PenaltyTree(best_parents, adjacency=adj, required=required)
    return best_weight, witness


def _program(
    n: int,
    top: int,
    preds: list[list[int]],
    succs: list[list[int]],
    required: frozenset[int],
    best_weight: int,
    best_parents: tuple[tuple[int, int], ...],
    cap: int,
    states: int,
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The least weight by a program over caret index, and the first tree
    of that weight in the search order.  It runs only at n >= 2: at n = 1
    the first tree always meets the floor (see ``penalty_weight``).

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
    ``states``, and links each state to the states before it that reach
    it at its least cost.  If none reaches the end, ``best_parents`` is
    the answer.  Otherwise a backward pass follows the links from the end
    to mark the states on some least-cost path, expanding no state again,
    and a walk decides carets 1 .. top in the search order, taking the
    first option an optimal tree can go on from: one that lands on a
    marked state at that state's least cost.  One tree can come from
    several decision sequences, so the walk carries every state the tree
    so far can be in.
    """
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
