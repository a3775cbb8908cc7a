"""Independent oracles and random generators shared across the tests.

Everything here is deliberately written against the *meaning* of the
operations, not their implementations: adjacency from leaf intervals
instead of child-pointer walks, penalty-tree weights from explicit path
distances, the least weight by enumerating every penalty tree and its
witness by a plain depth-first search, reduction by trying every removal
order, balls and in-ball distances by plain one-sided breadth-first
search, words by one generator move per letter or as a balanced product
of written-down runs.  The tests compare the package against these.
"""

import random
from collections import deque

from caretcalc import (
    BallIndex,
    CaretTree,
    GeneratorWord,
    TreePairDiagram,
    apply_generator,
    canonical_encode,
    evaluate_word,
    identity,
    multiply,
)
from caretcalc.group_ops import _run
from caretcalc.tree_core import Node, serialize_node


def random_letters(rng: random.Random, max_index=3, max_len=10):
    return [
        (rng.randrange(0, max_index + 1), rng.choice((1, -1)))
        for _ in range(rng.randrange(0, max_len + 1))
    ]


def random_element(rng: random.Random, max_index=3, max_len=10) -> TreePairDiagram:
    return evaluate_word(random_letters(rng, max_index, max_len))


def fold_letters(letters, start=None) -> TreePairDiagram:
    """``start`` (the identity by default) right-multiplied by each letter
    in turn, by the generator move of ``apply_generator``: one step over
    the whole pair per letter.  ``evaluate_word`` folds the letters of its
    blocks with the same step, ``apply_letter``, so this fold checks the
    word's blocks and products, not the step; ``balanced_product`` and the
    products with generator diagrams check the step."""
    pair = identity() if start is None else start
    for index, sign in letters:
        pair = apply_generator(pair, index, sign)
    return pair


def balanced_product(runs) -> TreePairDiagram:
    """The pair of a word of (index, exponent) runs with no generator
    step: each merged run written down by ``_run``, and the runs
    multiplied by ``multiply`` as a balanced product on a stack, whose top
    two merge while they cover equally many runs, folded right to left."""
    stack: list = []
    for index, exponent in GeneratorWord(tuple(runs)).runs:
        sign = 1 if exponent > 0 else -1
        count, product = 1, _run(index, sign, abs(exponent))
        while stack and stack[-1][0] == count:
            below, left = stack.pop()
            count, product = count + below, multiply(left, product)
        stack.append((count, product))
    if not stack:
        return identity()
    _, product = stack.pop()
    while stack:
        product = multiply(stack.pop()[1], product)
    return product


def random_node(rng: random.Random, carets: int) -> Node:
    if carets == 0:
        return None
    left = rng.randrange(0, carets)
    return (random_node(rng, left), random_node(rng, carets - 1 - left))


def random_tree(rng: random.Random, carets: int) -> str:
    return serialize_node(random_node(rng, carets))


def pair_of_nodes(neg: Node, pos: Node) -> TreePairDiagram:
    """The reduced pair of two tuple trees, through ``TreePairDiagram.of``."""
    return TreePairDiagram.of(
        CaretTree(serialize_node(neg)), CaretTree(serialize_node(pos))
    )


def raw_pair(neg: str, pos: str) -> TreePairDiagram:
    """Two tree texts as a pair, reduced or not.  The constructor refuses
    an unreduced pair, so this one is made without it.  For tests that
    read the trees' own carets, and for loops that keep the pairs whose
    computed ``reduced`` holds."""
    pair = object.__new__(TreePairDiagram)
    object.__setattr__(pair, "negative", CaretTree(neg))
    object.__setattr__(pair, "positive", CaretTree(pos))
    return pair


def all_trees(carets: int):
    """The text of every tree with this many carets, Catalan(carets) in all."""
    if carets == 0:
        yield "."
        return
    for left in range(carets):
        for a in all_trees(left):
            for b in all_trees(carets - 1 - left):
                yield f"({a}{b})"


def to_node(text: str) -> Node:
    """The tuple tree of a tree's text, for the oracles below, which walk
    tuples: a caret is (left, right), a leaf None."""
    stack: list = []
    for ch in text:
        if ch == "(":
            stack.append("(")
        elif ch == ".":
            stack.append(None)
        else:
            right, left, _ = stack.pop(), stack.pop(), stack.pop()
            stack.append((left, right))
    (node,) = stack
    return node


# ---------------------------------------------------------------------------
# adjacency oracle: leaf intervals
#
# Caret p covers the leaf interval [lo_p, hi_p] and splits it at mid_p
# (the boundary between its left and right subtrees).  p comes directly
# before q in one tree exactly when q sits inside p with lo_q == mid_p,
# or p sits inside q with hi_p == mid_q; vertex 0 precedes any caret
# whose interval starts at leaf 0.


def _intervals(node: Node):
    """infix caret index -> (lo, mid, hi) in leaf coordinates, by an
    explicit-stack walk of the tuple tree, so that combs thousands of
    carets deep work."""
    table = {}
    index = leaves = 0
    stack: list = [node]
    while stack:
        item = stack.pop()
        if item is None:
            leaves += 1
        elif item[0] == "mid":
            index += 1
            item[1].extend((leaves, index))
        elif item[0] == "hi":
            lo, mid, at = item[1]
            table[at] = (lo, mid, leaves)
        else:
            entry = [leaves]
            stack += [("hi", entry), item[1], ("mid", entry), item[0]]
    return table


def infix_carets(node: Node) -> list:
    """(subtree, on left boundary, on right boundary) of each caret in
    infix order, index 0 unused.  A caret is on the left (right) boundary
    when the path down to it from the top takes left (right) steps only."""
    out: list = [None]
    stack = [(False, node, True, True)]
    while stack:
        ready, nd, left, right = stack.pop()
        if ready:
            out.append((nd, left, right))
        elif nd is not None:
            stack += [
                (False, nd[1], False, right),
                (True, nd, left, right),
                (False, nd[0], left, False),
            ]
    return out


def interval_adjacency(pair: TreePairDiagram) -> frozenset:
    edges = set()
    for tree in (pair.negative, pair.positive):
        iv = _intervals(to_node(tree.root))
        for p, (lo_p, mid_p, hi_p) in iv.items():
            if lo_p == 0:
                edges.add((0, p))
            for q, (lo_q, mid_q, hi_q) in iv.items():
                if q == p:
                    continue
                if lo_q == mid_p and hi_q <= hi_p:
                    edges.add((p, q))
                if hi_q == mid_p and lo_q >= lo_p:
                    edges.add((q, p))
    return frozenset(edges)


# ---------------------------------------------------------------------------
# penalty-tree weight oracle: explicit path distances


def naive_tree_weight(parents, n: int) -> int:
    parent = dict(parents)
    vertices = [0] + sorted(parent)
    children = {}
    for c, p in parent.items():
        children.setdefault(p, []).append(c)
    leaves = [v for v in vertices if v not in children]

    def chain(v):
        out = [v]
        while out[-1] != 0:
            out.append(parent[out[-1]])
        return out

    weighted = 0
    for v in vertices:
        if len(chain(v)) - 1 < 2:
            continue
        for leaf in leaves:
            up = chain(leaf)
            if v in up and up.index(v) >= n - 1:
                weighted += 1
                break
    return weighted


def brute_force_min_weight(pair: TreePairDiagram, n: int):
    """Minimum penalty weight by enumerating every valid tree outright."""
    from caretcalc import penalty_carets

    edges = interval_adjacency(pair)
    required = penalty_carets(pair).indices
    if not required:
        return 0
    top = max(required)
    preds = {c: sorted(p for p, q in edges if q == c) for c in range(1, top + 1)}
    best = [None]
    parent = {}

    def complete_ok():
        children = set(parent.values())
        return all(v in children or v in required for v in parent)

    def rec(c):
        if c > top:
            if complete_ok():
                w = naive_tree_weight(tuple(parent.items()), n)
                if best[0] is None or w < best[0]:
                    best[0] = w
            return
        if c not in required:
            rec(c + 1)
        for p in preds[c]:
            if p == 0 or p in parent:
                parent[c] = p
                rec(c + 1)
                del parent[c]

    rec(1)
    return best[0]


def search_min_weight(pair: TreePairDiagram, n: int):
    """Least penalty weight and its first tree, as (weight, parents), by
    plain depth-first search over parent choices in increasing caret order.

    Each caret is first left out (unless it is a penalty caret), then hung
    from a placed predecessor, shallowest first and the lower index on a
    tie.  The chain 0 -> 1 -> ... -> top penalty caret seeds the best
    tree, and a later tree replaces it only when strictly lighter.  A
    branch is cut once it weighs as much as the best tree, as adding
    vertices never lowers a weight, or once a routing vertex with no child
    has passed its last successor, as no valid tree extends it.  So the
    answer is the chain when no tree beats it, and otherwise the first
    lightest tree in this order, which is the witness ``penalty_weight``
    promises."""
    from caretcalc import penalty_carets

    edges = interval_adjacency(pair)
    required = penalty_carets(pair).indices
    if not required:
        return 0, ()
    top = max(required)
    preds = {c: sorted(p for p, q in edges if q == c) for c in range(1, top + 1)}
    # the last caret of the tree that could still take p as its parent
    last = {
        p: max((q for pp, q in edges if pp == p and q <= top), default=0)
        for p in range(1, top + 1)
    }
    best = [max(top - n, 0), tuple((c, c - 1) for c in range(1, top + 1))]
    parent, depth = {}, {0: 0}

    def rec(c):
        weight = naive_tree_weight(tuple(parent.items()), n)
        childless = set(parent) - required - set(parent.values())
        if weight >= best[0] or any(last[v] < c for v in childless):
            return
        if c > top:
            best[:] = [weight, tuple(sorted(parent.items()))]
            return
        if c not in required:
            rec(c + 1)
        for p in sorted((p for p in preds[c] if p in depth), key=depth.get):
            parent[c], depth[c] = p, depth[p] + 1
            rec(c + 1)
            del parent[c], depth[c]

    rec(1)
    return best[0], best[1]


# ---------------------------------------------------------------------------
# reduction oracle: every removal order gives the same answer


def _exposed_starts(node: Node) -> set:
    """Left-leaf numbers of the carets with two leaf children."""
    starts, seen, stack = set(), 0, [node]
    while stack:
        nd = stack.pop()
        if nd is None:
            seen += 1
        elif nd == (None, None):
            starts.add(seen)
            seen += 2
        else:
            stack += (nd[1], nd[0])
    return starts


def _collapse_at(node: Node, leaf: int) -> Node:
    """The tree with the exposed caret over leaves (leaf, leaf + 1) made a
    leaf."""

    def walk(nd, first):  # the new subtree, and the leaves under nd
        if nd is None:
            return None, 1
        if nd == (None, None) and first == leaf:
            return None, 2
        left, left_leaves = walk(nd[0], first)
        right, right_leaves = walk(nd[1], first + left_leaves)
        return (left, right), left_leaves + right_leaves

    return walk(node, 0)[0]


def reductions_all_orders(neg: str, pos: str, limit=2000) -> set:
    """Serializations of the fully reduced diagrams of the pair of two
    tree texts over all removal orders, found on tuple trees, apart from
    the package's reduction."""
    results = set()
    budget = [limit]

    def step(neg, pos):
        if budget[0] <= 0:
            raise AssertionError("all-orders reduction budget exhausted")
        budget[0] -= 1
        common = _exposed_starts(neg) & _exposed_starts(pos)
        if not common:
            results.add(serialize_node(neg) + "|" + serialize_node(pos))
            return
        for leaf in common:
            step(_collapse_at(neg, leaf), _collapse_at(pos, leaf))

    step(to_node(neg), to_node(pos))
    return results


# ---------------------------------------------------------------------------
# ball and in-ball distance oracles: plain one-sided breadth-first search


def oracle_ball(gens, radius: int) -> dict:
    """Encoding -> length of every element of length <= radius, by
    breadth-first search from the identity: one ``apply_generator`` per
    neighbour of each element of a sphere, taken in order, with no
    grouping of elements and no letter skipped."""
    table = {canonical_encode(identity()): 0}
    sphere = [identity()]
    for r in range(1, radius + 1):
        outer = []
        for pair in sphere:
            for letter in gens.letters():
                neighbour = apply_generator(pair, *letter)
                enc = canonical_encode(neighbour)
                if enc not in table:
                    table[enc] = r
                    outer.append(neighbour)
        sphere = outer
    return table


def restricted(index: BallIndex, radius: int) -> BallIndex:
    """The elements of the index within the given radius, as an index of
    that radius."""
    table = {}
    for pos, row in index.table.items():
        kept = {neg: length for neg, length in row.items() if length <= radius}
        if kept:
            table[pos] = kept
    return BallIndex(gens=index.gens, radius=radius, table=table)


def in_ball_distances(index, source: str, radius: int) -> dict:
    """Encoding -> length of the shortest path from ``source`` that stays
    among the elements of length <= radius in the ball index, found by
    breadth-first search from the source alone until the in-ball
    component is exhausted."""
    inside = {enc for enc, length in index.items() if length <= radius}
    dist = {source: 0}
    queue = deque([source])
    while queue:
        enc = queue.popleft()
        pair = index.pair_of(enc)
        for letter in index.gens.letters():
            nxt = canonical_encode(apply_generator(pair, *letter))
            if nxt in inside and nxt not in dist:
                dist[nxt] = dist[enc] + 1
                queue.append(nxt)
    return dist
