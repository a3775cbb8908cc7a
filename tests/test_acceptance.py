"""Acceptance gate: every release-blocking claim, one pass/fail line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines; all
comparisons are exact (tolerance zero).  The heavy ball enumerations are
session-scoped fixtures shared with the unit tests.
"""

import random

from caretcalc import (
    GeneratingSet,
    adjacency,
    coarse_isometry_check,
    evaluate_word,
    identity,
    invert,
    l_infinity,
    length_consecutive,
    multiply,
    penalty_weight,
    probe_mac,
    probe_subset_monotonicity,
)
from caretcalc.tree_core import serialize_node
from caretcalc.wordlang import parse_tree
from conftest import X1, X2, X3
from helpers import pair_of_nodes, random_node, raw_pair, reductions_all_orders

BUSH = "(((.(..)).)(.((.((.(..)).))(..))))"


def _verdict(number, label, ok):
    print(f"\n[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_formula_equals_bfs(ball_x2_r7, ball_x3_r6, ball_x1_r8):
    mismatches = 0
    total = 0
    for index, n in ((ball_x2_r7, 2), (ball_x3_r6, 3), (ball_x1_r8, 1)):
        for enc, length in index.items():
            pair = raw_pair(*enc.split("|"))
            total += 1
            if length_consecutive(pair, n).length != length:
                mismatches += 1
    _verdict(
        1,
        f"closed-form length equals BFS length on {total} elements "
        "(X2 radius 7, X3 radius 6, X1 radius 8), exact",
        mismatches == 0,
    )


def test_criterion_2_mac_witnesses():
    r1 = probe_mac(X2, 1)
    ok = (
        r1.g_length == r1.h_length == 4
        and r1.distance == 2
        and r1.min_in_ball_path == 8
        and r1.confirmed
    )
    r2 = probe_mac(X2, 2)
    ok = ok and r2.g_length == r2.h_length == 6 and r2.distance == 2
    ok = ok and r2.min_in_ball_path is not None and r2.min_in_ball_path >= 12
    r3 = probe_mac(GeneratingSet.of([0, 1, 3]), 1)
    ok = ok and r3.confirmed
    _verdict(
        2,
        "in-ball detour witnesses: {0,1,2} k=1 (path exactly 8) and k=2 "
        "(path >= 12); {0,1,3} k=1 confirmed",
        ok,
    )


def test_criterion_3_coarse_isometry_constants():
    a = coarse_isometry_check(GeneratingSet.of([0, 2]), X1, 6)
    b = coarse_isometry_check(GeneratingSet.of([0, 2, 3]), X2, 5)
    ok = (
        a.claimed_bound == 2
        and a.max_difference <= 2
        and b.claimed_bound == 2
        and b.max_difference <= 2
    )
    _verdict(
        3,
        "additive gap <= 2 between {0,2}/{0,1} on radius 6 and "
        "{0,2,3}/{0,1,2} on radius 5",
        ok,
    )


def test_criterion_4_subset_monotonicity():
    ok = probe_subset_monotonicity(X1, X2, 6)
    _verdict(
        4,
        "enlarging {0,1} to {0,1,2} never increases length on radius 6",
        ok,
    )


def test_criterion_5_presentation_relators():
    ok = True
    for i in range(0, 7):
        for j in range(i + 1, 7):
            word = [(i, -1), (j, 1), (i, 1), (j + 1, -1)]
            ok = ok and evaluate_word(word).is_identity
    a = [(0, 1), (1, -1)]
    for depth in (1, 2):
        b = [(0, -1)] * depth + [(1, 1)] + [(0, 1)] * depth
        commutator = (
            a + b + [(x, -s) for x, s in reversed(a)] + [(x, -s) for x, s in reversed(b)]
        )
        ok = ok and evaluate_word(commutator).is_identity
    _verdict(
        5,
        "conjugation relators for 0 <= i < j <= 6 and both commutator "
        "relators reduce to the identity",
        ok,
    )


def test_criterion_6_structural_properties():
    rng = random.Random(20240817)
    ok = True
    # group axioms, 500 random triples
    for _ in range(500):
        g, h, k = (
            evaluate_word(
                [(rng.randrange(0, 4), rng.choice((1, -1))) for _ in range(5)]
            )
            for _ in range(3)
        )
        ok = ok and multiply(multiply(g, h), k) == multiply(g, multiply(h, k))
        ok = ok and multiply(g, identity()) == g == multiply(identity(), g)
        ok = ok and multiply(g, invert(g)).is_identity
    # reduction confluence, 500 random pairs, every removal order
    for _ in range(500):
        n = rng.randrange(1, 7)
        neg, pos = random_node(rng, n), random_node(rng, n)
        outcomes = reductions_all_orders(serialize_node(neg), serialize_node(pos))
        ok = ok and outcomes == {pair_of_nodes(neg, pos).serialize()}
    # witness families stay flat for the infinite generating set
    for k in range(1, 6):
        g = evaluate_word([(2, 1)] + [(1, 1)] * (k + 1) + [(0, -1)] * k)
        h = evaluate_word([(1, 1)] * (k + 1) + [(0, -1)] * (k + 1))
        ok = ok and l_infinity(g) == l_infinity(h) == 2 * k + 2
    # the 11-caret adjacency pattern, exact
    tree = parse_tree(BUSH)
    pair = raw_pair(tree.root, tree.root)
    expected = (
        {(p, p + 1) for p in range(1, 11)}
        | {(1, 3), (5, 10), (6, 10), (6, 9), (7, 9)}
        | {(0, 1), (0, 3), (0, 4)}
    )
    ok = ok and adjacency(pair) == frozenset(expected)
    _verdict(
        6,
        "group axioms and reduction confluence (500 random cases each), "
        "flat witness lengths 2k+2 for k <= 5, 11-caret adjacency exact",
        ok,
    )


def test_criterion_7_penalty_weight_invariants(ball_x2_r6):
    ok = True
    checked = 0
    for enc, _ in ball_x2_r6.items():
        pair = raw_pair(*enc.split("|"))
        checked += 1
        carets = pair.carets
        weights = [penalty_weight(pair, n)[0] for n in range(1, carets + 2)]
        ok = ok and weights == sorted(weights, reverse=True)
        for n in range(max(carets, 1), carets + 2):
            ok = ok and weights[n - 1] == 0
    _verdict(
        7,
        f"p_(n+1) <= p_n and p_n = 0 once n reaches the caret count, on "
        f"all {checked} elements of the X2 ball of radius 6",
        ok,
    )
