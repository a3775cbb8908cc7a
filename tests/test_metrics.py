import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from caretcalc import (
    PenaltyTree,
    adjacency,
    bfs_length,
    canonical_encode,
    evaluate_word,
    generator_diagram,
    identity,
    invert,
    l_infinity,
    length_consecutive,
    metrics,
    penalty_carets,
    penalty_weight,
    penalty_weight_of_tree,
)
from caretcalc.errors import InvalidPenaltyTreeError, SearchCapExceededError
from caretcalc.group_ops import GeneratingSet
from caretcalc.metrics import RIGHT_IN_BOTH, TYPE_N_NEGATIVE, TYPE_N_POSITIVE
from caretcalc.tree_core import spine
from caretcalc.wordlang import parse_pair, parse_tree, parse_word
from helpers import (
    all_trees,
    brute_force_min_weight,
    infix_carets,
    interval_adjacency,
    naive_tree_weight,
    random_element,
    random_tree,
    raw_pair,
    search_min_weight,
    to_node,
)

# an 11-caret tree whose doubled pair realizes a rich adjacency pattern
BUSH = "(((.(..)).)(.((.((.(..)).))(..))))"


def h_element(k):
    return evaluate_word([(1, 1)] * (k + 1) + [(0, -1)] * (k + 1))


def g_element(k):
    return evaluate_word([(2, 1)] + [(1, 1)] * (k + 1) + [(0, -1)] * k)


# --- l_infinity -----------------------------------------------------------


def test_l_infinity_goldens():
    assert l_infinity(identity()) == 0
    for i in range(11):
        assert l_infinity(generator_diagram(i, 1)) == 1
        assert l_infinity(generator_diagram(i, -1)) == 1
    for k in range(1, 6):
        assert l_infinity(g_element(k)) == 2 * k + 2
        assert l_infinity(h_element(k)) == 2 * k + 2


def test_l_infinity_of_parsed_unreduced_text():
    # outside text of a pair that is not reduced is parsed into the
    # reduced pair, here the identity
    assert l_infinity(parse_pair("(..)|(..)")) == 0


def test_l_infinity_inversion_symmetric():
    rng = random.Random(3)
    for _ in range(100):
        g = random_element(rng)
        assert l_infinity(g) == l_infinity(invert(g))


# --- adjacency ------------------------------------------------------------


def test_adjacency_single_caret():
    pair = raw_pair("(..)", "(..)")
    assert adjacency(pair).edges == frozenset({(0, 1)})


def test_adjacency_right_spine():
    pair = raw_pair(spine(4), spine(4))
    assert adjacency(pair).edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})


def test_adjacency_bushy_tree():
    tree = parse_tree(BUSH)
    assert tree.carets == 11
    pair = raw_pair(tree.root, tree.root)
    consecutive = {(p, p + 1) for p in range(1, 11)}
    extras = {(1, 3), (5, 10), (6, 10), (6, 9), (7, 9)}
    from_v0 = {(0, 1), (0, 3), (0, 4)}
    assert adjacency(pair).edges == frozenset(consecutive | extras | from_v0)


def test_adjacency_contains_consecutive_edges():
    rng = random.Random(13)
    for _ in range(100):
        g = random_element(rng)
        edges = adjacency(g).edges
        for p in range(0, g.carets):
            assert (p, p + 1) in edges


def test_adjacency_matches_interval_oracle():
    rng = random.Random(29)
    for _ in range(250):
        g = random_element(rng, max_index=4, max_len=12)
        assert adjacency(g).edges == interval_adjacency(g), canonical_encode(g)


def test_adjacency_helpers():
    pair = raw_pair(spine(3), spine(3))
    rel = adjacency(pair)
    assert sorted(p for p, q in rel.edges if q == 2) == [1]
    assert sorted(q for p, q in rel.edges if p == 0) == [1]


# --- penalty carets -------------------------------------------------------


def test_penalty_carets_identity_empty():
    assert penalty_carets(identity()).indices == frozenset()


def test_penalty_carets_right_spine_pair():
    pair = raw_pair(spine(4), spine(4))
    flagged = penalty_carets(pair)
    assert flagged.indices == frozenset({1, 2, 3})
    assert flagged.flags == tuple((p, RIGHT_IN_BOTH) for p in (1, 2, 3))


def test_penalty_flags_honour_their_definitions():
    # Each rule read off the tuple trees: Type N at p when p has a caret
    # as its right child and p + 1 is interior; right-in-both at p when p
    # is a right caret in both trees and not the final caret.
    rng = random.Random(37)
    for _ in range(200):
        g = random_element(rng, max_index=4, max_len=12)
        neg = infix_carets(to_node(g.negative.root))
        pos = infix_carets(to_node(g.positive.root))
        n = g.carets
        expected = []
        for p in range(1, n + 1):
            for carets, reason in ((neg, TYPE_N_NEGATIVE), (pos, TYPE_N_POSITIVE)):
                if carets[p][0][1] is not None:
                    _, left, right = carets[p + 1]
                    if not left and not right:
                        expected.append((p, reason))
            if p != n and neg[p][2] and pos[p][2]:
                expected.append((p, RIGHT_IN_BOTH))
        assert penalty_carets(g).flags == tuple(expected), canonical_encode(g)


def test_penalty_carets_of_witness_family():
    # the h_k family must admit a weight-0 tree over its penalty carets
    for k in range(1, 5):
        h = h_element(k)
        flagged = penalty_carets(h).indices
        weight, witness = penalty_weight(h, 2)
        assert weight == 0
        assert flagged <= witness.vertices


# --- penalty_weight_of_tree ----------------------------------------------


def test_weight_of_bare_root():
    assert penalty_weight_of_tree(PenaltyTree(()), 1) == 0
    assert penalty_weight_of_tree(PenaltyTree(()), 5) == 0


def test_weight_of_path():
    path = PenaltyTree(((1, 0), (2, 1), (3, 2)))
    assert penalty_weight_of_tree(path, 1) == 2
    assert penalty_weight_of_tree(path, 2) == 1
    assert penalty_weight_of_tree(path, 3) == 0
    assert penalty_weight_of_tree(path, 4) == 0


def test_weight_vanishes_for_large_n():
    rng = random.Random(43)
    for _ in range(100):
        edges = []
        for child in range(1, rng.randrange(2, 9)):
            edges.append((child, rng.randrange(0, child)))
        tree = PenaltyTree(tuple(edges))
        assert penalty_weight_of_tree(tree, len(tree.vertices) + 1) == 0


def test_weight_matches_naive_evaluator():
    rng = random.Random(47)
    for _ in range(300):
        edges = []
        for child in range(1, rng.randrange(1, 10)):
            edges.append((child, rng.randrange(0, child)))
        tree = PenaltyTree(tuple(edges))
        for n in range(1, 6):
            assert penalty_weight_of_tree(tree, n) == naive_tree_weight(
                tuple(edges), n
            ), (edges, n)


def test_weight_validation_errors():
    with pytest.raises(ValueError):
        penalty_weight_of_tree(PenaltyTree(()), 0)
    with pytest.raises(InvalidPenaltyTreeError):
        penalty_weight_of_tree(PenaltyTree(((2, 1),)), 2)  # parent absent
    with pytest.raises(InvalidPenaltyTreeError):
        penalty_weight_of_tree(PenaltyTree(((1, 0), (1, 0))), 2)  # dup child
    spine_pair = raw_pair(spine(4), spine(4))
    rel = adjacency(spine_pair)
    with pytest.raises(InvalidPenaltyTreeError):
        # (1,3) is not an allowed edge on a right spine
        penalty_weight_of_tree(
            PenaltyTree(((1, 0), (3, 1)), adjacency=rel, required=frozenset({1, 3})), 2
        )
    with pytest.raises(InvalidPenaltyTreeError):
        # penalty caret 3 missing
        penalty_weight_of_tree(
            PenaltyTree(((1, 0), (2, 1)), adjacency=rel, required=frozenset({1, 2, 3})), 2
        )
    with pytest.raises(InvalidPenaltyTreeError):
        # leaf 4 is not a penalty caret
        penalty_weight_of_tree(
            PenaltyTree(
                ((1, 0), (2, 1), (3, 2), (4, 3)),
                adjacency=rel,
                required=frozenset({1, 2, 3}),
            ),
            2,
        )


# --- penalty_weight (minimization) ---------------------------------------


def test_penalty_weight_identity():
    weight, witness = penalty_weight(identity(), 2)
    assert weight == 0
    assert witness.parents == ()


def test_penalty_weight_h_family_vanishes():
    for k in range(1, 5):
        for n in (2, 3, 4):
            assert penalty_weight(h_element(k), n)[0] == 0


def test_penalty_weight_of_parsed_unreduced_text():
    # outside text of a pair that is not reduced is parsed into the
    # reduced pair, the identity, whose witness is the bare root
    weight, witness = penalty_weight(parse_pair("(..)|(..)"), 2)
    assert (weight, witness.parents) == (0, ())


def test_penalty_weight_witness_revalidates():
    rng = random.Random(53)
    for _ in range(150):
        g = random_element(rng, max_index=3, max_len=9)
        for n in (1, 2, 3):
            weight, witness = penalty_weight(g, n)
            assert witness.adjacency is not None and witness.required is not None
            assert penalty_weight_of_tree(witness, n) == weight
            assert naive_tree_weight(witness.parents, n) == weight


def test_penalty_weight_matches_brute_force():
    rng = random.Random(61)
    checked = 0
    for _ in range(250):
        g = random_element(rng, max_index=3, max_len=8)
        if g.carets > 8:
            continue
        checked += 1
        for n in (1, 2, 3):
            expected = brute_force_min_weight(g, n)
            assert penalty_weight(g, n)[0] == expected, (canonical_encode(g), n)
    assert checked > 150


def test_penalty_weight_monotone_in_n():
    rng = random.Random(67)
    for _ in range(100):
        g = random_element(rng, max_index=3, max_len=10)
        weights = [penalty_weight(g, n)[0] for n in range(1, g.carets + 2)]
        assert weights == sorted(weights, reverse=True)
        if g.carets >= 1:
            assert weights[-1] == 0  # n > caret count: no long chains fit
        assert penalty_weight(g, max(g.carets, 1))[0] == 0


def test_penalty_weight_cap():
    # a word stacking many penalty carets forces a nontrivial search
    g = evaluate_word([(1, 1), (2, 1), (3, 1), (1, -1), (0, -1), (2, 1), (0, -1)])
    with pytest.raises(SearchCapExceededError) as err:
        penalty_weight(g, 2, cap=1)
    assert err.value.states > 0


def test_penalty_search_effort_pinned():
    # (k, carets after reduce, states, weights at n = 1, 2, 3, witness at
    # every n) for pairs of two random k-caret trees: the engine must count
    # exactly this many states and find this first optimum, so a change to
    # its choice order or bounds shows here, as does a changed tie-break.
    # The first tree settles every case but one at one state per caret;
    # the k = 24 pair at n = 2 takes the program's states after those 19.
    effort = [
        (12, 11, (9, 9, 9), (4, 1, 0), "0>1,0>2,0>4,1>5,5>6,5>8,5>9"),
        (16, 16, (14, 14, 14), (4, 1, 0),
         "0>1,0>3,0>4,0>6,6>7,0>9,6>11,9>12,11>13,0>14"),
        (20, 16, (14, 14, 14), (6, 1, 0),
         "0>1,0>2,1>3,2>5,0>7,0>8,7>9,8>10,10>11,0>13,13>14"),
        (24, 21, (19, 98, 19), (10, 4, 1),
         "0>1,1>2,0>3,0>4,0>5,4>7,7>8,5>9,4>12,12>13,5>15,15>16,16>17,12>19"),
    ]
    rng = random.Random(9001)
    for k, carets, states, weights, witness in effort:
        pair = parse_pair(f"{random_tree(rng, k)}|{random_tree(rng, k)}")
        assert pair.carets == carets
        for n, (cap, weight) in enumerate(zip(states, weights), start=1):
            found, tree = penalty_weight(pair, n, cap=cap)
            assert (found, tree.serialize()) == (weight, witness)
            with pytest.raises(SearchCapExceededError):
                penalty_weight(pair, n, cap=cap - 1)


def test_length_reports_pinned():
    # every report line of 300 random pairs of 6-22 carets at n = 1, 2, 3,
    # byte for byte, as the unbounded search printed them: a change to how
    # the search is bounded keeps each weight and first witness
    rng = random.Random(1409)
    lines = []
    for _ in range(300):
        k = rng.randint(6, 22)
        pair = parse_pair(f"{random_tree(rng, k)}|{random_tree(rng, k)}")
        for n in (1, 2, 3):
            lines.append(length_consecutive(pair, n).serialize() + "\n")
    assert hashlib.sha256("".join(lines).encode("utf-8")).hexdigest() == (
        "4b18f3f380dd406201017016691e9750f34f1cd2e44d9d5f15345c9121525732"
    )


def first_tree_lemma(pair):
    """Check on one reduced pair that every caret has vertex 0 or a penalty
    caret among its predecessors, and return the number of penalty carets
    with lo[q] != 0 in both surveys: the n = 1 weight, by the proof in the
    ``penalty_weight`` docstring."""
    neg, pos = pair.negative.survey(), pair.positive.survey()
    required = metrics._penalty_carets(neg, pos).indices
    hung = {q for p, q in metrics._adjacency(neg, pos).edges
            if p == 0 or p in required}
    missing = set(range(1, pair.carets + 1)) - hung
    assert not missing, (pair.serialize(), sorted(missing))
    return sum(neg.lo[q] != 0 and pos.lo[q] != 0 for q in required)


@pytest.fixture
def program_calls(monkeypatch):
    """The n of each call of ``metrics._program`` while a test runs."""
    calls = []
    program = metrics._program

    def counted(n, *args):
        calls.append(n)
        return program(n, *args)

    monkeypatch.setattr(metrics, "_program", counted)
    return calls


def test_first_tree_lemma_on_every_pair_of_up_to_6_carets(program_calls):
    # every reduced pair of up to 6 carets, 9,754 in all: the lemma holds,
    # the n = 1 weight is the count, and the program never runs at n = 1
    checked = 0
    for carets in range(1, 7):
        trees = list(all_trees(carets))
        for neg in trees:
            for pos in trees:
                pair = raw_pair(neg, pos)
                if not pair.reduced:
                    continue
                checked += 1
                count = first_tree_lemma(pair)
                assert penalty_weight(pair, 1)[0] == count, (neg, pos)
    assert checked == 9_754
    assert program_calls == []
    # the counter sees the program where it runs: this pair reaches it at n = 2
    penalty_weight(parse_pair("(.(.((..)(.(..)))))|((.(..))(.((..).)))"), 2)
    assert program_calls == [2]


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(8, 160), st.integers(0, 2**32))
def test_first_tree_lemma_on_random_pairs(program_calls, carets, seed):
    rng = random.Random(seed)
    pair = parse_pair(
        f"{random_tree(rng, carets)}|{random_tree(rng, carets)}")
    count = first_tree_lemma(pair)
    assert penalty_weight(pair, 1)[0] == count
    assert 1 not in program_calls


def test_penalty_search_long_pair_at_n_1():
    # two random 200-caret trees: at n = 1 the first tree that meets the
    # lower bound ends the search long before the cap
    rng = random.Random(0)
    pair = parse_pair(f"{random_tree(rng, 200)}|{random_tree(rng, 200)}")
    assert pair.carets == 170
    weight, witness = penalty_weight(pair, 1, cap=10_000)
    assert weight == 126
    assert penalty_weight_of_tree(witness, 1) == weight
    assert first_tree_lemma(pair) == 126


def test_penalty_search_long_pair_at_n_2():
    # the same pair at n = 2: the search once hit a 2,000,000-state cap
    # after ~10 s; the program over caret index answers from exactly
    # 15,273 states (one below raises), with this first lightest tree
    rng = random.Random(0)
    pair = parse_pair(f"{random_tree(rng, 200)}|{random_tree(rng, 200)}")
    weight, witness = penalty_weight(pair, 2, cap=15_273)
    assert weight == 41
    assert penalty_weight_of_tree(witness, 2) == weight
    assert hashlib.sha256(witness.serialize().encode("utf-8")).hexdigest() == (
        "600bacf43d14b726ab8d287c25dd58673812b349f2bdbc3a2854fe1b1a66bb92"
    )
    with pytest.raises(SearchCapExceededError):
        penalty_weight(pair, 2, cap=15_272)
    assert weight <= penalty_weight(pair, 1, cap=10_000)[0]


def test_penalty_search_long_pair_at_n_3():
    # the 2nd pair of two random 60-caret trees, 56 carets after reduce:
    # the branch-and-bound ran into the default cap after ~39 s at n = 3;
    # the program over caret index answers from exactly 6,717 states (one
    # below raises), with this first lightest tree
    rng = random.Random(9001)
    for _ in range(2):
        pair = parse_pair(f"{random_tree(rng, 60)}|{random_tree(rng, 60)}")
    assert pair.carets == 56
    weight, witness = penalty_weight(pair, 3, cap=6_717)
    assert weight == 5
    assert penalty_weight_of_tree(witness, 3) == weight
    assert hashlib.sha256(witness.serialize().encode("utf-8")).hexdigest() == (
        "6215be836f3c430abef94e27102d43637f2425e8b7e18f16c1d15a5febf06fe2"
    )
    with pytest.raises(SearchCapExceededError):
        penalty_weight(pair, 3, cap=6_716)
    assert length_consecutive(pair, 3, cap=20_000).length == 115


def test_program_cases_match_the_search_oracle(monkeypatch):
    # 100 seeded (pair, n) cases of 17-22 carets and n = 2, 3, 4 that the
    # chain and the first tree leave to the program over caret index: its
    # weight and witness must be the plain search's, ties and all.  Most
    # random pairs never reach the program, so the draws are filtered.
    reached = []
    program = metrics._program

    def counted(*args):
        reached.append(args)
        return program(*args)

    monkeypatch.setattr(metrics, "_program", counted)
    rng = random.Random(2719)
    cases = 0
    while cases < 100:
        k = rng.randint(17, 22)
        pair = parse_pair(f"{random_tree(rng, k)}|{random_tree(rng, k)}")
        for n in (2, 3, 4):
            reached.clear()
            weight, witness = penalty_weight(pair, n)
            if reached:
                cases += 1
                assert (weight, witness.parents) == search_min_weight(pair, n), n


def test_penalty_weight_n_2_matches_brute_force_exhaustively():
    # every reduced pair of up to 6 carets, 9,754 in all: the chain or the
    # first tree ends most of them, the program over caret index the rest
    checked = 0
    for carets in range(1, 7):
        trees = list(all_trees(carets))
        for neg in trees:
            for pos in trees:
                pair = raw_pair(neg, pos)
                if not pair.reduced:
                    continue
                checked += 1
                weight, witness = penalty_weight(pair, 2)
                assert weight == brute_force_min_weight(pair, 2), (neg, pos)
                assert penalty_weight_of_tree(witness, 2) == weight
    assert checked == 9_754


def test_length_reports_at_n_2_pinned_past_the_old_cap():
    # the n = 2 report lines of 40 random pairs of 25-40 carets, byte for
    # byte as the branch-and-bound printed them with a cap of 300,000
    # states.  It hit that cap on pairs 15, 21, 34, 35 and 37, which now
    # answer too, with a witness of their weight.
    rng = random.Random(2027)
    lines = []
    for i in range(40):
        k = rng.randint(25, 40)
        pair = parse_pair(f"{random_tree(rng, k)}|{random_tree(rng, k)}")
        report = length_consecutive(pair, 2, cap=300_000)
        if i in (15, 21, 34, 35, 37):
            assert penalty_weight_of_tree(report.witness, 2) == report.penalty_weight
        else:
            lines.append(report.serialize() + "\n")
    assert hashlib.sha256("".join(lines).encode("utf-8")).hexdigest() == (
        "49e535d04ce4835a45cb0418f854d4f42bf4d64beeb1f9901b8964f943d5f4ca"
    )


def test_penalty_search_deeper_than_the_interpreter_stack():
    # x1200 over {x0, ..., xn} needs a 1200-caret penalty chain; the search
    # once recursed once per caret and died with RecursionError
    g = generator_diagram(1200, 1)
    for n, weight, length in ((1, 1199, 2399), (2, 1198, 2397), (3, 1197, 2395)):
        found, witness = penalty_weight(g, n)
        assert found == weight
        assert witness.parents == tuple((c, c - 1) for c in range(1, 1201))
        assert penalty_weight_of_tree(witness, n) == weight
        assert length_consecutive(g, n).length == length


# --- length_consecutive ---------------------------------------------------


def test_length_report_identity():
    report = length_consecutive(identity(), 2)
    assert report.length == 0 and report.l_infinity == 0
    assert report.penalty_weight == 0
    assert report.encoding == ".|."


def test_length_report_witness_example():
    report = length_consecutive(g_element(1), 2)
    assert report.length == 4
    assert report.length == report.l_infinity + 2 * report.penalty_weight


def test_length_report_serialize_golden():
    report = length_consecutive(h_element(1), 2)
    assert report.serialize() == (
        "(.(((..).).))|(((..).)(..))\tn=2\tl_inf=4\tpenalty=0\tlength=4"
        "\twitness=0>1"
    )
    # witnesses that depend on the order in which the search tries parents
    for word, pair, l_inf, penalties, witness in (
        ("x3 x1 x0^-1 x1 x0 x0^-1",
         "(.((.(..))(.((..).))))|((..)(.(.(.(.(..))))))", 4, (2, 1, 0),
         "0>1,0>2,1>4,4>5"),
        ("x0 x3 x2 x1^-1 x0^-1 x2 x3 x1^-1 x2 x2^-1 x3^-1",
         "((..)((..)(((.(..)).).)))|((.(..))((..)(.((..).))))", 9, (3, 1, 0),
         "0>1,0>2,0>3,2>4,3>5,5>6"),
    ):
        g = evaluate_word(parse_word(word).letters)
        for n, penalty in zip((1, 2, 3), penalties):
            assert length_consecutive(g, n).serialize() == (
                f"{pair}\tn={n}\tl_inf={l_inf}\tpenalty={penalty}"
                f"\tlength={l_inf + 2 * penalty}\twitness={witness}"
            )


def test_length_matches_bfs_on_sample():
    rng = random.Random(71)
    x2 = GeneratingSet.of([0, 1, 2])
    for _ in range(40):
        g = random_element(rng, max_index=2, max_len=6)
        assert length_consecutive(g, 2).length == bfs_length(g, x2)


def test_report_parity_invariants():
    rng = random.Random(73)
    for _ in range(100):
        g = random_element(rng)
        for n in (1, 2, 3):
            report = length_consecutive(g, n)
            assert report.length >= report.l_infinity
            assert (report.length - report.l_infinity) % 2 == 0
