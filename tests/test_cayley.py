import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caretcalc import (
    GeneratingSet,
    apply_generator,
    ball,
    bfs_length,
    canonical_encode,
    coarse_isometry_check,
    evaluate_word,
    generator_diagram,
    identity,
    in_ball_geodesic,
    invert,
    l_infinity,
    lengths_for,
    mac_witness_pair,
    multiply,
    normal_form,
    parse_pair,
    probe_mac,
    probe_subset_monotonicity,
    word_length,
)
from caretcalc import cayley, group_ops, tree_core
from caretcalc.cayley import claimed_additive_bound
from caretcalc.errors import SearchCapExceededError
from conftest import X1, X2, X3, counted_calls
from helpers import in_ball_distances, oracle_ball, raw_pair, restricted

X0 = GeneratingSet.of([0])
X013 = GeneratingSet.of([0, 1, 3])
X0124 = GeneratingSet.of([0, 1, 2, 4])
# sets without x1: {x0, x2} and {x0, x2, x4} are {x0, x1} and {x0, x1, x3}
# conjugated by x0, {x0, x3, x4} is {x0, x1, x2} conjugated by x0^2
X02 = GeneratingSet.of([0, 2])
X023 = GeneratingSet.of([0, 2, 3])
X024 = GeneratingSet.of([0, 2, 4])
X034 = GeneratingSet.of([0, 3, 4])


def _exponent_sum(pair):
    return sum(sign for _, sign in normal_form(pair))


def test_ball_radius_zero_and_one():
    b0 = ball(X1, 0)
    assert b0.size == 1 and dict(b0.items()) == {".|.": 0}
    b1 = ball(X1, 1)
    assert b1.size == 5
    assert b1.sphere_sizes() == [1, 4]
    expected = {
        canonical_encode(generator_diagram(i, s))
        for i in (0, 1)
        for s in (1, -1)
    }
    assert {enc for enc, length in b1.items() if length == 1} == expected


def test_ball_negative_radius():
    with pytest.raises(ValueError):
        ball(X1, -1)


def test_sphere_two_by_exhaustive_products():
    b2 = ball(X1, 2)
    assert b2.sphere_sizes()[:2] == [1, 4]
    letters = [(i, s) for i in (0, 1) for s in (1, -1)]
    products = {
        canonical_encode(evaluate_word([a, b])) for a in letters for b in letters
    }
    inner = {enc for enc, length in b2.items() if length <= 1}
    sphere2 = {enc for enc, length in b2.items() if length == 2}
    assert sphere2 == products - inner


def test_ball_export_lines_deterministic():
    lines_a = list(ball(X1, 2).export_lines())
    lines_b = list(ball(X1, 2).export_lines())
    assert lines_a == lines_b
    assert lines_a[0] == ".|.\t0"
    assert lines_a == sorted(lines_a, key=lambda ln: (int(ln.split("\t")[1]), ln.split("\t")[0]))


def test_ball_descent_via_some_letter():
    # every element of length L >= 1 has a neighbour of length L - 1
    index = ball(X2, 3)
    lengths = dict(index.items())
    for enc, length in lengths.items():
        if length == 0:
            continue
        pair = raw_pair(*enc.split("|"))
        steps = (apply_generator(pair, *letter) for letter in index.gens.letters())
        assert any(lengths.get(canonical_encode(step)) == length - 1
                   for step in steps), enc


def test_ball_rows_hold_no_trees_and_pairs_rebuild():
    index = ball(X2, 4)
    for enc, row in index.items():
        assert type(row) is int
        pair = raw_pair(*enc.split("|"))
        assert pair.reduced and canonical_encode(pair) == enc


def test_ball_costs_at_most_50_bytes_per_element():
    # the table keeps one slot per element and its inverse, in rows by
    # the larger tree text, and each tree text once, so one
    # ball({0,1,2}, 7), traced from start to end, peaks at ~45 B per
    # element; a slot per element read ~68 B, and one "negative|positive"
    # key per element ~137 B
    tracemalloc.start()
    try:
        index = ball(X2, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / index.size <= 50


@pytest.mark.parametrize("gens, radius", [((0, 1), 8), ((0, 2), 6), ((0, 1, 3), 5),
                                          ((0,), 6)])
def test_ball_holds_each_inverse_pair_once(gens, radius):
    # F has no element of order 2, so each element but the identity has
    # its own inverse, of the same length, and one entry stands for both
    index = ball(GeneratingSet.of(gens), radius)
    entries = sum(map(len, index.table.values()))
    assert entries == (index.size + 1) // 2
    lengths = dict(index.items())
    assert len(lengths) == index.size
    for enc, length in lengths.items():
        neg, _, pos = enc.partition("|")
        assert lengths[f"{pos}|{neg}"] == length
        low, high = sorted((neg, pos))
        assert index.table[high][low] == length


def test_ball_never_applies_the_parent_letter(monkeypatch):
    # each element past the identity skips the inverse of the letter that
    # reached it: 6 + 5 * (6 + 26 + 104) steps, not 6 * (1 + 6 + 26 + 104);
    # a step is planned once per positive tree a shell holds and letter
    # some element of that tree takes, 446 plans for the 686 steps.  The
    # plans follow the letters each group skips: an inverse's back letter
    # is the first letter of the element's path, not the letter that
    # would first have reached the inverse itself
    steps = counted_calls(monkeypatch, cayley, "enact")
    plans = counted_calls(monkeypatch, cayley, "plan")
    assert ball(X2, 4).sphere_sizes() == [1, 6, 26, 104, 404]
    assert (len(steps), len(plans)) == (686, 446)


def test_ball_reduces_only_where_the_step_creates_a_common_caret(monkeypatch):
    # a step from a reduced pair can make common only the caret it
    # creates, so 16 of the 686 steps cancel, not each: ``enact`` cancels
    # the caret where it stands, on a copy of the plan's spine list, no
    # step is taken again and no pair is reduced whole.  Which steps
    # cancel depends on the letter each element was reached by, which
    # follows the order of expansion inside a shell, or, for an inverse,
    # is the first letter of the element's path: the count is that of
    # expanding a shell by positive tree, in the order the trees first
    # appear in the frontier
    steps = counted_calls(monkeypatch, group_ops, "apply_letter")
    cancels = counted_calls(monkeypatch, group_ops, "_cancel")
    products = counted_calls(monkeypatch, group_ops, "reduce_text")
    parses = counted_calls(monkeypatch, tree_core, "reduce_text")
    assert ball(X2, 4).sphere_sizes() == [1, 6, 26, 104, 404]
    assert (len(steps), len(cancels), len(products) + len(parses)) == (0, 16, 0)


@pytest.mark.parametrize("gens, radius", [((0, 1), 8), ((0, 2), 6), ((0, 1, 2), 6),
                                          ((0, 1, 3), 5)])
def test_ball_matches_the_oracle_search(gens, radius):
    # the shell groups its frontier by positive tree and steps each group
    # from one plan per letter; the oracle takes every neighbour of every
    # element on its own
    gens = GeneratingSet.of(gens)
    assert dict(ball(gens, radius).items()) == oracle_ball(gens, radius)


@pytest.mark.parametrize("gens", [X2, X013, X3, X0124, X023, X024])
def test_witness_searches_pinned(gens):
    # the witness pairs at k = 1, 2: both of length 2k + 2, at distance 2,
    # and 4k + 4 apart inside the ball of radius 2k + 2.  At k = 3-5, the
    # k whose probe-mac output CI pins, breadth-first search confirms the
    # lengths that probe_mac reads off the witness's words
    for k, (length, detour) in ((1, (4, 8)), (2, (6, 12))):
        g, h = mac_witness_pair(gens, k)
        assert bfs_length(g, gens) == bfs_length(h, gens) == length
        assert bfs_length(multiply(invert(g), h), gens) == 2
        assert in_ball_geodesic(g, h, gens, 2 * k + 2) == detour
    for k in (3, 4, 5):
        g, h = mac_witness_pair(gens, k)
        assert bfs_length(g, gens) == bfs_length(h, gens) == 2 * k + 2, k


def test_search_steps_on_text_and_builds_no_diagram(monkeypatch):
    # the searches step on the encodings' texts with plan and enact; a
    # search that went back to apply_generator would raise here
    def refused(*args):
        raise AssertionError("the search built a tree pair diagram")

    monkeypatch.setattr(cayley, "apply_generator", refused, raising=False)
    monkeypatch.setattr(group_ops, "apply_generator", refused)
    assert ball(X2, 4).sphere_sizes() == [1, 6, 26, 104, 404]
    h2 = evaluate_word([(1, 1)] * 3 + [(0, -1)] * 3)
    g1 = evaluate_word([(2, 1), (1, 1), (1, 1), (0, -1)])
    assert lengths_for([h2, g1], X2) == {canonical_encode(h2): 6, canonical_encode(g1): 4}
    assert bfs_length(h2, X2) == 6
    assert bfs_length(g1, X2) == 4
    g, h = mac_witness_pair(X2, 1)
    assert in_ball_geodesic(g, h, X2, 4) == 8


def test_ball_cap():
    with pytest.raises(SearchCapExceededError) as err:
        ball(X1, 4, cap=20)
    assert err.value.states <= 20


def test_bfs_length_goldens():
    assert bfs_length(identity(), X1) == 0
    assert bfs_length(generator_diagram(5, 1), GeneratingSet.of([0, 5])) == 1
    h2 = evaluate_word([(1, 1)] * 3 + [(0, -1)] * 3)
    assert bfs_length(h2, X2) == 6
    g1 = evaluate_word([(2, 1), (1, 1), (1, 1), (0, -1)])
    assert bfs_length(g1, X2) == 4


def test_sphere_size_goldens(ball_x1_r8):
    spheres = [1, 4, 12, 36, 108, 314, 906, 2576, 7280]
    assert ball_x1_r8.sphere_sizes() == spheres
    # conjugation by x0 fixes x0 and sends x1 to x2 (x0^-1 x1 x0 = x2), so
    # it carries the {x0, x1} spheres onto the {x0, x2} ones
    assert ball(GeneratingSet.of([0, 2]), 6).sphere_sizes() == spheres[:7]


def _sample_with_outer_sphere(index, rng, count, outer):
    """Seeded encodings of the index, plus ``outer`` from its last sphere."""
    encs = sorted(enc for enc, _ in index.items())
    last = sorted(enc for enc, length in index.items() if length == index.radius)
    return rng.sample(encs, count) + rng.sample(last, outer)


def test_bfs_length_matches_ball(ball_x1_r8, ball_x2_r7, ball_x3_r6):
    # the two-sided search against the one-sided enumeration
    rng = random.Random(109)
    small = [ball(GeneratingSet.of([0, 2]), 5),
             ball(GeneratingSet.of([0, 1, 3]), 4)]
    for index in [ball_x1_r8, ball_x2_r7, ball_x3_r6] + small:
        lengths = dict(index.items())
        for enc in _sample_with_outer_sphere(index, rng, 10, 4):
            pair = raw_pair(*enc.split("|"))
            assert bfs_length(pair, index.gens) == lengths[enc], enc


def test_in_ball_geodesic_matches_one_sided_oracle(ball_x2_r6):
    rng = random.Random(113)
    encs = sorted(enc for enc, _ in ball_x2_r6.items())

    def seeded(count):
        return [raw_pair(*enc.split("|")) for enc in rng.sample(encs, count)]

    g1, h1 = mac_witness_pair(X2, 1)
    g2, h2 = mac_witness_pair(X2, 2)
    cases = [(g1, 4, [h1]), (g2, 6, [h2] + seeded(8)), (seeded(1)[0], 6, seeded(8))]
    for a, radius, targets in cases:
        oracle = in_ball_distances(ball_x2_r6, canonical_encode(a), radius)
        for b in targets:
            assert in_ball_geodesic(a, b, X2, radius) == oracle[canonical_encode(b)]
    # the MAC witnesses' in-ball distances, exactly
    assert in_ball_geodesic(g1, h1, X2, 4) == 8
    assert in_ball_geodesic(g2, h2, X2, 6) == 12


@pytest.mark.parametrize("gens, radius", [
    (X2, 5), (GeneratingSet.of([0, 1, 3]), 5), (X1, 7), (X02, 6), (X024, 4),
])
def test_in_ball_geodesic_from_the_rim(gens, radius, ball_x1_r8, ball_x2_r6):
    # endpoints at lengths R - 2, R - 1 and R, where the lengths come from
    # the one-step tests, against the one-sided oracle: pairs whose in-ball
    # distance is l(a) + l(b), where the search stops early, and pairs 2
    # and 4 or more below it, where the sides must meet
    full = {X1: ball_x1_r8, X2: ball_x2_r6}.get(gens) or ball(gens, radius)
    index = restricted(full, radius)
    rng = random.Random(131)
    rim = sorted(
        (length, enc) for enc, length in index.items() if length >= radius - 2
    )
    gaps = set()
    for length in (radius - 2, radius - 1, radius):
        a = rng.choice([enc for l, enc in rim if l == length])
        oracle = in_ball_distances(index, a, radius)
        by_gap: dict = {}
        for l, enc in rim:
            gap = min(length + l - oracle[enc], 4)
            by_gap.setdefault(gap, []).append(enc)
        targets = [b for gap in sorted(by_gap) for b in rng.sample(by_gap[gap], 2)]
        gaps |= by_gap.keys()
        for b in targets:
            got = in_ball_geodesic(raw_pair(*a.split("|")), raw_pair(*b.split("|")),
                                   gens, radius)
            assert got == oracle[b], (a, b)
    assert gaps == {0, 2, 4}


def test_search_outside_x0_subgroup_rejected():
    x0_only = GeneratingSet.of([0])
    x1 = generator_diagram(1, 1)
    with pytest.raises(ValueError, match="not in the subgroup generated by x0"):
        bfs_length(x1, x0_only)
    with pytest.raises(ValueError, match="not in the subgroup generated by x0"):
        lengths_for([generator_diagram(0, 1), x1], x0_only)
    power = evaluate_word([(0, -1)] * 4)
    assert bfs_length(power, x0_only) == 4
    assert lengths_for([power], x0_only) == {canonical_encode(power): 4}


def test_cap_errors_say_how_far_the_search_got():
    h2 = evaluate_word([(1, 1)] * 3 + [(0, -1)] * 3)
    with pytest.raises(SearchCapExceededError, match="at depth 2 from the "
                       "start and 1 from the goal") as err:
        bfs_length(h2, X2, cap=20)
    assert err.value.states == 20
    with pytest.raises(SearchCapExceededError, match="at radius 2"):
        lengths_for([h2], X2, cap=20)
    with pytest.raises(SearchCapExceededError, match="at radius 2"):
        ball(X2, 3, cap=20)
    # ball(X2, 2), which the in-ball tests of radius 4 enumerate first,
    # holds 33 elements, and the search answers (8) from a cap of 40 up
    g, h = mac_witness_pair(X2, 1)
    with pytest.raises(SearchCapExceededError, match="in-ball search .* at depth 4 "
                       "from the start and 2 from the goal") as err:
        in_ball_geodesic(g, h, X2, 4, cap=33)
    assert err.value.states == 33


def test_lengths_for_matches_bfs_length(ball_x2_r7):
    rng = random.Random(97)
    lengths = dict(ball_x2_r7.items())
    sample = rng.sample(sorted(lengths), 30)
    pairs = [raw_pair(*enc.split("|")) for enc in sample]
    batched = lengths_for(pairs, X2)
    assert batched == {enc: lengths[enc] for enc in sample}


def test_length_symmetry_and_letter_step(ball_x2_r7):
    rng = random.Random(103)
    lengths = dict(ball_x2_r7.items())
    for enc in rng.sample(sorted(lengths), 60):
        pair = raw_pair(*enc.split("|"))
        length = lengths[enc]
        assert lengths.get(canonical_encode(invert(pair)), length) == length
        for letter in X2.letters():
            stepped = lengths.get(canonical_encode(apply_generator(pair, *letter)))
            if stepped is not None:
                assert abs(stepped - length) <= 1


def test_triangle_inequality_sampled(ball_x2_r7):
    rng = random.Random(107)
    lengths = dict(ball_x2_r7.items())
    encs = sorted(lengths)
    for _ in range(50):
        a, b = rng.choice(encs), rng.choice(encs)
        product = multiply(raw_pair(*a.split("|")), raw_pair(*b.split("|")))
        bound = lengths[a] + lengths[b]
        assert lengths.get(canonical_encode(product), bound) <= bound


def test_in_ball_geodesic_basics():
    x0 = generator_diagram(0, 1)
    assert in_ball_geodesic(x0, x0, X2, 3) == 0
    neighbour = multiply(x0, generator_diagram(1, 1))
    assert in_ball_geodesic(x0, neighbour, X2, 3) == 1
    outside = evaluate_word([(1, 1)] * 5)
    with pytest.raises(ValueError):
        in_ball_geodesic(x0, outside, X2, 3)


def test_every_edge_flips_length_parity(ball_x2_r7):
    # the exponent sum is a homomorphism F -> Z, so every letter moves it
    # by one, and the length of each element has its parity
    rng = random.Random(127)
    for enc in rng.sample(sorted(enc for enc, _ in ball_x2_r7.items()), 40):
        pair = raw_pair(*enc.split("|"))
        for index, sign in X3.letters():
            stepped = apply_generator(pair, index, sign)
            assert _exponent_sum(stepped) == _exponent_sum(pair) + sign
    for enc, length in ball_x2_r7.items():
        assert (length - _exponent_sum(raw_pair(*enc.split("|")))) % 2 == 0


def test_l_infinity_bounds_every_length(ball_x1_r8, ball_x2_r7, ball_x3_r6):
    # every set of generators x_i is a subset of the infinite one, so no
    # length is below l_infinity, and both have the exponent sum's parity:
    # the premise of the in-ball tests' screen, over consecutive and
    # non-consecutive sets alike
    others = [ball(GeneratingSet.of([0, 2]), 6), ball(GeneratingSet.of([0, 1, 3]), 5)]
    for index in [ball_x1_r8, ball_x2_r7, ball_x3_r6] + others:
        for enc, length in index.items():
            flat = l_infinity(raw_pair(*enc.split("|")))
            assert flat <= length and (length - flat) % 2 == 0, (index.gens, enc)


@pytest.mark.parametrize("gens, radius", [
    ((0, 1, 2), 5), ((0, 1, 3), 5), ((0, 1), 7), ((0, 2), 6), ((0, 1, 2, 3), 4),
    ((0, 1, 2), 2), ((0, 1, 2), 1), ((0, 1, 2), 0),
    # the ball route where its table is the identity alone
    ((0, 1, 3), 0), ((0, 1, 3), 1), ((0, 1, 3), 2), ((0,), 0), ((0,), 1), ((0,), 2),
    ((0,), 3), ((0, 1, 2, 4), 3),
])
def test_ball_tests_on_every_element_one_radius_out(gens, radius):
    # the length function, read off the closed form or off the ball of
    # radius max(R - 2, 0) with one or two steps, behind its l_infinity
    # screen, against the lengths of every element of the ball of radius
    # R + 1: at each limit up to R it gives l when l <= limit, else None
    gens = GeneratingSet.of(gens)
    full = ball(gens, radius + 1)
    length = cayley._ball_tests(gens, radius, cayley.DEFAULT_STATE_CAP)
    for enc, exact in full.items():
        for limit in range(-1, radius + 1):
            assert length(*enc.split("|"), limit) == (exact if exact <= limit else None), \
                (enc, limit)


def test_in_ball_search_screens_by_l_infinity(monkeypatch):
    # an element whose l_infinity is R or more fails the inner test at
    # once.  On the ball route, an element that the ball of radius R - 2
    # lacks then takes no step: over {x0, x1, x3} the k = 2 witness search
    # takes 826 steps to grow ball({0,1,3}, 4) and 665 for the endpoints'
    # lengths and the search.  Over {x0, x1, x2} the tests read the closed
    # form and take no step, so all 382 steps are the search's own, and the
    # closed form runs for the two endpoints and 48 of the search's 241
    # inner tests
    g, h = mac_witness_pair(X2, 2)
    steps = counted_calls(monkeypatch, cayley, "enact")
    formulas = counted_calls(monkeypatch, cayley, "_weight")
    assert in_ball_geodesic(g, h, X2, 6) == 12
    assert (len(steps), len(formulas)) == (382, 2 + 48)
    steps.clear()
    g, h = mac_witness_pair(X013, 2)
    assert in_ball_geodesic(g, h, X013, 6) == 12
    assert (len(steps), len(formulas)) == (826 + 665, 50)
    # probe_mac reads |g|, |h| and |g^-1 h| off the witness's words, so
    # its one search is the in-ball one, whose endpoints take no test
    searches = counted_calls(monkeypatch, cayley, "bfs_length")
    steps.clear()
    formulas.clear()
    assert probe_mac(X2, 2).min_in_ball_path == 12
    assert (len(steps), len(formulas), len(searches)) == (382, 48, 0)
    steps.clear()
    assert probe_mac(X013, 2).min_in_ball_path == 12
    assert (len(steps), len(searches)) == (1487, 0)


def test_probe_mac_refuses_a_witness_its_words_do_not_certify(monkeypatch):
    # |g| = |h| = 2k + 2 and |g^-1 h| = 2 come from the witness's words and
    # l_infinity, so a pair that fails either check is a construction bug,
    # which raises, and no search stands in for the certificate: (h, g) has
    # l_infinity 4 but g^-1 h is not x0^-1 x2^-1; (u, u x0^-1 x2^-1) is one
    # such step apart, with u off the sphere; and u in place of either
    g, h = mac_witness_pair(X2, 1)
    u = evaluate_word([(1, 1), (0, -1)])
    assert l_infinity(u) == 2
    stepped = multiply(u, evaluate_word([(0, -1), (2, -1)]))
    for pair in ((h, g), (u, stepped), (u, h), (g, u)):
        monkeypatch.setattr(cayley, "mac_witness_pair", lambda gens, k: pair)
        with pytest.raises(AssertionError, match="do not certify its lengths"):
            probe_mac(X2, 1)


def test_in_ball_geodesic_radius_zero_and_one():
    one = identity()
    x0, x1 = generator_diagram(0, 1), generator_diagram(1, 1)
    assert in_ball_geodesic(one, one, X1, 0) == 0
    with pytest.raises(ValueError, match="outside the ball of radius 0"):
        in_ball_geodesic(one, x0, X1, 0)
    # radius 1: the only path between two generators runs through 1
    assert in_ball_geodesic(x0, x1, X1, 1) == 2
    assert in_ball_geodesic(one, x1, X1, 1) == 1
    with pytest.raises(ValueError, match="outside the ball of radius 1"):
        in_ball_geodesic(x0, multiply(x0, x1), X1, 1)


@pytest.mark.parametrize("gens", [X0, X2, X013])
def test_in_ball_geodesic_below_radius_0(gens):
    # the ball of a negative radius is empty, on either route
    one = identity()
    for radius in (-1, -2):
        with pytest.raises(ValueError, match=f"endpoint a lies outside the ball of "
                           f"radius {radius}$"):
            in_ball_geodesic(one, one, gens, radius)


def test_in_ball_path_through_the_outer_sphere():
    # the only in-ball path of length 3 runs through sphere 3, two spheres
    # beyond the ball of radius 1 that the in-ball tests enumerate; kept
    # inside radius 2 it needs 5 steps
    a = parse_pair("(.((..)(.(..))))|(.(.((.(..)).)))")
    b = parse_pair("(.((..).))|((..)(..))")
    assert in_ball_geodesic(a, b, X2, 3) == 3
    assert in_ball_geodesic(a, b, X2, 4) == 3


def _ball_radii(monkeypatch):
    """The radius of each ball that ``cayley`` enumerates from now on."""
    radii = []
    real = cayley.ball

    def recorded(gens, radius, cap=cayley.DEFAULT_STATE_CAP):
        radii.append(radius)
        return real(gens, radius, cap=cap)

    monkeypatch.setattr(cayley, "ball", recorded)
    return radii


def test_probe_mac_enumerates_radius_2k_once(monkeypatch):
    # the ball route, which {x0, x1, x3} takes, and {x0, x2, x4} over its
    # base {x0, x1, x3}: no closed form covers them
    radii = _ball_radii(monkeypatch)
    for gens in (X013, X024):
        for k in (1, 2):
            radii.clear()
            assert probe_mac(gens, k).confirmed
            assert radii == [2 * k]


def test_in_ball_geodesic_enumerates_radius_r_minus_2_once(monkeypatch):
    # on the ball route ({x0} and {x0, x1, x3}), one ball per search, of
    # radius max(R - 2, 0), read for both endpoints' lengths and for the
    # search
    radii = _ball_radii(monkeypatch)
    one, x0 = identity(), generator_diagram(0, 1)
    x0_2, x0_m3 = evaluate_word([(0, 2)]), evaluate_word([(0, -3)])
    g, h = mac_witness_pair(X013, 1)
    for a, b, gens, radius, path in ((one, one, X0, 0, 0), (x0, invert(x0), X0, 1, 2),
                                     (x0_2, x0_m3, X0, 4, 5), (g, h, X013, 4, 8)):
        radii.clear()
        assert in_ball_geodesic(a, b, gens, radius) == path
        assert radii == [max(radius - 2, 0)]


def test_consecutive_sets_build_no_ball(monkeypatch):
    # over {x0, ..., xn}, n >= 1, the in-ball tests read the closed form
    radii = _ball_radii(monkeypatch)
    one, x0, x1 = identity(), generator_diagram(0, 1), generator_diagram(1, 1)
    assert in_ball_geodesic(one, one, X1, 0) == 0
    assert in_ball_geodesic(x0, x1, X1, 1) == 2
    assert in_ball_geodesic(x0, multiply(x1, x1), X1, 3) == 3
    for gens in (X2, X3, X023, X034):
        for k in (1, 2):
            assert probe_mac(gens, k).confirmed
        g, h = mac_witness_pair(gens, 1)
        assert in_ball_geodesic(g, h, gens, 4) == 8
    assert radii == []


class _Passed(Exception):
    """Raised in place of the in-ball tests: the probe got past its checks."""


def test_probe_mac_refuses_witness_words_over_the_cap(monkeypatch):
    # the witness words of k have 2k + 2 letters and use x_{k+m+1}: a cap
    # below either is refused before any ball or witness, on both routes,
    # and a cap that holds both is not
    def passed(*args):
        raise _Passed

    monkeypatch.setattr(cayley, "_ball_tests", passed)
    monkeypatch.setattr(cayley, "mac_witness_pair", passed)
    for gens, k, need in ((X2, 2, 6), (X013, 2, 6), (GeneratingSet.of([0, 1, 6]), 1, 8)):
        with pytest.raises(SearchCapExceededError, match=f"beyond the cap of {need - 1}$"):
            probe_mac(gens, k, cap=need - 1)
        with pytest.raises(_Passed):
            probe_mac(gens, k, cap=need)


def test_in_ball_geodesic_witness_detour():
    g, h = mac_witness_pair(X2, 1)
    assert in_ball_geodesic(g, h, X2, 4) == 8


def test_mac_witness_pair_validation():
    with pytest.raises(ValueError):
        mac_witness_pair(X2, 0)
    # two generators are too few, with or without x1
    for gens, j in ((X1, 1), (X02, 2), (X0, 1)):
        with pytest.raises(ValueError, match=f"needs x_0, x_{j} and one more generator: "
                           rf"got indices \[{', '.join(map(str, gens))}\]$"):
            mac_witness_pair(gens, 1)
        with pytest.raises(ValueError, match="the witness family needs"):
            probe_mac(gens, 1)
    g, h = mac_witness_pair(GeneratingSet.of([0, 1, 3]), 2)
    assert g.reduced and h.reduced
    assert canonical_encode(multiply(invert(g), h)) != ".|."


def test_mac_witness_two_step_identity():
    # h is exactly g shifted by x0^-1 then xm^-1 -- this ordering (and not
    # the reverse) is what pins the left-to-right product convention -- and
    # both have l_infinity 2k + 2: the facts probe_mac's certificate reads
    for gens in (X2, X3, X013, X0124, X023, X024, X034):
        m = max(gens)
        for k in range(1, 9):
            g, h = mac_witness_pair(gens, k)
            step = multiply(multiply(g, generator_diagram(0, -1)),
                            generator_diagram(m, -1))
            assert canonical_encode(step) == canonical_encode(h), (gens, k)
            other = multiply(multiply(g, generator_diagram(m, -1)),
                             generator_diagram(0, -1))
            assert canonical_encode(other) != canonical_encode(h), (gens, k)
            assert l_infinity(g) == l_infinity(h) == 2 * k + 2, (gens, k)


def test_probe_mac_confirms_consecutive():
    report = probe_mac(X2, 1)
    assert report.confirmed
    assert report.g_length == report.h_length == 4
    assert report.distance == 2
    assert report.min_in_ball_path == 8
    assert report.formula_g_length == 4 and report.formula_h_length == 4


def test_probe_mac_family():
    # every consecutive set in {X2, X3} with k in {1, 2} confirms
    for gens, k in ((X2, 2), (X3, 1), (X3, 2)):
        report = probe_mac(gens, k)
        assert report.confirmed, (list(gens), k, report.to_dict())
        assert report.min_in_ball_path >= 4 * k + 4


def test_probe_mac_nonconsecutive():
    report = probe_mac(GeneratingSet.of([0, 1, 3]), 1)
    assert report.confirmed
    assert report.formula_g_length is None


def test_probe_mac_over_shifted_sets():
    # the witness over a set without x1 uses x_j, its smallest nonzero
    # index, where the paper's uses x1: g = x_m x_j^{k+1} x0^-k and
    # h = x_j^{k+1} x0^-(k+1).  Its base is consecutive, so the formula
    # fields appear, read on the conjugates
    for gens, j, m in ((X023, 2, 3), (X034, 3, 4)):
        for k in (1, 2, 3):
            report = probe_mac(gens, k)
            assert report.confirmed, (list(gens), k, report.to_dict())
            assert report.min_in_ball_path == 4 * k + 4
            assert report.formula_g_length == report.formula_h_length == 2 * k + 2
            g = evaluate_word([(m, 1), (j, k + 1), (0, -k)])
            h = evaluate_word([(j, k + 1), (0, -(k + 1))])
            assert (report.g_encoding, report.h_encoding) == (canonical_encode(g),
                                                              canonical_encode(h))
    # a base with a gap has no closed form, so no formula field
    report = probe_mac(X024, 1)
    assert report.confirmed and report.formula_g_length is None


def _conjugated(pair, s):
    """x0^s pair x0^-s, multiplied out here."""
    return multiply(multiply(evaluate_word([(0, s)]), pair), evaluate_word([(0, -s)]))


def test_word_length_picks_one_route(monkeypatch):
    # the closed form over a consecutive set holding x1, with its report;
    # the closed form on the conjugate over a shifted copy of one, with
    # none; plain BFS over every other set, and under "bfs"
    x0_100, x0_3 = evaluate_word([(0, 100)]), evaluate_word([(0, 3)])
    method, length, report = word_length(x0_100, X1)
    assert (method, length, report.length, report.n) == ("formula", 100, 100, 1)
    for method in ("auto", "formula"):
        assert word_length(x0_100, X02, method) == ("conjugate", 100, None)
        assert word_length(generator_diagram(4, -1), X034, method) == ("conjugate", 1, None)
    for gens in (X0, X013, X024):
        assert word_length(x0_3, gens) == ("bfs", 3, None)
    for gens in (X1, X02):
        assert word_length(x0_3, gens, "bfs") == ("bfs", 3, None)
    # no closed form: one refusal, naming the set
    for gens in (X0, X013, X024):
        with pytest.raises(ValueError, match="the closed form needs x0 and one or more "
                           rf"consecutive indices after it, got \[{', '.join(map(str, gens))}\]$"):
            word_length(x0_3, gens, "formula")
    with pytest.raises(ValueError, match="method must be auto, formula or bfs"):
        word_length(x0_3, X1, "closed")
    # at s = 0 the map makes no product; at s >= 1, one conjugation
    products = counted_calls(monkeypatch, cayley, "multiply")
    g, h = mac_witness_pair(X2, 1)
    assert word_length(g, X2)[:2] == ("formula", 4)
    assert in_ball_geodesic(g, h, X2, 4) == 8
    assert len(products) == 0
    assert word_length(g, X023)[0] == "conjugate"
    assert len(products) == 2


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from([X02, X023, GeneratingSet.of([0, 3, 4, 5])]).flatmap(
    lambda gens: st.tuples(st.just(gens), st.lists(
        st.tuples(st.sampled_from(gens.indices), st.sampled_from((1, -1))),
        min_size=1, max_size=8))))
def test_conjugated_closed_form_equals_bfs(case):
    # a shifted set answers by the closed form on the conjugate, which
    # plain BFS over the set itself confirms
    gens, word = case
    pair = evaluate_word(word)
    method, length, _ = word_length(pair, gens)
    assert (method, length) == ("conjugate", bfs_length(pair, gens))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(st.integers(1, 6), max_size=3, unique=True).flatmap(
    lambda rest: st.tuples(st.just(GeneratingSet.of([0] + rest)), st.lists(
        st.tuples(st.sampled_from([0] + rest), st.sampled_from((1, -1))), max_size=8))))
def test_every_route_between_l_infinity_and_the_word(case):
    # each route's length lies between l_infinity, the length over every
    # x_i, and the word's letter count, with the parity of both: over
    # sets holding x1 by the closed form, over shifted copies of them by
    # the conjugate, and by BFS over the rest
    gens, word = case
    pair = evaluate_word(word)
    length = word_length(pair, gens)[1]
    assert l_infinity(pair) <= length <= len(word)
    assert (length - l_infinity(pair)) % 2 == 0 == (len(word) - length) % 2


@pytest.mark.parametrize("gens, radius", [((0, 2), 6), ((0, 2, 3), 4), ((0, 3), 5),
                                          ((0, 3, 4, 5), 3)])
def test_word_length_on_every_element_of_shifted_balls(gens, radius):
    # every element of the ball, by the closed form on its conjugate
    gens = GeneratingSet.of(gens)
    for enc, length in ball(gens, radius).items():
        assert word_length(raw_pair(*enc.split("|")), gens) == ("conjugate", length, None), enc


@pytest.mark.parametrize("gens, base, s", [(X02, X1, 1), (X024, X013, 1), (X034, X2, 2)])
def test_in_ball_geodesic_over_a_shifted_set_is_the_base_search(gens, base, s):
    # conjugation by x0^s maps the graph over the shifted set onto the one
    # over its base and fixes the identity, so the in-ball distance
    # between two elements is the base's between their conjugates
    rng = random.Random(137)
    radius = 4
    encs = sorted(enc for enc, _ in ball(gens, radius).items())
    for _ in range(6):
        a, b = (raw_pair(*enc.split("|")) for enc in rng.sample(encs, 2))
        assert in_ball_geodesic(a, b, gens, radius) == in_ball_geodesic(
            _conjugated(a, s), _conjugated(b, s), base, radius)


def test_claimed_additive_bound():
    assert claimed_additive_bound(X1, X1) == 0
    assert claimed_additive_bound(GeneratingSet.of([0, 2]), X1) == 2
    assert claimed_additive_bound(X1, GeneratingSet.of([0, 3])) == 4
    assert claimed_additive_bound(GeneratingSet.of([0, 2, 3]), X2) == 2
    assert claimed_additive_bound(X2, GeneratingSet.of([0, 1, 3])) is None


def test_coarse_isometry_identical_sets():
    report = coarse_isometry_check(X1, X1, 3)
    assert report.max_difference == 0
    assert report.claimed_bound == 0
    assert report.within_bound is True


def test_coarse_isometry_shifted_pair():
    report = coarse_isometry_check(GeneratingSet.of([0, 2]), X1, 4)
    assert report.claimed_bound == 2
    assert report.max_difference <= 2
    assert report.within_bound is True
    assert report.elements_checked > 0


@pytest.mark.parametrize("gens_a, gens_b, radius, checked, gap", [
    ((0, 2), (0, 1), 6, 2061, 2), ((0, 2, 3), (0, 1, 2), 5, 3269, 2),
    ((0, 1), (0, 3), 5, 841, 4),
])
def test_coarse_isometry_pinned(gens_a, gens_b, radius, checked, gap):
    # the elements of both balls and the largest gap, exactly: the two
    # shifted pairs meet their claimed bound of 2 and 4
    report = coarse_isometry_check(GeneratingSet.of(gens_a), GeneratingSet.of(gens_b),
                                   radius)
    assert (report.elements_checked, report.max_difference) == (checked, gap)
    assert report.within_bound is True


@pytest.mark.parametrize("gens_a, gens_b, radius", [
    ((0, 2), (0, 1), 4), ((0, 1, 3), (0, 1, 2), 3),
])
def test_coarse_isometry_matches_balls_and_bfs(monkeypatch, gens_a, gens_b, radius):
    # the union of both balls, each element's length over each set read
    # off that set's ball or, when the ball lacks it, searched by
    # bfs_length; the check itself grows each set's table once and calls
    # neither ball nor lengths_for
    sets = GeneratingSet.of(gens_a), GeneratingSet.of(gens_b)
    found = [dict(ball(gens, radius).items()) for gens in sets]
    gaps = []
    for enc in found[0].keys() | found[1].keys():
        pair = raw_pair(*enc.split("|"))
        a, b = (lengths[enc] if enc in lengths else bfs_length(pair, gens)
                for lengths, gens in zip(found, sets))
        gaps.append(abs(a - b))

    def refused(*args, **kwargs):
        raise AssertionError("the check grew a second ball")

    for name in ("ball", "lengths_for"):
        monkeypatch.setattr(cayley, name, refused)
    report = coarse_isometry_check(*sets, radius)
    assert (report.elements_checked, report.max_difference) == (len(gaps), max(gaps))


def test_coarse_isometry_no_claim():
    report = coarse_isometry_check(X2, GeneratingSet.of([0, 1, 3]), 2)
    assert report.claimed_bound is None
    assert report.within_bound is None


def test_subset_monotonicity():
    assert probe_subset_monotonicity(X1, X1, 3)
    assert probe_subset_monotonicity(X1, X2, 4)
    assert probe_subset_monotonicity(X1, GeneratingSet.of([0, 1, 5]), 5)
    with pytest.raises(ValueError):
        probe_subset_monotonicity(GeneratingSet.of([0, 2]), X1, 3)


def test_subset_monotonicity_refuted_by_a_missing_or_longer_element(monkeypatch):
    # the probe reads each slot of the small ball in the large ball's
    # table: a slot the large ball lacks, or holds at a greater length,
    # refutes it
    real = cayley.ball

    def short(gens, radius, cap):
        return real(gens, radius - 1 if gens == X2 else radius, cap=cap)

    def longer(gens, radius, cap):
        index = real(gens, radius, cap=cap)
        if gens == X2:
            index.table["."]["."] += 1
        return index

    for fake in (short, longer):
        monkeypatch.setattr(cayley, "ball", fake)
        assert not probe_subset_monotonicity(X1, X2, 3)


def test_ball_lengths_read_by_encoding():
    lengths = dict(ball(X1, 2).items())
    assert lengths[canonical_encode(generator_diagram(0, 1))] == 1
    # parsed text of an unreduced pair is its reduced pair, the identity
    assert lengths[canonical_encode(parse_pair("(..)|(..)"))] == 0
