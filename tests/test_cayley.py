import random
import tracemalloc

import pytest

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
    lengths_for,
    mac_witness_pair,
    multiply,
    normal_form,
    parse_pair,
    probe_mac,
    probe_subset_monotonicity,
)
from caretcalc import cayley, group_ops
from caretcalc.cayley import claimed_additive_bound
from caretcalc.errors import SearchCapExceededError
from conftest import X1, X2, X3, counted_calls
from helpers import in_ball_distances, oracle_ball, restricted


def _exponent_sum(pair):
    return sum(sign for _, sign in normal_form(pair))


def test_ball_radius_zero_and_one():
    b0 = ball(X1, 0)
    assert b0.size == 1 and ".|." in b0
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
    for enc, length in index.items():
        if length == 0:
            continue
        pair = index.pair_of(enc)
        steps = (apply_generator(pair, *letter) for letter in index.gens.letters())
        assert any(step in index and index.length_of(step) == length - 1
                   for step in steps), enc


def test_ball_rows_hold_no_trees_and_pairs_rebuild():
    index = ball(X2, 4)
    for enc, row in index.items():
        assert type(row) is int
        pair = index.pair_of(enc)
        assert pair.reduced and canonical_encode(pair) == enc


def test_ball_costs_at_most_100_bytes_per_element():
    # the table keeps a row per positive tree and each tree text once, so
    # one ball({0,1,2}, 7), traced from start to end, peaks at ~68 B per
    # element; one "negative|positive" key per element read ~137 B
    tracemalloc.start()
    try:
        index = ball(X2, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / index.size <= 100


def test_pair_of_non_member():
    index = ball(X2, 2)
    outside = canonical_encode(evaluate_word([(1, 1)] * 3))
    assert outside not in index
    with pytest.raises(KeyError):
        index.pair_of(outside)


def test_ball_never_applies_the_parent_letter(monkeypatch):
    # each element past the identity skips the inverse of the letter that
    # reached it: 6 + 5 * (6 + 26 + 104) steps, not 6 * (1 + 6 + 26 + 104);
    # a step is planned once per positive tree a shell holds and letter
    # some element of that tree takes, 444 plans for the 686 steps
    steps = counted_calls(monkeypatch, cayley, "enact")
    plans = counted_calls(monkeypatch, cayley, "plan")
    assert ball(X2, 4).sphere_sizes() == [1, 6, 26, 104, 404]
    assert (len(steps), len(plans)) == (686, 444)


def test_ball_reduces_only_where_the_step_creates_a_common_caret(monkeypatch):
    # a step from a reduced pair can make common only the caret it
    # creates, so reduce_text runs on 12 of the 686 steps, not on each.
    # Which steps reduce depends on the letter each element was reached
    # by, which follows the order of expansion inside a shell: the count
    # is that of expanding a shell by positive tree, in the order the
    # trees first appear in the frontier
    calls = counted_calls(monkeypatch, group_ops, "reduce_text")
    assert ball(X2, 4).sphere_sizes() == [1, 6, 26, 104, 404]
    assert len(calls) == 12


@pytest.mark.parametrize("gens, radius", [((0, 1), 8), ((0, 2), 6), ((0, 1, 2), 6),
                                          ((0, 1, 3), 5)])
def test_ball_matches_the_oracle_search(gens, radius):
    # the shell groups its frontier by positive tree and steps each group
    # from one plan per letter; the oracle takes every neighbour of every
    # element on its own
    gens = GeneratingSet.of(gens)
    assert dict(ball(gens, radius).items()) == oracle_ball(gens, radius)


@pytest.mark.parametrize("gens", [X2, GeneratingSet.of([0, 1, 3])])
def test_witness_searches_pinned(gens):
    # the witness pairs at k = 1, 2: both of length 2k + 2, at distance 2,
    # and 4k + 4 apart inside the ball of radius 2k + 2
    for k, (length, detour) in ((1, (4, 8)), (2, (6, 12))):
        g, h = mac_witness_pair(gens, k)
        assert bfs_length(g, gens) == bfs_length(h, gens) == length
        assert bfs_length(multiply(invert(g), h), gens) == 2
        assert in_ball_geodesic(g, h, gens, 2 * k + 2) == detour


def test_search_steps_on_text_and_builds_no_diagram(monkeypatch):
    # the searches step with apply_letter on the encodings' texts; a
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
    last = [e for e in encs if index.length_of(e) == index.radius]
    return rng.sample(encs, count) + rng.sample(last, outer)


def test_bfs_length_matches_ball(ball_x1_r8, ball_x2_r7, ball_x3_r6):
    # the two-sided search against the one-sided enumeration
    rng = random.Random(109)
    small = [ball(GeneratingSet.of([0, 2]), 5),
             ball(GeneratingSet.of([0, 1, 3]), 4)]
    for index in [ball_x1_r8, ball_x2_r7, ball_x3_r6] + small:
        for enc in _sample_with_outer_sphere(index, rng, 10, 4):
            pair = index.pair_of(enc)
            assert bfs_length(pair, index.gens) == index.length_of(enc), enc


def test_in_ball_geodesic_matches_one_sided_oracle(ball_x2_r6):
    rng = random.Random(113)
    encs = sorted(enc for enc, _ in ball_x2_r6.items())

    def seeded(count):
        return [ball_x2_r6.pair_of(enc) for enc in rng.sample(encs, count)]

    g1, h1 = mac_witness_pair(X2, 1)
    g2, h2 = mac_witness_pair(X2, 2)
    cases = [(g1, 4, [h1]), (g2, 6, [h2] + seeded(8)), (seeded(1)[0], 6, seeded(8))]
    for a, radius, targets in cases:
        oracle = in_ball_distances(ball_x2_r6, canonical_encode(a), radius)
        # the ball one radius smaller decides membership just as well
        for index in (ball_x2_r6, restricted(ball_x2_r6, radius - 1)):
            for b in targets:
                got = in_ball_geodesic(a, b, X2, radius, ball_index=index)
                assert got == oracle[canonical_encode(b)]
    # the MAC witnesses' in-ball distances, exactly
    assert in_ball_geodesic(g1, h1, X2, 4, ball_index=ball_x2_r6) == 8
    assert in_ball_geodesic(g2, h2, X2, 6, ball_index=ball_x2_r6) == 12


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
    g, h = mac_witness_pair(X2, 1)
    with pytest.raises(SearchCapExceededError, match=r"at depth \d+ from the "
                       r"start and \d+ from the goal"):
        in_ball_geodesic(g, h, X2, 4, ball_index=ball(X2, 4), cap=20)


def test_lengths_for_matches_bfs_length(ball_x2_r7):
    rng = random.Random(97)
    sample = rng.sample(sorted(enc for enc, _ in ball_x2_r7.items()), 30)
    pairs = [ball_x2_r7.pair_of(enc) for enc in sample]
    batched = lengths_for(pairs, X2)
    for enc, pair in zip(sample, pairs):
        assert batched[enc] == ball_x2_r7.length_of(enc)


def test_length_symmetry_and_letter_step(ball_x2_r7):
    rng = random.Random(103)
    chosen = rng.sample(sorted(enc for enc, _ in ball_x2_r7.items()), 60)
    for enc in chosen:
        pair = ball_x2_r7.pair_of(enc)
        length = ball_x2_r7.length_of(enc)
        inv = invert(pair)
        if inv in ball_x2_r7:
            assert ball_x2_r7.length_of(inv) == length
        for letter in X2.letters():
            stepped = apply_generator(pair, *letter)
            if stepped in ball_x2_r7:
                assert abs(ball_x2_r7.length_of(stepped) - length) <= 1


def test_triangle_inequality_sampled(ball_x2_r7):
    rng = random.Random(107)
    encs = sorted(enc for enc, _ in ball_x2_r7.items())
    for _ in range(50):
        a = ball_x2_r7.pair_of(rng.choice(encs))
        b = ball_x2_r7.pair_of(rng.choice(encs))
        product = multiply(a, b)
        bound = ball_x2_r7.length_of(a) + ball_x2_r7.length_of(b)
        if product in ball_x2_r7:
            assert ball_x2_r7.length_of(product) <= bound


def test_in_ball_geodesic_basics():
    index = ball(X2, 3)
    x0 = generator_diagram(0, 1)
    assert in_ball_geodesic(x0, x0, X2, 3, ball_index=index) == 0
    neighbour = multiply(x0, generator_diagram(1, 1))
    assert in_ball_geodesic(x0, neighbour, X2, 3, ball_index=index) == 1
    outside = evaluate_word([(1, 1)] * 5)
    with pytest.raises(ValueError):
        in_ball_geodesic(x0, outside, X2, 3, ball_index=index)
    with pytest.raises(ValueError):
        in_ball_geodesic(x0, x0, X2, 5, ball_index=index)  # index too small


def test_every_edge_flips_length_parity(ball_x2_r7):
    # the exponent sum is a homomorphism F -> Z, so every letter moves it
    # by one, and the length of each element has its parity
    rng = random.Random(127)
    for enc in rng.sample(sorted(enc for enc, _ in ball_x2_r7.items()), 40):
        pair = ball_x2_r7.pair_of(enc)
        for index, sign in X3.letters():
            stepped = apply_generator(pair, index, sign)
            assert _exponent_sum(stepped) == _exponent_sum(pair) + sign
    for enc, length in ball_x2_r7.items():
        assert (length - _exponent_sum(ball_x2_r7.pair_of(enc))) % 2 == 0


def test_probe_mac_same_report_for_any_covering_index(ball_x2_r7):
    # radius 2k+1 is enough; larger indexes give the same report
    x013 = GeneratingSet.of([0, 1, 3])
    for gens, k, index in ((X2, 2, ball_x2_r7), (x013, 1, ball(x013, 5))):
        reports = [probe_mac(gens, k).to_dict()]
        for radius in (2 * k + 1, 2 * k + 2, 2 * k + 3):
            reports.append(
                probe_mac(gens, k, ball_index=restricted(index, radius)).to_dict()
            )
        assert all(report == reports[0] for report in reports)
        assert reports[0]["verdict"] == "witness-confirmed"


def test_in_ball_geodesic_radius_zero_and_one():
    one = identity()
    x0, x1 = generator_diagram(0, 1), generator_diagram(1, 1)
    assert in_ball_geodesic(one, one, X1, 0) == 0
    assert in_ball_geodesic(one, one, X1, 0, ball_index=ball(X1, 0)) == 0
    with pytest.raises(ValueError, match="outside the ball of radius 0"):
        in_ball_geodesic(one, x0, X1, 0)
    # radius 1: the only path between two generators runs through 1
    for index in (None, ball(X1, 0), ball(X1, 2)):
        assert in_ball_geodesic(x0, x1, X1, 1, ball_index=index) == 2
        assert in_ball_geodesic(one, x1, X1, 1, ball_index=index) == 1
        with pytest.raises(ValueError, match="outside the ball of radius 1"):
            in_ball_geodesic(x0, multiply(x0, x1), X1, 1, ball_index=index)


def test_in_ball_path_through_the_outer_sphere():
    # the only in-ball path of length 3 runs through sphere 3, which the
    # radius-2 index does not hold; kept inside radius 2 it needs 5 steps
    a = parse_pair("(.((..)(.(..))))|(.(.((.(..)).)))")
    b = parse_pair("(.((..).))|((..)(..))")
    for index in (None, ball(X2, 2), ball(X2, 3)):
        assert in_ball_geodesic(a, b, X2, 3, ball_index=index) == 3
    assert in_ball_geodesic(a, b, X2, 4) == 3


def test_index_two_radii_short_is_refused():
    g, h = mac_witness_pair(X2, 1)
    # two radii short, or deep enough but over other generators
    other = ball(GeneratingSet.of([0, 1, 3]), 3)
    for index in (ball(X2, 2), other):
        with pytest.raises(ValueError, match="does not cover"):
            probe_mac(X2, 1, ball_index=index)
        with pytest.raises(ValueError, match="does not cover"):
            in_ball_geodesic(g, h, X2, 4, ball_index=index)


def test_probe_mac_enumerates_radius_2k_plus_1_once(monkeypatch):
    radii = []
    real = cayley.ball

    def recorded(gens, radius, cap=cayley.DEFAULT_STATE_CAP):
        radii.append(radius)
        return real(gens, radius, cap=cap)

    monkeypatch.setattr(cayley, "ball", recorded)
    for k in (1, 2):
        radii.clear()
        assert probe_mac(X2, k).confirmed
        assert radii == [2 * k + 1]


def test_in_ball_geodesic_witness_detour():
    g, h = mac_witness_pair(X2, 1)
    assert in_ball_geodesic(g, h, X2, 4) == 8


def test_mac_witness_pair_validation():
    with pytest.raises(ValueError):
        mac_witness_pair(X2, 0)
    with pytest.raises(ValueError):
        mac_witness_pair(X1, 1)  # needs an index beyond 0 and 1
    g, h = mac_witness_pair(GeneratingSet.of([0, 1, 3]), 2)
    assert g.reduced and h.reduced
    assert canonical_encode(multiply(invert(g), h)) != ".|."


def test_mac_witness_two_step_identity():
    # h is exactly g shifted by x0^-1 then xm^-1 -- this ordering (and not
    # the reverse) is what pins the left-to-right product convention
    for gens, k in ((X2, 1), (X2, 2), (X3, 1), (GeneratingSet.of([0, 1, 3]), 1)):
        g, h = mac_witness_pair(gens, k)
        m = max(gens)
        step = multiply(multiply(g, generator_diagram(0, -1)),
                        generator_diagram(m, -1))
        assert canonical_encode(step) == canonical_encode(h)
        other = multiply(multiply(g, generator_diagram(m, -1)),
                         generator_diagram(0, -1))
        assert canonical_encode(other) != canonical_encode(h)


def test_probe_mac_confirms_consecutive(ball_x2_r7):
    report = probe_mac(X2, 1, ball_index=ball_x2_r7)
    assert report.confirmed
    assert report.g_length == report.h_length == 4
    assert report.distance == 2
    assert report.min_in_ball_path == 8
    assert report.formula_g_length == 4 and report.formula_h_length == 4


def test_probe_mac_family(ball_x2_r7, ball_x3_r6):
    # every consecutive set in {X2, X3} with k in {1, 2} confirms
    for gens, index, k in (
        (X2, ball_x2_r7, 2),
        (X3, ball_x3_r6, 1),
        (X3, ball_x3_r6, 2),
    ):
        report = probe_mac(gens, k, ball_index=index)
        assert report.confirmed, (list(gens), k, report.to_dict())
        assert report.min_in_ball_path >= 4 * k + 4


def test_probe_mac_nonconsecutive():
    report = probe_mac(GeneratingSet.of([0, 1, 3]), 1)
    assert report.confirmed
    assert report.formula_g_length is None


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


def test_ball_membership_accepts_pairs_and_strings():
    index = ball(X1, 2)
    x0 = generator_diagram(0, 1)
    assert x0 in index
    assert canonical_encode(x0) in index
    assert index.length_of(x0) == 1
    # parsed text of an unreduced pair is its reduced pair, the identity
    parsed = parse_pair("(..)|(..)")
    assert parsed in index and index.length_of(parsed) == 0
