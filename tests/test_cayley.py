import random

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
    probe_mac,
    probe_subset_monotonicity,
    reduce,
)
from caretcalc.cayley import claimed_additive_bound
from caretcalc.errors import SearchCapExceededError
from conftest import X1, X2, X3
from helpers import in_ball_distances


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
    assert {enc for enc, length, _ in b1.elements() if length == 1} == expected


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
    inner = {enc for enc, length, _ in b2.elements() if length <= 1}
    sphere2 = {enc for enc, length, _ in b2.elements() if length == 2}
    assert sphere2 == products - inner


def test_ball_export_lines_deterministic():
    lines_a = ball(X1, 2).export_lines()
    lines_b = ball(X1, 2).export_lines()
    assert lines_a == lines_b
    assert lines_a[0] == ".|.\t0"
    assert lines_a == sorted(lines_a, key=lambda ln: (int(ln.split("\t")[1]), ln.split("\t")[0]))


def test_ball_descent_via_stored_letter():
    index = ball(X2, 3)
    for enc, length, pair in index.elements():
        if length == 0:
            continue
        _, letter, _ = index.table[enc]
        back = apply_generator(pair, letter[0], -letter[1])
        assert index.length_of(back) == length - 1


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
    encs = sorted(index.table)
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
    encs = sorted(ball_x2_r6.table)

    def seeded(count):
        return [ball_x2_r6.pair_of(enc) for enc in rng.sample(encs, count)]

    g1, h1 = mac_witness_pair(X2, 1)
    g2, h2 = mac_witness_pair(X2, 2)
    cases = [(g1, 4, [h1]), (g2, 6, [h2] + seeded(8)), (seeded(1)[0], 6, seeded(8))]
    for a, radius, targets in cases:
        oracle = in_ball_distances(ball_x2_r6, canonical_encode(a), radius)
        for b in targets:
            got = in_ball_geodesic(a, b, X2, radius, ball_index=ball_x2_r6)
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
    sample = rng.sample(sorted(ball_x2_r7.table), 30)
    pairs = [ball_x2_r7.pair_of(enc) for enc in sample]
    batched = lengths_for(pairs, X2)
    for enc, pair in zip(sample, pairs):
        assert batched[enc] == ball_x2_r7.length_of(enc)


def test_length_symmetry_and_letter_step(ball_x2_r7):
    rng = random.Random(103)
    chosen = rng.sample(sorted(ball_x2_r7.table), 60)
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
    encs = sorted(ball_x2_r7.table)
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
    # unreduced input is reduced before lookup
    from caretcalc import TreePairDiagram

    unreduced = TreePairDiagram.from_nodes((None, None), (None, None))
    assert not unreduced.reduced
    assert unreduced in index and index.length_of(unreduced) == 0
    assert reduce(unreduced).is_identity
