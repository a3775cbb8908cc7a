import random

import pytest

from caretcalc import (
    CaretTree,
    GeneratingSet,
    GeneratorWord,
    TreePairDiagram,
    apply_generator,
    ball,
    canonical_encode,
    evaluate_word,
    generator_diagram,
    group_ops,
    identity,
    invert,
    multiply,
    normal_form,
)
from caretcalc.tree_core import graft, spine
from conftest import X3, counted_calls
from helpers import (
    all_trees,
    balanced_product,
    fold_letters,
    random_element,
    random_tree,
    raw_pair,
)

X0_ENCODING = "((..).)|(.(..))"
X2_ENCODING = "(.(.((..).)))|(.(.(.(..))))"


def encode(pair):
    return canonical_encode(pair)


def test_generator_shapes():
    assert encode(generator_diagram(0, 1)) == X0_ENCODING
    assert encode(generator_diagram(2, 1)) == X2_ENCODING
    for i in range(61):
        g = generator_diagram(i, 1)
        # a right spine of i carets with a caret hanging left at its end,
        # and a right spine of i + 2 carets
        assert g.negative.root == graft(spine(i), {i: "((..).)"})
        assert g.positive.root == spine(i + 2)
        assert g.carets == i + 2
        inv = generator_diagram(i, -1)
        assert inv.negative == g.positive and inv.positive == g.negative


def test_generator_validation():
    with pytest.raises(ValueError):
        generator_diagram(-1, 1)
    with pytest.raises(ValueError):
        generator_diagram(0, 2)


def test_identity_element():
    e = identity()
    assert e.is_identity
    x0 = generator_diagram(0, 1)
    assert encode(multiply(e, x0)) == X0_ENCODING
    assert encode(multiply(x0, e)) == X0_ENCODING
    assert encode(multiply(x0, invert(x0))) == ".|."


def test_invert_is_involution():
    rng = random.Random(31)
    for _ in range(100):
        w = [(rng.randrange(0, 4), rng.choice((1, -1))) for _ in range(6)]
        g = evaluate_word(w)
        assert invert(invert(g)) == g
        assert encode(multiply(g, invert(g))) == ".|."
        assert encode(multiply(invert(g), g)) == ".|."


def test_conjugation_relators():
    # x_i^-1 x_j x_i = x_{j+1} whenever i < j
    for i in range(0, 7):
        for j in range(i + 1, 7):
            lhs = multiply(
                multiply(generator_diagram(i, -1), generator_diagram(j, 1)),
                generator_diagram(i, 1),
            )
            assert encode(lhs) == encode(generator_diagram(j + 1, 1)), (i, j)


def test_finite_presentation_relators():
    # [x0 x1^-1, x0^-1 x1 x0] and [x0 x1^-1, x0^-2 x1 x0^2]
    def commutator(a, b):
        return a + b + [(i, -s) for i, s in reversed(a)] + [(i, -s) for i, s in reversed(b)]

    a = [(0, 1), (1, -1)]
    for conj_depth in (1, 2):
        b = [(0, -1)] * conj_depth + [(1, 1)] + [(0, 1)] * conj_depth
        assert evaluate_word(commutator(a, b)).is_identity, conj_depth


def test_associativity_random():
    rng = random.Random(17)
    for _ in range(150):
        g, h, k = (
            evaluate_word(
                [(rng.randrange(0, 4), rng.choice((1, -1))) for _ in range(5)]
            )
            for _ in range(3)
        )
        assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))


def test_apply_generator_matches_multiply():
    rng = random.Random(101)
    for _ in range(300):
        g = evaluate_word(
            [(rng.randrange(0, 5), rng.choice((1, -1))) for _ in range(rng.randrange(0, 8))]
        )
        index = rng.randrange(0, 5)
        sign = rng.choice((1, -1))
        via_surgery = apply_generator(g, index, sign)
        via_product = multiply(g, generator_diagram(index, sign))
        assert via_surgery == via_product, (encode(g), index, sign)


def test_apply_letter_on_every_ball_element():
    # every element of ball({x0..x3}, 4) by every letter of index 0-5:
    # 14,748 steps, each against the product with the generator's diagram
    index = ball(X3, 4)
    assert index.size == 1229
    for enc, _ in index.items():
        neg, pos = enc.split("|")
        pair = raw_pair(neg, pos)
        for i in range(6):
            for sign in (1, -1):
                step = group_ops.apply_letter(neg, pos, i, sign)
                product = multiply(pair, generator_diagram(i, sign))
                assert "|".join(step) == encode(product), (enc, i, sign)


def test_apply_letter_on_long_spines():
    # 200 random elements over indices up to 60, whose positive trees hang
    # dozens of subtrees off their right spines, by every letter of index
    # 0-70: moves far down the spine list, on both sides of its end
    rng = random.Random(2005)
    longest = 0
    for _ in range(200):
        pair = random_element(rng, max_index=60, max_len=12)
        neg, pos = pair.negative.root, pair.positive.root
        longest = max(longest, len(group_ops._spine(pos)))
        for i in range(71):
            for sign in (1, -1):
                step = group_ops.apply_letter(neg, pos, i, sign)
                product = multiply(pair, generator_diagram(i, sign))
                assert "|".join(step) == encode(product), (encode(pair), i, sign)
    assert longest > 60


def test_spine_list_round_trip():
    # a tree is "(" + "(".join(its spine list) + "." + ")" * len(list):
    # every tree of up to 6 carets, and 200 random trees of up to 300
    rng = random.Random(15)
    trees = [tree for carets in range(7) for tree in all_trees(carets)]
    trees += [random_tree(rng, rng.randrange(301)) for _ in range(200)]
    for tree in trees:
        entries = group_ops._spine(tree)
        assert group_ops._join(entries) == tree
        assert len(entries) == len(tree) - len(tree.rstrip(")"))


def test_fold_reduces_on_long_spines(monkeypatch):
    # words over indices up to 300 in which some letters are followed by
    # their inverse: the inverse's move can make the caret that the letter
    # created common, and ``_cancel`` cancels it where it stands, with no
    # reduce_text.  Words of at most 1024 letters are one block and take
    # no product, so every _cancel call counted is the fold's, and the
    # fold never reduces
    cancels = counted_calls(monkeypatch, group_ops, "_cancel")
    reductions = counted_calls(monkeypatch, group_ops, "reduce_text")
    products = counted_calls(monkeypatch, group_ops, "_product")
    rng = random.Random(300)
    folded = 0
    for size in (2, 3, 10, 33, 64, 64, 64, 65, 200, 500, 1024, 1025):
        word = []
        while len(word) < size:
            letter = rng.randrange(301), rng.choice((1, -1))
            word.append(letter)
            if rng.random() < 0.3:
                word.append((letter[0], -letter[1]))
        word = word[:size]
        cancels.clear()
        products.clear()
        reductions.clear()
        g = evaluate_word(word)
        if size <= 1024:
            assert products == reductions == [], size
            folded += len(cancels)
        assert encode(g) == encode(balanced_product(word)), size
    assert folded >= 100
    # the positive tree of x7 hangs 9 leaves off its spine, so x_i^+-1
    # with i >= 8 adds a caret to both trees, and its inverse after it
    # makes that caret common: one _cancel, inside the block
    for index in (8, 9, 60, 300):
        for sign in (1, -1):
            cancels.clear()
            reductions.clear()
            assert evaluate_word([(7, 1), (index, sign), (index, -sign)]) == (
                generator_diagram(7, 1))
            assert len(cancels) == 1 and reductions == [], (index, sign)


def test_step_matches_product_with_generator():
    # every reduced pair of up to 5 carets and every letter x_i^+-1 with
    # i <= carets + 2: the step (move, enact, _cancel) against the product
    # with the generator's diagram, which reduces the whole product.  The
    # CI runs the same check up to 6 carets
    cases = 0
    for carets in range(6):
        trees = list(all_trees(carets))
        for neg in trees:
            for pos in trees:
                if not raw_pair(neg, pos).reduced:
                    continue
                pair = TreePairDiagram(CaretTree(neg), CaretTree(pos))
                for index in range(carets + 3):
                    for sign in (1, -1):
                        step = group_ops.apply_letter(neg, pos, index, sign)
                        product = multiply(pair, generator_diagram(index, sign))
                        assert "|".join(step) == encode(product), (neg, pos, index, sign)
                        cases += 1
    assert cases == 16_586


def test_shared_plans_match_the_product(monkeypatch):
    # every tree of up to 5 carets as a positive tree, with one plan per
    # letter x_i^+-1, i <= carets + 2, enacted on every negative tree that
    # forms a reduced pair with it, as ball growth shares a plan across
    # the elements of one positive tree: each result is the product with
    # the generator's diagram, and enacting, even where it cancels, leaves
    # the plan's list as it was.  The CI runs the same check up to 6 carets
    cancels = counted_calls(monkeypatch, group_ops, "_cancel")
    cases = 0
    for carets in range(6):
        trees = list(all_trees(carets))
        for pos in trees:
            negs = [neg for neg in trees if raw_pair(neg, pos).reduced]
            spine = group_ops._spine(pos)
            for index in range(carets + 3):
                for sign in (1, -1):
                    step = group_ops.plan(spine, index, sign)
                    moved = step[1].copy()
                    for neg in negs:
                        pair = TreePairDiagram(CaretTree(neg), CaretTree(pos))
                        product = multiply(pair, generator_diagram(index, sign))
                        texts = group_ops.enact(neg, step)
                        assert "|".join(texts) == encode(product), (neg, pos, index, sign)
                        cases += 1
                    assert step[1] == moved, (pos, index, sign)
    assert cases == 16_586
    assert len(cancels) > 100


def test_a_step_cancels_a_deep_cascade_in_place(monkeypatch):
    # x2 x30 hangs a caret from leaf 30 of both trees, below 27 spine
    # carets grown for it; x30^-1 makes that caret common, and cancelling
    # it exposes the spine caret above it in both trees, and so on up the
    # grown spine: 28 levels cancelled by one step, inside one block,
    # with no reduce_text
    reductions = counted_calls(monkeypatch, group_ops, "reduce_text")
    levels = []
    cancel = group_ops._cancel

    def measured(spine, neg, *args):
        out = cancel(spine, neg, *args)
        levels.append(neg.count("(") - out.count("("))
        return out

    monkeypatch.setattr(group_ops, "_cancel", measured)
    word = [(2, 1), (30, 1), (30, -1), (1, 1)]
    g = evaluate_word(word)
    assert levels == [28] and reductions == []
    assert encode(g) == encode(balanced_product(word))
    assert encode(g) == encode(balanced_product([(2, 1), (1, 1)]))
    # the cascade that empties both trees: x30 x30^-1 is the identity
    levels.clear()
    reductions.clear()
    assert evaluate_word([(30, 1), (30, -1)]).is_identity
    assert levels == [32] and reductions == []


def test_evaluate_word_empty_and_cancellation():
    assert evaluate_word([]).is_identity
    rng = random.Random(41)
    for _ in range(100):
        w = GeneratorWord(
            tuple((rng.randrange(0, 4), rng.choice((1, -1))) for _ in range(7))
        )
        g = evaluate_word(w)
        assert multiply(g, invert(g)).is_identity


def test_normal_form_round_trip():
    rng = random.Random(59)
    for _ in range(300):
        g = evaluate_word(
            [(rng.randrange(0, 4), rng.choice((1, -1))) for _ in range(rng.randrange(0, 10))]
        )
        w = normal_form(g)
        assert evaluate_word(w) == g
        # positive letters with ascending indices, then negative descending
        signs = [s for _, s in w]
        assert signs == sorted(signs, reverse=True)
        pos = [i for i, s in w if s == 1]
        neg = [i for i, s in w if s == -1]
        assert pos == sorted(pos)
        assert neg == sorted(neg, reverse=True)


def test_deep_power_round_trip():
    g = evaluate_word([(0, 1)] * 1200)
    assert g.carets == 1201
    # compare encodings: == on 1200-deep nested tuples recurses too deep
    assert encode(evaluate_word(normal_form(g))) == encode(g)
    # runs of 2^k letters, as written down, come back as themselves
    for k in range(13):
        for index, sign in ((0, 1), (0, -1), (5, 1), (5, -1)):
            g = evaluate_word([(index, sign)] * 2**k)
            assert normal_form(g).letters == ((index, sign),) * 2**k
            assert encode(evaluate_word(normal_form(g))) == encode(g)


def test_power_costs_logarithmic_products(monkeypatch):
    # a run of 2^k letters is one unit, so it takes no product: up to 4
    # letters it is folded into one block by ``_move`` on the positive
    # tree's spine list, and a longer one is written down; neither makes a
    # move through ``apply_generator`` or a text product
    calls = counted_calls(monkeypatch, group_ops, "_product")

    def refused(*args):
        raise AssertionError("evaluate_word made a generator move")

    monkeypatch.setattr(group_ops, "apply_generator", refused)
    for k in range(1, 13):
        for letter in ((0, 1), (3, -1)):
            calls.clear()
            g = evaluate_word([letter] * 2**k)
            assert calls == [], (k, letter, len(calls))
            assert g.carets == 2**k + letter[0] + 1


def test_letters_fold_in_blocks_of_1024(monkeypatch):
    # N letters, no two adjacent equal: ceil(N / 1024) blocks multiplied
    # together, each started from its first letter written down, and one
    # generator step for each other letter
    steps = counted_calls(monkeypatch, group_ops, "_move")
    products = counted_calls(monkeypatch, group_ops, "_product")
    for size in (1, 2, 1023, 1024, 1025, 2047, 2048, 2049, 3000):
        # odd k take indices 3-5 and even k 0-2, so no run is longer than 1
        word = [(k % 3 + 3 * (k % 2), 1 if k % 5 < 3 else -1) for k in range(size)]
        steps.clear()
        products.clear()
        g = evaluate_word(word)
        blocks = -(-size // 1024)
        assert (len(steps), len(products)) == (size - blocks, blocks - 1), size
        assert encode(g) == encode(balanced_product(word)), size


def test_runs_of_more_than_4_letters_take_no_step(monkeypatch):
    steps = counted_calls(monkeypatch, group_ops, "_move")
    products = counted_calls(monkeypatch, group_ops, "_product")
    for run in ((0, 5), (2, -5), (0, 64), (0, 65), (3, -65), (7, 1000), (0, -5000)):
        g = evaluate_word([run])
        assert steps == [] and products == [], run
        assert encode(g) == "|".join(group_ops._run(run[0], 1 if run[1] > 0 else -1,
                                                    abs(run[1])))
    # between letters, a long run ends their block and is one unit of its
    # own: three units, two products, and a step for the second letter of
    # each block, whose first letter is written down
    for count in (5, 65):
        word = [(1, 1), (2, -1), (0, count), (2, 1), (1, -1)]
        steps.clear()
        products.clear()
        g = evaluate_word(word)
        assert (len(steps), len(products)) == (2, 2), count
        assert encode(g) == encode(balanced_product(word))
    # a run of up to 4 letters is folded while it fits in the block; at
    # 1022 letters one of 4 no longer fits, so it is written down.  The
    # block's first letter takes no step
    for prefix, count, calls in ((10, 4, (13, 0)), (1020, 4, (1023, 0)),
                                 (1022, 4, (1021, 1)), (1022, 2, (1023, 0)),
                                 (1023, 3, (1022, 1))):
        word = [(k % 2, 1) for k in range(prefix)] + [(5, count)]
        steps.clear()
        products.clear()
        g = evaluate_word(word)
        assert (len(steps), len(products)) == calls, (prefix, count)
        assert encode(g) == encode(balanced_product(word))


def test_a_block_starts_from_its_first_run_written_down(monkeypatch):
    # x_{10^6} alone is a block of one letter: written down by _run, with
    # no step down a spine of 10^6 carets
    steps = counted_calls(monkeypatch, group_ops, "_move")
    g = evaluate_word([(10**6, 1)])
    assert steps == []
    assert encode(g) == "|".join(group_ops._run(10**6, 1, 1))
    # a run of up to 4 letters that starts a block is written down too
    for run in ((3, 4), (0, -2), (7, 1)):
        g = evaluate_word([run, (1, 1)])
        assert len(steps) == 1, run
        assert encode(g) == encode(balanced_product([run, (1, 1)]))
        steps.clear()


def test_a_word_builds_one_pair(monkeypatch):
    # the units and the balanced product are texts; the constructor, and
    # its check, runs once, on the result
    built = counted_calls(monkeypatch, TreePairDiagram, "__post_init__")
    words = [[(k % 3 + 3 * (k % 2), 1 if k % 5 < 3 else -1) for k in range(size)]
             for size in (1, 63, 64, 65, 1000)]
    for count in (5, 65):
        words.append([(1, 1), (2, -1), (0, count), (2, 1), (1, -1)])
        words.append([(k % 2, 1) for k in range(62)] + [(5, count), (3, -1)])
    for word in words:
        built.clear()
        g = evaluate_word(word)
        assert len(built) == 1, len(word)
        assert encode(g) == encode(balanced_product(word))


def test_run_matches_letter_by_letter():
    # the written-down run against one generator move per letter
    for index in range(13):
        for sign in (1, -1):
            for count in range(1, 41):
                run = group_ops._pair(group_ops._run(index, sign, count))
                assert run.reduced
                folded = fold_letters([(index, sign)] * count)
                assert encode(run) == encode(folded), (index, sign, count)


def test_evaluate_word_rejects_bad_letters():
    # a letter is a run of exponent +1 or -1, so (0, 2) is x0^2
    assert encode(evaluate_word([(0, 2)])) == encode(evaluate_word([(0, 1), (0, 1)]))
    assert encode(evaluate_word([(1, 1), (0, 2), (0, -1), (0, -1), (1, -1)])) == (
        encode(identity()))
    for word in ([(-1, 1)], [(0, 1), (2, 0)], [(0, 1.5)], [(1.0, 1)]):
        with pytest.raises(ValueError):
            evaluate_word(word)


def test_normal_form_goldens():
    assert normal_form(identity()).letters == ()
    for i in range(5):
        assert normal_form(generator_diagram(i, 1)).letters == ((i, 1),)
        assert normal_form(generator_diagram(i, -1)).letters == ((i, -1),)
    h1 = evaluate_word([(1, 1), (1, 1), (0, -1), (0, -1)])
    assert normal_form(h1).letters == ((1, 1), (1, 1), (0, -1), (0, -1))
    assert normal_form(h1).runs == ((1, 2), (0, -2))
    # a long power comes back as one run, never spelled out
    assert normal_form(evaluate_word([(0, 10**6)])).runs == ((0, 10**6),)
    assert normal_form(evaluate_word([(7, -3), (2, 5)])).runs == ((2, 5), (12, -3))


def test_word_type():
    w = GeneratorWord(((2, 1), (0, -1)))
    assert len(w.letters) == 2
    # a word is its runs: (0, 2) is x0^2, and adjacent runs of one index
    # and sign merge, so equal words compare equal
    assert GeneratorWord(((0, 2),)) == GeneratorWord(((0, 1), (0, 1)))
    assert GeneratorWord(((0, 2),)).letters == ((0, 1), (0, 1))
    assert GeneratorWord(((1, 3), (1, 1), (0, -2), (0, 1))).runs == (
        (1, 4), (0, -2), (0, 1))
    assert len(GeneratorWord(((1, 3), (0, -2))).letters) == 5
    with pytest.raises(ValueError):
        GeneratorWord(((-1, 1),))
    with pytest.raises(ValueError):
        GeneratorWord(((0, 0),))
    with pytest.raises(ValueError, match="got 1.5"):
        GeneratorWord(((0, 1), (0, 1.5)))
    # a bad run after a million good ones is still found and named
    with pytest.raises(ValueError, match="got -1"):
        GeneratorWord(((0, 1), (1, -1)) * 500_000 + ((-1, 1),))
    # the first bad run is the one reported
    with pytest.raises(ValueError, match="got -2"):
        GeneratorWord(((0, 1), (-2, 1), (0, 3), (-1, 1)))


def test_word_refuses_a_bool_or_float_index():
    # True is an int to isinstance, and a word holding it would print as
    # "xTrue", which does not parse
    for index in (True, False, 1.0, 1.5):
        with pytest.raises(ValueError, match="generator index must be an int"):
            GeneratorWord(((0, 1), (index, 1)))


def test_word_refuses_a_bool_exponent():
    for exponent in (True, False):
        with pytest.raises(ValueError, match="exponent must be a nonzero int"):
            GeneratorWord(((2, exponent),))


def test_generating_set_refuses_bool_and_float_indices():
    # {0, 1.5} would be accepted and fail later, inside a step
    for indices in ([0, 1.5], [0, 2.0], [0, True], [False, 1], (0.0, 1)):
        with pytest.raises(ValueError, match="must be ints"):
            GeneratingSet.of(indices)
    with pytest.raises(ValueError, match="must be ints"):
        GeneratingSet((0, True))


def test_generating_set_refuses_indices_that_do_not_sort_with_ints():
    # sorting them among ints would raise TypeError, not the ValueError
    # that every other index that is no int raises
    for indices in ([0, "a"], [0, None], ["0", "1"], [0, [1]]):
        with pytest.raises(ValueError, match="must be ints"):
            GeneratingSet.of(indices)


def test_generating_set():
    x = GeneratingSet.of([2, 0, 1, 2])
    assert x.indices == (0, 1, 2)
    assert x.is_consecutive and x.max_index == 2
    assert 1 in x and 5 not in x
    assert x.letters() == ((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1))
    assert not GeneratingSet.of([0, 2]).is_consecutive
    with pytest.raises(ValueError):
        GeneratingSet.of([1, 2])
    with pytest.raises(ValueError):
        GeneratingSet.of([0, -3])
    # a negative index sorts before 0, yet 0 is in the set
    with pytest.raises(ValueError, match="nonnegative"):
        GeneratingSet.of([0, -2, 1])
