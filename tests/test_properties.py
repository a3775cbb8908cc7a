"""Property tests (hypothesis, a test-only dependency) of the tree kernel
against independent routes: the tuple form of the trees, reduction in
every removal order on tuples, products with generator diagrams and with
letter-by-letter folds, words of long runs against the letter-by-letter
fold, words of letters and runs against the balanced product of
written-down runs, leaf intervals for the flat length, the penalty
weight against enumerating every penalty tree and its witness against a
plain depth-first search, and the word parser against the word printer.
Examples are drawn deterministically, so every run checks the same ones."""

from functools import lru_cache
from itertools import groupby

from hypothesis import example, given, settings
from hypothesis import strategies as st

from caretcalc import (
    apply_generator,
    ball,
    canonical_encode,
    evaluate_word,
    generator_diagram,
    identity,
    invert,
    l_infinity,
    multiply,
    normal_form,
    penalty_weight,
    penalty_weight_of_tree,
)
from caretcalc.group_ops import GeneratorWord, apply_letter
from caretcalc.tree_core import count_carets, serialize_node
from caretcalc.wordlang import format_word, parse_pair, parse_tree, parse_word
from conftest import X2
from helpers import (
    _intervals,
    balanced_product,
    brute_force_min_weight,
    fold_letters,
    pair_of_nodes,
    raw_pair,
    reductions_all_orders,
    search_min_weight,
    to_node,
)

checked = settings(derandomize=True, deadline=None, max_examples=300)


@st.composite
def tuple_trees(draw, carets):
    """A tuple tree with the given number of carets."""
    if carets == 0:
        return None
    left = draw(st.integers(0, carets - 1))
    return (draw(tuple_trees(left)), draw(tuple_trees(carets - 1 - left)))


def sized_trees(max_carets):
    return st.integers(0, max_carets).flatmap(tuple_trees)


@st.composite
def tree_pairs(draw, max_carets):
    carets = draw(st.integers(0, max_carets))
    return draw(tuple_trees(carets)), draw(tuple_trees(carets))


letters = st.tuples(st.integers(0, 5), st.sampled_from((1, -1)))
elements = st.lists(letters, max_size=25).map(evaluate_word)


@checked
@given(sized_trees(30))
def test_tuple_string_round_trip(node):
    text = serialize_node(node)
    assert to_node(text) == node
    assert parse_tree(text).root == text
    assert count_carets(text) == text.count(".") - 1


@settings(derandomize=True, deadline=None, max_examples=10)
@given(st.integers(3000, 4000), st.sampled_from(("left", "right", "zigzag")))
def test_comb_round_trip(carets, shape):
    # thousands of carets deep: every conversion is a loop, not recursion
    node = None
    for i in range(carets):
        goes_left = shape == "left" or (shape == "zigzag" and i % 2 == 0)
        node = (node, None) if goes_left else (None, node)
    text = serialize_node(node)
    assert count_carets(text) == carets
    assert parse_tree(text).root == text
    back = to_node(text)
    assert serialize_node(back) == text
    # walk both tuple trees down the comb; == would recurse in C
    for _ in range(carets):
        assert [c is None for c in node] == [c is None for c in back]
        node, back = (node[0], back[0]) if node[1] is None else (node[1], back[1])
    assert node is None and back is None


@checked
@given(tree_pairs(7))
def test_reduce_matches_every_removal_order(trees):
    neg, pos = map(serialize_node, trees)
    assert reductions_all_orders(neg, pos) == {pair_of_nodes(*trees).serialize()}


@lru_cache(maxsize=None)
def small_ball() -> list[str]:
    """The encodings of the 137 elements of ball({x0, x1, x2}, 3), sorted.
    Built at the first test that reads it, not at import, so that a
    broken generator step fails that test instead of the collection."""
    return sorted(enc for enc, _ in ball(X2, 3).items())


@checked
@given(tree_pairs(7), tree_pairs(7), st.lists(letters, max_size=12),
       st.integers(0, 7), st.sampled_from((1, -1)), st.integers(0, 136))
def test_every_pair_built_is_reduced(trees, others, word, index, sign, member):
    # outside text parses into the reduced pair, found apart by the
    # removal-order oracle, and every builder returns reduced pairs, the
    # product even of two raw unreduced diagrams
    neg, pos = map(serialize_node, trees)
    parsed = parse_pair(f"{neg}|{pos}")
    assert {parsed.serialize()} == reductions_all_orders(neg, pos)
    product = multiply(raw_pair(neg, pos), raw_pair(*map(serialize_node, others)))
    assert product == multiply(parsed, pair_of_nodes(*others))
    built = (parsed, product, evaluate_word(word), invert(parsed),
             apply_generator(parsed, index, sign), generator_diagram(index, sign),
             identity(), raw_pair(*small_ball()[member].split("|")))
    assert all(pair.reduced for pair in built)


@checked
@given(elements, st.integers(0, 7), st.sampled_from((1, -1)))
def test_apply_generator_is_multiplying_by_its_diagram(g, index, sign):
    direct = apply_generator(g, index, sign)
    product = multiply(g, generator_diagram(index, sign))
    assert direct.reduced and product.reduced
    assert direct.serialize() == product.serialize()


def _comb(carets, goes_left):
    node = None
    for _ in range(carets):
        node = (node, None) if goes_left else (None, node)
    return node


# a right comb and a left comb of 300 carets: at index 0 both moves cut
# subtree 0 of the positive left comb, which is nearly the whole tree
LONG_FIRST_CUT = (_comb(300, False), _comb(300, True))
# subtree 1 of the positive tree ((..)(.(..))) is a bare leaf, leaf 2
LEAF_AT_INDEX = ((None, (None, ((None, None), None))),
                 ((None, None), (None, (None, None))))


def _trees_of(pair):
    return to_node(pair.negative.root), to_node(pair.positive.root)


# the caret each move creates is common: x0^-1 x0 and x0 x0^-1 cancel to
# the identity, and x30 x30^-1 in a cascade of 32 carets
X0 = _trees_of(generator_diagram(0, 1))
X0_INVERSE = _trees_of(generator_diagram(0, -1))
X30 = _trees_of(generator_diagram(30, 1))
# x1 x0^-1 = (.((..).))|((..)(..)): the created caret over leaves 0 and 1
# is exposed in the positive tree only, so the step skips _cancel
X1 = _trees_of(generator_diagram(1, 1))


@checked
@given(tree_pairs(12), st.integers(0, 30), st.sampled_from((1, -1)))
@example(LONG_FIRST_CUT, 0, 1)
@example(LONG_FIRST_CUT, 0, -1)
@example(LEAF_AT_INDEX, 1, 1)
@example(X0_INVERSE, 0, 1)
@example(X0, 0, -1)
@example(X30, 30, -1)
@example(X1, 0, -1)
def test_apply_generator_on_random_pairs(trees, index, sign):
    g = pair_of_nodes(*trees)
    direct = apply_generator(g, index, sign)
    assert direct.serialize() == multiply(g, generator_diagram(index, sign)).serialize()
    step = apply_letter(g.negative.root, g.positive.root, index, sign)
    assert "|".join(step) == canonical_encode(direct)


@checked
@given(elements, elements)
def test_multiply_matches_letter_by_letter_fold(g, h):
    folded = fold_letters(normal_form(h), g)
    assert multiply(g, h).serialize() == folded.serialize()


# Words as runs: a letter of index up to 40 repeated 1-64 times.
run_words = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from((1, -1)), st.integers(1, 64)),
    max_size=6,
).map(lambda runs: [(i, s) for i, s, count in runs for _ in range(count)])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(run_words)
@example([])
def test_evaluate_word_matches_letter_by_letter_fold(word):
    assert canonical_encode(evaluate_word(word)) == canonical_encode(fold_letters(word))


@st.composite
def mixed_words(draw):
    """A word of 0-400 letters as runs of indices 0-40: single letters
    mixed with runs of exponent up to +-80, runs of 2-4 letters (which
    are folded) as often as longer ones, the last run cut to fit."""
    size = draw(st.integers(0, 400))
    runs, letters = [], 0
    lengths = st.one_of(st.just(1), st.integers(2, 4), st.integers(5, 80))
    while letters < size:
        count = min(draw(lengths), size - letters)
        runs.append((draw(st.integers(0, 40)), draw(st.sampled_from((1, -1))) * count))
        letters += count
    return runs


def _alternating(size):
    """``size`` letters, no two adjacent ones equal."""
    return [(k % 3, 1 if k % 4 < 2 else -1) for k in range(size)]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(mixed_words())
@example([])
@example(_alternating(63))
@example(_alternating(64))
@example(_alternating(65))
@example(_alternating(128))
@example(_alternating(129))
@example([(5, 60), (2, -1), (3, 3)] + _alternating(65))
@example(_alternating(60) + [(5, 4)] + _alternating(10))
@example(_alternating(62) + [(5, -3), (0, 1)])
@example([(1, 63), (0, 2), (4, -64), (4, 1), (7, 65)])
def test_evaluate_word_matches_balanced_product_and_fold(runs):
    # the blocks of generator steps against the product of written-down
    # runs, which takes no step, and against one step per letter
    pair = evaluate_word(runs)
    encoding = canonical_encode(pair)
    assert encoding == canonical_encode(balanced_product(runs))
    letters = [(i, 1 if a > 0 else -1) for i, a in runs for _ in range(abs(a))]
    assert encoding == canonical_encode(fold_letters(letters))
    assert pair.reduced


@checked
@given(tree_pairs(16))
def test_normal_form_of_random_pairs_folds_back(trees):
    # normal_form's runs are read off the leaves; folding their letters
    # one generator move at a time must rebuild the pair
    g = pair_of_nodes(*trees)
    word = normal_form(g)
    positive = [i for i, a in word.runs if a > 0]
    negative = [i for i, a in word.runs if a < 0]
    assert [a > 0 for _, a in word.runs] == [True] * len(positive) + [False] * len(negative)
    assert positive == sorted(set(positive))
    assert negative == sorted(set(negative), reverse=True)
    assert canonical_encode(fold_letters(word.letters)) == canonical_encode(g)


@checked
@given(elements)
def test_l_infinity_counts_intervals_short_of_the_last_leaf(g):
    n = g.carets
    short = sum(
        1
        for tree in (g.negative, g.positive)
        for _, _, hi in _intervals(to_node(tree.root)).values()
        if hi <= n
    )
    assert l_infinity(g) == short


@checked
@given(tree_pairs(8))
def test_penalty_weight_matches_every_tree_on_random_pairs(trees):
    # random pairs reach wider shapes, with more penalty carets, than the
    # elements of short words
    g = pair_of_nodes(*trees)
    for n in (1, 2, 3):
        weight, witness = penalty_weight(g, n)
        assert weight == brute_force_min_weight(g, n)
        assert penalty_weight_of_tree(witness, n) == weight


@settings(derandomize=True, deadline=None, max_examples=150)
@given(tree_pairs(16))
def test_penalty_weight_is_the_first_lightest_tree_of_the_search(trees):
    # the weight and the witness both: the chain when no tree beats it,
    # else the first lightest tree of the plain depth-first search
    g = pair_of_nodes(*trees)
    for n in (1, 2, 3, 4):
        weight, witness = penalty_weight(g, n)
        assert (weight, witness.parents) == search_min_weight(g, n), n


@checked
@given(st.lists(letters, max_size=30))
def test_word_parser_round_trip(word_letters):
    word = GeneratorWord(tuple(word_letters))
    text = format_word(word)
    assert parse_word(text) == word
    runs = tuple((i, s * len(list(run))) for (i, s), run in groupby(word_letters))
    assert parse_word(text).runs == word.runs == runs


@checked
@given(st.lists(letters, max_size=40))
def test_word_is_its_runs(word_letters):
    # the letters view spells the runs back out, and runs and letters
    # evaluate to the same element
    letters_in = tuple(word_letters)
    word = GeneratorWord(letters_in)
    assert word.letters == letters_in
    assert canonical_encode(evaluate_word(word.runs)) == canonical_encode(
        evaluate_word(letters_in))
    assert parse_word(format_word(word)) == word
