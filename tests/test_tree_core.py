import ast
import dataclasses
import random
import sys
from pathlib import Path

import pytest

import caretcalc
from caretcalc import generator_diagram, multiply, tree_core
from caretcalc.errors import MalformedPairError
from caretcalc.tree_core import (
    CaretTree,
    TreePairDiagram,
    _common_exposed,
    canonical_encode,
    count_carets,
    graft,
    reduce,
    reduce_text,
    serialize_node,
    spine,
)
from caretcalc.wordlang import parse_pair
from conftest import counted_calls
from helpers import (
    _intervals,
    pair_of_nodes,
    random_element,
    random_node,
    random_tree,
    raw_pair,
    reductions_all_orders,
    to_node,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "caretcalc"


def test_serialize_basics():
    assert serialize_node(None) == "."
    assert serialize_node((None, None)) == "(..)"
    assert serialize_node(((None, None), None)) == "((..).)"
    assert serialize_node((None, (None, None))) == "(.(..))"


def test_counts():
    assert count_carets(".") == 0
    for n in range(8):
        assert count_carets(spine(n)) == n


def test_spine_shape():
    assert spine(0) == "."
    assert spine(3) == "(.(.(..)))"


def test_add_caret_at_leaf():
    # growing the rightmost leaf of a spine extends the spine
    assert graft(spine(2), {2: "(..)"}) == spine(3)
    # growing leaf 0 hangs the new caret bottom-left, leaf 1 bottom-right
    assert graft(spine(1), {0: "(..)"}) == "((..).)"
    assert graft(spine(1), {1: "(..)"}) == "(.(..))"


def test_exposed_leaf_starts():
    # a tree's exposed carets are those it shares with itself, by left leaf
    assert _common_exposed(".", ".") == []
    assert _common_exposed("(..)", "(..)") == [0]
    # spine of 3: only the deepest caret is exposed, at leaves (2,3)
    assert _common_exposed(spine(3), spine(3)) == [2]
    two_hats = serialize_node(((None, None), (None, None)))
    assert _common_exposed(two_hats, two_hats) == [0, 2]


def test_remove_exposed_at():
    # reduce_text removes the carets exposed in both trees over the same
    # leaves, and no other exposed caret
    two_hats = serialize_node(((None, None), (None, None)))
    assert reduce_text(two_hats, two_hats) == (".", ".")
    # common at leaf 2 only
    assert reduce_text(two_hats, spine(3)) == (
        serialize_node(((None, None), None)), spine(2))
    # common at leaf 0 only
    assert reduce_text(two_hats, "(((..).).)") == (
        serialize_node((None, (None, None))), "((..).)")


def test_remove_inverts_add():
    # a caret hung from the same leaf of both trees of a reduced pair is
    # common, and reduce_text removes it again
    rng = random.Random(11)
    for _ in range(200):
        g = random_element(rng)
        neg, pos = g.negative.root, g.positive.root
        leaf = rng.randrange(neg.count("."))
        grown = graft(neg, {leaf: "(..)"}), graft(pos, {leaf: "(..)"})
        assert reduce_text(*grown) == (neg, pos)


def test_infix_numbering_right_spine():
    # every interval reaches the last leaf: three right carets
    sv = CaretTree(spine(3)).survey()
    assert sv.lo[1:] == [0, 1, 2]
    assert sv.hi[1:] == [4, 4, 4]


def test_infix_numbering_left_comb():
    # left comb: every interval starts at leaf 0; only the top one reaches
    # the last leaf, so carets 1 and 2 are left carets and 3 is right
    comb = None
    for _ in range(3):
        comb = (comb, None)
    sv = CaretTree(serialize_node(comb)).survey()
    assert sv.lo[1:] == [0, 0, 0]
    assert sv.hi[1:] == [2, 3, 4]


def test_infix_numbering_mixed():
    # (( . (..) ) .) : caret 1 at the top-left, caret 2 hanging interior
    sv = CaretTree(serialize_node(((None, (None, None)), None))).survey()
    assert [(q, sv.lo[q], sv.hi[q]) for q in range(1, sv.carets + 1)] == [
        (1, 0, 3),
        (2, 1, 3),
        (3, 0, 4),
    ]


def check_survey(tree):
    sv = tree.survey()
    assert sv.carets == tree.carets
    oracle = _intervals(to_node(tree.root))
    for q in range(1, sv.carets + 1):
        assert oracle[q] == (sv.lo[q], q, sv.hi[q])


def test_survey_tables_consistent():
    rng = random.Random(23)
    check_survey(CaretTree("."))
    for _ in range(100):
        check_survey(CaretTree(random_tree(rng, rng.randrange(1, 15))))
    comb = None
    for _ in range(3000):
        comb = (comb, None)
    check_survey(CaretTree(serialize_node(comb)))


def test_pair_construction_and_encoding():
    ident = pair_of_nodes(None, None)
    assert ident.is_identity and ident.reduced
    assert canonical_encode(ident) == ".|."
    with pytest.raises(MalformedPairError):
        pair_of_nodes((None, None), None)


def test_constructor_refuses_unreduced_trees():
    # the identity written with a common caret would read as a pair of
    # length 2 with normal form x0 x0^-1; only TreePairDiagram.of takes it
    with pytest.raises(MalformedPairError, match="leaves 0 and 1"):
        TreePairDiagram(CaretTree("((..).)"), CaretTree("((..).)"))
    with pytest.raises(MalformedPairError, match="caret counts differ"):
        TreePairDiagram(CaretTree("(..)"), CaretTree("."))
    assert TreePairDiagram.of(CaretTree("((..).)"), CaretTree("((..).)")).is_identity
    assert TreePairDiagram(CaretTree("((..).)"), CaretTree("(.(..))")).carets == 2


def test_of_and_multiply_check_reducedness_once(monkeypatch):
    # reduce_text's one pass of _common_exposed finds every common caret,
    # and that is the check: ``of`` and ``multiply`` wrap its texts with
    # no second pass in the constructor
    passes = counted_calls(monkeypatch, tree_core, "_common_exposed")
    rng = random.Random(29)
    for _ in range(200):
        neg = random_tree(rng, 8)
        pos = random_tree(rng, 8)
        passes.clear()
        pair = TreePairDiagram.of(CaretTree(neg), CaretTree(pos))
        assert len(passes) == 1
        assert pair.reduced
    # a reduced input takes the one pass
    passes.clear()
    TreePairDiagram.of(CaretTree("((..).)"), CaretTree("(.(..))"))
    assert len(passes) == 1
    for _ in range(200):
        g, h = random_element(rng), random_element(rng)
        passes.clear()
        assert multiply(g, h).reduced
        assert len(passes) == 2  # the second for ``reduced`` above
    # x0 x1 cancels nothing: one pass
    x0, x1 = generator_diagram(0, 1), generator_diagram(1, 1)
    passes.clear()
    multiply(x0, x1)
    assert len(passes) == 1


def test_reduce_text_finds_the_common_carets_once(monkeypatch):
    # one pass: each reduce_text call runs _common_exposed once, however
    # deep the cancellation goes.  A left comb against itself has one
    # common caret, and cancelling it exposes the caret above it in both
    # trees, and so on up to the root: 100,000 levels from that one pass,
    # where a round per level took 100,000 passes
    rng = random.Random(31)
    cases = []
    for _ in range(300):
        g = random_element(rng)
        neg, pos = g.negative.root, g.positive.root
        for _ in range(rng.randrange(0, 4)):
            leaf, seed = rng.randrange(neg.count(".")), rng.random()
            sub = random_tree(random.Random(seed), rng.randrange(1, 9))
            neg, pos = graft(neg, {leaf: sub}), graft(pos, {leaf: sub})
        cases.append((g, neg, pos))
    passes = counted_calls(monkeypatch, tree_core, "_common_exposed")
    calls = counted_calls(monkeypatch, tree_core, "reduce_text")
    for g, neg, pos in cases:
        assert tree_core.reduce_text(neg, pos) == (g.negative.root, g.positive.root)
    comb = "(" * 100_000 + "." + ".)" * 100_000
    assert canonical_encode(parse_pair(f"{comb}|{comb}")) == ".|."
    assert canonical_encode(parse_pair(f"{spine(100_000)}|{spine(100_000)}")) == ".|."
    assert len(calls) == len(passes) == 302


def test_canonical_encode_of_parsed_unreduced_text():
    # outside text of a pair that is not reduced is parsed into the
    # reduced pair, so its encoding is the identity's
    assert canonical_encode(parse_pair("(..)|(..)")) == ".|."


def test_reduce_only_cancels_matching_leaves():
    # same caret counts, exposures at different leaf numbers: nothing cancels
    neg, pos = "((..).)", "(.(..))"
    assert raw_pair(neg, pos).reduced
    pair = TreePairDiagram.of(CaretTree(neg), CaretTree(pos))
    assert pair.serialize() == f"{neg}|{pos}"
    assert not raw_pair(neg, neg).reduced


def test_reduce_confluent_all_orders():
    rng = random.Random(5)
    for _ in range(200):
        # random unreduced-ish pair with equal caret counts
        n = rng.randrange(1, 8)
        neg, pos = random_node(rng, n), random_node(rng, n)
        outcomes = reductions_all_orders(serialize_node(neg), serialize_node(pos))
        assert len(outcomes) == 1
        assert outcomes == {pair_of_nodes(neg, pos).serialize()}


def test_reduce_collapses_shared_subtrees():
    # Equal subtrees grafted at the same leaves of both trees cancel, down
    # to the element itself; equal trees cancel to the identity.
    rng = random.Random(8)
    for _ in range(200):
        g = random_element(rng)
        neg, pos = g.negative.root, g.positive.root
        for _ in range(rng.randrange(1, 5)):
            leaf = rng.randrange(neg.count("."))
            carets, seed = rng.randrange(1, 7), rng.random()
            neg = graft(neg, {leaf: random_tree(random.Random(seed), carets)})
            pos = graft(pos, {leaf: random_tree(random.Random(seed), carets)})
        pair = TreePairDiagram.of(CaretTree(neg), CaretTree(pos))
        assert pair.serialize() == g.serialize()
        tree = random_node(rng, rng.randrange(1, 30))
        assert pair_of_nodes(tree, tree).is_identity


def test_reduce_idempotent_on_elements():
    # a pair is reduced: TreePairDiagram.of of its trees gives it back,
    # and reduce, kept for old callers, returns it
    rng = random.Random(6)
    for _ in range(100):
        g = random_element(rng)
        assert g.reduced
        assert TreePairDiagram.of(g.negative, g.positive) == g
        assert reduce(g) is g


def test_no_recursive_tree_walks():
    # Deep trees must not hit the interpreter's recursion limit, so no
    # function in the tree kernel, the search engine, the penalty search
    # or the parsers may call itself.
    modules = ("tree_core.py", "group_ops.py", "cayley.py", "metrics.py", "wordlang.py")
    for module in modules:
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                target = call.func
                by_name = isinstance(target, ast.Name) and target.id == fn.name
                by_method = (
                    isinstance(target, ast.Attribute)
                    and target.attr == fn.name
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ("self", "cls")
                )
                assert not (by_name or by_method), f"{module}: {fn.name} recurses"


def test_runtime_imports_are_stdlib_only():
    # The package has no runtime dependencies: every import is relative or
    # names a module of the standard library.
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_public_names_pinned():
    # The library's public surface, spelled out, so that a change to it
    # shows up as an edit here.
    assert sorted(caretcalc.__all__) == [
        "BallIndex", "CaretCalcError", "CaretTree",
        "CoarseIsometryReport", "GeneratingSet", "GeneratorWord",
        "InvalidPenaltyTreeError", "LengthReport", "MacProbeReport",
        "MalformedPairError", "ParseError", "PenaltyTree",
        "SearchCapExceededError", "TreePairDiagram",
        "adjacency", "apply_generator", "ball", "bfs_length",
        "canonical_encode", "coarse_isometry_check", "evaluate_word",
        "format_word", "generator_diagram", "identity", "in_ball_geodesic",
        "invert", "l_infinity", "length_consecutive",
        "lengths_for", "mac_witness_pair", "multiply", "normal_form",
        "parse_pair", "parse_tree", "parse_word", "penalty_carets",
        "penalty_weight", "penalty_weight_of_tree", "probe_mac",
        "probe_subset_monotonicity", "reduce", "word_length",
    ]

    def public(cls):
        names = {f.name for f in dataclasses.fields(cls)}
        return sorted(names | {n for n in dir(cls) if not n.startswith("_")})

    assert public(CaretTree) == ["carets", "root", "survey"]
    # a pair is its two trees; reduced is read off them, not stored
    assert [f.name for f in dataclasses.fields(TreePairDiagram)] == [
        "negative", "positive"]
    assert public(TreePairDiagram) == [
        "carets", "is_identity", "negative", "of", "positive", "reduced",
        "serialize",
    ]
    assert public(caretcalc.GeneratorWord) == ["letters", "runs"]
    # a word has no length, inverse or product of its own: the group
    # operations act on diagrams
    assert not {"__len__", "__mul__"} & set(vars(caretcalc.GeneratorWord))
    assert public(caretcalc.BallIndex) == [
        "export_lines", "gens", "items", "radius", "size", "sphere_sizes", "table",
    ]
    # a witness is its edges and the pair it was built for
    assert [f.name for f in dataclasses.fields(caretcalc.PenaltyTree)] == [
        "parents", "pair"]
    assert public(caretcalc.PenaltyTree) == [
        "pair", "parent_map", "parents", "serialize", "vertices"]
