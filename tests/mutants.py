"""Mutation gate: each entry is a small wrong change to the program, and
the tests it names must fail on it.

An entry is (file, old text, new text, tests).  The old text must occur
exactly once in the file.  Each entry is applied to its own temporary
copy of ``src/``, ``tests/`` and ``pyproject.toml`` and the tests are run
there with ``pytest -x`` under the ``mutants`` hypothesis profile (see
``conftest.py``: no shrinking); the mutant is killed when pytest reports a
failing test (exit 1).  The unchanged copy must first pass every test
subset the entries name, so an environment in which the tests cannot run
kills nothing.

A mutant that survives points at missing tests, which are then added,
or at code that does no work, which is then deleted.  An entry leaves
the list only with its reason recorded; it is never edited so that it
dies more easily.  Standard library only; run from anywhere:

    python tests/mutants.py

It prints one line per entry and exits 1 if any mutant survived.  This
file is not a test module, so the tier-1 run does not collect it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TREE_CORE = "src/caretcalc/tree_core.py"
GROUP_OPS = "src/caretcalc/group_ops.py"
METRICS = "src/caretcalc/metrics.py"
CAYLEY = "src/caretcalc/cayley.py"
KERNEL_TESTS = "tests/test_tree_core.py tests/test_group_ops.py tests/test_properties.py"
METRICS_TESTS = "tests/test_metrics.py tests/test_acceptance.py"
CAYLEY_TESTS = "tests/test_cayley.py"

MUTANTS = [
    # reduce_text: the parent of a collapsed caret climbed when only one
    # tree has a leaf after it
    (TREE_CORE, 'neg.startswith(".", end) and pos.startswith(".", other_end)',
     'neg.startswith(".", end) or pos.startswith(".", other_end)', KERNEL_TESTS),
    # reduce_text: the climb over the leaf before the subtree takes one
    # character too many
    (TREE_CORE, "start, end = cuts.pop(start, start - 1) - 1, end + 1",
     "start, end = cuts.pop(start, start - 1) - 1, end + 2", KERNEL_TESTS),
    # _cancel: the cascade climbs the negative tree without its leaf
    # before the collapsed subtree
    (GROUP_OPS, 'while spine and spine[-1] == "." and neg[start - 1] == ".":',
     'while spine and spine[-1] == ".":', KERNEL_TESTS),
    # _cancel: a merged entry X ^ Y second to last taken for the last
    (GROUP_OPS, "if index + 1 < len(spine) or", "if index + 2 < len(spine) or",
     KERNEL_TESTS),
    # _move: B ^ C read as exposed one entry too early
    (GROUP_OPS, "index + 2 == len(spine)", "index + 1 == len(spine)", KERNEL_TESTS),
    # _move: a merge at the end grows the spines one entry short
    (GROUP_OPS, "(1 if sign == 1 else 2)", "(1 if sign == 1 else 1)", KERNEL_TESTS),
    # _enact: a created caret taken as common when only its left leaf is
    (GROUP_OPS, 'neg.startswith("..", dot)', 'neg.startswith(".", dot)', KERNEL_TESTS),
    # _spine: a subtree hanging off the spine cut one character long
    (GROUP_OPS, "spine.append(tree[at + 1 : end])", "spine.append(tree[at + 1 : end + 1])",
     KERNEL_TESTS),
    # _grow_spine: the grown spine keeps the leaf it replaces
    (GROUP_OPS, "tree[last + 1 :]", "tree[last:]", KERNEL_TESTS),
    # _leaf_dot: the dot of the leaf after the one asked for
    (GROUP_OPS, 'tree.replace(".", ",", leaf)', 'tree.replace(".", ",", leaf + 1)',
     KERNEL_TESTS),
    # _common_exposed: the common marks written one leaf short, so every
    # common caret but one at leaf 0 is read one leaf to the left
    (TREE_CORE, 'format(both, f"0{len(marks)}b")', 'format(both, f"0{len(marks) - 1}b")',
     KERNEL_TESTS),
    # _caret_spans: an exposed caret's span stops short of its ")"
    (TREE_CORE, "yield at - 1, at + 3", "yield at - 1, at + 2", KERNEL_TESTS),
    # _l_infinity: the negative tree's right spine counted twice
    (METRICS, "right_spine_carets(neg) - right_spine_carets(pos)",
     "right_spine_carets(neg) - right_spine_carets(neg)", METRICS_TESTS),
    # penalty_weight's survey path: the first tree's tie-break
    (METRICS, "d == low and p < hang", "d == low and p > hang", METRICS_TESTS),
    # the positive tree's lo[q] dropped from the predecessors
    (METRICS, "ps += nlo[q], plo[q]", "ps.append(nlo[q])", METRICS_TESTS),
    # a successor at the top caret left out, in each tree's line
    (METRICS, "h = nhi[q]\n        if h <= top:", "h = nhi[q]\n        if h < top:",
     METRICS_TESTS),
    (METRICS, "h = phi[q]\n        if h <= top:", "h = phi[q]\n        if h < top:",
     METRICS_TESTS),
    # _flags: a positive-tree caret reaching leaf n not flagged
    (METRICS, "plo[p + 1] == p and phi[p + 1] <= n", "plo[p + 1] == p and phi[p + 1] < n",
     METRICS_TESTS),
    # the in-ball search stops one half-shell too early
    (CAYLEY, ">= bound - 2:", ">= bound - 3:", CAYLEY_TESTS),
    # an element that fails the one-step test read as one step out, not two
    (CAYLEY, "return inside + 2", "return inside + 1", CAYLEY_TESTS),
    # the in-ball tests' ball enumerated three radii short
    (CAYLEY, "inside = max(radius - 2, 0)", "inside = max(radius - 3, 0)", CAYLEY_TESTS),
    # the ball route's l_infinity screen one short: an element whose
    # l_infinity is the limit, as the MAC witnesses' is at radius R,
    # refused without its steps
    (CAYLEY, "\n        if flat > limit:", "\n        if flat >= limit:", CAYLEY_TESTS),
    # a length the table holds given past the limit
    (CAYLEY, "return found if found <= limit else None", "return found", CAYLEY_TESTS),
    # a neighbour in the table read as length radius - 1, which it is only
    # from radius 2 on, where the table reaches radius - 2
    (CAYLEY, "return inside + 1", "return radius - 1", CAYLEY_TESTS),
    # the one-step test tried at any l_infinity: the same lengths, but the
    # steps of the elements that l_infinity rules out
    (CAYLEY, "if flat <= inside + 1 <= limit and", "if inside + 1 <= limit and",
     CAYLEY_TESTS),
    # the two-step test tried at radius - 1, where its length is past the
    # limit
    (CAYLEY, "if inside + 2 <= limit and", "if inside + 2 <= limit + 1 and", CAYLEY_TESTS),
    # the in-ball search's inner test asked at radius, so its paths may
    # leave the ball
    (CAYLEY, "length(n, p, radius - 1) is not None", "length(n, p, radius) is not None",
     CAYLEY_TESTS),
    # _cover keeps the elements the table holds in place of those it lacks
    (CAYLEY, "if _lookup(table, *texts) is None]", "if _lookup(table, *texts) is not None]",
     CAYLEY_TESTS),
    # the coarse check counts the identity twice
    (CAYLEY, "elements_checked=2 * len(slots) - 1", "elements_checked=2 * len(slots)",
     CAYLEY_TESTS),
    # the coarse check grows only X's table past the radius
    (CAYLEY, "for grow, table in zip(grows, tables):",
     "for grow, table in zip(grows[:1], tables):", CAYLEY_TESTS),
    # the witness check lets an edge from a vertex to itself through
    (METRICS, "if parent >= child:", "if parent > child:", METRICS_TESTS),
    # the witness check's leaf test one level up
    (METRICS, "if h == 0 and child not in required", "if h == 1 and child not in required",
     METRICS_TESTS),
    # the witness check reads the pair's penalty carets as none
    (METRICS, "required = {p for p, _ in _flags(neg, pos)}", "required = set()",
     METRICS_TESTS),
    # the witness check refuses the pair's last caret as a vertex
    (METRICS, "if child > carets:", "if child >= carets:", METRICS_TESTS),
    # penalty_weight's witness built without its pair, so checked as a
    # bare tree
    (METRICS, "return weight, PenaltyTree(parents, pair)",
     "return weight, PenaltyTree(parents)", METRICS_TESTS),
    # penalty_weight returns one less than the weight _weight found
    (METRICS, "return weight, PenaltyTree", "return max(weight - 1, 0), PenaltyTree",
     METRICS_TESTS),
    # the closed form lets a length one past the limit through
    (CAYLEY, "return exact if exact <= limit else None",
     "return exact if exact <= limit + 1 else None", CAYLEY_TESTS),
    # the closed form's l_infinity screen one short
    (CAYLEY, "\n            if flat > limit:", "\n            if flat >= limit:",
     CAYLEY_TESTS),
    # the witness-size guard lets 2k + 2 letters pass one over the cap
    (CAYLEY, "if letters > cap or", "if letters > cap + 1 or", CAYLEY_TESTS),
    # the witness-size guard lets index k + m + 1 pass one over the cap
    (CAYLEY, "or top > cap:", "or top > cap + 1:", CAYLEY_TESTS),
    # the witness's certificate refuses only a pair that fails both its
    # l_infinity check and its step check
    (CAYLEY, "!= (radius, radius) or", "!= (radius, radius) and", CAYLEY_TESTS),
    # the certificate's l_infinity check lets a witness below the sphere
    # through
    (CAYLEY, "flat != (radius, radius)", "flat > (radius, radius)", CAYLEY_TESTS),
    # the certificate's step word built with the generator after x_m
    (CAYLEY, "(gens.max_index, -1)", "(gens.max_index + 1, -1)", CAYLEY_TESTS),
    # a shifted set conjugated by x0^(s+1)
    (CAYLEY, "x0 = evaluate_word([(0, s)])", "x0 = evaluate_word([(0, s + 1)])", CAYLEY_TESTS),
    # the conjugation's signs swapped: x0^-s g x0^s
    (CAYLEY, "multiply(multiply(x0, pair), invert(x0))",
     "multiply(multiply(invert(x0), pair), x0)", CAYLEY_TESTS),
    # the router takes the closed form of the pair it did not conjugate
    (CAYLEY, "length_consecutive(_conjugate(pair, s),", "length_consecutive(pair,",
     CAYLEY_TESTS),
    # {x0} alone read as a consecutive set with a closed form
    (CAYLEY, "closed = base.max_index >= 1 and base.is_consecutive",
     "closed = base.is_consecutive", CAYLEY_TESTS),
    # the in-ball search over the base set on endpoints not conjugated
    (CAYLEY, "    a, b = _conjugate(a, s), _conjugate(b, s)\n", "", CAYLEY_TESTS),
    # the probe's formula fields left out over a shifted consecutive set
    (CAYLEY, "if base.is_consecutive:", "if gens.is_consecutive:", CAYLEY_TESTS),
    # the witness family refuses only sets of fewer than two generators
    (CAYLEY, "if len(gens.indices) < 3:", "if len(gens.indices) < 2:", CAYLEY_TESTS),
]


def _copy(to: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, to / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", to / "pyproject.toml")


def _pytest(where: Path, tests: str) -> int:
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-profile=mutants"]
    return subprocess.run(
        command + tests.split(), cwd=where,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def _killed(file: str, old: str, new: str, tests: str) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        _copy(where)
        target = where / file
        text = target.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{file}: {old!r} occurs {text.count(old)} times, not once")
        target.write_text(text.replace(old, new))
        return _pytest(where, tests) == 1


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        for tests in dict.fromkeys(entry[3] for entry in MUTANTS):
            code = _pytest(Path(tmp), tests)
            if code != 0:
                print(f"the unchanged tests fail: {tests} exits {code}")
                return 1
    survived = 0
    for file, old, new, tests in MUTANTS:
        killed = _killed(file, old, new, tests)
        survived += not killed
        change = f"{old.strip()!r} -> {new.strip()!r}"
        print(f"{'killed' if killed else 'SURVIVED'}\t{file}\t{change}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
