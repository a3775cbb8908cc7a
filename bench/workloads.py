"""The four benchmark workloads: inputs from a seed, the timed op, and the
untimed correctness checks.

Each workload owns ``items`` (its fixed input set for one seed) and
``batches`` (lists of item indices; a batch is the unit of throughput).
``run(item)`` is the only timed code; ``ops(item, output)`` says how many
ops an execution counts for; ``check(outputs)`` compares each item's first
output with an independent route and returns the number of failed ops.
Functions are looked up on their modules at call time so the traced run
sees its wrappers.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import tracemalloc

import caretcalc as cc
from caretcalc import cayley, cli, group_ops, metrics, tree_core, wordlang
from caretcalc.errors import CaretCalcError

def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def plain_record(text: str) -> dict[str, str]:
    return dict(line.split("\t", 1) for line in text.splitlines())


def random_node(rng: random.Random, carets: int):
    """Random tree: the root's left subtree size is uniform in 0..carets-1."""
    if carets == 0:
        return None
    left = rng.randrange(carets)
    return (random_node(rng, left), random_node(rng, carets - 1 - left))


def traced_peak(fn, *args) -> tuple[int, object]:
    """fn(*args), and the bytes it had allocated at its high-water mark."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class Workload:
    """What the four workloads share; subclasses add ``run`` and ``check``."""

    items: list
    batches: list[list[int]]

    def ops(self, item, output) -> int:
        return 1

    def fingerprint(self, output):
        """What a repeated execution must reproduce exactly."""
        return output

    def reset(self) -> None:
        """Called before each batch."""

    # Leading items the untimed memory pass traces (tracemalloc makes
    # them about 3.5 times slower).
    MEMORY_OPS: int

    def bytes_per_element(self) -> float:
        """Mean over the leading items of each op's traced peak."""
        self.reset()
        return statistics.fmean(
            traced_peak(self.run, item)[0] for item in self.items[:self.MEMORY_OPS])


class Ball(Workload):
    """`caretcalc ball --gens 0,1,2 --radius 7`; one op is one element."""

    SPHERES = [1, 6, 26, 104, 404, 1526, 5686, 20878]
    SAMPLE = 200

    def __init__(self, seed: int):
        self.seed = seed
        self.items = [["ball", "--gens", "0,1,2", "--radius", "7"]]
        self.batches = [[0]]

    def run(self, item):
        return call_cli(item)

    def ops(self, item, output) -> int:
        return output[1].count("\n")

    def fingerprint(self, output):
        code, text, err = output
        return code, hash(text), err

    def check(self, outputs) -> int:
        code, text, err = outputs[0]
        rows = [line.split("\t") for line in text.splitlines()]
        if code != 0 or err or len(rows) != sum(self.SPHERES):
            return max(len(rows), 1)
        spheres = [0] * len(self.SPHERES)
        for _, length in rows:
            spheres[int(length)] += 1
        failed = sum(abs(a - b) for a, b in zip(spheres, self.SPHERES))
        # A seeded sample must match the closed form for {x0, x1, x2}.
        for enc, length in random.Random(self.seed).sample(rows, self.SAMPLE):
            pair = wordlang.parse_pair(enc)
            if (not pair.reduced or pair.serialize() != enc
                    or metrics.length_consecutive(pair, 2).length != int(length)):
                failed += 1
        return failed

    def bytes_per_element(self) -> float:
        """Traced peak of one enumeration divided by its elements."""
        peak, index = traced_peak(cayley.ball, cc.GeneratingSet.of([0, 1, 2]), 7)
        return peak / index.size


class Lengths(Workload):
    """Closed-form lengths of random pairs; one op is one pair."""

    CARETS = range(6, 19)
    BATCHES = 230
    MEMORY_OPS = 4 * 39
    # Pairs whose formula length is at most this are re-measured by search.
    SHORT = {1: 7, 2: 6, 3: 5}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        per_batch = len(self.CARETS) * 3
        self.items = []
        for i in range(per_batch * self.BATCHES):
            k = self.CARETS[(i // 3) % len(self.CARETS)]
            text = (tree_core.serialize_node(random_node(rng, k)) + "|"
                    + tree_core.serialize_node(random_node(rng, k)))
            self.items.append((text, 1 + i % 3))
        self.batches = [list(range(b, b + per_batch))
                        for b in range(0, len(self.items), per_batch)]

    def run(self, item):
        text, n = item
        pair = tree_core.reduce(wordlang.parse_pair(text))
        report = metrics.length_consecutive(pair, n)
        return report.serialize(), report

    def fingerprint(self, output):
        return output[0]

    def check(self, outputs) -> int:
        failed = 0
        short: dict[int, list] = {n: [] for n in self.SHORT}
        for i, (line, report) in outputs.items():
            _, n = self.items[i]
            weight = metrics.penalty_weight_of_tree(report.witness, n)
            if (weight != report.penalty_weight
                    or report.length != report.l_infinity + 2 * weight
                    or line.split("\t")[0] != report.encoding):
                failed += 1
            elif report.length <= self.SHORT[n]:
                short[n].append(report)
        for n, reports in short.items():
            pairs = [wordlang.parse_pair(r.encoding) for r in reports]
            found = cayley.lengths_for(pairs, cc.GeneratingSet.of(range(n + 1)))
            failed += sum(found[r.encoding] != r.length for r in reports)
        return failed


class Queries(Workload):
    """`len --method bfs` on exact-length cells, plus two MAC probes; one
    op is one CLI call."""

    # (generators, exact length).  {x0, x2} elements are images of {x0, x1}
    # elements under x0 -> x0, x1 -> x2, an isomorphism onto <x0, x2>, so
    # the closed form for {x0, x1} gives their exact length too.
    CELLS = [((0, 1), 7), ((0, 1), 8), ((0, 2), 6), ((0, 2), 7),
             ((0, 1, 2), 6), ((0, 1, 2, 3), 5)]
    PROBES = [((0, 1, 2), 2), ((0, 1, 3), 1)]
    MEMORY_OPS = 2  # the two {x0, x1} cells

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.items = []
        self.expected = []
        for gens, length in self.CELLS:
            pair = self._element(rng, gens, length)
            word = wordlang.format_word(group_ops.normal_form(pair))
            self.items.append(["len", word, "--gens", _csv(gens), "--method", "bfs"])
            self.expected.append({"pair": tree_core.canonical_encode(pair),
                                  "length": str(length)})
        for gens, k in self.PROBES:
            self.items.append(["probe-mac", "--gens", _csv(gens), "--k", str(k)])
            self.expected.append({"k": k})
        self.batches = [list(range(len(self.items)))]

    @staticmethod
    def _element(rng, gens, length):
        """A seeded element whose exact length over gens is ``length``."""
        base = tuple(range(len(gens)))
        letters = [(i, s) for i in base for s in (1, -1)]
        while True:
            word: list = []
            while len(word) < length:
                letter = rng.choice(letters)
                if not word or letter != (word[-1][0], -word[-1][1]):
                    word.append(letter)
            if metrics.length_consecutive(group_ops.evaluate_word(word),
                                          base[-1]).length == length:
                return group_ops.evaluate_word([(gens[i], s) for i, s in word])

    def run(self, item):
        return call_cli(item)

    def check(self, outputs) -> int:
        failed = 0
        for i, (code, text, err) in outputs.items():
            want = self.expected[i]
            got = plain_record(text) if code == 0 and not err else {}
            if "k" in want:
                k = want["k"]
                ok = (got.get("verdict") == "witness-confirmed"
                      and got["g_length"] == got["h_length"] == str(2 * k + 2)
                      and got["distance"] == "2"
                      and int(got["min_in_ball_path"]) >= 4 * k + 4)
            else:
                ok = all(got.get(key) == value for key, value in want.items())
            failed += not ok
        return failed


class DeepWords(Workload):
    """Long words through parse -> evaluate -> normal form -> format, plus
    one product per word; one op is one word.

    Four kinds of word, four of each.  The parameters that set a word's
    cost (k, j, the length, where the big letter sits) are fixed steps
    across their ranges; the seed draws the other letters.
    """

    STEPS = [i / 3 for i in range(4)]
    MEMORY_OPS = 4  # the lowest step of every kind

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.items = []
        for step in self.STEPS:
            self.items += [self._power(rng, step), self._high_index(rng, step),
                           self._growth(rng, step), self._mixed(rng, step)]
        self.batches = [list(range(len(self.items)))]
        self._previous = None

    @staticmethod
    def _letters(rng, count, top=12):
        return [f"x{rng.randrange(top + 1)}^{rng.choice((1, -1))}"
                for _ in range(count)]

    def _power(self, rng, step):
        """x0^k, k = 150..300, between two runs of 25 random letters."""
        around = self._letters(rng, 50)
        return " ".join(around[:25] + [f"x0^{150 + round(150 * step)}"] + around[25:])

    def _high_index(self, rng, step):
        """One letter x_j, j = 300..900, in the middle of 399..99 random
        letters."""
        around = self._letters(rng, 399 - round(300 * step))
        around.insert(len(around) // 2, f"x{300 + round(600 * step)}")
        return " ".join(around)

    def _growth(self, rng, step):
        """100..400 positive letters with indices up to 39."""
        return " ".join(f"x{rng.randrange(40)}" for _ in range(100 + round(300 * step)))

    def _mixed(self, rng, step):
        """100..400 letters of either sign with indices up to 12."""
        return " ".join(self._letters(rng, 100 + round(300 * step)))

    def run(self, item):
        word = wordlang.parse_word(item)
        pair = group_ops.evaluate_word(word.letters)
        text = wordlang.format_word(group_ops.normal_form(pair))
        previous, self._previous = self._previous, pair
        product = None
        if previous is not None:
            product = group_ops.multiply(previous, group_ops.invert(pair))
        return pair, text, product

    def fingerprint(self, output):
        pair, text, _ = output
        return tree_core.canonical_encode(pair), text

    def check(self, outputs) -> int:
        encode = tree_core.canonical_encode
        failed = 0
        for i, (pair, text, product) in outputs.items():
            back = group_ops.evaluate_word(wordlang.parse_word(text).letters)
            ok = encode(back) == encode(pair)
            if ok and i > 0 and i - 1 in outputs:
                # previous * pair^-1, folded one generator at a time
                fold = outputs[i - 1][0]
                for index, sign in reversed(wordlang.parse_word(self.items[i]).letters):
                    fold = group_ops.apply_generator(fold, index, -sign)
                ok = product is not None and encode(fold) == encode(product)
            failed += not ok
        return failed

    def reset(self) -> None:
        # The first word of a batch has no predecessor to multiply.
        self._previous = None


def _csv(indices) -> str:
    return ",".join(str(i) for i in indices)


WORKLOADS = {"ball": Ball, "lengths": Lengths, "queries": Queries,
             "deep-words": DeepWords}

FAILURES = (CaretCalcError, RecursionError, ValueError)
