"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public caretcalc functions from the outside: every
module that holds a function under some name (its defining module, the
package root, and each module that imported it by name) gets the wrapper,
so internal calls such as ``cayley.apply_generator`` or ``group_ops.reduce``
are seen too.  Nothing in the package itself changes.

A span is ``(name, start, end, parent span index, op id)``.  Spans stay in
memory while the batch runs and are written out when the benchmark ends.
Hot helpers (``count_carets``) are counted, not spanned.  A layer's self
time is its span duration minus the time its child spans cover; calls are
strictly nested in one thread, so that is the sum of the direct children.
"""

from __future__ import annotations

import gzip
from collections import Counter
from time import perf_counter

import caretcalc
from caretcalc import cayley, cli, group_ops, metrics, tree_core, wordlang
from caretcalc.errors import SearchCapExceededError

MODULES = (caretcalc, tree_core, group_ops, metrics, cayley, wordlang, cli)

# (owner, attribute, span name).  The owner is a module or, for methods,
# a class; span names are module-qualified.
SPANNED = (
    (tree_core, "reduce", "tree_core.reduce"),
    (tree_core, "canonical_encode", "tree_core.canonical_encode"),
    (tree_core.CaretTree, "survey", "tree_core.CaretTree.survey"),
    (group_ops, "apply_generator", "group_ops.apply_generator"),
    (group_ops, "multiply", "group_ops.multiply"),
    (group_ops, "evaluate_word", "group_ops.evaluate_word"),
    (group_ops, "normal_form", "group_ops.normal_form"),
    (metrics, "l_infinity", "metrics.l_infinity"),
    (metrics, "adjacency", "metrics.adjacency"),
    (metrics, "penalty_carets", "metrics.penalty_carets"),
    (metrics, "penalty_weight", "metrics.penalty_weight"),
    (metrics, "length_consecutive", "metrics.length_consecutive"),
    (cayley, "ball", "cayley.ball"),
    (cayley.BallIndex, "export_lines", "cayley.BallIndex.export_lines"),
    (cayley, "lengths_for", "cayley.lengths_for"),
    (cayley, "in_ball_geodesic", "cayley.in_ball_geodesic"),
    (cayley, "probe_mac", "cayley.probe_mac"),
    (wordlang, "parse_word", "wordlang.parse_word"),
    (wordlang, "parse_pair", "wordlang.parse_pair"),
    (wordlang, "format_word", "wordlang.format_word"),
    (cli, "main", "cli.main"),
)
SPAN_NAMES = tuple(name for _, _, name in SPANNED)

# Spans whose apply_generator calls are reported as ``.expansions``.
SEARCHES = ("cayley.ball", "cayley.lengths_for", "cayley.in_ball_geodesic")


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self._saved: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        inner = self._inner_counts(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            before = [counts[c] for c in inner]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SearchCapExceededError:
                counts[name + ".cap_hits"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
                counts[name] += 1
                for c, b in zip(inner, before):
                    counts[f"{name}>{c}"] += counts[c] - b
            self._after(name, args, result)
            return result

        return wrapper

    @staticmethod
    def _inner_counts(name):
        """Counters whose growth inside this span is recorded."""
        if name == "group_ops.apply_generator":
            return ("tree_core.count_carets",)
        if name == "metrics.length_consecutive":
            return ("tree_core.CaretTree.survey",)
        if name in SEARCHES:
            return ("group_ops.apply_generator",)
        return ()

    def _after(self, name, args, result):
        """Outcome counters, computed after the span has closed."""
        counts = self.counts
        if name == "tree_core.reduce":
            before = _ORIGINAL_COUNT(args[0].negative.root)
            if _ORIGINAL_COUNT(result.negative.root) == before:
                counts["tree_core.reduce.noop"] += 1
        elif name == "cayley.ball":
            counts["cayley.ball.new"] += result.size - 1

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Replace each traced function wherever the package binds it."""
        targets = [(owner, attr, self._span(name, getattr(owner, attr)))
                   for owner, attr, name in SPANNED]
        targets.append((tree_core, "count_carets", self._counter(
            "tree_core.count_carets", tree_core.count_carets)))
        for owner, attr, wrapper in targets:
            original = getattr(owner, attr)
            homes = [owner] if isinstance(owner, type) else [
                m for m in MODULES if getattr(m, attr, None) is original]
            for home in homes:
                self._saved.append((home, attr, original))
                setattr(home, attr, wrapper)

    def uninstall(self) -> None:
        for home, attr, original in reversed(self._saved):
            setattr(home, attr, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def write_spans(self, path) -> None:
        """Spans as tab-separated lines: index, name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


_ORIGINAL_COUNT = tree_core.count_carets


def layer_metrics(rec: Recorder, ops: int, seconds: float):
    """Per-layer metrics of a traced run, and the self times behind them.

    Counts are per op.  Self time is given as a share of the traced time,
    so a layer the workload never enters reads 0 %, not a constant 0 s;
    the absolute seconds per op come back separately.
    """
    c = rec.counts
    out: dict[str, tuple[float, str]] = {}
    self_s = rec.self_times()
    for name in SPAN_NAMES:
        out[name + ".calls"] = (c[name] / ops, "calls/op")
        out[name + ".self_share"] = (self_s[name] / seconds * 100, "%")
    out["tree_core.count_carets.calls"] = (c["tree_core.count_carets"] / ops, "calls/op")

    def ratio(num, den):
        return num / den if den else 0.0

    apply = "group_ops.apply_generator"
    out["tree_core.count_carets.per_apply_generator"] = (
        ratio(c[apply + ">tree_core.count_carets"], c[apply]), "ratio")
    out["tree_core.reduce.noop_share"] = (
        ratio(c["tree_core.reduce.noop"], c["tree_core.reduce"]), "ratio")
    out["tree_core.survey_per_length"] = (
        ratio(c["metrics.length_consecutive>tree_core.CaretTree.survey"],
              c["metrics.length_consecutive"]), "ratio")
    out["metrics.penalty_weight.cap_hits"] = (
        c["metrics.penalty_weight.cap_hits"] / ops, "count/op")
    out["cayley.ball.new_per_application"] = (
        ratio(c["cayley.ball.new"], c[f"cayley.ball>{apply}"]), "ratio")
    for name in ("cayley.lengths_for", "cayley.in_ball_geodesic"):
        out[name + ".expansions"] = (c[f"{name}>{apply}"] / ops, "calls/op")
    return out, {name + ".self_s": (t / ops, "s/op") for name, t in self_s.items()}
