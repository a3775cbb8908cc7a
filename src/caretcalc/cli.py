"""Command-line interface.

Subcommands: eval, len, ball, probe-mac, check-ci, probe-monotone.
Exit codes: 0 success (probes: claim confirmed), 1 probe refuted,
2 usage or parse error, 3 resource cap exceeded, 4 internal error (any
other exception, e.g. RecursionError or MemoryError, reported in one
stderr line), 141 stdout closed by its reader.  The CARETCALC_CAP
environment variable overrides the default search cap; --cap overrides
both.  Output is plain tab-separated text, or JSON with --format
structured; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import islice
from typing import Iterable, Optional

from . import cayley, metrics
from .errors import ParseError, SearchCapExceededError
from .group_ops import GeneratingSet, GeneratorWord, evaluate_word, normal_form
from .tree_core import canonical_encode
from .wordlang import format_word, parse_word

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
# what a shell reports for a writer stopped by SIGPIPE: 128 + 13
EXIT_PIPE = 141

ENV_CAP = "CARETCALC_CAP"


def _gens(text: str) -> GeneratingSet:
    try:
        indices = [int(part) for part in text.split(",") if part.strip() != ""]
        return GeneratingSet.of(indices)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _cap(args) -> int:
    """The state cap of every search and budget: --cap, else CARETCALC_CAP,
    else the default, one value for all of them."""
    if args.cap is not None:
        return args.cap
    env = os.environ.get(ENV_CAP)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ParseError(f"{ENV_CAP} must be an integer, got {env!r}")
        if value <= 0:
            raise ParseError(f"{ENV_CAP} must be positive, got {value}")
        return value
    return cayley.DEFAULT_STATE_CAP


def _word(args) -> GeneratorWord:
    """The word argument, as runs.  One whose letter count or largest
    generator index exceeds the cap is refused before any tree is built:
    its cost grows with both.  The letters are counted from the run
    exponents, never spelled out."""
    word = parse_word(args.word)
    budget = _cap(args)
    letters = sum(abs(exponent) for _, exponent in word.runs)
    if letters > budget:
        raise SearchCapExceededError(
            f"the word has {letters} letters, more than the cap of {budget}",
            letters,
        )
    top = max((index for index, _ in word.runs), default=0)
    if top > budget:
        raise SearchCapExceededError(
            f"the word uses generator x{top}, beyond the cap of {budget}", top
        )
    return word


def _check_gens(args) -> None:
    """Refuse, before any search, a generating set whose largest index is
    over the cap, as ``_word`` does: a step by x_i costs O(i)."""
    for name in ("gens", "gens_a", "gens_b"):
        if hasattr(args, name):
            top = getattr(args, name).max_index
            budget = _cap(args)
            if top > budget:
                raise SearchCapExceededError(
                    f"the generating set uses x{top}, beyond the cap of {budget}", top
                )


def _check_out(args) -> None:
    """Refuse an --out path that cannot be written before any work, not
    after it.  Opening for append changes no content, and a file the
    check made is removed again, so a command that fails later leaves
    the path as it found it."""
    path = getattr(args, "out", None)
    if path:
        existed = os.path.lexists(path)
        try:
            open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
        if not existed:
            os.remove(path)


def _emit(args, text: str) -> None:
    _emit_each(args, (text,))


def _emit_each(args, chunks: Iterable[str]) -> None:
    """Write each chunk as it comes: to stdout, or to --out, which is
    opened only now that the work is done."""
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.writelines(chunks)


def _plain(value) -> str:
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _emit_record(args, record: dict, omit: Iterable[str] = ()) -> None:
    """Plain: one key<TAB>value line per key of the record in its order,
    less ``omit``, each written as it is built, so a long value is never
    copied into one joined text.  Structured: JSON of the full record with
    native types (null/true rather than text)."""
    if args.format == "structured":
        _emit(args, json.dumps(record, sort_keys=True, indent=2) + "\n")
        return
    _emit_each(args, (f"{key}\t{_plain(value)}\n"
                      for key, value in record.items() if key not in omit))


def cmd_eval(args) -> int:
    word = _word(args)
    pair = evaluate_word(word.runs)
    record = {
        "pair": canonical_encode(pair),
        "carets": pair.carets,
        "normal_form": format_word(normal_form(pair)),
    }
    _emit_record(args, record)
    return EXIT_OK


def cmd_len(args) -> int:
    pair = evaluate_word(_word(args).runs)
    method, length, report = cayley.word_length(pair, args.gens, args.method, _cap(args))
    record = {
        "pair": canonical_encode(pair),
        "gens": list(args.gens),
        "method": method,
        "l_infinity": metrics.l_infinity(pair),
    }
    if report is not None:
        record["penalty_weight"] = report.penalty_weight
    record["length"] = length
    if report is not None:
        record["witness"] = report.witness.serialize()
    _emit_record(args, record)
    return EXIT_OK


def cmd_ball(args) -> int:
    index = cayley.ball(args.gens, args.radius, cap=_cap(args))
    if args.format == "structured":
        record = {
            "gens": list(args.gens),
            "radius": args.radius,
            "size": index.size,
            "sphere_sizes": index.sphere_sizes(),
            # the flat encoding -> length object is made only to print
            "elements": dict(index.items()),
        }
        _emit(args, json.dumps(record, sort_keys=True, indent=2) + "\n")
    else:
        # joined 1,024 lines at a time: one stdout write per line took
        # ~1.0 s for the 378,921 lines of radius 9 over {0,1,2} into a
        # pipe, one join of them all ~0.36 s (2-core Xeon)
        lines = (line + "\n" for line in index.export_lines())
        _emit_each(args, iter(lambda: "".join(islice(lines, 1024)), ""))
    return EXIT_OK


def cmd_probe_mac(args) -> int:
    report = cayley.probe_mac(args.gens, args.k, cap=_cap(args))
    # probe_mac fills the formula fields only for a consecutive set
    omit = ("formula_g_length", "formula_h_length") if report.formula_g_length is None else ()
    _emit_record(args, report.to_dict(), omit)
    return EXIT_OK if report.confirmed else EXIT_REFUTED


def cmd_check_ci(args) -> int:
    report = cayley.coarse_isometry_check(
        args.gens_a, args.gens_b, args.radius, cap=_cap(args))
    _emit_record(args, report.to_dict())
    return EXIT_REFUTED if report.within_bound is False else EXIT_OK


def cmd_probe_monotone(args) -> int:
    ok = cayley.probe_subset_monotonicity(
        args.gens_a, args.gens_b, args.radius, cap=_cap(args))
    record = {
        "gens_a": list(args.gens_a),
        "gens_b": list(args.gens_b),
        "radius": args.radius,
        "monotone": ok,
    }
    _emit_record(args, record)
    return EXIT_OK if ok else EXIT_REFUTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caretcalc",
        description="Exact word lengths and convexity probes for Thompson's "
        "group F via reduced tree pair diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cap", type=_positive_int, default=None,
                       help="search state cap (default from CARETCALC_CAP or built-in)")
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--format", choices=("plain", "structured"),
                       default="plain", help="output format")

    p = sub.add_parser("eval", help="evaluate a word to its reduced pair")
    p.add_argument("word", help="word such as 'x1^2 x0^-2' (may be empty)")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("len", help="word length of an element")
    p.add_argument("word")
    p.add_argument("--gens", type=_gens, required=True,
                   help="comma-separated generator indices, e.g. 0,1,2")
    p.add_argument("--method", choices=("auto", "formula", "bfs"), default="auto",
                   help="formula needs consecutive indices; auto picks it when possible")
    common(p)
    p.set_defaults(func=cmd_len)

    p = sub.add_parser("ball", help="enumerate a ball of the word metric")
    p.add_argument("--gens", type=_gens, required=True)
    p.add_argument("--radius", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("probe-mac", help="check a minimal-almost-convexity witness pair")
    p.add_argument("--gens", type=_gens, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    common(p)
    p.set_defaults(func=cmd_probe_mac)

    p = sub.add_parser("check-ci", help="measure the additive gap between two word metrics")
    p.add_argument("--gens-a", type=_gens, required=True)
    p.add_argument("--gens-b", type=_gens, required=True)
    p.add_argument("--radius", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_check_ci)

    p = sub.add_parser("probe-monotone",
                       help="check that a larger generating set never increases length")
    p.add_argument("--gens-a", type=_gens, required=True, help="the smaller set")
    p.add_argument("--gens-b", type=_gens, required=True, help="the larger set")
    p.add_argument("--radius", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_probe_monotone)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and kept: a parse
    leaves no state in it, and building it costs more than most calls
    that read a few letters."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code.  When the reader closes
    stdout early (``caretcalc ball ... | head -1``), the code is
    EXIT_PIPE and nothing goes to stderr, however far the output had
    got."""
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


def _run(argv: Optional[list[str]]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        _check_gens(args)
        _check_out(args)
        return args.func(args)
    except BrokenPipeError:
        # stdout closed, which ``main`` reports; no internal error
        raise
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchCapExceededError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Left uncaught it would exit 1, the code for "probe refuted".
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
