"""caretcalc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload ball --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.
The run makes its inputs from the seed, times the workload's ops for about
``--seconds`` seconds in this one process (no threads), after one untimed
warm-up batch, checks every output against an independent route outside
the timed region, and prints each metric as
``name<TAB>value<TAB>unit<TAB>detail`` followed by one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Times are scaled to a
fixed machine speed measured by a reference workload (``Pace``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced executions of each batch and reports the per-layer
metrics of the traced ones plus the tracing overhead.  A copy of the
result, with the machine it ran on, goes to ``bench/results/``; traced
runs also write their spans there.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

T_PROCESS = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_RUNS = 9
# The reference workload runs between ops for this share of the op time
# (SETUP_REFERENCE_SHARE between set-up runs), in blocks of about
# REFERENCE_BLOCK_S.
REFERENCE_SHARE = 0.04
SETUP_REFERENCE_SHARE = 0.15
REFERENCE_BLOCK_S = 0.02
REFERENCE_TREES = 24
REFERENCE_NODES = 40
REFERENCE_S = 0.00135  # its typical time on the machine in NOTES.md
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("ball", "lengths", "queries", "deep-words"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, then exit (times setup_s)")
    return p.parse_args(argv)


def import_package():
    """Import caretcalc from this checkout's src/, never from elsewhere."""
    if not (SRC / "caretcalc" / "__init__.py").is_file():
        raise SystemExit(f"error: no caretcalc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import caretcalc

    if Path(caretcalc.__file__).resolve().parent != SRC / "caretcalc":
        raise SystemExit(f"error: imported caretcalc from {caretcalc.__file__}")


def reference_work() -> int:
    """Fixed pure-Python tree work, the yardstick of the machine's speed.

    It builds seeded random binary trees of nested tuples, the form
    caretcalc keeps its trees in, counts their nodes and prints them.  It
    calls nothing in caretcalc, so no change to the package moves it."""
    from workloads import random_node

    rng = random.Random(0)
    total = 0
    for _ in range(REFERENCE_TREES):
        tree = random_node(rng, REFERENCE_NODES)
        total += count_nodes(tree) + len(repr(tree))
    return total


def count_nodes(node) -> int:
    return 0 if node is None else 1 + count_nodes(node[0]) + count_nodes(node[1])


class Pace:
    """Follows the machine's speed through a run.

    The shared host slows this process by up to 1.5x for tens of seconds
    at a time.  After each op, ``after`` runs the reference workload for
    a share of the op's time, so the reference samples the same
    stretch of the run as the ops do; ``scale`` then turns the run's
    times into times at the speed where the reference takes REFERENCE_S.
    """

    def __init__(self, share: float = REFERENCE_SHARE):
        self.share = share
        self.samples: list[float] = []
        self.owed = 0.0

    def after(self, seconds: float) -> None:
        self.owed += seconds * self.share
        if self.owed < REFERENCE_BLOCK_S:
            return
        # The collector stays off so that a collection of the workload's
        # objects never lands in a reference sample.
        gc.disable()
        try:
            while self.owed > 0:
                start = time.perf_counter()
                reference_work()
                took = time.perf_counter() - start
                self.samples.append(took)
                self.owed -= took
        finally:
            gc.enable()

    def scale(self) -> float:
        if not self.samples:
            self.owed = REFERENCE_BLOCK_S
            self.after(0.0)
        return REFERENCE_S / statistics.fmean(self.samples)

    def detail(self) -> str:
        return (f"scaled by {self.scale():.4f} from {len(self.samples)} "
                f"reference samples of mean {statistics.fmean(self.samples) * 1e3:.3f} ms")


def setup_seconds(args, pace: Pace) -> list[float]:
    """Wall time of fresh processes that import and build the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds", "0",
            "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        pace.after(times[-1])
        if done.returncode != 0:
            raise SystemExit("error: setup run failed: "
                             + done.stderr.decode(errors="replace").strip())
    return times


class Run:
    """Executes batches and keeps what the checks and metrics need."""

    def __init__(self, workload):
        from workloads import FAILURES

        self.wl = workload
        self.failures = FAILURES
        self.first: dict[int, object] = {}
        self.latency: dict[int, list[float]] = defaultdict(list)
        self.item_ops: dict[int, int] = {}
        self.attempted = 0
        self.failed = 0

    def batch(self, indices, recorder=None, pace=None) -> tuple[float, int]:
        """Run one batch; returns (seconds, ops).  With a pace, the
        reference workload runs between ops; the batch time includes it."""
        wl, items = self.wl, self.wl.items
        wl.reset()
        ops = 0
        start = time.perf_counter()
        for i in indices:
            if recorder is not None:
                recorder.op = i
            t0 = time.perf_counter()
            try:
                out = wl.run(items[i])
            except self.failures:
                self.latency[i].append(time.perf_counter() - t0)
                self.attempted += 1
                self.failed += 1
                continue
            self.latency[i].append(time.perf_counter() - t0)
            if pace is not None:
                pace.after(self.latency[i][-1])
            n = wl.ops(items[i], out)
            ops += n
            self.item_ops[i] = n
            if i not in self.first:
                self.first[i] = out
            elif wl.fingerprint(out) != wl.fingerprint(self.first[i]):
                self.failed += n
        elapsed = time.perf_counter() - start
        self.attempted += ops
        return elapsed, ops

    def mean_latency(self) -> dict[int, float]:
        """Each item's mean time over its repeats.  The mean spreads each
        op over the whole run, so a slow spell of the machine weighs on
        every op alike (see NOTES.md)."""
        return {i: statistics.fmean(v) for i, v in self.latency.items()}


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest listed percentile with >= 10 samples beyond it, else max."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            return statistics.quantiles(ordered, n=10000)[round(p * 100) - 1], f"p{p:g}"
    return ordered[-1], "max"


def measure(args, wl) -> dict:
    run = Run(wl)
    # Warm-up: the first batch once, checked but not timed.
    run.batch(wl.batches[0])
    run.latency.clear()
    pace = Pace()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < args.seconds:
        for indices in wl.batches:
            run.batch(indices, pace=pace)
            if passes and time.perf_counter() - start >= args.seconds:
                break
        passes += 1
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.failed += wl.check(run.first)
    scale = pace.scale()
    means = {i: t * scale for i, t in run.mean_latency().items()}
    samples = list(means.values())
    tail_s, tail_label = tail(samples)
    n = len(samples)
    repeats = statistics.median(len(v) for v in run.latency.values())
    each = (f"n={n}, each the mean of a median {repeats:g} repeats, "
            + pace.detail())
    # Throughput of a batch at its ops' mean times; the median batch.
    rates = [sum(run.item_ops.get(i, 0) for i in b) / sum(means[i] for i in b)
             for b in wl.batches]
    return {
        "run": run,
        "metrics": {
            "ops_per_s": (statistics.median(rates), "1/s",
                          f"median of {len(rates)} batches at their ops' "
                          f"mean times, {pace.detail()}"),
            "latency_p50_ms": (statistics.median(samples) * 1e3, "ms", each),
            "latency_tail_ms": (tail_s * 1e3, "ms", f"{tail_label}, {each}"),
            "peak_rss_mib": (rss, "MiB", "ru_maxrss after the timed batches"),
            "bytes_per_element": (wl.bytes_per_element(), "B",
                                  "tracemalloc, untimed pass"),
        },
    }


def measure_traced(args, wl) -> dict:
    from tracing import Recorder, layer_metrics

    run = Run(wl)
    rec = Recorder()
    plain = traced = 0.0
    traced_ops = pairs = 0
    start = time.perf_counter()
    while pairs == 0 or time.perf_counter() - start < args.seconds:
        for indices in wl.batches:
            # Alternate which side goes first so drift cancels.
            for tracing in ((False, True) if pairs % 2 == 0 else (True, False)):
                if tracing:
                    rec.install()
                    try:
                        seconds, ops = run.batch(indices, rec)
                    finally:
                        rec.uninstall()
                    traced += seconds
                    traced_ops += ops
                else:
                    plain += run.batch(indices)[0]
            pairs += 1
            if time.perf_counter() - start >= args.seconds:
                break
    run.failed += wl.check(run.first)
    traced_ops = max(traced_ops, 1)
    layers, self_s = layer_metrics(rec, traced_ops, traced)
    layers["trace.overhead_s"] = ((traced - plain) / traced_ops, "s/op")
    layers["trace.overhead_share"] = ((traced - plain) / plain * 100, "%")
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    rec.write_spans(spans)
    detail = f"{pairs} batch pairs, {traced_ops} traced ops"
    return {"run": run,
            "metrics": {k: (v, unit, detail) for k, (v, unit) in layers.items()},
            "self_s": {k: (v, unit, detail) for k, (v, unit) in self_s.items()},
            "spans": str(spans.relative_to(ROOT))}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": git_sha()}


def git_sha() -> str:
    """HEAD of this checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0
    inputs_s = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    inputs_s = time.perf_counter() - inputs_s
    if args.trace:
        result = measure_traced(args, wl)
    else:
        pace = Pace(SETUP_REFERENCE_SHARE)
        setups = setup_seconds(args, pace)
        result = measure(args, wl)
        result["metrics"]["setup_s"] = (
            statistics.median(setups) * pace.scale(), "s",
            f"median of {len(setups)} fresh processes, {pace.detail()}; "
            f"this one built inputs "
            f"in {inputs_s:.3f} s")
    run = result["run"]
    share = run.failed / max(run.attempted, 1)
    # Absolute self times are printed and saved but not declared metrics:
    # a layer a workload never enters would read a constant 0 s.
    self_s = result.get("self_s", {})
    for name, (value, unit, detail) in sorted({**result["metrics"], **self_s}.items()):
        print(f"{name}\t{value:.6g}\t{unit}\t{detail}")
    print(f"failed_share\t{share:.6g}\tratio\t{run.failed} of {run.attempted} ops")
    record = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()},
    }
    host = machine()
    print("machine\t" + json.dumps(host, sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    saved = dict(record, workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, failed_share=share,
                 details={k: v[2] for k, v in result["metrics"].items()},
                 self_s={k: {"value": v, "unit": u} for k, (v, u, _) in self_s.items()},
                 spans=result.get("spans"), machine=host,
                 wall_s=time.perf_counter() - T_PROCESS)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(saved, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
