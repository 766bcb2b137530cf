"""conepack benchmark: a closed loop of exact solves over seeded workloads.

One client, one process, no threads: the loop parses an instance-file
text, solves it through the entry point ``conepack solve`` (or ``cover`` /
``hull``) uses, and only then sends the next one.  Every answer is checked
exactly outside the timed region.

    python3 conebench/run.py --workload binpack --seed 1 --seconds 28 --trace 0
    python3 conebench/run.py --workload binpack --seed 1 --seconds 28 --trace 1
    python3 conebench/run.py --workload all --seed 1    # every workload, both
    python3 conebench/run.py --workload cover --smoke   # tiny, for the tests

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass (spans go to ``conebench/out/``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Per workload: the catalogue size, the nominal time of one round over it
# on a 2-core x86 machine with the Fraction backend, and the prefix of the
# catalogue the traced pass solves once.  The number of rounds follows from
# --seconds and the nominal round time alone, so it never depends on how
# fast a run happens to go.
SIZES = {
    "binpack": {"catalogue": 120, "round_s": 27.0, "traced": 18},
    "stock": {"catalogue": 60, "round_s": 25.0, "traced": 8},
    "cover": {"catalogue": 40, "round_s": 27.0, "traced": 6},
    # solved by hand only: too few solves fit in a run to be steady
    "sched-np": {"catalogue": 8, "round_s": 9.0, "traced": 4},
}
SMOKE_SIZE = {"catalogue": 2, "round_s": 1.0, "traced": 2}
SETUP_REPEATS = 5
MIN_ROUNDS = 1
TAIL_BEYOND = 10

# The speed of a shared cloud machine wanders: a fixed pure-Python loop
# runs up to 1.7x slower for stretches of tens of milliseconds to minutes,
# on both vCPUs, in wall and CPU time alike.  So the loop times a fixed
# reference kernel (exact Gauss-Jordan elimination on Fractions and an
# integer loop, standard library only, no conepack code) right before and
# right after every request, and every time is reported at the reference
# speed: measured time x REF_NOMINAL_S / the median reference sample taken
# near the request (within REF_WINDOW_S, or within the request's own
# length if that is longer).  A machine that runs one reference sample in
# REF_NOMINAL_S seconds shows the reported times as they are.
REF_REPEATS = 3
REF_LOOP = 7000
REF_NOMINAL_S = 0.0035
REF_WINDOW_S = 1.0
_REF_RNG = random.Random(5)
REF_MATRIX = [[Fraction(_REF_RNG.randint(-9, 9), _REF_RNG.randint(1, 9))
               for _ in range(7)] for _ in range(6)]


class SetupError(Exception):
    """The program under test cannot be loaded from this checkout."""


def load_modules():
    """Import conepack from this checkout's ``src`` (fresh every call)."""
    for name in [n for n in sys.modules
                 if n in ("conepack", "workloads", "tracer")
                 or n.startswith("conepack.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        workloads = importlib.import_module("workloads")
    except ImportError as exc:
        raise SetupError(f"cannot import conepack from {SRC}: {exc}") from exc
    origin = Path(sys.modules["conepack"].__file__).resolve()
    if SRC not in origin.parents:
        raise SetupError(f"conepack was imported from {origin}, not {SRC}")
    return workloads


def reference_kernel():
    """Gauss-Jordan elimination of REF_MATRIX in exact arithmetic, then an
    integer loop: the two kinds of interpreter work conepack does most."""
    m = [row[:] for row in REF_MATRIX]
    for c in range(len(m)):
        p = next(r for r in range(c, len(m)) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(len(m)):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return m, acc


def reference_sample():
    """(time taken, seconds of REF_REPEATS runs of the reference kernel)."""
    start = time.perf_counter()
    for _ in range(REF_REPEATS):
        reference_kernel()
    end = time.perf_counter()
    return (start + end) / 2, end - start


def at_reference_speed(seconds, refs, start, end):
    """``seconds`` measured over [start, end], scaled to the reference
    speed by the reference samples taken near that interval (the callers
    always take one right before and one right after it)."""
    reach = max(REF_WINDOW_S, end - start)
    near = [ref for at, ref in refs if start - reach <= at <= end + reach]
    return seconds * REF_NOMINAL_S / statistics.median(near)


def set_up(workload, seed, size):
    """Import, generate the inputs and warm up; the median of several
    repetitions, each at the reference speed, is the reported set-up time."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_sample()
        start = time.perf_counter()
        wl = load_modules()
        texts = wl.generate(workload, seed, size)
        for text in wl.WARMUP[workload]:
            wl.solve_text(text)
        end = time.perf_counter()
        refs = [before, reference_sample()]
        raw.append(end - start)
        times.append(at_reference_speed(end - start, refs, start, end))
    return wl, texts, statistics.median(times), statistics.median(raw)


class Outcomes:
    """Failure accounting and the exact check of every answer."""

    def __init__(self, wl):
        self.wl = wl
        from conepack import errors
        self.errors = (errors.InternalError, errors.ResourceError,
                       errors.InfeasibleError, errors.InputError,
                       wl.WrongAnswer)
        self.attempted = 0
        self.failed = 0
        self.reference = {}   # instance index -> canonical answer
        self.notes = []

    def solve(self, text):
        """Run one request; returns the answer or None when it failed."""
        self.attempted += 1
        try:
            return self.wl.solve_text(text)
        except self.errors as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
            return None

    def check(self, idx, answer):
        """Exact check of the first answer per instance; later answers of
        the same instance must equal it."""
        if answer is None:
            return
        key = self.wl.canonical(answer)
        if idx in self.reference:
            if key != self.reference[idx]:
                self.fail(f"instance {idx}: answer changed between solves")
            return
        try:
            self.wl.check_answer(*answer)
        except self.errors as exc:
            self.fail(f"instance {idx}: {type(exc).__name__}: {exc}")
            return
        self.reference[idx] = key

    def fail(self, note):
        self.failed += 1
        self.notes.append(note)


def closed_loop(texts, outcomes, rounds):
    """Round-robin over the catalogue, a reference sample right before and
    right after every request; the requests as (instance index, start,
    end), and the reference samples."""
    spans = []
    refs = []
    for _ in range(rounds):
        for idx, text in enumerate(texts):
            # garbage of the previous request is not this request's cost
            gc.collect()
            refs.append(reference_sample())
            start = time.perf_counter()
            answer = outcomes.solve(text)
            spans.append((idx, start, time.perf_counter()))
            refs.append(reference_sample())
            outcomes.check(idx, answer)
    return spans, refs


def latencies(count, spans, refs):
    """Per-instance lists of latencies at the reference speed, and the
    same as measured."""
    lat = [[] for _ in range(count)]
    raw = [[] for _ in range(count)]
    for idx, start, end in spans:
        lat[idx].append(at_reference_speed(end - start, refs, start, end))
        raw[idx].append(end - start)
    return lat, raw


def quantile(values, p):
    """Harrell-Davis estimate of the ``p``-quantile: the mean of the order
    statistics, each weighted by the chance that the ``p``-quantile of a
    sample of the same size falls at its rank.  It moves less from run to
    run than a single order statistic."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                        - log_beta)

    # the Beta(a, b) mass of each rank's interval, by Simpson's rule
    steps = 32
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if j % 2 else 2) * density(lo + j * h)
                    for j in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h))
                       * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), 100.0, n
    p = (n - TAIL_BEYOND) / n
    return quantile(values, p), 100.0 * p, n


def end_to_end(wl, texts, rounds, setup):
    setup_s, setup_raw_s = setup
    outcomes = Outcomes(wl)
    spans, refs = closed_loop(texts, outcomes, rounds)
    lat, raw = latencies(len(texts), spans, refs)
    # An instance's latency is the least of its timings: other load on a
    # shared machine only ever adds to a timing.  Each request of the
    # instance counts with that latency.
    best = [min(ts) for ts in lat]
    best_raw = [min(ts) for ts in raw]
    all_samples = [t for ts in raw for t in ts]
    tail_s, tail_pct, tail_n = tail([b for b, ts in zip(best, lat)
                                     for _ in ts])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "throughput_per_s": (len(best) / sum(best), "instances/s"),
        "latency_p50_s": (quantile(best, 0.5), "s"),
        "latency_tail_s": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    notes = [f"catalogue {len(texts)} instances x {len(lat[0])} rounds, "
             f"{sum(all_samples):.3f} s timed",
             f"latency_tail_s is p{tail_pct:.1f} of {tail_n} requests",
             f"times at the reference speed ({REF_NOMINAL_S} s per "
             f"reference sample); this run's median sample took "
             f"{statistics.median(r for _a, r in refs):.6f} s",
             f"as measured: throughput_per_s "
             f"{len(best_raw) / sum(best_raw):.6g}, latency_p50_s "
             f"{quantile(best_raw, 0.5):.6g}, setup_s {setup_raw_s:.6g}",
             f"fail_rate {outcomes.failed / outcomes.attempted:.4f} ratio "
             f"({outcomes.failed} failed / {outcomes.attempted} attempted)"]
    return outcomes, metrics, notes


def traced(wl, texts, seed, workload):
    import tracer as tracing
    outcomes = Outcomes(wl)

    def one_pass():
        answers = []
        start = time.perf_counter()
        for idx, text in enumerate(texts):
            tr.instance = idx
            answers.append(outcomes.solve(text))
        return answers, time.perf_counter() - start

    tr = tracing.Tracer()
    plain, plain_s = one_pass()
    tr.install()
    try:
        answers, traced_s = one_pass()
    finally:
        tr.uninstall()
    tr.instance = None
    for idx, answer in enumerate(answers):
        with tr.span("check", "oracle"):
            outcomes.check(idx, answer)
    for idx, answer in enumerate(plain):
        outcomes.check(idx, answer)
    metrics = tr.layer_metrics()
    plain_rate = len(texts) / plain_s
    traced_rate = len(texts) / traced_s
    metrics["trace.overhead"] = (plain_rate / traced_rate, "ratio")
    metrics["trace.untraced_per_s"] = (plain_rate, "instances/s")
    metrics["trace.traced_per_s"] = (traced_rate, "instances/s")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-{seed}.jsonl"
    tr.dump(path)
    notes = [f"traced pass: {len(texts)} instances, {len(tr.spans)} spans "
             f"written to {path.relative_to(HERE.parent)}",
             f"fail_rate {outcomes.failed / outcomes.attempted:.4f} ratio "
             f"({outcomes.failed} failed / {outcomes.attempted} attempted)"]
    return outcomes, metrics, notes


def environment(wl, args):
    backend = wl.backend_name()
    line = (f"# env backend={backend} python={platform.python_version()} "
            f"nproc={os.cpu_count()} seed={args.seed}")
    if backend != "gmpy2.mpq":
        line += (" (fallback rational backend: timings are not comparable "
                 "with gmpy2.mpq runs)")
    return line


def run_one(args) -> int:
    size = SMOKE_SIZE if args.smoke else SIZES[args.workload]
    count = size["traced"] if args.trace else size["catalogue"]
    try:
        wl, texts, *setup = set_up(args.workload, args.seed, count)
    except SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(f"# conebench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(environment(wl, args))
    if args.trace:
        outcomes, metrics, notes = traced(wl, texts, args.seed, args.workload)
    else:
        rounds = max(MIN_ROUNDS, round(args.seconds / size["round_s"]))
        outcomes, metrics, notes = end_to_end(wl, texts, rounds, setup)
    for note in notes + outcomes.notes[:5]:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process so
    that peak memory is measured per workload."""
    status = 0
    for workload in ("binpack", "stock", "cover"):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            done = subprocess.run(cmd, check=False)
            status = status or done.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*SIZES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="two instances per workload, for the tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
