#!/usr/bin/env python3
"""End-to-end benchmark of reflen.

    python3 perfbench/run.py --workload oracle|tuples|library|all \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/selfcheck.py

Run it from the root of a source checkout: reflen is imported from the
checkout's src/ directory and from nowhere else, and the benchmark fails
without a result when that directory is missing.

Each workload is a closed loop: one caller in one thread issues the next
operation when the previous one returns, through reflen's public API only.
Passes repeat until ``--seconds`` have elapsed; the last pass is finished,
so every run holds whole passes with the same mix of operations.

- oracle: ``reflen --porcelain verify K n p --seed s`` and ``census K n p``
  over GL_3(F_2), GA_2(F_3), GL_2(F_5), GA_3(F_2) and GL_2(F_7).
- tuples: ``verify GL 3 2 --tuples 3`` and ``verify GA 2 3 --tuples 2``.
- library: single reflection_length_gl, factor_minimal_gl, is_reduced,
  reflection_length_affine and factor_minimal_affine calls over F_7,
  F_65521 and Q at n = 3, 6 and 10 (see inputs.py).

With ``--trace 0`` the last line of output reports the end-to-end metrics:

- setup_s: median seconds, over fresh processes spread over the run, from
  process start to inputs ready: interpreter start, importing reflen,
  generating the inputs from the seed and parsing them.
- peak_rss_mb: peak resident set of this process (getrusage, children
  excluded).
- work_per_ref_s: work completed per reference second of busy time, over
  the whole run.  Work is group elements through verify or census (oracle),
  reducedness checks of reflection tuples (tuples) or library calls
  (library).  Every library cell gets the same number of
  calls per pass, so the slow Q, n = 10 cells dominate the busy time.
- op_ref_ms: geometric mean, over operation kinds, of each kind's median
  latency in reference milliseconds.  A kind is one CLI invocation on one
  group, or one library function on one (field, n) cell.

Reference time.  On a shared host the speed of one core swings by a
quarter or more within seconds, as other tenants load it, and that swing
would drown the program's own changes.  So while a workload runs, an
interval timer fires every PROBE_INTERVAL_S and times a fixed pure-Python
reference loop (``reference_probe``), also in the middle of a long
operation; a probe also runs at the start and end of every pass.  The
probes' own time is taken out of every operation and span.  Each
operation's wall time is then scaled by PROBE_REF_S over the mean probe
around it (those inside it and the nearest one on each side): a reference
millisecond is what the machine gets done, at that moment, in the
thousandth part of a reference loop that takes 1 ms.  reflen's code never
runs in the probe, so a change to reflen moves the reference times just as
it moves the wall times.  The untraced wall-clock figures and the probe
time are reported with ``--trace 1`` (``wall.*``, ``machine.probe_ms``) and
on the human-readable lines of every run.

Failed operations (exceptions, refused work, wrong answers) are counted in
``failed`` out of ``attempted`` and the run goes on; ``correct`` is false and
the exit code is 1 when an output is wrong.

With ``--trace 1`` the run alternates untraced and traced passes (spans.py)
for ``--seconds`` and reports the per-layer metrics: inclusive seconds
(``.s``), self seconds (``.self_s``) and call counts (``.calls``) at
public-function boundaries, BFS shape from the results of
oracle.bfs_lengths, untraced per-cell library medians (reference ms),
untraced wall-clock throughput and latency, the median probe, and the
tracing overhead.  Spans are written to perfbench/out/.
"""

import argparse
import bisect
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import inputs
import spans
from workloads import LIBRARY_CALLS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is timed in SETUP_REPEATS fresh processes before the measured
# passes and in one more after each untraced pass, so that its median spans
# the whole run: set-up time jitters by a quarter between processes on a
# shared machine, and the machine's speed drifts over the run.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
MAX_MESSAGES = 20
# A reference loop takes about PROBE_REF_S on an idle core of the machine
# the benchmark was written on (a 2-vCPU x86_64 guest, Python 3.11); a probe
# is the median of PROBE_LOOPS loops, and the timer fires every
# PROBE_INTERVAL_S.
PROBE_REF_S = 1e-3
PROBE_LOOPS = 3
PROBE_INTERVAL_S = 0.1

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_ref_s", "1/ref_s", "higher"),
    ("op_ref_ms", "ref_ms", "lower"),
)

# Per-layer metrics read from the span table: "<span name>.<s|self_s|calls>".
SPAN_METRICS = (
    "oracle.bfs_lengths.s", "oracle.bfs_lengths.calls",
    "oracle.enumerate_group.s", "oracle.reflections_of.s",
    "oracle.formula_length.s", "oracle.formula_length.calls",
    "oracle.census.self_s", "oracle.verify_formulas.self_s",
    "linalg.Matrix.mul.s", "linalg.Matrix.mul.calls",
    "reflection.reflection_from_matrix.s", "reflection.reflection_from_matrix.calls",
    "factorization.is_reduced.s", "factorization.is_reduced.calls",
    "linalg.rref.s", "linalg.rref.calls",
    "linalg.kernel_basis.calls", "linalg.solve.calls",
    "linalg.Matrix.calls", "fields.coerce.calls",
    "factorization.reflection_length_gl.s", "factorization.reflection_length_gl.calls",
    "factorization.factor_minimal_gl.s", "factorization.factor_minimal_gl.calls",
    "affine.reflection_length_affine.s", "affine.reflection_length_affine.calls",
    "affine.factor_minimal_affine.s", "affine.factor_minimal_affine.calls",
    "affine.classify.s", "affine.classify.calls",
    "matrixio.parse_matrix.s", "matrixio.parse_matrix.calls",
    "cli.main.self_s",
)
STAT_COLUMN = {"calls": 0, "s": 1, "self_s": 2}


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [(name, "count" if name.endswith(".calls") else "s", "lower")
            for name in SPAN_METRICS]
    spec += [
        ("oracle.bfs.edges", "count", "lower"),
        ("oracle.bfs.edges_per_s", "1/s", "higher"),
        ("oracle.bfs.depth", "count", "lower"),
        ("oracle.bfs.last_level_share", "ratio", "lower"),
    ]
    spec += [("library.%s_ms" % short, "ref_ms", "lower") for *_, short in LIBRARY_CALLS]
    spec += [("%s.%s.%s.n%d.p50_ms" % (module, func, field, n), "ref_ms", "lower")
             for module, func, _, _ in LIBRARY_CALLS
             for field, _ in inputs.FIELDS for n in inputs.DIMS]
    spec += [
        ("wall.work_per_s", "1/s", "higher"),
        ("wall.op_ms", "ms", "lower"),
        ("machine.probe_ms", "ms", "lower"),
    ]
    spec += [
        ("trace.overhead", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
    ]
    return spec


def import_reflen():
    """reflen from this checkout's src/, or exit without a result."""
    if not (SRC / "reflen" / "__init__.py").is_file():
        sys.exit("perfbench: %s/reflen not found; run from a reflen source checkout"
                 % SRC)
    sys.path.insert(0, str(SRC))
    reflen = importlib.import_module("reflen")
    if Path(reflen.__file__).resolve().parent != SRC / "reflen":
        sys.exit("perfbench: imported reflen from %s, not %s" % (reflen.__file__, SRC))
    for layer in ("cli", "matrixio"):
        importlib.import_module("reflen." + layer)
    return reflen


def environment():
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _package_version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "bfs_path": _bfs_path(),
    }


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _package_version(name):
    from importlib import metadata
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


def _bfs_path():
    """Which BFS implementation the oracle runs, where reflen says so."""
    active = getattr(sys.modules.get("reflen.kernels"), "active_backend", None)
    return active() if callable(active) else "unknown"


def _reference_loop():
    """A fixed pure-Python loop of rational, modular and list arithmetic
    that never calls reflen and allocates only short-lived small objects,
    so that its time does not depend on the state of the program's heap;
    about PROBE_REF_S when the core is not shared.  Returns its wall
    seconds."""
    t0 = time.perf_counter()
    x, s = Fraction(1, 3), 0
    for i in range(1, 120):
        x = (x * Fraction(i, i + 1) + 1) / 2
        s = (s * 31 + i) % 65521
    rows = [[(i * j + s) % 7 for j in range(10)] for i in range(10)]
    if x <= 0 or len(rows) != 10:
        raise AssertionError("reference loop computed a wrong value")
    return time.perf_counter() - t0


def reference_probe():
    """Median of PROBE_LOOPS reference loops: the machine's speed at this
    moment, with a single interrupted loop left out.  The garbage collector
    is off meanwhile, so that a collection of the program's heap, which the
    program pays for in its own time, does not land in the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_reference_loop() for _ in range(PROBE_LOOPS))
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Reference probes every PROBE_INTERVAL_S of wall time while running,
    from an interval timer, so that long operations are sampled in their
    middle too.  The time the probes take is kept in ``stolen``; ``clock``
    is the wall clock with it taken out, and every operation and span is
    timed on it."""

    def __init__(self):
        self.times = []  # wall time of each probe, ascending
        self.probes = []  # seconds of each probe
        self.stolen = 0.0
        self.probing = False

    def clock(self):
        return time.perf_counter() - self.stolen

    def probe(self, *_):
        if self.probing:  # the timer fired during a probe on a stalled core
            return
        self.probing = True
        t0 = time.perf_counter()
        self.probes.append(reference_probe())
        self.times.append(t0)
        self.stolen += time.perf_counter() - t0
        self.probing = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, t0, t1):
        """Probe seconds around the wall interval [t0, t1]: the mean of the
        probes inside it and the nearest one on each side.  The timer fires
        at even steps of wall time, so the mean weighs each stretch of the
        interval by its length, as the operation's own time does."""
        lo = max(bisect.bisect_left(self.times, t0) - 1, 0)
        hi = bisect.bisect_right(self.times, t1) + 1
        return statistics.fmean(self.probes[lo:hi])


class Tally:
    """What one measured phase did.  Latencies and busy time are kept both
    as wall seconds and as reference seconds (see the module docstring)."""

    def __init__(self):
        self.latency = {}  # kind -> wall seconds of every successful call
        self.ref_latency = {}  # kind -> reference seconds of the same calls
        self.passes = 0
        self.work = 0
        self.busy = 0.0
        self.ref_busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = []

    def fail(self, message, wrong):
        self.failed += 1
        self.wrong += wrong
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def rate(self):
        """Work per reference second of busy time, over every pass."""
        return self.work / self.ref_busy if self.ref_busy else 0.0

    def wall_rate(self):
        return self.work / self.busy if self.busy else 0.0

    def p50_ms(self, ref=True):
        latency = self.ref_latency if ref else self.latency
        return {kind: statistics.median(v) * 1e3 for kind, v in latency.items()}


def run_pass(workload, tally, sampler, tracer=None):
    """One pass of the workload, with ``sampler`` running.  Only ``run`` is
    timed, without the probes that fall inside it; with a tracer, input
    copies and checks are left out of the trace.  Once the pass is over,
    each operation's time is scaled by the probes around it."""
    quiet = tracer.paused if tracer else contextlib.nullcontext
    clock = sampler.clock
    timed = []  # (kind, or None when failed; seconds; wall start; wall end)
    sampler.probe()
    for op in workload.ops():
        with quiet():
            args = op.prepare()
        if tracer:
            tracer.current_op += 1
        tally.attempted += 1
        w0, t0 = time.perf_counter(), clock()
        try:
            result = op.run(*args)
        except Exception as exc:  # counted as failed; the run goes on
            timed.append((None, clock() - t0, w0, time.perf_counter()))
            tally.fail("%s: %s" % (op.kind, traceback.format_exception_only(exc)[-1]
                                   .strip()), wrong=False)
            continue
        dt, w1 = clock() - t0, time.perf_counter()
        with quiet():
            try:
                problem = op.check(result)
            except Exception as exc:  # a malformed result is a wrong one
                problem = "%s: check raised %r" % (op.kind, exc)
        if problem:
            tally.fail(problem, wrong=True)
            timed.append((None, dt, w0, w1))
        else:
            tally.work += op.work
            timed.append((op.kind, dt, w0, w1))
    sampler.probe()
    for kind, dt, w0, w1 in timed:
        ref_dt = dt * PROBE_REF_S / sampler.speed(w0, w1)
        tally.busy += dt
        tally.ref_busy += ref_dt
        if kind is not None:
            tally.latency.setdefault(kind, []).append(dt)
            tally.ref_latency.setdefault(kind, []).append(ref_dt)
    tally.passes += 1


def measure(workload, seconds, sampler=None, between_passes=None):
    """Whole passes until ``seconds`` of passes have elapsed.
    ``between_passes`` runs after each pass, with the sampler stopped and
    its time left out of ``seconds``."""
    tally, sampler = Tally(), sampler or Sampler()
    deadline = time.perf_counter() + seconds
    while True:
        with sampler.running():
            run_pass(workload, tally, sampler)
        if between_passes:
            t0 = time.perf_counter()
            between_passes()
            deadline += time.perf_counter() - t0
        if time.perf_counter() >= deadline:
            return tally


def measure_traced(reflen, workload, seconds, tracer, sampler):
    """Untraced and traced passes in turn until ``seconds`` have elapsed,
    so that both see the same load from the rest of the machine.  The
    wrappers are installed only for the traced passes, and the traced phase
    starts by parsing the inputs again (operation 0)."""
    untraced, traced = Tally(), Tally()
    tracer.current_op = 0
    deadline = time.perf_counter() + seconds
    with tracer.installed_in(reflen):
        workload.parse()
    with sampler.running():
        while True:
            run_pass(workload, untraced, sampler)
            with tracer.installed_in(reflen):
                run_pass(workload, traced, sampler, tracer)
            if time.perf_counter() >= deadline:
                return untraced, traced


def geomean(values):
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


class SetupTimer:
    """Wall time of fresh processes that only set up; each must build the
    same inputs as this one."""

    def __init__(self, name, seed, small, digest):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload",
                    name, "--seed", str(seed)] + (["--small"] if small else [])
        self.digest = digest
        self.times = []
        self.problems = []

    def time_one(self):
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        self.times.append(time.perf_counter() - t0)
        lines = proc.stdout.split()
        if proc.returncode != 0 or not lines or lines[-1] != self.digest:
            self.problems.append("set-up process: exit %d, inputs %s, expected %s; %s" % (
                proc.returncode, lines[-1] if lines else None, self.digest,
                proc.stderr.strip()[-300:]))


class BfsShape:
    """Level structure of each oracle.bfs_lengths result (traced phase)."""

    def __init__(self):
        self.edges = 0
        self.depth = 0
        self.reached = 0
        self.last_level = 0
        self.unobserved = 0

    def observe(self, args, kwargs, result):
        try:
            table = args[0] if args else kwargs["table"]
            gens = args[1] if len(args) > 1 else kwargs["gens"]
            size = len(table)
            lengths = [result.length(e) for e in range(size) if result.reachable(e)]
            edges = size * len(gens)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.unobserved += 1
            return
        depth = max(lengths)
        self.edges += edges
        self.depth = max(self.depth, depth)
        self.reached += len(lengths)
        self.last_level += lengths.count(depth)


def end_to_end_metrics(tally, setup_s):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {"setup_s": setup_s, "peak_rss_mb": rss_mb, "work_per_ref_s": tally.rate(),
              "op_ref_ms": geomean(tally.p50_ms().values())}
    return {name: (values[name], unit) for name, unit, _ in END_TO_END}


def per_layer_metrics(table, shape, untraced, traced, tracer, sampler):
    values = {}
    for name in SPAN_METRICS:
        span, stat = name.rsplit(".", 1)
        row = table.get(span)
        values[name] = row[STAT_COLUMN[stat]] if row else 0
    bfs_s = values["oracle.bfs_lengths.s"]
    values["oracle.bfs.edges"] = shape.edges
    values["oracle.bfs.edges_per_s"] = shape.edges / bfs_s if bfs_s else 0.0
    values["oracle.bfs.depth"] = shape.depth
    values["oracle.bfs.last_level_share"] = (shape.last_level / shape.reached
                                             if shape.reached else 0.0)
    p50 = untraced.p50_ms()
    for module, func, _, short in LIBRARY_CALLS:
        prefix = "%s.%s." % (module, func)
        values["library.%s_ms" % short] = geomean(
            v for k, v in p50.items() if k.startswith(prefix))
        for field, _ in inputs.FIELDS:
            for n in inputs.DIMS:
                kind = "%s%s.n%d" % (prefix, field, n)
                values[kind + ".p50_ms"] = p50.get(kind, 0.0)
    values["wall.work_per_s"] = untraced.wall_rate()
    values["wall.op_ms"] = geomean(untraced.p50_ms(ref=False).values())
    values["machine.probe_ms"] = statistics.median(sampler.probes) * 1e3
    values["trace.overhead"] = (untraced.rate() / traced.rate()) if traced.rate() else 0.0
    values["trace.coverage"] = tracer.root_seconds() / traced.busy if traced.busy else 0.0
    values["trace.spans"] = len(tracer.start)
    return {name: (values[name], unit) for name, unit, _ in per_layer_spec()}


def build(name, seed, small):
    reflen = import_reflen()
    return reflen, WORKLOADS[name](reflen, seed, small)


def run(args):
    """One workload; returns (result, human-readable lines)."""
    reflen, workload = build(args.workload, args.seed, args.small)
    setup = SetupTimer(args.workload, args.seed, args.small, workload.digest())
    for _ in range(SETUP_REPEATS):
        setup.time_one()
    lines = ["env %s" % json.dumps(environment(), sort_keys=True)]
    sampler = Sampler()
    if not args.trace:
        tallies = [measure(workload, args.seconds, sampler, setup.time_one)]
        metrics = end_to_end_metrics(tallies[0], statistics.median(setup.times))
    else:
        shape = BfsShape()
        tracer = spans.Tracer(clock=sampler.clock)
        tracer.observers["oracle.bfs_lengths"] = shape.observe
        untraced, traced = measure_traced(reflen, workload, args.seconds, tracer, sampler)
        tallies = [untraced, traced]
        table = tracer.table()
        metrics = per_layer_metrics(table, shape, untraced, traced, tracer, sampler)
        lines += trace_report(args, table, tracer, shape, metrics)
    lines.append("probes: n=%d p50_ms=%.4f min_ms=%.4f max_ms=%.4f stolen_s=%.3f" % (
        len(sampler.probes), statistics.median(sampler.probes) * 1e3,
        min(sampler.probes) * 1e3, max(sampler.probes) * 1e3, sampler.stolen))
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for phase, t in zip(("untraced", "traced") if args.trace else ("run",), tallies):
        lines.append("%s: passes=%d attempted=%d failed=%d wrong=%d fail_ratio=%.6g "
                     "busy_s=%.3f ref_busy_s=%.3f wall_work_per_s=%.6g" % (
                         phase, t.passes, t.attempted, t.failed, t.wrong,
                         t.failed / t.attempted, t.busy, t.ref_busy, t.wall_rate()))
        lines += ["  %s" % m for m in t.messages]
        wall = t.p50_ms(ref=False)
        for kind, ms in sorted(t.p50_ms().items()):
            lines.append("  op %-52s n=%-4d p50=%.4f ref_ms %.4f ms" % (
                kind, len(t.latency[kind]), ms, wall[kind]))
    lines.append("setup: n=%d median_s=%.4f min_s=%.4f max_s=%.4f" % (
        len(setup.times), statistics.median(setup.times), min(setup.times),
        max(setup.times)))
    lines += setup.problems
    lines += ["metric %s %r %s" % (name, v, unit) for name, (v, unit) in metrics.items()]
    result = {
        "correct": not setup.problems and not any(t.wrong for t in tallies),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, lines


def trace_report(args, table, tracer, shape, metrics):
    referenced = {name.rsplit(".", 1)[0] for name in SPAN_METRICS}
    absent = sorted((referenced - tracer.installed) | tracer.absent)
    idle = sorted(n for n in referenced & tracer.installed if not table[n][0])
    lines = ["trace: absent %s" % (", ".join(absent) or "none"),
             "trace: never called %s" % (", ".join(idle) or "none")]
    if shape.unobserved:
        lines.append("trace: %d bfs_lengths results could not be read" % shape.unobserved)
    lines.append("trace: %-40s %9s %10s %10s" % ("span", "calls", "s", "self_s"))
    for name, (calls, incl, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        if calls:
            lines.append("trace: %-40s %9d %10.4f %10.4f" % (name, calls, incl, own))
    OUT.mkdir(exist_ok=True)
    path = OUT / ("trace-%s.csv.gz" % args.workload)
    tracer.write(path)
    summary = {"workload": args.workload, "seed": args.seed, "env": environment(),
               "table": table, "metrics": {k: v for k, (v, _) in metrics.items()}}
    (OUT / ("trace-%s.json" % args.workload)).write_text(json.dumps(summary, indent=1))
    lines.append("trace: spans written to %s" % path.relative_to(ROOT))
    return lines


def run_all(args):
    """Every workload in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        out = proc.stdout.strip().splitlines()
        print("\n".join("[%s] %s" % (name, line) for line in out[:-1]), flush=True)
        try:
            result = json.loads(out[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        code = code or proc.returncode or (0 if result["correct"] else 1)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(combined))
    return code or (0 if combined["correct"] else 1)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="self-check sizes: GL_2(F_3), GA_2(F_2), library n = 3")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(build(args.workload, args.seed, args.small)[1].digest())
        return 0
    result, lines = run(args)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
