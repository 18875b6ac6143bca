#!/usr/bin/env python3
"""Quick self-check of the benchmark (under a minute):

    python3 perfbench/selfcheck.py

1. Every workload at self-check sizes (GL_2(F_3), GA_2(F_2), library at
   n = 3), untraced and traced, exits 0 with a correct result whose metrics
   are exactly the end-to-end or per-layer metrics that BENCHMARK.json lists.
2. A library input whose expected length is deliberately wrong is reported
   as a wrong, failed operation, and an operation that raises is counted as
   failed while the run goes on.
3. The reference probes also run in the middle of a long operation, and
   their time is left out of the operation's.
4. In a directory holding only BENCHMARK.json and perfbench/, without
   reflen's sources, the benchmark exits non-zero and prints no result.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run as bench
from workloads import Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170
SPIN_S = 0.5


class Checks:
    def __init__(self):
        self.failures = 0

    def expect(self, ok, label, detail=""):
        print("%s %s%s" % ("PASS" if ok else "FAIL", label,
                           "" if ok or not detail else ": %s" % detail), flush=True)
        self.failures += not ok


def run_benchmark(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def last_json(text):
    try:
        return json.loads(text.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def check_metric_names(checks):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in sorted(bench.WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(ROOT, "--workload", workload, "--small", "--seed", "3",
                                 "--seconds", "0.5", "--trace", str(trace))
            result = last_json(proc.stdout)
            label = "%s --trace %d" % (workload, trace)
            ok = (proc.returncode == 0 and result is not None and result["correct"]
                  and result["failed"] == 0)
            checks.expect(ok, label + " runs correct", proc.stderr[-500:])
            if not ok:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            checks.expect(got == want, label + " emits every %s metric" % key,
                          "missing %s, extra %s" % (sorted(set(want) - set(got)),
                                                    sorted(set(got) - set(want))))
            if not trace:
                zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
                checks.expect(not zero, label + " end-to-end metrics are positive", zero)


class _Raising:
    """Two operations per pass: one raises KeyError, one succeeds."""

    def ops(self):
        def missing():
            raise KeyError("product not in the element table")
        return [Op("raises", 1, tuple, missing, lambda r: None),
                Op("works", 1, tuple, lambda: 1, lambda r: None)]


def check_failure_counting(checks):
    _, workload = bench.build("library", 3, small=True)
    _, data = workload.parsed[0]
    g, k, rows = data["gl"][0]
    data["gl"][0] = (g, k + 1, rows)
    tally = bench.measure(workload, 0)
    # reflection_length_gl and factor_minimal_gl both see the wrong length.
    checks.expect(tally.wrong == 2 and tally.failed == 2,
                  "a wrong expected length is reported as a failure",
                  "wrong=%d failed=%d %s" % (tally.wrong, tally.failed, tally.messages))
    tally = bench.measure(_Raising(), 0)
    checks.expect((tally.attempted, tally.failed, tally.wrong, list(tally.latency))
                  == (2, 1, 0, ["works"]),
                  "an exception counts as a failed operation and the run goes on",
                  tally.messages)


def check_sampler(checks):
    window = []

    def spin():
        window.append(time.perf_counter())
        while time.perf_counter() < window[0] + SPIN_S:
            pass
        window.append(time.perf_counter())

    class Spin:
        def ops(self):
            return [Op("spin", 1, tuple, spin, lambda r: None)]

    sampler = bench.Sampler()
    tally = bench.measure(Spin(), 0, sampler)
    inside = [t for t in sampler.times if window[0] < t < window[1]]
    stolen = sum(p for t, p in zip(sampler.times, sampler.probes)
                 if window[0] < t < window[1])
    checks.expect(len(inside) >= SPIN_S / bench.PROBE_INTERVAL_S - 2,
                  "probes run in the middle of a long operation", len(inside))
    checks.expect(tally.busy < SPIN_S - stolen * 0.9,
                  "probe time is left out of the operation's time",
                  "busy %.4f s, probes inside %.4f s" % (tally.busy, stolen))


def check_bare_directory(checks):
    bare = HERE / "out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run_benchmark(bare, "--workload", "library", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
        checks.expect(proc.returncode != 0 and last_json(proc.stdout) is None,
                      "without reflen's sources: non-zero exit and no result",
                      "exit %d, stdout %r" % (proc.returncode, proc.stdout[-200:]))
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    checks = Checks()
    check_metric_names(checks)
    check_failure_counting(checks)
    check_sampler(checks)
    check_bare_directory(checks)
    print("selfcheck: %s" % ("ok" if not checks.failures else
                             "%d check(s) failed" % checks.failures))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
