"""The oag benchmark: one workload per process, closed loop, one caller.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload chain-verify --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``chain-verify``, ``solve-mix`` and ``cli-crosscheck``.  The program is
imported from ``src/`` next to this directory; nothing is installed.

``--trace 0`` measures the end-to-end metrics with the code unwrapped.
``--trace 1`` runs the ops untraced for half the time, then traced for the
other half (see ``tracer.py``), prints the per-layer table, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench_out/``.  ``--quick`` selects tiny inputs for the benchmark's
own tests (``python3 -m pytest perfbench/selftest.py``).

Every op's output is checked outside the timed region; an op that raises
or fails a check counts as failed.  A shared host's speed changes from
second to second, so the timing metrics are normalized: a timer samples a
fixed reference computation that uses no oag code (see ``HostClock``) and
each op's time is divided by the slowness sampled around it.  The raw op
figures are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Solve-mix seed
1009 is held out: tune nothing on it, and use it to confirm a claimed gain.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_SAMPLES = 3  # host clock samples taken right before and after a set-up
REF_PERIOD_S = 0.05  # how often the host clock samples the reference
REF_WINDOW_S = 0.25  # shortest span of samples that judges one op
REF_NOMINAL_S = 0.0007  # reference_unit time that defines slowness 1
ROADMAP_CHAIN_MS = 4900.0  # verify(chain(2,6,3)) at the ROADMAP re-anchor

_SETUP_CHILD = """\
import json, sys, time
sys.path[:0] = {paths!r}
import run, workloads
inputs = json.load(sys.stdin)
clock = run.HostClock()
with clock:
    for _ in range(run.SETUP_SAMPLES):
        clock.sample()
    spent, start = clock.spent, time.perf_counter()
    workloads.WORKLOADS[{name!r}](inputs)
    end = time.perf_counter()
    for _ in range(run.SETUP_SAMPLES):
        clock.sample()
print((end - start - (clock.spent - spent)) / clock.slowness(start, end))
"""


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} cpu={cpu}")


def setup_seconds(name: str, inputs) -> list[float]:
    """Set-up time (import oag, build the program-side inputs) measured in
    fresh interpreters, so that every sample pays for the imports, and
    normalized by the host clock sampled just before and after."""
    code = _SETUP_CHILD.format(paths=[str(BENCH_DIR), str(SRC)], name=name)
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              input=json.dumps(inputs), capture_output=True,
                              text=True, timeout=120)
        samples.append(float(done.stdout))
    return samples


def reference_unit() -> None:
    """Fixed pure-Python work in the style of the library (Fraction
    arithmetic, small tuples, dicts, sorting) that calls no oag code."""
    acc, table = Fraction(0), {}
    for i in range(1, 150):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        key = i % 37
        table[key] = tuple(sorted(table.get(key, ()) + (i,)))[-4:]


class HostClock:
    """How fast the host runs Python while the ops run.

    On a shared virtual machine a vCPU's speed changes from second to
    second: on the 2-vCPU Xeon VM this benchmark was written on, each vCPU
    switched every few seconds between a fast state and one about 1.7x
    slower, and raw op times of one workload spread by 20-30% from run to
    run.  While active, a SIGALRM timer runs ``reference_unit`` every
    REF_PERIOD_S seconds and records how long it took; ``slowness`` is the
    mean of those times near an op, over REF_NOMINAL_S.
    """

    def __init__(self):
        self.times: list[float] = []  # when each sample ended
        self.durations: list[float] = []
        self.spent = 0.0  # total time spent sampling

    def sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        reference_unit()
        end = perf_counter()
        self.times.append(end)
        self.durations.append(end - start)
        self.spent += end - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()  # so that even a very short run has a sample

    def slowness(self, start: float, end: float) -> float:
        """Mean reference time over [start, end], widened to REF_WINDOW_S
        for short ops, relative to nominal."""
        pad = max(0.0, REF_WINDOW_S - (end - start)) / 2
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        return statistics.fmean(self.durations[lo:hi] or self.durations) / REF_NOMINAL_S


class Loop:
    """Closed-loop measurement: the next op starts when the last one ends."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0

    def run(self, seconds: float, clock: HostClock, call=lambda op, fn: fn()):
        """Run ops for ``seconds`` (at least one) with the host clock
        sampling.  Returns (start, end, latency) of each op that completed;
        a latency excludes the time the clock spent sampling during the op."""
        w, timings, first = self.workload, [], self.attempted
        deadline = perf_counter() + seconds
        with clock:
            while self.attempted == first or perf_counter() < deadline:
                i = self.attempted
                self.attempted += 1
                spent, start = clock.spent, perf_counter()
                try:
                    result = call(i, lambda: w.op(i))
                    end = perf_counter()
                    timings.append((start, end, end - start - (clock.spent - spent)))
                    problems = w.check(i, result)
                except Exception as exc:  # counted as a failed op; the loop goes on
                    traceback.print_exc()
                    problems = [repr(exc)]
                if problems:
                    self.failed += 1
                    print(f"op {i}: " + "; ".join(problems[:5]), file=sys.stderr)
        return timings


def normalized(timings, clock: HostClock) -> list[float]:
    """Latencies divided by the host's slowness around each op."""
    return [lat / clock.slowness(start, end) for start, end, lat in timings]


def p99(lat: list[float]) -> float:
    return statistics.quantiles(lat, n=100, method="inclusive")[98] if len(lat) > 1 else lat[0]


def end_to_end(loop: Loop, setup: list[float], lat: list[float]) -> dict:
    w = loop.workload
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p99_ms": (p99(lat) * 1e3, "ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "decided_frac": (w.decided / w.solves if w.solves else 0.0, "frac"),
        "ok_frac": ((loop.attempted - loop.failed) / loop.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, for tests")
    args = ap.parse_args(argv)

    if not (SRC / "oag" / "__init__.py").is_file():
        print(f"error: the oag sources are missing ({SRC / 'oag'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    from tracer import Tracer, per_layer_metrics, print_table
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    print(f"machine: {machine()}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} quick={args.quick}; closed loop, 1 caller, 1 thread")
    inputs = cls.make_inputs(args.seed, args.quick)

    unrestored = []
    if not args.trace:
        setup = setup_seconds(args.workload, inputs)
        loop, clock = Loop(cls(inputs)), HostClock()
        timings = loop.run(args.seconds, clock)
        lat = normalized(timings, clock)
        metrics = end_to_end(loop, setup, lat)
        raw = end_to_end(loop, setup, [t[2] for t in timings])
        print(f"host slowness: mean {statistics.fmean(clock.durations) / REF_NOMINAL_S:.4f} "
              f"over {len(clock.durations)} samples; each op's time is divided by the "
              "slowness sampled around it")
        print("raw (not normalized): " + ", ".join(
            f"{k} {raw[k][0]:.6g}" for k in ("op_p50_ms", "op_p99_ms", "ops_per_s")))
        print(f"samples: {len(lat)} ops; set-up samples: {len(setup)}"
              + ("" if len(lat) >= 1000 else
                 "; fewer than 10 ops lie beyond op_p99_ms, so it is near the maximum"))
        if args.workload == "solve-mix":
            n, digest = loop.workload.verdict_digest()
            print(f"solve-mix: {loop.workload.solves} distinct conjunctions solved; "
                  f"verdict digest of the first {n}: {digest}")
        if args.workload == "chain-verify" and not args.quick:
            p50, raw_p50 = metrics["op_p50_ms"][0], raw["op_p50_ms"][0]
            print(f"chain-verify op_p50_ms {p50:.1f} normalized, {raw_p50:.1f} raw, vs "
                  f"{ROADMAP_CHAIN_MS:.0f} ms raw at the ROADMAP re-anchor "
                  f"(raw ratio {raw_p50 / ROADMAP_CHAIN_MS:.2f})")
    else:
        tracer = Tracer()
        tracer.install()
        try:
            workload = tracer.run("setup", lambda: cls(inputs))
        finally:
            tracer.restore()
        loop, clock = Loop(workload), HostClock()
        untraced = normalized(loop.run(args.seconds / 2, clock), clock)
        tracer.install()
        try:
            traced = normalized(loop.run(args.seconds / 2, clock, tracer.run), clock)
        finally:
            tracer.restore()
        unrestored = tracer.unrestored()
        if unrestored:
            print(f"error: still wrapped after the traced run: {unrestored}", file=sys.stderr)
        ops, setup = tracer.totals(setup=False), tracer.totals(setup=True)
        metrics = per_layer_metrics(ops, setup)
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
        print_table(ops, setup)
        print(f"tracing overhead: op p50 {statistics.median(traced) * 1e3:.3f} ms traced "
              f"({len(traced)} ops) vs {statistics.median(untraced) * 1e3:.3f} ms "
              f"untraced ({len(untraced)} ops), normalized; peak RSS "
              f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": loop.failed == 0 and not unrestored,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
