"""One job of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED JOB SPAWN_TIME MODE SPAN_FILE

Imports the library from the checkout's `src`, generates the job's inputs,
runs the timed calls, checks the outputs and prints one JSON record on
stdout.  SPAWN_TIME is the parent's wall clock just before it started this
process, so set-up time covers interpreter start, import and input
generation.  MODE is `plain`, `trace` (span wrappers installed before the
timed region, spans written to SPAN_FILE) or `setup` (stop once set up).

Speed normalization: the machines this runs on are shared, and other load
slows the same code by up to half, for fractions of a second to minutes at
a time.  So the job also times fixed reference loops (probes.py) in between
the timed calls: at most every PROBE_EVERY_S, and PROBE_GROUP times after
any call longer than that.  Each kind of call has the loop most like its
own code (workloads.PROBE_KIND).  A call's time is scaled by the loop's
reference time over the median of its timings within the call's own
duration (at least PROBE_EVERY_S) before the call's start and after its
end, so times read as they would on a machine where the loop takes its
reference time.  Set-up time is scaled by the main call kind's loop, timed
right after set-up.  The unscaled times are kept in the record as well.
The loops run between calls, not from a thread during them, because a
thread's timings include its thread switches and track the calls worse.
"""

from __future__ import annotations

import bisect
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import probes
from tracing import Tracer, no_span

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_S = 0.1
PROBE_GROUP = 5
clock = time.perf_counter


class Bench:
    """Times the workload's library calls and probes machine speed between them."""

    def __init__(self, span, kind_of: dict[str, str]):
        """`kind_of` maps each call tag to its probe kind, main tag first."""
        self.span = span
        self.kind_of = kind_of
        self.kinds = kinds = tuple(dict.fromkeys(kind_of.values()))
        self.stamps: list[float] = []  # when each round of probes was taken
        self.probes: dict[str, list[float]] = {k: [] for k in kinds}
        self.calls: list[tuple[str, int, float, float]] = []  # tag, items, start, s
        self._probe(PROBE_GROUP)
        self.setup_scale = (probes.reference(kinds[0])
                            / statistics.median(self.probes[kinds[0]]))

    def _probe(self, times: int = 1) -> None:
        for _ in range(times):
            for kind in self.kinds:
                self.probes[kind].append(probes.time_loop(kind))
            self.stamps.append(clock())

    def call(self, tag: str, items: int, fn, *args, **kwargs):
        if clock() - self.stamps[-1] >= PROBE_EVERY_S:
            self._probe()
        with self.span("bench." + tag):
            start = clock()
            result = fn(*args, **kwargs)
            seconds = clock() - start
        self.calls.append((tag, items, start, seconds))
        if seconds >= PROBE_EVERY_S:
            self._probe(PROBE_GROUP)
        return result

    def _scaled(self, tag: str, start: float, seconds: float) -> float:
        kind = self.kind_of[tag]
        reach = max(seconds, PROBE_EVERY_S)
        lo = bisect.bisect_left(self.stamps, start - reach)
        hi = bisect.bisect_right(self.stamps, start + seconds + reach)
        return (seconds * probes.reference(kind)
                / statistics.median(self.probes[kind][lo:hi]))

    def summary(self, main_tag: str, unit_tag: str) -> dict:
        self._probe(PROBE_GROUP)
        scaled = [(tag, items, s, self._scaled(tag, start, s))
                  for tag, items, start, s in self.calls]
        main = [c for c in scaled if c[0] == main_tag]
        unit = [c for c in scaled if c[0] == unit_tag]
        return {
            "main_items": sum(c[1] for c in main),
            "main_raw_s": sum(c[2] for c in main),
            "main_s": sum(c[3] for c in main),
            "unit_raw_ms": [1e3 * c[2] / c[1] for c in unit],
            "unit_ms": [1e3 * c[3] / c[1] for c in unit],
            "calls_s": sum(c[3] for c in scaled),
            "speed": {k: probes.reference(k) / statistics.median(v)
                      for k, v in self.probes.items()},
        }


def main(argv: list[str]) -> int:
    workload, seed, job, spawned, mode, span_file = argv
    seed, job = int(seed), int(job)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports fnclass

    make_inputs, measure, check, main_tag, unit_tag, bases = \
        workloads.WORKLOADS[workload]
    inputs = make_inputs(seed, job)
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install(workloads.trace_targets())
    setup_s = time.time() - float(spawned)

    bench = Bench(tracer.span if tracer else no_span,
                  {t: workloads.PROBE_KIND[t] for t in (main_tag, unit_tag)})
    setup = {"setup_s": setup_s * bench.setup_scale,
             "setup_raw_s": setup_s}
    if mode == "setup":
        print(json.dumps(setup))
        return 0
    start = clock()
    out = measure(inputs, bench)
    wall_s = clock() - start
    summary = bench.summary(main_tag, unit_tag)
    traced = tracer.snapshot() if tracer else None

    attempted, failed = check(inputs, out)
    record = {
        **setup,
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **summary,
        **(bases(inputs, out) if bases else {}),
    }
    if tracer:
        record["trace"] = traced
        tracer.write_spans(span_file)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
