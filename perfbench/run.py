"""fptrace benchmark runner.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else.  Prints a readable report, then as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, measured for ``--seconds``; with ``--trace 1`` they are its
per-layer metrics, from spans around a fixed amount of work, and the spans
are written to ``.perfbench-spans/``.  A run of fixed work, traced or with
``--fixed-work 1``, also writes its end-to-end figures there.
"""

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spans import SETUP_OP, Tracer

ROOT = Path(__file__).resolve().parent.parent
# set-up runs before the operations and again after them, each time at least
# SETUP_MIN times and for at least SETUP_SECONDS; the host's speed drifts over
# tens of seconds, so sampling both ends of the run steadies the median
SETUP_MIN, SETUP_SECONDS = 3, 0.5
# wall time between reference slices while the workload runs: a slice of
# 2-3 ms every 20 ms samples the host's speed all through each operation
REF_PERIOD = 0.02
# a slice's mean time on the machine of README.md, which turns set-up time
# measured in slices back into seconds
REF_SLICE_S = 0.0027
REF_ROWS = np.random.default_rng(0).integers(0, 2, size=(4, 256))
MODULES = {
    "codec": "fptrace.codec",
    "collusion": "fptrace.collusion",
    "decoders": "fptrace.decoders",
    "rng": "fptrace.rng",
    "simlab": "fptrace.simlab",
    "games": "fptrace.games",
    "capacity": "fptrace.games.capacity",
    "exponents": "fptrace.games.exponents",
    "problems": "fptrace.games.problems",
}


def load_library(root):
    """The fptrace modules from ``root/src``; exits if they are not there."""
    package = root / "src" / "fptrace"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no fptrace sources in {package}")
    sys.path.insert(0, str(package.parent))
    lib = SimpleNamespace(
        **{key: importlib.import_module(name) for key, name in MODULES.items()}
    )
    if Path(lib.codec.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: fptrace was imported from outside {package}")
    return lib


def reference_slice():
    """A fixed slice of work in the library's mix, 2-3 ms on the machine of
    README.md: seeded generators and permutations, count tables and entropies
    of short symbol rows in numpy, then a pure-Python dict loop.  It never
    calls fptrace."""
    total = 0.0
    for k in range(20):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7, spawn_key=(k,))))
        total += float(gen.permutation(REF_ROWS.shape[1])[0])
        flat = np.ravel_multi_index(tuple(REF_ROWS), (2, 2, 2, 2))
        counts = np.bincount(flat, minlength=16).reshape(2, 2, 2, 2)
        for axes in ((0,), (1, 2), (3,)):
            p = counts.sum(axis=axes).ravel() / REF_ROWS.shape[1]
            p = p[p > 0]
            total -= float(p @ np.log2(p))
    seen = {}
    for i in range(5_000):
        seen[i & 511] = seen.get(i & 511, 0) + i
    return total


class Reference:
    """The yardstick for the host's speed: reference slices run from a timer
    signal every REF_PERIOD of wall time, between the bytecodes of whatever
    runs, operations included.  The runner takes the slices that ran inside
    an operation out of its duration, and sets the operation against them."""

    def __init__(self):
        reference_slice()  # warm-up, not timed
        self.times = []
        self.total = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a slice stalled past the period: do not nest
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_slice()
        self.times.append(time.perf_counter() - t0)
        self.total += self.times[-1]
        self._busy = False

    def mark(self):
        return self.total, len(self.times)

    def since(self, mark):
        """(seconds, count) of the slices run since ``mark``."""
        return self.total - mark[0], len(self.times) - mark[1]

    @contextmanager
    def running(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD, REF_PERIOD)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_phase(phase, seconds, count, tracer, ref):
    """Closed loop over one phase; returns (durations, slices, failed ops).
    With a reference running, ``slices`` holds (seconds, count) of the slices
    inside each operation, and their time is taken out of its duration."""
    times = []
    slices = []
    failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif time.perf_counter() - start >= seconds:
            break
        if phase.prepare is not None:
            if tracer is not None:
                tracer.op = SETUP_OP  # untimed input generation is not the op
            phase.prepare(i)
        if tracer is not None:
            tracer.op = next(tracer.op_ids)
        mark = ref.mark() if ref is not None else None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                ok = phase.op(i)
            else:
                with tracer.span(f"op.{phase.kind}"):
                    ok = phase.op(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        dt = time.perf_counter() - t0
        if ref is not None:
            slices.append(ref.since(mark))
            dt -= slices[-1][0]
        times.append(dt)
        failed += not ok
        i += 1
    return times, slices, failed


def setup_times(setup, seconds, ref):
    """Repeated set-ups, at least SETUP_MIN times and for ``seconds``: their
    durations, less any reference slices inside them, and (seconds, count)
    of all slices run meanwhile."""
    times = []
    start = ref.mark() if ref is not None else None
    while len(times) < SETUP_MIN or sum(times) < seconds:
        mark = ref.mark() if ref is not None else None
        t0 = time.perf_counter()
        setup()
        dt = time.perf_counter() - t0
        times.append(dt - ref.since(mark)[0] if ref is not None else dt)
    return times, ref.since(start) if ref is not None else (0.0, 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fixed-work",
        type=int,
        choices=(0, 1),
        default=0,
        help="untraced, do the traced run's fixed work (audit.py's overhead baseline)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")

    # one worker: numerical libraries stay on one thread too
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lib = load_library(ROOT)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    # a traced run does a fixed amount of work, set-ups included, so that its
    # counts repeat exactly for one seed
    fixed = tracer is not None or args.fixed_work
    setup_seconds = 0.0 if tracer is not None else SETUP_SECONDS

    times = defaultdict(list)
    slices = defaultdict(list)
    # no reference slices in a traced run: they would land inside its spans
    ref = None if tracer is not None else Reference()
    failed = attempted = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        wl = WORKLOADS[args.workload](lib, args.seed, Path(tmp))
        if tracer is not None:
            tracer.install(lib)
        try:
            with ref.running() if ref is not None else nullcontext():
                setups, window = setup_times(wl.setup, setup_seconds, ref)
                for phase in wl.phases():
                    if fixed:
                        count = phase.traced(args.seconds)
                    else:
                        count = phase.fixed(args.seconds) if phase.fixed else None
                    got, inside, bad = run_phase(
                        phase, phase.share * args.seconds, count, tracer, ref
                    )
                    times[phase.kind] += got
                    slices[phase.kind] += inside
                    attempted += len(got)
                    failed += bad
                if tracer is not None:
                    tracer.op = SETUP_OP
                more, window_end = setup_times(wl.setup, setup_seconds, ref)
                setups += more
        finally:
            if tracer is not None:
                tracer.restore()
        checks = wl.checks()
    attempted += len(checks)
    failed += sum(not ok for _, ok in checks)

    ops = wl.op_samples(times)
    end_to_end = {
        "setup_wall_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_p50": 1e3 * statistics.median(ops),
    }
    if ref is not None:
        # the median set-up in slices timed around the set-ups, then in seconds
        # at the slice's time on the machine of README.md
        around_s, around_n = (a + b for a, b in zip(window, window_end))
        end_to_end["setup_s"] = statistics.median(setups) * around_n / around_s * REF_SLICE_S
        # each operation against the mean of the slices that ran inside it,
        # grouped into operations as its durations are
        slice_s = wl.op_samples({k: [s for s, _ in v] for k, v in slices.items()})
        slice_n = wl.op_samples({k: [n for _, n in v] for k, v in slices.items()})
        end_to_end["op_p50_ref"] = statistics.median(
            t * n / s for t, s, n in zip(ops, slice_s, slice_n) if n
        )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(setup_wall_s="s", op_ms_p50="ms")

    mode = "traced" if tracer is not None else "untraced"
    if fixed:
        mode += ", fixed work"
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} ({mode})")
    for name, value in end_to_end.items():
        print(f"{name:<24} {value:>14.6g} {units[name]}")
    print(f"{'fail_rate':<24} {failed / attempted:>14.6g} failed/attempted  ({failed} of {attempted})")
    for name, value, unit, note in wl.report(times):
        print(f"{name:<24} {value:>14.6g} {unit}  {note}")
    if ref is not None:
        ms = 1e3 * statistics.fmean(ref.times)
        print(f"{'reference_slice_ms':<24} {ms:>14.6g} ms  mean, n={len(ref.times)}")
    for name, ok in checks:
        print(f"check: {name}: {'ok' if ok else 'FAILED'}")

    if tracer is None:
        wanted, values = spec["end_to_end"], end_to_end
    else:
        values = tracer.layer_metrics(wl.stats)
        wanted = spec["per_layer"]
        print(f"# per-layer metrics from {len(tracer.spans)} spans")
        for m in wanted:
            print(f"{m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    stem = ROOT / ".perfbench-spans" / f"{args.workload}-seed{args.seed}"
    if tracer is not None:
        tracer.write(stem.with_suffix(".tsv.gz"))
    if fixed:
        # the end-to-end figures of fixed work, for the overhead report of audit.py
        summary = {"end_to_end": end_to_end, "per_layer": values if tracer else {}}
        stem.parent.mkdir(exist_ok=True)
        path = stem.parent / f"{stem.name}-{'traced' if tracer else 'untraced'}.json"
        path.write_text(json.dumps(summary, indent=1) + "\n")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
