"""Tracing overhead and exact-count audit for the fptrace benchmark.

    python3 perfbench/audit.py --seed 1

For every workload of BENCHMARK.json, at its ``run_seconds``: two untraced
and two traced runs with the same seed, all doing the traced run's fixed
amount of work, so that they time the same number of operations.  Prints
the tracing overhead, the traced minus the untraced mean of each end-to-end
figure both report: a traced run times no reference slices, so it has the
wall-time figures ``setup_wall_s`` and ``op_ms_p50`` but not ``setup_s`` and
``op_p50_ref``.  Checks that the counted per-layer metrics below repeat
exactly between the two traced runs, and exits 1 if one does not.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = (
    "codec.row.calls",
    "decoders.candidates_scored",
    "games.problems.payoff_value_grad.calls",
    "games.capacity.line_search.calls",
    "games.exponents.slsqp.nfev",
)


def run(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--fixed-work", "1",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} failed")
    mode = "traced" if trace else "untraced"
    summary = ROOT / ".perfbench-spans" / f"{workload}-seed{seed}-{mode}.json"
    return json.loads(summary.read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    mismatches = 0
    for wl in (w["name"] for w in spec["workloads"]):
        # untraced and traced runs alternate, so that a drift of the host's
        # speed during the audit falls on both sides alike
        plain, traced = [], []
        for trace in (0, 1, 1, 0):
            (traced if trace else plain).append(run(wl, args.seed, seconds, trace))
        print(f"# {wl} seed={args.seed} seconds={seconds}: tracing overhead (traced - untraced)")
        for name in traced[0]["end_to_end"]:
            off = statistics.fmean(p["end_to_end"][name] for p in plain)
            on = statistics.fmean(t["end_to_end"][name] for t in traced)
            print(
                f"{name:<14} untraced {off:>12.6g}  traced {on:>12.6g}"
                f"  diff {on - off:>+12.6g} ({(on - off) / off:+.1%})"
            )
        for name in EXACT_COUNTS:
            a, b = (t["per_layer"][name] for t in traced)
            same = a == b
            mismatches += not same
            print(f"count {name:<40} {a:>12} {b:>12} {'same' if same else 'DIFFERENT'}")
    sys.exit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
