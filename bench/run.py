#!/usr/bin/env python3
"""charsum benchmark: time one workload, check its outputs, print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload closed-mix --seed 1 --seconds 10 --trace 0

Workloads and metrics are described in bench/spec.json.  With --trace 0 the
run prints every end-to-end metric; with --trace 1 it runs the same calls
untraced and then traced, and prints every per-layer metric and the tracing
overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
from array import array
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 7


@dataclass
class Measurement:
    times: list[array]  # per item, the ns of each successful call
    attempted: int
    failed: int
    busy_ns: int
    rounds: int


def measure(runner, seconds: float | None = None, rounds: int | None = None) -> Measurement:
    """Call every item in order, round after round, one call at a time.

    Stops after `rounds` rounds, or at the first round boundary once
    `seconds` have passed, so every run has the block's traffic shape.
    """
    times = [array("q") for _ in range(len(runner))]
    attempted = failed = busy = done = 0
    start = perf_counter_ns()
    while True:
        for i in range(len(runner)):
            attempted += 1
            t0 = perf_counter_ns()
            try:
                result = runner.invoke(i)
            except Exception:
                busy += perf_counter_ns() - t0
                failed += 1
                runner.fail(i, traceback.format_exc(limit=3))
                continue
            dt = perf_counter_ns() - t0
            busy += dt
            if runner.check(i, result, dt):
                times[i].append(dt)
            else:
                failed += 1
        done += 1
        if rounds is not None and done >= rounds:
            break
        if rounds is None and perf_counter_ns() - start >= seconds * 1e9:
            break
    return Measurement(times, attempted, failed, busy, done)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time in fresh interpreters: imports, input generation, reference check."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), "setup", workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def end_to_end(
    runner, meas: Measurement, setups: list[float], peak_rss_mb: float
) -> tuple[dict, list[str]]:
    item_ms = [statistics.median(t) / 1e6 for t in meas.times if t]
    completed = sum(len(t) for t in meas.times)
    tail_ms, tail_pct, n = stats.tail(item_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # one round at each item's median call time: bursts of interference
        # on a shared machine move this far less than calls over busy time
        "items_per_s": (1e3 * n / sum(item_ms), "1/s"),
        "latency_p50_ms": (statistics.median(item_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "output_bytes": (runner.output_bytes(), "bytes"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh set-ups",
        "items_per_s": f"{n} items at their median call time; "
                       f"{completed} calls in {meas.busy_ns / 1e9:.2f} s busy "
                       f"= {completed / (meas.busy_ns / 1e9):.6g}/s",
        "latency_p50_ms": f"median of {n} item medians",
        "latency_tail_ms": f"p{tail_pct:.1f} of {n} item medians, 10 beyond",
    }
    lines = [
        f"# metric {name} = {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else "")
        for name, (value, unit) in metrics.items()
    ]
    return metrics, lines


def criterion8_lines(runner, meas: Measurement) -> list[str]:
    """The criterion-8 instance, timed like `charsum bench` (best lap) and by median."""
    lines = []
    for i, group in enumerate(getattr(runner, "groups", [])):
        if group == "criterion8" and meas.times[i]:
            t = meas.times[i]
            lines.append(
                f"# criterion8 m={runner.raw[i][0][0]} calls={len(t)} "
                f"best_us={min(t) / 1e3:.2f} median_us={statistics.median(t) / 1e3:.2f}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    runner = workloads.build(args.workload, args.seed)
    try:
        meas = measure(runner, seconds=args.seconds)
        lines = [
            f"# workload {args.workload} seed {args.seed} block {runner.block}: "
            f"{len(runner)} items x {meas.rounds} rounds"
        ]
        attempted, failed = meas.attempted, meas.failed
        if args.trace:
            tracer = runner.trace_begin()
            try:
                traced = measure(runner, rounds=meas.rounds)
            finally:
                extra = runner.trace_end()
            attempted += traced.attempted
            failed += traced.failed
            extra["overhead_share"] = 1 - meas.busy_ns / traced.busy_ns
            metrics = tracing.layer_metrics(tracer, extra)
            lines += [f"# layer {name} = {v:.6g} {u}" for name, (v, u) in metrics.items()]
            if tracer.missing:
                lines.append(f"# not traced (absent): {', '.join(tracer.missing)}")
        else:
            peak = runner.peak_rss_mb()  # before the set-up probes add children
            setups = setup_seconds(args.workload, args.seed)
            metrics, metric_lines = end_to_end(runner, meas, setups, peak)
            lines += metric_lines + criterion8_lines(runner, meas)
    finally:
        runner.cleanup()

    lines.append("# traffic " + json.dumps(runner.traffic(), separators=(",", ":")))
    lines.append(f"# attempted {attempted} failed {failed} failed_share {failed / attempted:.6g}")
    if not runner.inputs_ok:
        lines.append("# inputs differ from reference.json: the generator drifted")
    if runner.first_failure:
        lines.append("# first failure: " + runner.first_failure.replace("\n", " | "))
    print("\n".join(lines))
    result = {
        "correct": runner.inputs_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    src = ROOT / "src"
    if not (src / "charsum" / "__init__.py").is_file():
        sys.exit(f"error: no charsum sources under {src}; run from a checkout of the repository")
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import charsum

    if Path(charsum.__file__).resolve().parent != (src / "charsum").resolve():
        sys.exit(f"error: imported charsum from {charsum.__file__}, not from {src}")
    from charbench import stats, tracing, workloads

    sys.exit(main())
