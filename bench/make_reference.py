#!/usr/bin/env python3
"""Regenerate bench/reference.json: the digest of every block's inputs and of
every item's exact closed-form result.

Usage, from the root of a checkout:  python3 bench/make_reference.py

Run it only when the benchmark's inputs are redefined; the file it writes is
the correctness gate for later commits.  Items at m <= ORACLE_MAX_M are also
checked against the direct-summation oracle before anything is written.
"""

import json
import multiprocessing
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

ORACLE_MAX_M = 18
JOBS = 2


def block_reference(task: tuple[str, int]) -> tuple[str, int, str, str | None, int]:
    """(workload, block, inputs digest, packed output digests, oracle checks)."""
    from charsum.oracle import brute_force

    from charbench import stats, workloads

    name, block = task
    items = workloads.GENERATORS[name](block)
    inputs = workloads.inputs_digest(items)
    if name == "verify-sweep":
        return name, block, inputs, None, 0
    recs = [rec for _, rec in items] if name == "cli-eval" else [rec for rec, _ in items]
    packed = []
    checked = 0
    for rec in recs:
        args = workloads._objects(rec)
        cf = workloads.ev.closed_form(*args)
        if rec[0] <= ORACLE_MAX_M:
            if cf.value() != brute_force(*args):
                raise AssertionError(f"{name} block {block}: closed form != oracle on {rec}")
            checked += 1
        packed.append(stats.digest(stats.closed_form_key(cf)))
    return name, block, inputs, "".join(packed), checked


def main() -> int:
    from charbench import workloads

    blocks = workloads.SPEC["blocks"]
    tasks = [(name, b) for name in workloads.WORKLOADS for b in range(blocks)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(JOBS) as pool:
        results = pool.map(block_reference, tasks, chunksize=1)
    doc = {"blocks": blocks, "workloads": {}}
    checked = 0
    for name, block, inputs, outputs, n in results:
        entry = doc["workloads"].setdefault(name, {"inputs": [None] * blocks})
        entry["inputs"][block] = inputs
        if outputs is not None:
            entry.setdefault("outputs", [None] * blocks)[block] = outputs
        checked += n
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH.name}: {len(tasks)} blocks, "
          f"{checked} items checked against the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
