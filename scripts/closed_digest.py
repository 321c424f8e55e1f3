#!/usr/bin/env python3
"""SHA-256 digest of every field of the closed form's result on a fixed set
of instances: the exhaustive grid at m = 3..5 with k in (1, 2, 3, 4, 6, 8,
12, 16), then COUNT sample_records at m = 3..30 from one fixed seed.  Running
it against two checkouts shows whether an evaluator change kept every output
identical.

Usage: python scripts/closed_digest.py [SRC_DIR] [COUNT]
  SRC_DIR  the `src` directory whose charsum package to load (default: this
           checkout's)
  COUNT    number of sampled instances (default 60000)

Prints the number of instances and the digest.  The current closed form prints
    1178208 1fed586c04cd5ea03338a81e44f85fe3351ea9e10ed2434f1766e35ca395d877
and `digest(20000)` (the grid at m = 3 only, then 20000 samples; pinned by
tests/test_evaluator.py) returns
    24096 289da0ef51ee702afd39ae507ffa9ab91018ed4f44272aa2af3834c9c0cad8f3
"""

import hashlib
import pathlib
import sys

KS = (1, 2, 3, 4, 6, 8, 12, 16)


def digest(count: int, grid_m: tuple[int, ...] = (3,)) -> tuple[int, str]:
    """(number of instances, hex SHA-256) over the closed form's results on
    the exhaustive grid at each m in grid_m, then on `count` sampled
    instances, from the charsum package already importable."""
    from charsum.characters import Character
    from charsum.evaluator import SumInstance, closed_form
    from charsum.sweep import exhaustive_records, sample_records

    records = [rec for m in grid_m for rec in exhaustive_records(m, KS)]
    records += sample_records(20261018, 3, 30, count)
    sha = hashlib.sha256()
    for m, a, b, k, c1, s1, c2, s2 in records:
        cf = closed_form(SumInstance(m, a, b, k), Character(m, s1, c1), Character(m, s2, c2))
        sha.update(repr(((m, a, b, k, c1, s1, c2, s2), cf)).encode())
    return len(records), sha.hexdigest()


def main() -> int:
    default_src = pathlib.Path(__file__).resolve().parent.parent / "src"
    src = sys.argv[1] if len(sys.argv) > 1 else str(default_src)
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 60000
    sys.path.insert(0, src)
    print(*digest(count, (3, 4, 5)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
