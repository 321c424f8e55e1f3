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

Prints the number of instances and the digest.
"""

import hashlib
import pathlib
import sys

KS = (1, 2, 3, 4, 6, 8, 12, 16)


def main() -> int:
    default_src = pathlib.Path(__file__).resolve().parent.parent / "src"
    src = sys.argv[1] if len(sys.argv) > 1 else str(default_src)
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 60000
    sys.path.insert(0, src)
    from charsum.characters import Character
    from charsum.evaluator import SumInstance, closed_form
    from charsum.sweep import exhaustive_records, sample_records

    records = [rec for m in (3, 4, 5) for rec in exhaustive_records(m, KS)]
    records += sample_records(20261018, 3, 30, count)
    digest = hashlib.sha256()
    for m, a, b, k, c1, s1, c2, s2 in records:
        cf = closed_form(SumInstance(m, a, b, k), Character(m, s1, c1), Character(m, s2, c2))
        digest.update(repr(((m, a, b, k, c1, s1, c2, s2), cf)).encode())
    print(len(records), digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
