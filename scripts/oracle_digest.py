#!/usr/bin/env python3
"""SHA-256 digest of the direct-summation oracle's exact outputs on a fixed,
seeded set of instances at m = 3..17: brute_force everywhere, plus both
half_sum signs at m <= 12.  Running it against two checkouts shows whether an
oracle change kept every output identical.

Usage: python scripts/oracle_digest.py [SRC_DIR] [COUNT]
  SRC_DIR  the `src` directory whose charsum package to load (default: this
           checkout's)
  COUNT    number of instances (default 7400)

Prints the number of instances and the digest.  The current oracle prints
    7400 bde5646a501beb1ccdeea779cfe07edce1ad08f1820cc62620bf2be10ef23e94
and, with COUNT 2000 (pinned by tests/test_oracle.py through `digest`),
    2000 e99e0fad28a3b6bd8e4933669c3bbd03cbf86cd5eaa70075f193dc980aeaa514
"""

import hashlib
import pathlib
import random
import sys


def digest(count: int) -> str:
    """Hex SHA-256 over the oracle's outputs on the first `count` instances,
    from the charsum package already importable."""
    from charsum.characters import Character
    from charsum.evaluator import SumInstance
    from charsum.oracle import brute_force, half_sum

    rng = random.Random(20261018)
    sha = hashlib.sha256()
    for i in range(count):
        m = 3 + i % 15 if i % 4 else rng.randint(3, 9)
        mod = 1 << m
        cmax = mod >> 2
        pick = rng.random()
        if pick < 0.6:
            a = rng.randrange(mod)
        elif pick < 0.7:
            a = 0
        else:  # a deep 2-adic valuation
            a = (1 << rng.randint(1, m - 1)) * rng.randrange(1, 8, 2) % mod
        b = rng.randrange(mod)
        k = rng.randint(1, 24)
        c1 = cmax if rng.random() < 0.15 else rng.randint(1, cmax)
        c2 = cmax if rng.random() < 0.05 else rng.randint(1, cmax)
        s1, s2 = rng.choice((1, -1)), rng.choice((1, -1))
        inst = SumInstance(m, a, b, k)
        chi1, chi2 = Character(m, s1, c1), Character(m, s2, c2)
        values = [brute_force(inst, chi1, chi2)]
        if m <= 12:
            values += [half_sum(inst, chi1, chi2, 1), half_sum(inst, chi1, chi2, -1)]
        for v in values:
            sha.update(repr((m, a, b, k, c1, s1, c2, s2, v.r, v.coeffs)).encode())
    return sha.hexdigest()


def main() -> int:
    default_src = pathlib.Path(__file__).resolve().parent.parent / "src"
    src = sys.argv[1] if len(sys.argv) > 1 else str(default_src)
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 7400
    sys.path.insert(0, src)
    print(count, digest(count))
    return 0


if __name__ == "__main__":
    sys.exit(main())
