#!/usr/bin/env python3
"""SHA-256 digest of the direct-summation oracle's exact outputs on a fixed,
seeded set of instances at m = 3..17: brute_force everywhere, plus both
half_sum signs at m <= 12.  Running it against two checkouts shows whether an
oracle change kept every output identical.

Usage: python scripts/oracle_digest.py [SRC_DIR] [COUNT]
  SRC_DIR  the `src` directory whose charsum package to load (default: this
           checkout's)
  COUNT    number of instances (default 7400)
"""

import hashlib
import pathlib
import random
import sys


def main() -> int:
    default_src = pathlib.Path(__file__).resolve().parent.parent / "src"
    src = sys.argv[1] if len(sys.argv) > 1 else str(default_src)
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 7400
    sys.path.insert(0, src)
    from charsum.characters import Character
    from charsum.evaluator import SumInstance
    from charsum.oracle import brute_force, half_sum

    rng = random.Random(20261018)
    digest = hashlib.sha256()
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
            digest.update(repr((m, a, b, k, c1, s1, c2, s2, v.r, v.coeffs)).encode())
    print(count, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
