"""Shared exception types and size policy.

Python integers are arbitrary precision, so the caps below are policy, not
correctness limits: they keep dense ring vectors and direct summation at
desk-scale memory and runtime.
"""

MAX_M = 30          # closed-form evaluation refuses larger moduli
# time policy: the oracle builds and folds a 2^(m-2)-slot count vector of
# 4-byte slots, each holding at most 2^(m-1) terms, so m <= 31 keeps them
# in range; `eval --method both --k 13` takes 0.15-0.18 s at m = 26 and peaks
# at 80 MB RSS, with --c1 1 or --k 2 as well (2-vCPU VM)
MAX_ORACLE_M = 26
# time policy for check and grid: the oracle terms a sweep may sum in total,
# priced by record_terms; with rows as long as the 2-adic shape allows, the
# oracle takes 0.4-1.1 ns per term at m = 16..24 on sampled records (best of
# 3, 2-vCPU VM), so there 2^32 terms are seconds, and at small m each
# record's fixed cost, charged as below, dominates
MAX_SWEEP_TERMS = 1 << 32
# what a sweep charges each record for its fixed cost (closed form, compare,
# harness), in oracle terms: when this was set, a record at m = 3 took 13 us
# in `run_check` with jobs 1 and the oracle 16-23 ns per term at m = 16..22,
# so 570-820 terms, rounded up to 2^10.  In `run_check` (jobs 1, phase runs,
# sampled records, best of 3, 2-vCPU VM) a record now takes 7.3-7.4 us at
# m = 3, 43 us at m = 16, 2.7 ms at m = 24 and 35-36 ms at m = 26, so per us
# of work the price charges a record about 6x more at m = 16 and at m = 26
# than at m = 3, 12-22x more at m = 18..24, and 0.6-0.7x as much at m = 6..10
RECORD_COST_TERMS = 1 << 10


def record_terms(m: int) -> int:
    """A sweep record's price in oracle terms: its 2^(m-1) terms and its fixed cost."""
    return (1 << (m - 1)) + RECORD_COST_TERMS


class WidthCapError(Exception):
    """A requested modulus exponent or sweep size exceeds its cap."""
