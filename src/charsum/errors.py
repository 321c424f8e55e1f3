"""Shared exception types and size policy.

Python integers are arbitrary precision, so the caps below are policy, not
correctness limits: they keep dense ring vectors and direct summation at
desk-scale memory and runtime.
"""

MAX_M = 30          # closed-form evaluation refuses larger moduli
# time policy: the oracle builds and folds a 2^(m-2)-slot count vector of
# 4-byte slots, each holding at most 2^(m-1) terms, so m <= 31 keeps them
# in range; `eval --method both --k 13` takes 0.93-1.03 s at m = 26 and peaks
# at 157 MB RSS, with or without --c1 1 (2-vCPU VM)
MAX_ORACLE_M = 26
# time policy for check and grid: the oracle terms a sweep may sum in total,
# 1.2-2 minutes at the 17-27 ns per term the oracle takes at m = 14..22
# (2-vCPU VM); each record's fixed cost is charged on top, as below
MAX_SWEEP_TERMS = 1 << 32
# what a sweep charges each record for its fixed cost (closed form, compare,
# harness), in oracle terms: a record at m = 3 took 13 us in `run_check` with
# jobs 1, and the oracle 16-23 ns per term at m = 16..22 (2-vCPU VM), so one
# record costs 570-820 terms, rounded up to 2^10
RECORD_COST_TERMS = 1 << 10


class WidthCapError(Exception):
    """A requested modulus exponent or sweep size exceeds its cap."""
