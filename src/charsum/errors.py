"""Shared exception types and size policy.

Python integers are arbitrary precision, so the caps below are policy, not
correctness limits: they keep dense ring vectors and direct summation at
desk-scale memory and runtime.
"""

MAX_M = 30          # closed-form evaluation refuses larger moduli
# time policy: the oracle enumerates up to 2^(m-1) term exponents (all of
# them when every row is one full period), 9-11 s at m = 26 in that worst
# case (2-vCPU VM)
MAX_ORACLE_M = 26
# time policy for check and grid: the oracle terms a sweep may sum in total,
# a few minutes at 40-100 ns per term
MAX_SWEEP_TERMS = 1 << 32


class WidthCapError(Exception):
    """A requested modulus exponent or sweep size exceeds its cap."""
