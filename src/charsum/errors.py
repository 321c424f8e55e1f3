"""Shared exception types and size policy.

Python integers are arbitrary precision, so the caps below are policy, not
correctness limits: they keep dense ring vectors and direct summation at
desk-scale memory and runtime.
"""

MAX_M = 30          # closed-form evaluation refuses larger moduli
# time policy: the oracle builds and folds a 2^(m-2)-slot count vector;
# `eval --method both --k 13` takes 0.8-1.1 s at m = 26, with or without
# --c1 1 (2-vCPU VM)
MAX_ORACLE_M = 26
# time policy for check and grid: the oracle terms a sweep may sum in total,
# 1.2-2 minutes at the 17-27 ns per term the oracle takes at m = 14..22
# (2-vCPU VM), more per term at small m, where each call's fixed cost shows
MAX_SWEEP_TERMS = 1 << 32


class WidthCapError(Exception):
    """A requested modulus exponent or sweep size exceeds its cap."""
