"""Exact evaluation of the complete character sum over x mod 2^m of
chi1(x) * chi2(A x^k + B): a poly(m) closed form for every parameter
combination, plus an O(2^m) direct-summation oracle in the cyclotomic
integer ring Z[zeta_{2^r}] for bit-exact verification."""
