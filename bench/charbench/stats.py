"""Order statistics and result digests shared by the runner and its tests."""

from __future__ import annotations

import hashlib
import json

TAIL_BEYOND = 10


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that still has `beyond` samples above it.

    Returns (value, percentile, sample count).  With n sorted samples that is
    the (n - beyond)-th smallest, at percentile 100 * (n - beyond) / n.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def result_key(case: str, ring_exponent: int, terms, x0) -> list:
    """Canonical form of the exact part of a closed-form result."""
    return [case, int(ring_exponent), [[int(e), int(c)] for e, c in terms], x0]


def closed_form_key(cf) -> list:
    return result_key(cf.case, cf.ring_exponent, cf.terms, cf.x0)


def json_value_terms(value: dict) -> list[tuple[int, int]]:
    """Sparse terms of a ring value printed by the CLI, dense or sparse."""
    if "terms" in value:
        return [(int(e), int(c)) for e, c in value["terms"]]
    return [(e, c) for e, c in enumerate(value["coeffs"]) if c]


def digest(obj, size: int = 4) -> str:
    """Short hex digest of a JSON-encodable object."""
    data = json.dumps(obj, separators=(",", ":")).encode()
    return hashlib.blake2b(data, digest_size=size).hexdigest()
