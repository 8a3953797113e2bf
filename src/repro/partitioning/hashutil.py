"""Deterministic integer hashing shared by all partitioners.

Python's builtin ``hash`` is randomized per process for str and not stable
across numpy dtypes, so stateless partitioners (DBH, Grid) and the 2PS-L
hash fallback use an explicit splitmix64 finalizer — deterministic, well
mixed, and vectorizable over numpy arrays.
"""

from __future__ import annotations

import numpy as np

#: SplitMix64 constants as Python ints (the scalar path) ...
_INT_MASK = (1 << 64) - 1
_INT_C1 = 0xBF58476D1CE4E5B9
_INT_C2 = 0x94D049BB133111EB
_INT_GOLDEN = 0x9E3779B97F4A7C15
#: ... and as uint64 scalars (the vectorized path).
_MASK64 = np.uint64(_INT_MASK)
_C1 = np.uint64(_INT_C1)
_C2 = np.uint64(_INT_C2)
_GOLDEN = np.uint64(_INT_GOLDEN)


def _splitmix64_int(value: int, seed: int) -> int:
    """The vectorized finalizer below on Python ints: every uint64 wrap
    is an explicit ``& _INT_MASK``."""
    x = (value + _INT_GOLDEN + seed) & _INT_MASK
    x = ((x ^ (x >> 30)) * _INT_C1) & _INT_MASK
    x = ((x ^ (x >> 27)) * _INT_C2) & _INT_MASK
    return x ^ (x >> 31)


def splitmix64(values, seed: int = 0):
    """SplitMix64 finalizer over an int scalar or numpy array.

    Returns uint64 with the same shape as the input.  The ``seed`` is mixed
    in additively so different partitioners can decorrelate their hashes.
    Python ints in the range numpy converts (int64 or uint64) take a
    pure-int path — the 2PS-L fallback hashes one vertex at a time —
    that returns the identical ``np.uint64``; anything else, including
    out-of-range input, goes through the vectorized path and its checks.
    """
    if (
        type(values) is int
        and type(seed) is int
        and -(1 << 63) <= values <= _INT_MASK
        and 0 <= seed <= _INT_MASK
    ):
        return np.uint64(_splitmix64_int(values, seed))
    old = np.seterr(over="ignore")
    try:
        x = (np.asarray(values).astype(np.uint64) + _GOLDEN + np.uint64(seed)) & _MASK64
        x = (x ^ (x >> np.uint64(30))) * _C1 & _MASK64
        x = (x ^ (x >> np.uint64(27))) * _C2 & _MASK64
        x = x ^ (x >> np.uint64(31))
    finally:
        np.seterr(**old)
    return x


def hash_to_partition(values, k: int, seed: int = 0):
    """Map vertex ids to partitions in ``[0, k)`` (scalar or vectorized)."""
    hashed = splitmix64(values, seed)
    result = (hashed % np.uint64(k)).astype(np.int64)
    if np.isscalar(values) or np.ndim(values) == 0:
        return int(result)
    return result
