"""Batched GF(2^k) kernels over uint64 arrays, in numpy.

These are the hot loops: evaluating a fingerprint polynomial at every
field point (sketch building, exact false-positive counts) and folding
long segment streams.  Elements are uint64 bit patterns, so the kernels
cover extension degrees 1..64 (the word tier); wider fields stay on the
big-int tier in :mod:`streamfp.gf2poly`.  Both tiers must agree bit for
bit; the differential tests enforce that.

``mulmod`` and ``eval_points`` are vectorized over the points axis with
pure ufunc arithmetic.  The fold is sequential in its accumulator, so it
has no points axis and runs the stream's split-table loop,
:func:`streamfp.field.horner_fold`.

The multiply is k steps of shift-and-reduce: per step the low bit of one
operand gates an XOR of the other into the accumulator, then that other
operand is multiplied by u, folding the overflow bit into the low terms
of the modulus (``m_low`` = modulus minus its leading term).
"""

from __future__ import annotations

import numpy as np

from .field import horner_fold, split_tables

__all__ = [
    "WORD_DEGREE_CAP",
    "mulmod",
    "eval_points",
    "fold_segments",
]

WORD_DEGREE_CAP = 64

# Kept for the benchmark's environment record, which reports them with
# every result: there is one backend and no JIT tier.
BACKEND = "numpy"
NUMBA_AVAILABLE = False

_U64_ALL = 0xFFFF_FFFF_FFFF_FFFF


def _check_k(k: int) -> None:
    if not 1 <= k <= WORD_DEGREE_CAP:
        raise ValueError(f"word kernels cover k in 1..{WORD_DEGREE_CAP}, got {k}")


def _mulmod(x: np.ndarray, y: np.ndarray, m_low: int, k: int) -> np.ndarray:
    x, y = np.broadcast_arrays(np.asarray(x, np.uint64), np.asarray(y, np.uint64))
    x = x.copy()
    y = y.copy()
    one = np.uint64(1)
    top = np.uint64(1 << (k - 1))
    mask = np.uint64(_U64_ALL >> (64 - k))
    low = np.uint64(m_low)
    zero = np.uint64(0)
    res = np.zeros(x.shape, np.uint64)
    for _ in range(k):
        res ^= np.where((y & one) != 0, x, zero)
        y >>= one
        carry = (x & top) != 0
        x = (x << one) & mask
        x ^= np.where(carry, low, zero)
    return res


def mulmod(x, y, m_low: int, k: int) -> np.ndarray:
    """Elementwise x·y in GF(2^k); x and y broadcast against each other."""
    _check_k(k)
    return _mulmod(x, y, m_low, k)


def eval_points(points, coeffs, m_low: int, k: int) -> np.ndarray:
    """Horner value 1·a^r + c_0·a^{r-1} + … + c_{r-1} at every point a."""
    _check_k(k)
    points = np.asarray(points, np.uint64)
    v = np.ones(points.shape, np.uint64)
    for c in np.asarray(coeffs, np.uint64):
        v = _mulmod(v, points, m_low, k)
        v ^= c
    return v


def fold_segments(segments, a: int, m_low: int, k: int) -> int:
    """Fold v ← v·a + s over the segments, starting from v = 1."""
    _check_k(k)
    tables = split_tables(a, m_low | (1 << k), k)
    return horner_fold(1, np.asarray(segments, np.uint64).tolist(), tables)
