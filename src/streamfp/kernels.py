"""Batched GF(2^k) kernels over uint64 arrays.

These are the hot loops: evaluating a fingerprint polynomial at every
field point (sketch building, exact false-positive counts) and folding
long segment streams.  Elements are uint64 bit patterns, so the kernels
cover extension degrees 1..64 (the word tier); wider fields stay on the
big-int tier in :mod:`streamfp.gf2poly`.  Both tiers, and both backends
here, must agree bit for bit; the differential tests enforce that.

Two interchangeable backends:

* ``numba``: the same loops JIT-compiled with ``@njit`` (default when
  numba imports cleanly);
* ``numpy``: vectorized over the points axis, pure ufunc arithmetic; the
  fold is sequential in its accumulator, so it has no points axis and
  runs the stream's split-table loop, :func:`streamfp.field.horner_fold`.

``STREAMFP_BACKEND`` (``"numba"`` or ``"numpy"``) pins the module-level
functions to one backend.  ``backend_impls()`` exposes every available
backend regardless of the pin, which is what the benchmark compares.

The multiply is k steps of shift-and-reduce: per step the low bit of one
operand gates an XOR of the other into the accumulator, then that other
operand is multiplied by u, folding the overflow bit into the low terms
of the modulus (``m_low`` = modulus minus its leading term).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .field import horner_fold, split_tables

__all__ = [
    "WORD_DEGREE_CAP",
    "BACKEND",
    "NUMBA_AVAILABLE",
    "KernelImpl",
    "mulmod",
    "eval_points",
    "fold_segments",
    "backend_impls",
]

WORD_DEGREE_CAP = 64

_U64_ALL = 0xFFFF_FFFF_FFFF_FFFF


def _check_k(k: int) -> None:
    if not 1 <= k <= WORD_DEGREE_CAP:
        raise ValueError(f"word kernels cover k in 1..{WORD_DEGREE_CAP}, got {k}")


def _mask64(k: int) -> int:
    return _U64_ALL >> (64 - k)


# ---------------------------------------------------------------- numpy

def _np_mulmod(x: np.ndarray, y: np.ndarray, m_low: int, k: int) -> np.ndarray:
    x, y = np.broadcast_arrays(np.asarray(x, np.uint64), np.asarray(y, np.uint64))
    x = x.copy()
    y = y.copy()
    one = np.uint64(1)
    top = np.uint64(1 << (k - 1))
    mask = np.uint64(_mask64(k))
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


def _np_eval_points(points: np.ndarray, coeffs: np.ndarray, m_low: int, k: int) -> np.ndarray:
    points = np.asarray(points, np.uint64)
    v = np.ones(points.shape, np.uint64)
    for c in np.asarray(coeffs, np.uint64):
        v = _np_mulmod(v, points, m_low, k)
        v ^= c
    return v


def _np_fold_segments(segments: np.ndarray, a: int, m_low: int, k: int) -> int:
    tables = split_tables(a, m_low | (1 << k), k)
    return horner_fold(1, np.asarray(segments, np.uint64).tolist(), tables)


# ---------------------------------------------------------------- numba

try:
    from numba import njit, uint64  # type: ignore

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    NUMBA_AVAILABLE = False

if NUMBA_AVAILABLE:

    @njit(cache=True)
    def _nb_mulmod1(x, y, m_low, k, mask):
        res = uint64(0)
        top = uint64(1) << uint64(k - 1)
        for _ in range(k):
            if y & uint64(1):
                res ^= x
            y >>= uint64(1)
            carry = x & top
            x = (x << uint64(1)) & mask
            if carry:
                x ^= m_low
        return res

    @njit(cache=True)
    def _nb_mulmod_arrays(x, y, m_low, k, mask):
        out = np.empty(x.size, np.uint64)
        for i in range(x.size):
            out[i] = _nb_mulmod1(x[i], y[i], m_low, k, mask)
        return out

    @njit(cache=True)
    def _nb_eval_points(points, coeffs, m_low, k, mask):
        out = np.empty(points.size, np.uint64)
        for i in range(points.size):
            a = points[i]
            v = uint64(1)
            for j in range(coeffs.size):
                v = _nb_mulmod1(v, a, m_low, k, mask) ^ coeffs[j]
            out[i] = v
        return out

    @njit(cache=True)
    def _nb_fold_segments(segments, a, m_low, k, mask):
        v = uint64(1)
        for i in range(segments.size):
            v = _nb_mulmod1(v, a, m_low, k, mask) ^ segments[i]
        return v

    def _numba_mulmod(x, y, m_low: int, k: int) -> np.ndarray:
        x, y = np.broadcast_arrays(np.asarray(x, np.uint64), np.asarray(y, np.uint64))
        shape = x.shape
        out = _nb_mulmod_arrays(
            np.ascontiguousarray(x).ravel(),
            np.ascontiguousarray(y).ravel(),
            np.uint64(m_low),
            k,
            np.uint64(_mask64(k)),
        )
        return out.reshape(shape)

    def _numba_eval_points(points, coeffs, m_low: int, k: int) -> np.ndarray:
        return _nb_eval_points(
            np.ascontiguousarray(points, np.uint64),
            np.ascontiguousarray(coeffs, np.uint64),
            np.uint64(m_low),
            k,
            np.uint64(_mask64(k)),
        )

    def _numba_fold_segments(segments, a: int, m_low: int, k: int) -> int:
        return int(
            _nb_fold_segments(
                np.ascontiguousarray(segments, np.uint64),
                np.uint64(a),
                np.uint64(m_low),
                k,
                np.uint64(_mask64(k)),
            )
        )


# ------------------------------------------------------------- dispatch

@dataclass(frozen=True)
class KernelImpl:
    name: str
    mulmod: Callable
    eval_points: Callable
    fold_segments: Callable


def _checked(impl: KernelImpl) -> KernelImpl:
    def mulmod(x, y, m_low, k):
        _check_k(k)
        return impl.mulmod(x, y, m_low, k)

    def eval_points(points, coeffs, m_low, k):
        _check_k(k)
        return impl.eval_points(points, coeffs, m_low, k)

    def fold_segments(segments, a, m_low, k):
        _check_k(k)
        return impl.fold_segments(segments, a, m_low, k)

    return KernelImpl(impl.name, mulmod, eval_points, fold_segments)


_NUMPY_IMPL = _checked(KernelImpl("numpy", _np_mulmod, _np_eval_points, _np_fold_segments))
_NUMBA_IMPL = (
    _checked(KernelImpl("numba", _numba_mulmod, _numba_eval_points, _numba_fold_segments))
    if NUMBA_AVAILABLE
    else None
)


def backend_impls() -> dict[str, KernelImpl]:
    """Every available backend, regardless of the STREAMFP_BACKEND pin."""
    impls = {"numpy": _NUMPY_IMPL}
    if _NUMBA_IMPL is not None:
        impls["numba"] = _NUMBA_IMPL
    return impls


_requested = os.environ.get("STREAMFP_BACKEND", "").strip().lower()
if _requested not in ("", "numba", "numpy"):
    raise ValueError(
        f"STREAMFP_BACKEND must be 'numba' or 'numpy', got {_requested!r}"
    )
if _requested == "numba" and not NUMBA_AVAILABLE:
    raise ImportError("STREAMFP_BACKEND=numba but numba is not importable")

if _requested:
    BACKEND = _requested
else:
    BACKEND = "numba" if NUMBA_AVAILABLE else "numpy"

_active = _NUMBA_IMPL if BACKEND == "numba" else _NUMPY_IMPL

mulmod = _active.mulmod
eval_points = _active.eval_points
fold_segments = _active.fold_segments
