"""Throughput benchmark for the streaming fold.

Folds a synthetic segment stream (uniform k-bit words, ``mib`` MiB of
them) once through :func:`streamfp.kernels.fold_segments` for each
degree and reports segments/sec and field-ops/sec (two field operations
per segment).  A leading slice of the stream is folded again with the
big-int tier (``FieldCtx.mul``/``add``); the two must agree bit for bit,
and the report records that cross-check as ``matches_bigint``.
"""

from __future__ import annotations

import time

import numpy as np

from ._version import __version__
from . import kernels
from .field import make_field
from .seeds import derive_seed

__all__ = ["run_bench", "DEFAULT_KS"]

DEFAULT_KS = (8, 16, 32, 64)

# Segments the big-int cross-check folds: a leading slice, so the check
# adds little to a run that times a MiB or more of segments.
_BIGINT_CHECK_SEGMENTS = 4096


def _random_words(seed: int, k: int, count: int) -> np.ndarray:
    gen = np.random.Generator(np.random.PCG64(seed))
    halves = gen.integers(0, 1 << 32, size=2 * count, dtype=np.uint64)
    words = (halves[::2] << np.uint64(32)) | halves[1::2]
    return words >> np.uint64(64 - k)


def _bigint_fold(ctx, segments, a: int) -> int:
    v = 1
    for s in segments:
        v = ctx.add(ctx.mul(v, a), s)
    return v


def run_bench(ks=DEFAULT_KS, mib: int = 1, seed: int = 0) -> dict:
    """Benchmark report dict; content is deterministic given the seed
    except for the measured times and rates themselves."""
    if mib < 1:
        raise ValueError(f"bench folds at least 1 MiB, got --mib {mib}")
    for k in ks:
        if not 1 <= k <= kernels.WORD_DEGREE_CAP:
            raise ValueError(f"bench covers k in 1..{kernels.WORD_DEGREE_CAP}, got {k}")
    results: dict = {}
    for k in ks:
        ctx = make_field(k)
        count = mib * 8 * (1 << 20) // k
        segments = _random_words(derive_seed(seed, "bench-data", k), k, count)
        a = int(_random_words(derive_seed(seed, "bench-point", k), k, 1)[0])
        t0 = time.perf_counter()
        kernels.fold_segments(segments, a, ctx.m_low, k)
        dt = time.perf_counter() - t0
        head = segments[:_BIGINT_CHECK_SEGMENTS]
        if kernels.fold_segments(head, a, ctx.m_low, k) != _bigint_fold(ctx, head.tolist(), a):
            raise AssertionError(f"fold_segments disagrees with the big-int tier at k={k}")
        rate = count / dt if dt > 0 else float("inf")
        results[str(k)] = {
            "k": k,
            "t_hex": ctx.modulus.to_hex(),
            "segments_measured": count,
            "seconds": dt,
            "segments_per_sec": rate,
            "field_ops_per_sec": 2 * rate,
            "matches_bigint": True,
        }
    return {
        "kind": "bench",
        "tool": {"name": "streamfp", "version": __version__},
        "seed": seed,
        "mib": mib,
        "results": results,
    }
