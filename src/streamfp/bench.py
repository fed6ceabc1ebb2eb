"""Throughput benchmark for the streaming fold.

Streams ``mib`` MiB of pseudorandom bytes for each degree k through
:meth:`streamfp.stream.StreamState.feed_bytes`, in the chunks of
``_CHUNK_BLOCKS`` k-byte blocks that ``fingerprint`` reads, so it times
the fold ``fingerprint`` runs on a raw input of that size: the numpy
block fold for k <= 64 (a bench stream has 2^23 bits or more), the lane
fold past it.  Each chunk is drawn from one derived stream as it is fed,
so a run holds one chunk.  The report gives segments/sec and
field-ops/sec (two field operations per segment) over the feed calls
alone.  Before the timed run, a stream at the same point is fed the
first chunk, which also loads what the fold needs, and its value is
checked against the big-int tier: the chunk's segments, from
:func:`streamfp.stream.coefficients`, folded with ``FieldCtx.mul`` and
``add``.  The two must agree bit for bit, and the report records that
cross-check as ``matches_bigint``.
"""

from __future__ import annotations

import time

from ._version import __version__
from .field import make_field
from .gf2poly import IRREDUCIBLE_DEGREE_CAP
from .seeds import derived_rng
from .stream import _CHUNK_BLOCKS, begin, coefficients

__all__ = ["run_bench", "DEFAULT_KS"]

DEFAULT_KS = (8, 16, 32, 64)


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
        if not 1 <= k <= IRREDUCIBLE_DEGREE_CAP:
            raise ValueError(f"bench covers k in 1..{IRREDUCIBLE_DEGREE_CAP}, got {k}")
    size = mib << 20  # bytes
    results: dict = {}
    for k in ks:
        ctx = make_field(k)
        chunk = k * _CHUNK_BLOCKS
        first = derived_rng(seed, "bench-data", k).randbytes(min(chunk, size))
        check = begin(8 * size, ctx, derived_rng(seed, "bench-point", k))
        check.feed_bytes(first)
        bits = format(int.from_bytes(first, "big"), f"0{8 * len(first)}b")
        if check.v != _bigint_fold(ctx, coefficients(ctx, bits), check.a):
            raise AssertionError(f"the stream's fold disagrees with the big-int tier at k={k}")
        data = derived_rng(seed, "bench-data", k)
        state = begin(8 * size, ctx, derived_rng(seed, "bench-point", k))
        dt = 0.0
        for start in range(0, size, chunk):
            block = data.randbytes(min(chunk, size - start))
            t0 = time.perf_counter()
            state.feed_bytes(block)
            dt += time.perf_counter() - t0
        state.finish()
        rate = state.r / dt if dt > 0 else float("inf")
        results[str(k)] = {
            "k": k,
            "t_hex": ctx.modulus.to_hex(),
            "segments_measured": state.r,
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
