"""Batched GF(2^k) kernels over uint64 arrays, in numpy.

This is the one module that imports numpy at module level.  The others
import numpy, or this module, inside the functions that run batch work:
a sketch save, an exact or sampled count, and the stream calls that the
fold rule of :mod:`streamfp.stream` gives the numpy block fold.  Other
stream calls, sketch lookups and the other commands never load numpy.
Elements are uint64 bit patterns, so ``mulmod``, ``cut_segments`` and
the fold cover extension degrees 1..``WORD_DEGREE_CAP`` (the word tier);
wider fields stay on the big-int tier.  Both tiers must agree bit for
bit; the differential tests enforce that.

``eval_points`` evaluates a batch of polynomials, one per row, on
log/antilog tables of the multiplicative group (Plank, Greenan & Miller,
FAST 2013), where a product is ``exp[log[x] + log[y]]``.  A whole-field
sweep (points ``range(q)``) runs in log order: at a = g^j, for the
tables' primitive g, a term c·a^e is ``exp[log c + e·j]``, a strided
slice of ``exp`` over a run of (q - 1) // r consecutive j, XOR-ed into
the row; one ``take`` by ``log`` then puts the row in natural order.
Given points, and rows with short runs (``log_order``), go in blocks of
about 32768 / rows points (``block_points``): a power row
P <- exp[log[P] + log[a]] shared by the batch, and one gather
``exp[log[c] + log[P]]`` per row, coefficient and point (Horner needs
two per step).  ``sweep_field`` yields the whole-field values of all
rows a block of points at a time: those runs, or those gather blocks.
``log[0]`` is a sentinel past every log sum, clipped into the zero tail
of ``exp``, so a zero coefficient or a = 0 gives a zero product.  ``log`` holds q
uint32 entries and ``exp`` 2q of the value table's type (``value_dtype``:
1, 2 or 4 bytes), cached per field for k in 1..``ENUMERATION_DEGREE_CAP``.

``cut_segments`` cuts a stream call's packed bits into its k-bit
segments, one uint64 each, with two gathers per segment.
``fold_segments`` is the stream's Horner fold v <- v*a + s by the k-th
order Horner rule (Knuth, TAOCP vol. 2, 4.6.4; Estrin 1960).  The
incoming v (1 unless the caller passes the stream's) is one more
leading coefficient, folded from 0; the coefficients are
zero-padded at the front to B blocks of L, and Horner runs down all B
blocks at once: L numpy steps, each ceil(k/8) gathers from the uint64
split tables of a, one per byte of the block values.  The B block values
are then joined by :func:`streamfp.field._lane_fold` on a^L, the same
algebra as composing chunks.  L is
:func:`streamfp.field.fold_block_length`, about sqrt(R/32) for R
segments.  Which stream calls this fold serves is the stream's rule.

Only ``mulmod`` multiplies by shift-and-reduce, k steps for any k up to
64: per step the low bit of one operand gates an XOR of the other into the
accumulator, then that other operand is multiplied by u, folding the
overflow bit into the low terms of the modulus (``m_low`` = modulus
minus its leading term).
"""

from __future__ import annotations

import functools

import numpy as np

from .field import (
    ENUMERATION_DEGREE_CAP,
    WORD_DEGREE_CAP,
    _lane_fold,
    fold_block_length,
    item_bytes,
    split_tables,
)
from .gf2poly import _powmod, _prime_divisors

__all__ = [
    "WORD_DEGREE_CAP",
    "mulmod",
    "value_dtype",
    "block_points",
    "eval_points",
    "sweep_field",
    "cut_segments",
    "fold_segments",
]

# Kept for the benchmark's environment record, which reports them with
# every result: there is one backend and no JIT tier.
BACKEND = "numpy"
NUMBA_AVAILABLE = False

_U64_ALL = 0xFFFF_FFFF_FFFF_FFFF
_TABLE_CHUNK = 1 << 16  # log/antilog entries filled per numpy step
SWEEP_WIDTH = 1 << 12  # points per log-order block of sweep_field


def _check_k(k: int) -> None:
    if not 1 <= k <= WORD_DEGREE_CAP:
        raise ValueError(f"word kernels cover k in 1..{WORD_DEGREE_CAP}, got {k}")


def mulmod(x, y, m_low: int, k: int) -> np.ndarray:
    """Elementwise x·y in GF(2^k); x and y broadcast against each other."""
    _check_k(k)
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


def _primitive_element(modulus: int, k: int) -> int:
    """Least g whose powers run through all q - 1 nonzero elements: g^(q-1)
    is 1 and g^((q-1)/p) is not, for each prime p | q - 1."""
    order = (1 << k) - 1
    primes = _prime_divisors(order)
    for g in range(1, order + 1):
        if _powmod(g, order, modulus) == 1 and all(
            _powmod(g, order // p, modulus) != 1 for p in primes
        ):
            return g
    raise ValueError(f"modulus {modulus:#x} is not irreducible of degree {k}")


def value_dtype(k: int) -> np.dtype:
    """The little-endian value type of a GF(2^k) table (see
    :func:`streamfp.field.item_bytes`)."""
    return np.dtype(f"<u{item_bytes(k)}")


# A process sweeps one field at a time, and at k = 24 a pair of tables
# takes 192 MiB, so only the last few fields' tables are kept.
@functools.lru_cache(maxsize=4)
def _log_tables(k: int, m_low: int) -> tuple[np.ndarray, np.ndarray]:
    """(log, exp) for GF(2^k): exp[i] = g^(i mod (q-1)) for i < 2q - 2,
    then a zero tail; log[g^i] = i and log[0] = 2q - 2, the sentinel.
    Filled in chunks, so building them holds little beyond the tables."""
    q = 1 << k
    modulus = m_low | q
    g = _primitive_element(modulus, k)
    exp = np.zeros(2 * q, value_dtype(k))
    exp[0] = 1
    m, gm = 1, g
    while m < q - 1:  # exp[m:2m] = exp[:m] * g^m
        tables = np.array(split_tables(gm, modulus, k), np.uint32)
        for s in range(0, min(m, q - 1 - m), _TABLE_CHUNK):
            head = exp[s:min(s + _TABLE_CHUNK, m, q - 1 - m)]
            prod = tables[0][head & 0xFF]
            for i in range(1, len(tables)):
                prod ^= tables[i][(head >> np.uint32(8 * i)) & 0xFF]
            exp[m + s:m + s + head.size] = prod
        gm = _powmod(gm, 2, modulus)
        m *= 2
    exp[q - 1:2 * q - 2] = exp[:q - 1]
    log = np.empty(q, np.uint32)
    for s in range(0, q - 1, _TABLE_CHUNK):
        log[exp[s:min(s + _TABLE_CHUNK, q - 1)]] = np.arange(
            s, min(s + _TABLE_CHUNK, q - 1), dtype=np.uint32)
    log[0] = 2 * q - 2
    log.flags.writeable = exp.flags.writeable = False  # shared by every caller
    return log, exp


def block_points(rows: int) -> int:
    """Points per block for a batch of rows polynomials: a rows x block
    uint32 working array then takes about 128 KiB."""
    return max(1, (1 << 15) // max(1, rows))


def log_order(k: int, r: int) -> bool:
    """Whether a whole-field sweep of r coefficients per row runs in log order:
    a run costs r + 1 numpy calls, which beat the gathers from 512 points."""
    return r > 0 and ((1 << k) - 1) // r >= 512


def eval_points(points, coeffs, m_low: int, k: int, out=None) -> np.ndarray:
    """a^r + c_0·a^{r-1} + … + c_{r-1} at every point a, for the one
    polynomial of a 1-D coeffs (a 1-D result) or for each row of a 2-D
    coeffs (rows x points), written into out, if given, in its dtype."""
    if not 1 <= k <= ENUMERATION_DEGREE_CAP:
        raise ValueError(
            f"eval_points covers k in 1..{ENUMERATION_DEGREE_CAP}, got {k}"
        )
    log, exp = _log_tables(k, m_low)
    coeffs = np.asarray(coeffs, np.uint64)
    if isinstance(points, range) and points == range(1 << k) and log_order(k, coeffs.shape[-1]):
        out = np.empty(coeffs.shape[:-1] + (1 << k,), np.uint64) if out is None else out
        _eval_field(np.atleast_2d(coeffs), log, exp, np.atleast_2d(out))
        return out
    points = np.asarray(points, np.uint64)
    if out is None:
        out = np.empty(coeffs.shape[:-1] + points.shape, np.uint64)
    batch, res = np.atleast_2d(coeffs), np.atleast_2d(out)  # 1-D: one-row views
    log_c = log[batch]
    rows, r = batch.shape
    step = block_points(rows)
    for s in range(0, points.size, step):
        log_a = log[points[s:s + step]]
        power = np.ones(log_a.size, exp.dtype)  # a^0, then a^e
        log_p = np.zeros(log_a.size, np.uint32)
        acc = np.empty((rows, log_a.size), exp.dtype)
        acc[:] = batch[:, -1:] if r else 0  # c_{r-1}·a^0
        idx = np.empty(acc.shape, np.uint32)
        term = np.empty_like(acc)
        for e in range(1, r + 1):
            np.add(log_p, log_a, out=log_p)
            np.take(exp, log_p, out=power, mode="clip")
            if e < r:  # add c_{r-1-e}·a^e, one gather per row and point
                np.take(log, power, out=log_p)
                np.add(log_c[:, r - 1 - e, None], log_p, out=idx)
                np.take(exp, idx, out=term, mode="clip")
                acc ^= term
        acc ^= power
        res[:, s:s + log_a.size] = acc
    return out


def _eval_field(batch, log, exp, res) -> None:
    """eval_points(range(q), batch) into res for r >= 1, in log order."""
    order = log.size - 1  # of g
    width = max(1, order // batch.shape[1])
    acc = np.empty(order, res.dtype)
    res[:, 0] = batch[:, -1]  # a = 0
    for row, logs in zip(res, log[batch].tolist()):
        for s in range(0, order, width):
            _fill_run(acc[s:s + width], s, logs, exp)
        for s in range(1, order + 1, 1 << 16):  # row[a] = acc[log a]; 512 KiB intp indices
            np.take(acc, log[s:s + (1 << 16)], out=row[s:s + (1 << 16)], mode="clip")


def sweep_field(coeffs, m_low: int, k: int):
    """eval_points(range(q), coeffs) of a 2-D coeffs as rows x width blocks
    (a reused buffer) whose columns hold every point once, in no stated
    order: a = 0, then runs of at most SWEEP_WIDTH powers of g in log
    order, or else gather blocks of block_points(rows) points."""
    log, exp = _log_tables(k, m_low)
    coeffs = np.asarray(coeffs, np.uint64)
    rows, r = coeffs.shape
    order = (1 << k) - 1
    if not log_order(k, r):
        buf = np.empty((rows, block_points(rows)), exp.dtype)
        for s in range(0, order + 1, buf.shape[1]):
            block = buf[:, :order + 1 - s]
            yield eval_points(range(s, s + block.shape[1]), coeffs, m_low, k, out=block)
        return
    yield coeffs[:, -1:].astype(exp.dtype)  # a = 0
    logs = log[coeffs].tolist()
    buf = np.empty((rows, min(SWEEP_WIDTH, order // r)), exp.dtype)
    for s in range(0, order, buf.shape[1]):
        block = buf[:, :order - s]
        for run, row_logs in zip(block, logs):
            _fill_run(run, s, row_logs, exp)
        yield block


def _fill_run(run, s: int, logs: list, exp) -> None:
    """One row's values at g^s, g^(s+1), ... from the logs of its r
    coefficients: c·a^e is exp[log c + e j], a strided slice of exp (none
    for c = 0).  A run of at most (q - 1) // r keeps indices < 2 (q - 1)."""
    order = exp.size // 2 - 1
    r = len(logs)
    run[:] = exp[r * s % order:][:r * run.size:r]  # a^r = exp[r j]
    for i, c in enumerate(logs[:-1]):
        if c != 2 * order:
            e = r - 1 - i
            run ^= exp[(c + e * s) % order:][:e * run.size:e]
    run ^= exp[logs[-1]]  # the constant term: exp[log 0] is 0


# A stream needs the tables of its point a and of a^L, and its chunks
# share one block length L but for the last, so a few entries suffice.
@functools.lru_cache(maxsize=8)
def _point_tables(a: int, m_low: int, k: int, e: int = 1):
    """a^e and its split tables, as int lists (the join) and as a
    ceil(k/8) x 256 uint64 array (the block steps)."""
    power = _powmod(a, e, m_low | (1 << k))
    tables = split_tables(power, m_low | (1 << k), k)
    words = np.array(tables, np.uint64)
    words.flags.writeable = False  # shared by every caller
    return power, tables, words


def cut_segments(data: bytes, count: int, k: int) -> np.ndarray:
    """The first count k-bit fields of little-endian data as uint64
    elements: the stream's segments (see :mod:`streamfp.stream`)."""
    _check_k(k)
    words = np.zeros(len(data) // 8 + 2, "<u8")
    words.view(np.uint8)[:len(data)] = np.frombuffer(data, np.uint8)
    # Field i starts at bit ik: bit `shift` of word w, with its top bits
    # in word w + 1.
    w = np.arange(0, count * k, k)
    shift = np.empty(count, np.uint64)
    np.bitwise_and(w, 63, out=shift, casting="unsafe")
    w >>= 6
    segments = words.take(w)
    segments >>= shift
    w += 1
    high = words.take(w)
    high <<= 1
    shift ^= 63  # 63 - shift: two steps, as a shift by 64 is undefined
    high <<= shift
    segments |= high
    segments &= _U64_ALL >> (64 - k)
    return segments


def _block_fold(v: int, segments: np.ndarray, a: int, m_low: int, k: int,
                length: int) -> int:
    """fold_segments with blocks of the given length."""
    words = _point_tables(a, m_low, k)[2]
    r = segments.size
    blocks = -(-(r + 1) // length)
    pad = blocks * length - r - 1
    coeffs = np.zeros(blocks * length, np.uint64)
    coeffs[pad] = v
    coeffs[pad + 1:] = segments
    coeffs = coeffs.reshape(blocks, length)  # row b is block b
    # The accumulator's little-endian bytes index the split tables directly.
    acc = coeffs[:, 0].astype("<u8")
    acc_bytes = acc.view(np.uint8).reshape(blocks, 8)
    prod = np.empty(blocks, np.uint64)
    term = np.empty(blocks, np.uint64)
    for j in range(1, length):
        words[0].take(acc_bytes[:, 0], out=prod)
        for i in range(1, len(words)):
            words[i].take(acc_bytes[:, i], out=term)
            prod ^= term
        np.bitwise_xor(prod, coeffs[:, j], out=acc)
    a_pow, tables, _ = _point_tables(a, m_low, k, length)
    # The block values as the k-bit fields of one int, block 0 lowest.
    fields = np.packbits(np.unpackbits(acc_bytes, axis=1, bitorder="little")[:, :k],
                         bitorder="little")
    return _lane_fold(0, int.from_bytes(fields, "little"), blocks, a_pow,
                      m_low | (1 << k), k, tables)


def fold_segments(segments, a: int, m_low: int, k: int, v: int = 1) -> int:
    """Fold v ← v·a + s over the segments, in order, by blocks of L."""
    _check_k(k)
    segments = np.asarray(segments, np.uint64).ravel()
    return _block_fold(v, segments, a, m_low, k, fold_block_length(segments.size))
