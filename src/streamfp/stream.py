"""One-pass streaming fingerprints.

An n-bit input x is read once, left to right, and split into
r = ceil(n/k) segments: every segment holds k bits except the last,
which holds the final n - (r-1)*k bits.  Writing s_{r-1} for the
first-read segment down to s_0 for the last, and w(s) for the field
element whose u^i coefficient is the i-th bit of s in reading order,
the fingerprint polynomial is

    d_x(z) = z^r + w(s_{r-1}) z^{r-1} + ... + w(s_1) z + w(s_0),

monic of degree r with the data in the lower coefficients.  The stream
evaluates d_x at one random point a by a Horner fold: the accumulator
starts at 1 (the monic leading coefficient) and each completed segment
costs one multiplication and one addition, v <- v*a + w(s).  Distinct
equal-length inputs give distinct coefficient vectors, so their
polynomials agree on at most r-1 of the q points.

The multiplication by a runs on split tables (see :mod:`streamfp.field`):
ceil(k/8) tables of 256 elements each, built from a alone.  Each product
is then ceil(k/8) lookups and XORs, for every k.  feed() takes '0'/'1'
text, feed_bytes() raw bytes (most significant bit first); any chunking
is allowed, and each call folds the whole segments it completes.  The
partial segment waits in an int register, first-read bit lowest; the
packer turns the call's bits into one Python int whose bit p is the p-th
bit read, and joined above the register its k-bit fields are the
segments, the bits past them the next register.  One rule, made from the
call's segment count R, k and the stream's length n, picks the fold:

- R < 128, where :func:`streamfp.field.fold_block_length` is 1 and
  blocks would share nothing: the fields are cut into Python ints and
  :func:`streamfp.field.horner_fold` folds them on the stream's split
  tables, one step per segment.
- k <= 64 and n >= 2^23 bits (1 MiB of raw input):
  :func:`streamfp.kernels.cut_segments` cuts them into uint64 words and
  :func:`streamfp.kernels.fold_segments` runs Horner down blocks of them
  in numpy, joining the block values with the tables of a power of a.
- otherwise, the lane fold (``_lane_fold``): Horner by A = a^B down B
  lanes at once, with B = 8 * fold_block_length(R).  One Python int holds
  the B lanes in 2k-bit slots, even lanes in its low half and odd lanes
  in its high half, so the B fields of a step enter through two masks; a
  step multiplies every lane by A, one shift-XOR per nonzero w-bit digit
  of A from a table of the lanes times each digit (w = 1 is one per set
  bit), and folds each slot's high half back in shift-XOR rounds on the
  sparse modulus tail (two for every modulus find_irreducible gives).
  This is SIMD within a register (Fisher & Dietz, LCPC 1998): the big-int
  shifts and XORs run in C.  The lane values are then joined by
  horner_fold on the tables of a.

So numpy loads only for streams of 2^23 bits or more at k <= 64, where
its block fold is about twice the lane fold's speed per bit and its
start-up is paid back; shorter streams, like a sketch query's, and every
stream past k = 64 run on Python ints.  The rule reads n, not the call,
so the long calls of one stream share a fold.  Every way the algebra,
and so the result, is the one-step-per-segment fold's.

Space accounting (ResourceProfile.peak_state_bits) counts the live
state: modulus (k+1 bits), point a (k), accumulator v (k), a k-bit
register for the partial segment (it holds fewer than k bits between
calls, and their count is the read cursor less k times the completed
segments), and three counters of |n| bits each (n, the read cursor,
completed segments).  That is 4k + 1 + 3|n| bits for every chunking of
the input, within C*(k + log2 n) for C = 8, for every n, k >= 1.  The split
tables (ceil(k/8) * 256 elements of k bits) are derived from a alone and
are constant in n, so they are a cache of a, not state that grows with
the input.  The buffers of one feed call, the block fold's B block
values and the lane fold's B lanes among them, scale with that call's
chunk, never with n, and are gone when the call returns.  The counters
model the one-pass verifier: conversions and field_ops count one
conversion and two operations per segment, not a fold's own schedule.

Tuple coding (for shipping a fingerprint as one bit string): each data
bit b is sent as "1b" and parts are separated by "00", so
<x, y> = 1x_1..1x_|x| 00 1y_1..1y_|y|, and the encoding of m parts has
length 2*(sum of part lengths) + 2*(m-1).  A fingerprint is the triple
<n in minimal binary, a, v> with a and v written as k-bit patterns in
b_{k-1}..b_0 order.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .field import (
    ENUMERATION_DEGREE_CAP,
    WORD_DEGREE_CAP,
    FieldCtx,
    fold_block_length,
    horner_fold,
    make_field,
    select_field_size,
    split_tables,
)
from .gf2poly import Gf2Poly, _powmod

__all__ = [
    "ResourceProfile",
    "StreamState",
    "Fingerprint",
    "begin",
    "begin_seeded",
    "fingerprint",
    "split_segments",
    "coefficients",
    "direct_eval",
    "count_agreements",
    "encode_tuple",
    "decode_tuple",
    "encode_fingerprint",
    "decode_fingerprint",
    "bits_from_bytes",
    "SPACE_CONSTANT",
]

# peak_state_bits <= SPACE_CONSTANT * (k + log2 n); see the module docstring.
SPACE_CONSTANT = 8

# The CLI reads file and stdin input in chunks of this many k-byte blocks,
# and bench feeds its stream in the same chunks.  A block holds exactly 8
# segments, so a raw chunk never splits a segment, and the chunk, not the
# input, sets the memory the reader holds.
_CHUNK_BLOCKS = 4096


@dataclass
class ResourceProfile:
    """Counters for the one-pass cost model of a single stream run."""

    conversions: int = 0      # segment -> element mappings
    field_ops: int = 0        # multiplications + additions
    random_bits: int = 0      # bits drawn for the evaluation point
    bits_read: int = 0        # input bits consumed (exactly n, no rewinds)
    peak_state_bits: int = 0  # max live state, per the documented accounting


@dataclass(frozen=True)
class Fingerprint:
    """Output of one stream run: <n, a, v> plus its context and seed."""

    n: int
    a: int
    v: int
    ctx: FieldCtx
    seed: int | None = None

    @property
    def k(self) -> int:
        return self.ctx.k

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "t_hex": self.ctx.modulus.to_hex(),
            "a_hex": self.ctx.elem_hex(self.a),
            "v_hex": self.ctx.elem_hex(self.v),
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Fingerprint":
        ctx = FieldCtx(int(d["k"]), Gf2Poly.from_hex(d["t_hex"]))
        return cls(
            n=int(d["n"]),
            a=ctx.elem_from_hex(d["a_hex"]),
            v=ctx.elem_from_hex(d["v_hex"]),
            ctx=ctx,
            seed=None if d.get("seed") is None else int(d["seed"]),
        )


# Entry b is byte b with its bits in reverse order: it puts the first-read
# bit of a raw byte at the least significant place, where the packer wants it.
_BIT_REVERSED = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))


def _pack(chunk, nbits: int) -> int:
    """The chunk ('0'/'1' text, or the first nbits bits of raw bytes, most
    significant bit first) as one int whose bit p is the p-th bit read."""
    if isinstance(chunk, str):
        return int(chunk[::-1] or "0", 2)
    bits = int.from_bytes(bytes(chunk).translate(_BIT_REVERSED), "little")
    return bits & ((1 << nbits) - 1) if nbits < 8 * len(chunk) else bits


def _cut_segments(data: bytes, count: int, k: int) -> list[int]:
    """The first count k-bit fields of little-endian data as ints, for any
    k: eight at a time from each k-byte group, a shift and a mask each."""
    mask = (1 << k) - 1
    shifts = range(0, 8 * k, k)
    segments = []
    for i in range(0, len(data), k):
        group = int.from_bytes(data[i:i + k], "little")
        segments += [group >> s & mask for s in shifts]
    del segments[count:]
    return segments


# A stream's calls share its point and, all but the last, one lane count.
@functools.lru_cache(maxsize=8)
def _lane_plan(a: int, modulus: int, k: int, lanes: int):
    """How _lane_fold multiplies by A = a^lanes: a table of the lanes times
    every w-bit digit (2^w - 2 operations), then one shift-XOR per nonzero
    w-bit digit of A, for the w in 1..4 with the fewest operations.  Also
    the set bits of the modulus tail, and the even-field, odd-field and
    high-half masks of the lane layout."""
    power = _powmod(a, lanes, modulus)
    plans = {}
    for w in range(1, 5):
        digits = [(i, power >> i & ((1 << w) - 1)) for i in range(0, k, w)]
        digits = [(i, d) for i, d in digits if d]
        plans[(1 << w) - 2 + 2 * len(digits)] = 1 << w, digits
    slots = ((1 << 2 * k * lanes) - 1) // ((1 << 2 * k) - 1)  # bit 2kp, each p
    low = slots * ((1 << k) - 1)
    even = low & ((1 << k * lanes) - 1)
    return (*plans[min(plans)], [j for j in range(k) if modulus >> j & 1],
            even, even << k, low << k)


def _lane_fold(v: int, segments: int, count: int, ctx: FieldCtx, a: int,
               tables: list[list[int]]) -> int:
    """horner_fold(v, the count k-bit fields of segments, tables of a) in B
    lanes (see the module docstring).  The coefficients v, s_1, ... are
    zero-padded at the front to whole steps of B, and lane t runs Horner
    by A = a^B down coefficients t, t + B, ..., so the result is the sum
    of lane_t a^(B-1-t): Horner on a over the lane values."""
    k = ctx.k
    lanes = 8 * fold_block_length(count)
    step = lanes * k // 8  # bytes
    steps = -(-(count + 1) // lanes)
    data = ((segments << k | v) << (steps * lanes - count - 1) * k).to_bytes(
        steps * step, "little")
    size, digits, tail, even, odd, high = _lane_plan(a, ctx.m_bits, k, lanes)
    acc = 0
    for s in range(0, len(data), step):
        fields = int.from_bytes(data[s:s + step], "little")
        times = [0, acc]  # times[d] = the lanes times the digit d
        for d in range(2, size):
            times.append(times[d >> 1] << 1 if d % 2 == 0 else times[d - 1] ^ acc)
        prod = 0
        for i, d in digits:
            prod ^= times[d] << i
        while hi := prod & high:  # two rounds for every find_irreducible tail
            prod ^= hi
            hi >>= k
            for j in tail:
                prod ^= hi << j
        acc = prod ^ (fields & even) ^ (fields & odd) << (lanes - 1) * k
    slots = _cut_segments(acc.to_bytes(2 * step, "little"), lanes, 2 * k)
    values = [0] * lanes  # slot p holds lane 2p, slot lanes/2 + p lane 2p + 1
    values[::2], values[1::2] = slots[:lanes // 2], slots[lanes // 2:]
    return horner_fold(0, values, tables)


class StreamState:
    """In-flight fingerprint computation; create with begin()."""

    def __init__(self, n: int, ctx: FieldCtx, rng, seed: int | None = None):
        if n < 1:
            raise ValueError("stream length must be >= 1")
        self.n = n
        self.ctx = ctx
        self.r = -(-n // ctx.k)  # ceil(n/k)
        self.a = ctx.random_elem(rng)
        self.v = 1
        self.seed = seed
        self.profile = ResourceProfile(
            random_bits=ctx.k, peak_state_bits=4 * ctx.k + 1 + 3 * n.bit_length())
        self._tables = split_tables(self.a, ctx.m_bits, ctx.k)
        # The partial segment's register: its bits, the first read lowest,
        # and how many there are (fewer than k between calls).
        self._partial = 0
        self._partial_bits = 0
        self._finished = False

    def feed(self, bits: str) -> None:
        """Consume the next chunk of the input, any chunking allowed."""
        if self._finished:
            raise ValueError("stream already finished")
        # Checked in C: a character with no latin-1 byte becomes '?'.
        if bits.encode("latin-1", "replace").translate(None, b"01"):
            raise ValueError("input must consist of '0' and '1' only")
        self._absorb(bits, len(bits))

    def feed_bytes(self, data: bytes, nbits: int | None = None) -> None:
        """Consume the first nbits bits of raw bytes (all of them by default),
        most significant bit of each byte first; any chunking allowed."""
        if self._finished:
            raise ValueError("stream already finished")
        if nbits is None:
            nbits = 8 * len(data)
        elif not 0 <= nbits <= 8 * len(data):
            raise ValueError(f"nbits={nbits} outside 0..{8 * len(data)} for {len(data)} bytes")
        self._absorb(data, nbits)

    def _absorb(self, chunk, nbits: int) -> None:
        """Fold the segments that the partial segment and the chunk ('0'/'1'
        text, or raw bytes holding nbits bits) complete."""
        if self.profile.bits_read + nbits > self.n:
            raise ValueError(
                f"overfed: {self.profile.bits_read + nbits} bits for n={self.n}"
            )
        self.profile.bits_read += nbits
        k = self.ctx.k
        total = self._partial_bits + nbits
        count, rest = divmod(total, k)
        if self.profile.bits_read == self.n and rest:
            count += 1  # all n bits are in: the rest is the short final segment
        bits = _pack(chunk, nbits) << self._partial_bits | self._partial
        used = min(count * k, total)
        self._partial, self._partial_bits = bits >> used, total - used
        # Bit ik + j is bit j of segment i, its u^j coefficient, so a short
        # final segment zero-extends high; the bytes are zero-padded to whole
        # k-byte groups of eight segments for the cutters.
        segments = bits & ((1 << used) - 1)
        if fold_block_length(count) == 1:
            data = segments.to_bytes(-(-count // 8) * k, "little")
            self.v = horner_fold(self.v, _cut_segments(data, count, k), self._tables)
        elif k <= WORD_DEGREE_CAP and self.n >= 1 << 23:  # numpy pays from 1 MiB
            from . import kernels

            data = segments.to_bytes(-(-count // 8) * k, "little")
            words = kernels.cut_segments(data, count, k)
            self.v = kernels.fold_segments(words, self.a, self.ctx.m_low, k, self.v)
        else:
            self.v = _lane_fold(self.v, segments, count, self.ctx, self.a, self._tables)
        self.profile.conversions += count
        self.profile.field_ops += 2 * count

    def finish(self) -> Fingerprint:
        """Close the stream; requires exactly n bits to have been fed."""
        if self._finished:
            raise ValueError("stream already finished")
        if self.profile.bits_read != self.n:
            raise ValueError(
                f"finish before end of stream: {self.profile.bits_read} of {self.n} bits"
            )
        self._finished = True
        assert self.profile.conversions == self.r and not self._partial_bits
        assert self.profile.field_ops <= 2 * self.r
        return Fingerprint(n=self.n, a=self.a, v=self.v, ctx=self.ctx, seed=self.seed)


def begin(n: int, ctx: FieldCtx, rng, seed: int | None = None) -> StreamState:
    """Start a stream of n bits over ctx; draws the evaluation point."""
    return StreamState(n, ctx, rng, seed)


def begin_seeded(
    n: int,
    seed: int,
    f_of_n: int | None = None,
    ctx: FieldCtx | None = None,
) -> StreamState:
    """Start a stream as fingerprint() does: the point is drawn from
    random.Random(seed), and the field comes from select_field_size(n,
    max(1, f_of_n)) unless an explicit ctx overrides the sizing: a density
    of 0 sizes as 1, as DensityFn.field_size and so the CLI's --f do.  The
    seed must be >= 0: random.Random uses only |seed|, so -s would replay
    s's point."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if ctx is None:
        if f_of_n is None:
            raise ValueError("either f_of_n or ctx is required")
        if f_of_n < 0:
            raise ValueError("f(n) must be >= 0")
        ctx = make_field(select_field_size(n, max(1, f_of_n)))
    return begin(n, ctx, random.Random(seed), seed=seed)


def fingerprint(
    n: int,
    x: str,
    seed: int,
    f_of_n: int | None = None,
    ctx: FieldCtx | None = None,
) -> Fingerprint:
    """One-shot fingerprint of the bit string x (|x| = n).

    The field comes from select_field_size(n, f_of_n) unless an explicit
    ctx overrides the sizing (test and interop use).
    """
    if len(x) != n:
        raise ValueError(f"length mismatch: |x|={len(x)}, n={n}")
    state = begin_seeded(n, seed, f_of_n, ctx)
    state.feed(x)
    return state.finish()


def split_segments(x: str, k: int) -> list[str]:
    """Segments [s_{r-1}, ..., s_0] in reading order; the last is short
    when k does not divide |x|."""
    if not x:
        raise ValueError("empty input has no segments")
    r = -(-len(x) // k)
    out = [x[i * k:(i + 1) * k] for i in range(r - 1)]
    out.append(x[(r - 1) * k:])
    return out


def coefficients(ctx: FieldCtx, x: str) -> list[int]:
    """Data coefficients [w(s_{r-1}), ..., w(s_0)] of d_x."""
    return [ctx.from_segment(s) for s in split_segments(x, ctx.k)]


def direct_eval(ctx: FieldCtx, x: str, a: int) -> int:
    """d_x(a) evaluated term by term from materialized coefficients.

    Independent of the streaming fold (powers via square-and-multiply,
    no Horner), so it can referee the streaming path.
    """
    coeffs = coefficients(ctx, x)
    r = len(coeffs)
    acc = ctx.pow(a, r)
    for j, c in enumerate(coeffs):
        acc = ctx.add(acc, ctx.mul(c, ctx.pow(a, r - 1 - j)))
    return acc


def count_agreements(ctx: FieldCtx, x: str, y: str) -> int:
    """|{a : d_x(a) = d_y(a)}| over the whole field (k <= 24).

    For distinct equal-length x, y the difference d_x - d_y is a nonzero
    polynomial of degree at most r-1, so the count is at most r-1.
    """
    if len(x) != len(y) or not x:
        raise ValueError("inputs must be nonempty and of equal length")
    if ctx.k > ENUMERATION_DEGREE_CAP:
        raise ValueError(f"exhaustive agreement count needs k <= {ENUMERATION_DEGREE_CAP}")
    cx = coefficients(ctx, x)
    cy = coefficients(ctx, y)
    r = len(cx)
    mul = ctx.mul
    count = 0
    for a in ctx.elements():
        powers = [1] * (r + 1)
        for i in range(1, r + 1):
            powers[i] = mul(powers[i - 1], a)
        vx = powers[r]
        vy = powers[r]
        for j in range(r):
            p = powers[r - 1 - j]
            vx ^= mul(cx[j], p)
            vy ^= mul(cy[j], p)
        if vx == vy:
            count += 1
    return count


# ---------------------------------------------------------- tuple coding

def encode_tuple(parts: list[str] | tuple[str, ...]) -> str:
    """Self-delimiting encoding of 2 or 3 nonempty bit strings."""
    if not 2 <= len(parts) <= 3:
        raise ValueError("tuple coding covers 2 or 3 parts")
    for p in parts:
        if not p:
            raise ValueError("parts must be nonempty")
        if p.strip("01"):
            raise ValueError("parts must consist of '0' and '1' only")
    return "00".join("".join("1" + b for b in p) for p in parts)


def decode_tuple(bits: str) -> list[str]:
    """Inverse of encode_tuple; raises on any malformed string."""
    if len(bits) % 2 != 0:
        raise ValueError("malformed tuple: dangling bit")
    parts: list[str] = []
    cur: list[str] = []
    for i in range(0, len(bits), 2):
        tok = bits[i:i + 2]
        if tok == "00":
            if not cur:
                raise ValueError("malformed tuple: empty part")
            parts.append("".join(cur))
            cur = []
        elif tok[0] == "1":
            cur.append(tok[1])
        else:
            raise ValueError(f"malformed tuple: bad token {tok!r}")
    if not cur:
        raise ValueError("malformed tuple: empty part")
    parts.append("".join(cur))
    return parts


def encode_fingerprint(fp: Fingerprint) -> str:
    """<n, a, v> as one bit string: n in minimal binary, a and v as k-bit
    patterns in b_{k-1}..b_0 order."""
    return encode_tuple(
        (format(fp.n, "b"), fp.ctx.elem_bits(fp.a), fp.ctx.elem_bits(fp.v))
    )


def decode_fingerprint(bits: str, ctx: FieldCtx) -> Fingerprint:
    """Inverse of encode_fingerprint, given the context (k is external)."""
    parts = decode_tuple(bits)
    if len(parts) != 3:
        raise ValueError("fingerprint encoding must have exactly 3 parts")
    n_bits, a_bits, v_bits = parts
    if n_bits[0] != "1":
        raise ValueError("length field must be minimal binary")
    if len(a_bits) != ctx.k or len(v_bits) != ctx.k:
        raise ValueError("element fields must be exactly k bits")
    return Fingerprint(
        n=int(n_bits, 2), a=int(a_bits, 2), v=int(v_bits, 2), ctx=ctx
    )


def bits_from_bytes(data: bytes) -> str:
    """Bit string of raw bytes, most significant bit of each byte first."""
    if not data:
        return ""
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")
