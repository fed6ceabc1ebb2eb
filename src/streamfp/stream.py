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
segments, the bits past them the next register.  A call that completes
no segment folds nothing; any other is framed once, v leading its R
segments and zero fields in front making whole k-byte groups of eight
fields, and one fold reads those bytes from v = 0.  The rule picks it:
the numpy table cascade (:func:`streamfp.kernels.fold_groups`) when
R >= 128, k <= 64 and n >= 2^25 bits (4 MiB of raw input,
``_NUMPY_FOLD_BITS``); otherwise :func:`streamfp.field._lane_fold` on
Python ints, 8 * fold_block_length lanes at once in the slots of one
int, or one step per field under 128 fields.

Loading numpy costs a CLI run about 0.06 s and 14 MiB.  In CLI pairs
(``BENCH_fold_rule.json``) the cascade ran 16 MiB 1.3-2.1x faster than
the lanes at every k under 16, came within 10 % either way at 4 MiB
and lost at 2 MiB.  The rule reads n, not the call, so the long calls
of one stream share a fold, whose algebra is the one-step fold's.

Space accounting (ResourceProfile.peak_state_bits) counts the live
state: modulus (k+1 bits), point a (k), accumulator v (k), a k-bit
register for the partial segment (it holds fewer than k bits between
calls, and their count is the read cursor less k times the completed
segments), and three counters of |n| bits each (n, the read cursor,
completed segments).  That is 4k + 1 + 3|n| bits for every chunking of
the input, within C*(k + log2 n) for C = 8, for every n, k >= 1.  The split
tables (ceil(k/8) * 256 elements of k bits), like the cascade's tables
of a, a^8, ... (k * 256 each), are derived from a alone and are constant
in n, so they are a cache of a, not state that grows with the input.
The buffers of one feed call, the cascade's group values and the lane
fold's B lanes among them, scale with that call's chunk, never with n,
and are gone when the call returns.  The counters
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

import random

from .field import (
    ENUMERATION_DEGREE_CAP,
    WORD_DEGREE_CAP,
    FieldCtx,
    _Record,
    _lane_fold,
    field_of,
    make_field,
    select_field_size,
)

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

# The CLI reads file and stdin input in chunks of this many k-byte blocks.
# A block holds exactly 8 segments, so a raw chunk never splits a segment,
# and the chunk, not the input, sets the memory the reader holds.
_CHUNK_BLOCKS = 4096

# Streams of at least this many bits fold in numpy up to the word tier's
# k; the rest fold in lanes (see the module docstring for the measurements).
_NUMPY_FOLD_BITS = 1 << 25


class ResourceProfile(_Record):
    """Counters for the one-pass cost model of a single stream run."""

    _fields = ("conversions", "field_ops", "random_bits", "bits_read", "peak_state_bits")
    __hash__ = None  # mutable, as its counters run

    def __init__(self, conversions: int = 0, field_ops: int = 0, random_bits: int = 0,
                 bits_read: int = 0, peak_state_bits: int = 0):
        self.conversions = conversions          # segment -> element mappings
        self.field_ops = field_ops              # multiplications + additions
        self.random_bits = random_bits          # bits drawn for the evaluation point
        self.bits_read = bits_read              # input bits consumed (exactly n, no rewinds)
        self.peak_state_bits = peak_state_bits  # max live state, per the documented accounting


class Fingerprint(_Record):
    """Output of one stream run: <n, a, v> plus its context and seed."""

    _fields = ("n", "a", "v", "ctx", "seed")

    def __init__(self, n: int, a: int, v: int, ctx: FieldCtx, seed: int | None = None):
        self.n, self.a, self.v, self.ctx, self.seed = n, a, v, ctx, seed

    @property
    def k(self) -> int:
        return self.ctx.k

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "t_hex": self.ctx.t_hex,
            "a_hex": self.ctx.elem_hex(self.a),
            "v_hex": self.ctx.elem_hex(self.v),
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Fingerprint":
        ctx = field_of(int(d["k"]), d["t_hex"])
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
        if not count:
            return  # no segment completed: nothing to fold
        # Bit ik + j is bit j of segment i, its u^j coefficient, so a short
        # final segment zero-extends high.
        pad = -(count + 1) % 8
        groups = (((bits & ((1 << used) - 1)) << k | self.v) << pad * k).to_bytes(
            (count + 1 + pad) * k // 8, "little")
        if k <= WORD_DEGREE_CAP and self.n >= _NUMPY_FOLD_BITS and count >= 128:
            from . import kernels

            self.v = kernels.fold_groups(groups, self.a, self.ctx.m_low, k)
        else:
            self.v = _lane_fold(groups, self.a, self.ctx.m_bits, k)
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
