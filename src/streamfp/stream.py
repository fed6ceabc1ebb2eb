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
text, feed_bytes() raw bytes (most significant bit first); both go
through the same packer and fold, and any chunking is allowed.  The
packer turns each call's whole segments into uint64 limbs in bulk.  For
k <= 64 the fold is :func:`streamfp.kernels.fold`, which runs Horner down
blocks of the call's segments in parallel and joins the block values
with the tables of a power of a; the algebra, and so the result, is the
one-step-per-segment fold's.  Wider fields keep that scalar fold,
:func:`streamfp.field.horner_fold`, on Python ints.

Space accounting (ResourceProfile.peak_state_bits) counts the live
state: modulus (k+1 bits), point a (k), accumulator v (k), the partial
segment buffer (at most k), and three counters of |n| bits each (n, the
read cursor, completed segments).  That totals at most 4k + 1 + 3|n|
bits, within C*(k + log2 n) for C = 8, for every n, k >= 1.  The split
tables (ceil(k/8) * 256 elements of k bits) are derived from a alone and
are constant in n, so they are a cache of a, not state that grows with
the input.  The numpy buffers of one feed call, the block fold's B block
values among them, scale with that call's chunk, never with n, and are
gone when the call returns.  The counters model the one-pass verifier:
conversions and field_ops count one conversion and two operations per
segment, not the block fold's own schedule.

Tuple coding (for shipping a fingerprint as one bit string): each data
bit b is sent as "1b" and parts are separated by "00", so
<x, y> = 1x_1..1x_|x| 00 1y_1..1y_|y|, and the encoding of m parts has
length 2*(sum of part lengths) + 2*(m-1).  A fingerprint is the triple
<n in minimal binary, a, v> with a and v written as k-bit patterns in
b_{k-1}..b_0 order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import kernels
from .field import (
    ENUMERATION_DEGREE_CAP,
    FieldCtx,
    horner_fold,
    make_field,
    select_field_size,
    split_tables,
)
from .gf2poly import Gf2Poly

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


def _segment_limbs(bits: np.ndarray, count: int, k: int) -> np.ndarray:
    """Little-endian uint64 limbs, a row of ceil(k/64) per segment, of the
    first count k-bit segments of a 0/1 uint8 array: bit i of a segment is
    its u^i coefficient, so a short final segment zero-extends high."""
    words = np.zeros(count * k // 64 + 2, "<u8")
    words.view(np.uint8)[:-(-bits.size // 8)] = np.packbits(bits, bitorder="little")
    limbs = np.empty((count, -(-k // 64)), "<u8")
    shift = np.empty(count, np.uint64)
    high = np.empty(count, np.uint64)
    for j in range(limbs.shape[1]):
        # Limb j of each segment starts at bit 64j + ik: bit `shift` of
        # word w, with its top bits in word w + 1.
        w = np.arange(64 * j, 64 * j + count * k, k)
        np.bitwise_and(w, 63, out=shift, casting="unsafe")
        w >>= 6
        limb = limbs[:, j]
        np.take(words, w, out=limb)
        limb >>= shift
        w += 1
        np.take(words, w, out=high)
        high <<= 1
        shift ^= 63  # 63 - shift: two steps, as a shift by 64 is undefined
        high <<= shift
        limb |= high
        limb &= (1 << min(64, k - 64 * j)) - 1
    return limbs


def _limb_ints(limbs: np.ndarray) -> list[int]:
    """The segments of _segment_limbs as Python ints, for k > 64."""
    ints = limbs[:, -1].tolist()
    for j in range(limbs.shape[1] - 2, -1, -1):
        ints = [(hi << 64) | lo for hi, lo in zip(ints, limbs[:, j].tolist())]
    return ints


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
        self.profile = ResourceProfile(random_bits=ctx.k)
        # k <= 64 folds through kernels.fold, which caches its own tables.
        if ctx.k > kernels.WORD_DEGREE_CAP:
            self._tables = split_tables(self.a, ctx.m_bits, ctx.k)
        self._pending = np.empty(0, np.uint8)  # bits of the partial segment
        self._done_segments = 0
        self._finished = False
        self._note_state()

    def _note_state(self) -> None:
        k = self.ctx.k
        live = (k + 1) + k + k + self._pending.size + 3 * self.n.bit_length()
        if live > self.profile.peak_state_bits:
            self.profile.peak_state_bits = live

    def feed(self, bits: str) -> None:
        """Consume the next chunk of the input, any chunking allowed."""
        if self._finished:
            raise ValueError("stream already finished")
        try:
            arr = np.frombuffer(bits.encode("ascii"), np.uint8) - np.uint8(ord("0"))
        except UnicodeEncodeError:
            arr = None
        if arr is None or (arr.size and arr.max() > 1):
            raise ValueError("input must consist of '0' and '1' only")
        self._absorb(arr)

    def feed_bytes(self, data: bytes, nbits: int | None = None) -> None:
        """Consume the first nbits bits of raw bytes (all of them by default),
        most significant bit of each byte first; any chunking allowed."""
        if self._finished:
            raise ValueError("stream already finished")
        raw = np.frombuffer(data, np.uint8)
        if nbits is None:
            nbits = 8 * raw.size
        elif not 0 <= nbits <= 8 * raw.size:
            raise ValueError(f"nbits={nbits} outside 0..{8 * raw.size} for {raw.size} bytes")
        self._absorb(np.unpackbits(raw, count=nbits))

    def _absorb(self, bits: np.ndarray) -> None:
        if self.profile.bits_read + bits.size > self.n:
            raise ValueError(
                f"overfed: {self.profile.bits_read + bits.size} bits for n={self.n}"
            )
        self.profile.bits_read += bits.size
        buf = np.concatenate((self._pending, bits)) if self._pending.size else bits
        k = self.ctx.k
        count = min(buf.size // k, max(0, self.n // k - self._done_segments))
        if self.profile.bits_read == self.n and buf.size > count * k:
            count += 1  # all n bits are in: the rest is the short final segment
        limbs = _segment_limbs(buf[:count * k], count, k)
        rest = buf[count * k:]
        if k <= kernels.WORD_DEGREE_CAP:
            self.v = kernels.fold(self.v, limbs[:, 0], self.a, self.ctx.m_low, k)
        else:
            self.v = horner_fold(self.v, _limb_ints(limbs), self._tables)
        self.profile.conversions += count
        self.profile.field_ops += 2 * count
        self._done_segments += count
        # Between calls the retained buffer is always shorter than one
        # segment, which keeps the live state within the documented bound;
        # the copy lets the caller's chunk go.
        self._pending = rest.copy()
        self._note_state()

    def finish(self) -> Fingerprint:
        """Close the stream; requires exactly n bits to have been fed."""
        if self._finished:
            raise ValueError("stream already finished")
        if self.profile.bits_read != self.n:
            raise ValueError(
                f"finish before end of stream: {self.profile.bits_read} of {self.n} bits"
            )
        self._finished = True
        assert self._done_segments == self.r and self._pending.size == 0
        assert self.profile.conversions == self.r
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
    f_of_n) unless an explicit ctx overrides the sizing.  The seed must be
    >= 0: random.Random uses only |seed|, so -s would replay s's point."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if ctx is None:
        if f_of_n is None:
            raise ValueError("either f_of_n or ctx is required")
        ctx = make_field(select_field_size(n, f_of_n))
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
    bits = np.unpackbits(np.frombuffer(data, np.uint8)) + np.uint8(ord("0"))
    return bits.tobytes().decode("ascii")
