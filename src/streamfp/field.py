"""GF(2^k) field contexts, and the sizing rule that picks k for a
length n and a density bound f(n) (:class:`DensityFn`).

Field elements are bare ints: bit i of an element is the coefficient of
u^i in its polynomial representative, so 0 and 1 are the field's zero
and one and the k-bit pattern is the element's identity.  A
:class:`FieldCtx` pairs the extension degree k with its reducing modulus
and performs all arithmetic; elements carry no context themselves, so
mixing contexts is a caller bug (range asserts catch it in test runs,
and are stripped under ``python -O``).

Display conventions: an element prints as fixed-width hex of its k-bit
pattern (paired with k), and as a bit string in b_{k-1}..b_0 order,
most significant coefficient first.

Multiplying by one fixed element a is GF(2)-linear, so it splits over
the bytes of the other operand: with ceil(k/8) tables of 256 entries,
entry b of table i holding a * (b u^{8i}), the product v*a is the XOR of
one entry per byte of v (split tables; Plank, Greenan & Miller, FAST
2013).  The entries are plain ints, so the same tables serve every k.
"""

from __future__ import annotations

import functools
import math

from .gf2poly import IRREDUCIBLE_DEGREE_CAP, _clmul, _mod, _powmod, find_irreducible

__all__ = [
    "FieldCtx",
    "DensityFn",
    "select_field_size",
    "make_field",
    "field_of",
    "split_tables",
    "horner_fold",
    "fold_block_length",
    "item_bytes",
    "ENUMERATION_DEGREE_CAP",
    "WORD_DEGREE_CAP",
]

# Exhaustive enumeration of the field is refused above this degree: 2^24
# elements is the most a desk-scale sweep should walk.
ENUMERATION_DEGREE_CAP = 24

# The word tier: an element fits one uint64, so the numpy kernels of
# :mod:`streamfp.kernels` cover k up to this; wider fields stay on ints.
WORD_DEGREE_CAP = 64


def select_field_size(n: int, f_of_n: int) -> int:
    """Extension degree k with 8*f(n)*n < 2^k <= 16*f(n)*n.

    Exactly one power of two lands in that half-open range, so k is
    determined: the bit length of 8*f(n)*n.  All arithmetic is exact big
    ints; there is no overflow for any n, f(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if f_of_n < 1:
        raise ValueError("f(n) must be >= 1")
    return (8 * f_of_n * n).bit_length()


def item_bytes(k: int) -> int:
    """Bytes of the narrowest unsigned type holding a GF(2^k) element: the
    value type of a sketch table and of the antilog table it is built on."""
    return 1 if k <= 8 else 2 if k <= 16 else 4


class _Record:
    """Equality, hashing and repr by the attributes named in _fields, as a
    dataclass gives them; the CLI's fingerprint path never pays for
    importing dataclasses (about 10 ms, most of it inspect)."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _iroot(x: int, r: int) -> int:
    """Largest t with t**r <= x, exact integer arithmetic.  Newton's method
    starts just above the root, at (iroot(x >> rs) + 1) << s for s half the
    root's bits (math.isqrt's start for r = 2), so a few steps reach it."""
    if x < 0 or r < 1:
        raise ValueError("iroot needs x >= 0, r >= 1")
    if x < 2 or r == 1:
        return x
    s = x.bit_length() // r // 2
    t = (_iroot(x >> r * s, r) + 1) << s if s else 1 << (x.bit_length() // r + 1)
    while (p := t ** (r - 1)) * t > x:
        t = (t * (r - 1) + x // p) // r
    while (t + 1) ** r <= x:
        t += 1
    return t


class DensityFn(_Record):
    """Length-indexed bound f(n) on how many members a language may have.

    Families: constant c; linear (f(n) = n); power p/q (f(n) =
    floor(n^(p/q)), exact integer roots); binomial-sum c (f(n) =
    sum_{i<=c} C(n, i), the low-weight count).  Parsed from
    "constant:4", "linear", "power:3/2".
    """

    _fields = ("kind", "num", "den")

    def __init__(self, kind: str, num: int = 0, den: int = 1):
        self.kind, self.num, self.den = kind, num, den

    def eval(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == "constant":
            return self.num
        if self.kind == "linear":
            return n
        if self.kind == "power":
            return _iroot(n ** self.num, self.den)
        if self.kind == "binomial-sum":
            total = term = 1  # C(n, i + 1) = C(n, i) * (n - i) / (i + 1), exactly
            for i in range(min(self.num, n)):
                term = term * (n - i) // (i + 1)
                total += term
            return total
        raise ValueError(f"unknown density family {self.kind!r}")

    def field_size(self, n: int) -> int:
        """k for length n by the sizing rule.  A density of 0 (an empty
        language) sizes as f(n) = 1: the rule needs f(n) >= 1, and a sketch
        of no members needs no larger field.  A power density is refused
        unevaluated once n^(p/q) >= 2^((bitlen(n) - 1)p/q) >= 2^cap."""
        cap = IRREDUCIBLE_DEGREE_CAP
        if self.kind == "power" and self.num * (n.bit_length() - 1) >= self.den * cap:
            raise ValueError(f"f(n) = n^({self.num}/{self.den}) at n = {n} is at least "
                             f"2^{cap}, so k would exceed {cap}")
        return select_field_size(n, max(1, self.eval(n)))

    def describe(self) -> dict:
        if self.kind == "constant":
            return {"family": "constant", "c": self.num}
        if self.kind == "linear":
            return {"family": "linear"}
        if self.kind == "binomial-sum":
            return {"family": "binomial-sum", "max_ones": self.num}
        return {"family": "power", "exponent": f"{self.num}/{self.den}"}

    @classmethod
    def parse(cls, text: str) -> "DensityFn":
        name, sep, arg = text.partition(":")

        def integer(part: str, form: str) -> int:
            try:
                return int(part)
            except ValueError:
                raise ValueError(f"--f {form} needs integers, got {text!r}") from None

        if name == "linear":
            if sep:
                raise ValueError(f"linear density takes no argument, got {text!r}")
            return cls("linear")
        if name == "constant":
            c = integer(arg, "constant:C")
            if c < 0:
                raise ValueError("constant density must be >= 0")
            return cls("constant", c)
        if name == "power":
            num, slash, den = arg.partition("/")
            num_i = integer(num, "power:P/Q")
            den_i = integer(den, "power:P/Q") if slash else 1
            if num_i < 0 or den_i < 1:
                raise ValueError("power density needs a nonnegative rational exponent")
            return cls("power", num_i, den_i)
        raise ValueError(f"unknown density family {name!r}")


class FieldCtx(_Record):
    """GF(2^k) over find_irreducible(k): the degree alone names the field."""

    _fields = ("k",)

    def __init__(self, k: int):
        self.k, self.modulus = k, find_irreducible(k)
        # Cached forms for the arithmetic, the word kernels and the files.
        self.m_bits = self.modulus.bits
        self.m_low = self.m_bits ^ (1 << k)
        self.t_hex = format(self.m_bits, "#x")

    @property
    def q(self) -> int:
        return 1 << self.k

    def add(self, a: int, b: int) -> int:
        assert 0 <= a < self.q and 0 <= b < self.q, "element out of range for this context"
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        assert 0 <= a < self.q and 0 <= b < self.q, "element out of range for this context"
        return _mod(_clmul(a, b), self.m_bits)

    def pow(self, a: int, e: int) -> int:
        """a**e with the convention pow(0, 0) = 1."""
        assert 0 <= a < self.q, "element out of range for this context"
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        return _powmod(a, e, self.m_bits)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.pow(a, self.q - 2)

    def from_segment(self, s: str) -> int:
        """Element whose u^i coefficient is the i-th bit of s in reading
        order: the first-read bit becomes the u^0 coefficient.  Segments
        shorter than k zero-extend at the high end."""
        if not 1 <= len(s) <= self.k:
            raise ValueError(f"segment length must be in 1..{self.k}, got {len(s)}")
        if s.strip("01"):
            raise ValueError("segment must consist of '0' and '1' only")
        return int(s[::-1], 2)

    def random_elem(self, rng) -> int:
        """Uniform element: k fresh bits from rng (zero is a valid draw)."""
        return rng.getrandbits(self.k)

    def elements(self) -> range:
        """All q elements in increasing bit-pattern order."""
        if self.k > ENUMERATION_DEGREE_CAP:
            raise ValueError(
                f"enumeration refused for k > {ENUMERATION_DEGREE_CAP} (q = 2^{self.k})"
            )
        return range(self.q)

    def elem_hex(self, a: int) -> str:
        if not 0 <= a < self.q:
            raise ValueError(f"element {a} out of range for GF(2^{self.k})")
        return format(a, f"0{(self.k + 3) // 4}x")

    def elem_from_hex(self, text: str) -> int:
        a = int(text, 16)
        if not 0 <= a < self.q:
            raise ValueError("hex pattern out of range for this context")
        return a

    def elem_bits(self, a: int) -> str:
        if not 0 <= a < self.q:
            raise ValueError(f"element {a} out of range for GF(2^{self.k})")
        return format(a, f"0{self.k}b")


def split_tables(a: int, modulus: int, k: int) -> list[list[int]]:
    """Tables for v -> v*a in GF(2)[u]/(modulus), deg modulus = k: entry b
    of table i is a * (b u^{8i}).  Each table is the XOR span of its 8
    basis products a*u^j, built one new bit at a time."""
    basis = []
    p = a
    for _ in range(k):
        basis.append(p)
        p <<= 1
        if p >> k:
            p ^= modulus
    tables = []
    for i in range(0, k, 8):
        table = [0] * 256
        for j, pj in enumerate(basis[i:i + 8]):
            bit = 1 << j
            for b in range(bit):
                table[bit | b] = table[b] ^ pj
        tables.append(table)
    return tables


def horner_fold(v: int, segments, tables: list[list[int]]) -> int:
    """v <- v*a + s for each s in turn, a being the point the split tables
    were built for; one multiplication and one addition per segment."""
    nbytes = len(tables)
    for s in segments:
        for table, b in zip(tables, v.to_bytes(nbytes, "little")):
            s ^= table[b]
        v = s
    return v


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


def _lane_fold(v: int, segments: int, count: int, a: int, modulus: int, k: int,
               tables: list[list[int]]) -> int:
    """horner_fold(v, the count k-bit fields of segments, tables of a).
    Under 128 fields, where fold_block_length is 1, that is what it runs;
    from 128, B = 8 * fold_block_length(count) lanes run Horner by A = a^B
    down coefficients t, t + B, ... of v, s_1, ..., zero-padded at the
    front to whole steps of B, and horner_fold joins the lane values.  One
    int holds the lanes in 2k-bit slots, even lanes in its low half and odd
    lanes in its high half, so a step's B fields enter through two masks;
    a step multiplies every lane by A, one shift-XOR per nonzero w-bit digit
    of A from a table of the lanes times each digit, and folds each slot's
    high half back in shift-XOR rounds on the sparse modulus tail (two for
    every modulus find_irreducible gives).  This is SIMD within a register
    (Fisher & Dietz, LCPC 1998): the big-int shifts and XORs run in C."""
    if fold_block_length(count) == 1:
        data = segments.to_bytes(-(-count // 8) * k, "little")
        return horner_fold(v, _cut_segments(data, count, k), tables)
    lanes = 8 * fold_block_length(count)
    step = lanes * k // 8  # bytes
    steps = -(-(count + 1) // lanes)
    data = ((segments << k | v) << (steps * lanes - count - 1) * k).to_bytes(
        steps * step, "little")
    size, digits, tail, even, odd, high = _lane_plan(a, modulus, k, lanes)
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


def fold_block_length(r: int) -> int:
    """Block length L of the block fold of r segments (see
    :mod:`streamfp.kernels`): about sqrt(r/32), which balances its numpy
    steps against its join.  The lane fold runs 8L lanes, so about
    sqrt(r/2) steps, for the same balance of big-int steps against the
    join of its lanes.  Which calls fold in blocks or lanes is
    :mod:`streamfp.stream`'s rule."""
    return max(1, math.isqrt(r >> 5))


@functools.lru_cache(maxsize=None)
def make_field(k: int) -> FieldCtx:
    """GF(2^k), built once per process."""
    return FieldCtx(k)


def field_of(k: int, t_hex: str) -> FieldCtx:
    """make_field(k), if t_hex is its modulus string; any other raises ValueError."""
    ctx = make_field(k)
    if t_hex != ctx.t_hex:
        raise ValueError(f"{t_hex!r} is not the modulus of GF(2^{k}), {ctx.t_hex}")
    return ctx
