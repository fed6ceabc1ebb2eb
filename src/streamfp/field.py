"""GF(2^k) field contexts.

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
from dataclasses import dataclass

from .gf2poly import Gf2Poly, _clmul, _mod, find_irreducible, is_irreducible

__all__ = [
    "FieldCtx",
    "select_field_size",
    "make_field",
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


@dataclass(frozen=True)
class FieldCtx:
    """GF(2^k) with a fixed irreducible modulus of degree k."""

    k: int
    modulus: Gf2Poly

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("extension degree must be >= 1")
        if self.modulus.degree != self.k:
            raise ValueError("modulus degree must equal k")
        if not is_irreducible(self.modulus):
            raise ValueError("modulus must be irreducible")
        # Cached int forms for the arithmetic and the word kernels.
        object.__setattr__(self, "m_bits", self.modulus.bits)
        object.__setattr__(self, "m_low", self.modulus.bits ^ (1 << self.k))

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
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

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


def fold_block_length(r: int) -> int:
    """Block length L of the block fold of r segments (see
    :mod:`streamfp.kernels`): about sqrt(r/32), which balances its numpy
    steps against the scalar outer fold.  The lane fold of
    :mod:`streamfp.stream` runs 8L lanes, so about sqrt(r/2) steps, for
    the same balance of big-int steps against the join of its lanes.
    Which calls fold in blocks or lanes is :mod:`streamfp.stream`'s
    rule."""
    return max(1, math.isqrt(r >> 5))


@functools.lru_cache(maxsize=None)
def make_field(k: int) -> FieldCtx:
    """GF(2^k) with the deterministic modulus from find_irreducible(k), which
    the search proved irreducible: FieldCtx's own test is skipped."""
    ctx, m = object.__new__(FieldCtx), find_irreducible(k)
    ctx.__dict__.update(k=k, modulus=m, m_bits=m.bits, m_low=m.bits ^ (1 << k))
    return ctx
