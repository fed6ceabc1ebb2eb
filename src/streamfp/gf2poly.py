"""Arithmetic for polynomials over GF(2), and the search for a modulus.

A polynomial is stored as a nonnegative Python int: bit i of the integer
is the coefficient of u^i, so the constant term sits in bit 0 and the
integer 0 is the zero polynomial.  The hexadecimal form used in files
and on the command line is the hex of that integer, e.g. u^4+u+1 <-> 0x13.
:class:`Gf2Poly` is the record of one modulus: its pattern, hex form and
degree.  The arithmetic runs on the bare ints.

Addition is XOR and multiplication is the carry-less product.  Python
ints are arbitrary precision, so these routines have no degree limit;
they are the general tier.  The word-sized kernels in
:mod:`streamfp.kernels` mirror them for degrees up to 64 and are checked
against them bit for bit.

Exponents are ordinary Python ints as well, which never overflow;
square-and-multiply touches one bit of the exponent at a time.  The one
irreducibility test is Ben-Or's (FOCS 1981): it squares u step by step
and takes a gcd with the candidate after each square, so a reducible
candidate fails at the degree of its smallest factor.
"""

from __future__ import annotations

import functools

__all__ = [
    "Gf2Poly",
    "IRREDUCIBLE_DEGREE_CAP",
    "is_irreducible",
    "find_irreducible",
]

# Largest extension degree find_irreducible will search.  The search at
# the cap takes about a second (see the README's `irreducible` section).
IRREDUCIBLE_DEGREE_CAP = 1024


def _degree(a: int) -> int:
    """Degree of the int-coded polynomial; -1 marks the zero polynomial."""
    return a.bit_length() - 1


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two int-coded polynomials."""
    if a < b:
        a, b = b, a
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _divmod(a: int, m: int) -> tuple[int, int]:
    """Quotient and remainder of int-coded polynomial long division."""
    if m == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    dm = _degree(m)
    q = 0
    da = _degree(a)
    while da >= dm:
        shift = da - dm
        q |= 1 << shift
        a ^= m << shift
        da = _degree(a)
    return q, a


def _mod(a: int, m: int) -> int:
    return _divmod(a, m)[1]


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _mod(a, b)
    return a


def _powmod(base: int, e: int, m: int) -> int:
    """base**e reduced mod m, square-and-multiply over the bits of e."""
    result = _mod(1, m)
    base = _mod(base, m)
    while e:
        if e & 1:
            result = _mod(_clmul(result, base), m)
        base = _mod(_clmul(base, base), m)
        e >>= 1
    return result


class Gf2Poly:
    """A field modulus over GF(2), wrapping its int coefficient pattern."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if not isinstance(bits, int) or bits < 0:
            raise ValueError("coefficient pattern must be a nonnegative int")
        self.bits = bits

    @classmethod
    def from_hex(cls, text: str) -> "Gf2Poly":
        return cls(int(text, 16))

    def to_hex(self) -> str:
        return format(self.bits, "#x")

    @property
    def degree(self) -> int:
        """Degree, with -1 as the marker for the zero polynomial."""
        return _degree(self.bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Gf2Poly) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((Gf2Poly, self.bits))

    def __repr__(self) -> str:
        terms = ["1" if i == 0 else ("u" if i == 1 else f"u^{i}")
                 for i in range(self.degree, -1, -1) if (self.bits >> i) & 1]
        return "+".join(terms) or "0"


def _prime_divisors(k: int) -> list[int]:
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def is_irreducible(m: int) -> bool:
    """Ben-Or's deterministic irreducibility test of the int-coded m, for
    degree >= 1: at most deg(m) // 2 squarings mod m, each followed by a
    gcd."""
    if m < 2:
        raise ValueError("irreducibility is defined for degree >= 1 only")
    # Degree-k m is irreducible iff gcd(u^(2^i) + u, m) = 1 for every
    # i = 1 .. k/2, as u^(2^i) + u is the product of the irreducibles
    # whose degree divides i.  A reducible m has a factor of degree at
    # most k/2, so most candidates fail within a few squarings.
    x = u = _mod(2, m)
    for _ in range(_degree(m) // 2):
        x = _mod(_clmul(x, x), m)
        if _gcd(x ^ u, m) != 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def find_irreducible(k: int) -> Gf2Poly:
    """The first irreducible of degree k in increasing coefficient-pattern
    order.

    Candidates are enumerated by increasing integer value of the
    coefficient pattern; for k >= 2 patterns with constant term 0 are
    divisible by u and skipped.  Each candidate goes through
    :func:`is_irreducible`'s test, which turns a typical reducible one
    down within a few squarings.  Deterministic: repeated calls, and calls
    in different processes, return the same polynomial.
    """
    if not 1 <= k <= IRREDUCIBLE_DEGREE_CAP:
        raise ValueError(f"degree must be in 1..{IRREDUCIBLE_DEGREE_CAP}, got {k}")
    if k == 1:
        return Gf2Poly(2)
    for bits in range((1 << k) | 1, 1 << (k + 1), 2):
        if is_irreducible(bits):
            return Gf2Poly(bits)
    raise AssertionError("unreachable: every degree has an irreducible")
