"""Referees the benchmark holds itself, to check every output it times.

The stream-raw referee is a Horner fold over GF(2^k) written here with
plain Python ints: a carry-less multiply by the fixed point a and a
reduction by the field's modulus, both table-driven per byte.  It shares
no arithmetic with streamfp's stream, field or kernels modules; only the
modulus (the program's deterministic choice of field) comes from there.

The replay contract the referees rely on: a command run with --seed S
draws its evaluation point as random.Random(S).getrandbits(k).
"""

from __future__ import annotations

import random

__all__ = [
    "Checks",
    "rule_k",
    "draw_point",
    "clmul",
    "reduce_mod",
    "HornerReferee",
    "raw_segments",
    "expected_accept",
]

_BYTE_BITS = [format(b, "08b") for b in range(256)]


class Checks:
    """Counts checked outputs and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def rule_k(n: int, members: int) -> int:
    """Field degree from the paper's sizing rule: 8 f(n) n < 2^k <= 16 f(n) n."""
    return (8 * members * n).bit_length()


def draw_point(seed: int, k: int) -> int:
    return random.Random(seed).getrandbits(k)


def clmul(x: int, y: int) -> int:
    """Carry-less product of two GF(2)[u] polynomials held as ints."""
    out = 0
    while y:
        low = y & -y
        out ^= x * low
        y ^= low
    return out


def reduce_mod(p: int, modulus: int) -> int:
    k = modulus.bit_length() - 1
    while p.bit_length() > k:
        p ^= modulus << (p.bit_length() - 1 - k)
    return p


class HornerReferee:
    """v <- v*a + s over GF(2^k) for one fixed point a, starting at v = 1."""

    def __init__(self, k: int, modulus: int, a: int):
        self.k = k
        self.mask = (1 << k) - 1
        self._times_a = [clmul(a, b) for b in range(256)]
        # The product has degree <= 2k-2, so its part above u^k has at most
        # k-1 bits; each byte of that part reduces through its own table.
        high_bytes = max(1, (k - 1 + 7) // 8)
        self._reduce = [
            [reduce_mod(b << (k + 8 * i), modulus) for b in range(256)]
            for i in range(high_bytes)
        ]

    def mul_a(self, v: int) -> int:
        p = 0
        shift = 0
        while v:
            p ^= self._times_a[v & 255] << shift
            v >>= 8
            shift += 8
        high = p >> self.k
        out = p & self.mask
        i = 0
        while high:
            out ^= self._reduce[i][high & 255]
            high >>= 8
            i += 1
        return out

    def fold(self, segments) -> int:
        v = 1
        for s in segments:
            v = self.mul_a(v) ^ s
        return v


def raw_segments(data: bytes, n: int, k: int) -> list[int]:
    """Segment elements of the first n bits of raw bytes, most significant
    bit of each byte first; the first-read bit of a segment is its u^0
    coefficient, and the last segment may be short."""
    bits = "".join(map(_BYTE_BITS.__getitem__, data))[:n]
    return [int(bits[i:i + k][::-1], 2) for i in range(0, n, k)]


def expected_accept(ctx, members: list[str], x: str, a: int, direct_eval) -> bool:
    """Whether a sketch over members holds the pair (a, d_x(a)), by direct
    term-by-term evaluation (the program's big-int referee)."""
    vx = direct_eval(ctx, x, a)
    return any(direct_eval(ctx, y, a) == vx for y in members)
