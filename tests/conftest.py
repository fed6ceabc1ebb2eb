"""Shared test helpers."""

from __future__ import annotations

import os

import streamfp
from streamfp.gf2poly import _mod

# Tests that start `python -m streamfp.cli` as a child process need the
# child to import the same package as this process, also when it was
# found through pytest's `pythonpath` setting rather than PYTHONPATH.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(streamfp.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
)


class FixedRng:
    """A stand-in RNG returning preset getrandbits values in order."""

    def __init__(self, *values: int):
        self._values = list(values)

    def getrandbits(self, _k: int) -> int:
        return self._values.pop(0)


def factor_smallest(p: int) -> int | None:
    """Smallest nontrivial divisor of the int-coded polynomial p by
    exhaustive trial division, or None when p is irreducible: the referee
    of the irreducibility test.

    Candidate divisors run over every polynomial of degree 1..deg(p)//2 in
    increasing coefficient-pattern order, so the returned divisor has the
    least degree (and least pattern) among all nontrivial divisors.
    """
    deg = p.bit_length() - 1
    if deg < 1:
        raise ValueError("factorization is defined for degree >= 1 only")
    for cand in range(2, 1 << (deg // 2 + 1)):
        if _mod(p, cand) == 0:
            return cand
    return None
