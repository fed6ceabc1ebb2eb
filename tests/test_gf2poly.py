"""GF(2)[u] polynomial arithmetic on int-coded polynomials: frozen
hand-worked values, ring axioms on random samples, the modulus record,
and the irreducibility test checked against an independent
trial-division oracle and against Rabin's test."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfp.gf2poly import (
    IRREDUCIBLE_DEGREE_CAP,
    Gf2Poly,
    _clmul,
    _divmod,
    _gcd,
    _mod,
    _powmod,
    find_irreducible,
    is_irreducible,
)

from conftest import factor_smallest


def _deg(a: int) -> int:
    return a.bit_length() - 1


# ----------------------------------------------------------- representation

def test_hex_convention_round_trip():
    # u^4 + u + 1 has coefficient bits 10011, LSB = constant term.
    p = Gf2Poly(0x13)
    assert p.bits == 0b10011 and _deg(p.bits) == 4
    assert p == Gf2Poly(0b10011)
    assert p != 0x13  # a record equals records only


def test_zero_and_one_are_distinct():
    assert Gf2Poly(0) != Gf2Poly(1)
    assert (Gf2Poly(0).bits, Gf2Poly(1).bits) == (0, 1)


def test_hash_and_equality_consistency():
    a = Gf2Poly(0b1011)
    b = Gf2Poly(0xb)
    assert a == b and a != Gf2Poly(0b1010)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


# ---------------------------------------------------------------------- mul

def test_mul_hand_examples():
    assert _clmul(0b11, 0b11) == 0b101  # (u+1)^2 = u^2+1
    assert _clmul(0b11, 0b111) == 0b1001  # (u+1)(u^2+u+1) = u^3+1
    assert _clmul(0b1011, 0) == 0


def test_mul_degree_adds():
    rng = random.Random(1)
    for _ in range(200):
        p = rng.getrandbits(40) | (1 << 40)
        q = rng.getrandbits(25) | (1 << 25)
        assert _deg(_clmul(p, q)) == _deg(p) + _deg(q)


# ------------------------------------------------------------------- divmod

def test_divmod_hand_examples():
    assert _divmod(0b1011, 0b111) == (0b11, 0b10)
    assert _divmod(0b100, 0b111) == (1, 0b11)


def test_divmod_self():
    for bits in (1, 0b10, 0b111, 0b100101):
        assert _divmod(bits, bits) == (1, 0)


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        _divmod(0b101, 0)
    with pytest.raises(ZeroDivisionError):
        _mod(0b101, 0)


@given(st.integers(min_value=0, max_value=2 ** 96 - 1),
       st.integers(min_value=1, max_value=2 ** 48 - 1))
@settings(max_examples=200, deadline=None)
def test_divmod_reconstruction(p, m):
    q, r = _divmod(p, m)
    assert _clmul(q, m) ^ r == p
    assert _deg(r) < _deg(m)


# --------------------------------------------------------------- ring axioms

def test_ring_axioms_random_sample():
    # Addition is XOR; the product is _clmul.
    rng = random.Random(20240817)
    for _ in range(10_000):
        a = rng.getrandbits(rng.randrange(1, 257))
        b = rng.getrandbits(rng.randrange(1, 257))
        c = rng.getrandbits(rng.randrange(1, 257))
        assert _clmul(a, b) == _clmul(b, a)
        assert _clmul(_clmul(a, b), c) == _clmul(a, _clmul(b, c))
        assert _clmul(a, b ^ c) == _clmul(a, b) ^ _clmul(a, c)
        assert _clmul(a, 1) == a


def test_frobenius_linearity():
    rng = random.Random(7)
    for _ in range(500):
        a = rng.getrandbits(120)
        b = rng.getrandbits(120)
        s = a ^ b
        assert _clmul(s, s) == _clmul(a, a) ^ _clmul(b, b)


# ---------------------------------------------------------------------- gcd

def test_gcd_hand_examples():
    assert _gcd(0b101, 0b11) == 0b11
    assert _gcd(0b111, 0b10) == 1
    p = 0b110111
    assert _gcd(p, p) == p
    assert _gcd(p, 0) == p
    assert _gcd(0, p) == p


def test_gcd_divides_both():
    rng = random.Random(3)
    for _ in range(300):
        a = rng.getrandbits(60)
        b = rng.getrandbits(60)
        if not a and not b:
            continue
        g = _gcd(a, b)
        assert _mod(a, g) == 0
        assert _mod(b, g) == 0


# ------------------------------------------------------------------- powmod

def test_powmod_hand_examples():
    t = 0b111
    assert _powmod(0b10, 2, t) == 0b11
    assert _powmod(0b10, 4, t) == 0b10
    assert _powmod(0b1101, 0, t) == 1


def test_powmod_matches_repeated_multiplication():
    rng = random.Random(11)
    m = find_irreducible(13).bits
    for _ in range(50):
        a = rng.getrandbits(13)
        e = rng.randrange(0, 50)
        expected = 1
        for _ in range(e):
            expected = _mod(_clmul(expected, a), m)
        assert _powmod(a, e, m) == expected


def test_powmod_big_exponent_composes():
    # a^(2^60) mod m computed in one call equals sixty squarings.
    m = find_irreducible(17).bits
    a = 0b10110111
    x = _mod(a, m)
    for _ in range(60):
        x = _mod(_clmul(x, x), m)
    assert _powmod(a, 1 << 60, m) == x


def test_powmod_errors():
    with pytest.raises(ZeroDivisionError):
        _powmod(0b10, 3, 0)


# ------------------------------------------------------------ irreducibility

def test_is_irreducible_hand_examples():
    assert is_irreducible(0b111) is True
    assert is_irreducible(0b101) is False  # (u+1)^2
    assert is_irreducible(0b10) is True
    assert is_irreducible(0b11) is True


def test_is_irreducible_rejects_constants():
    with pytest.raises(ValueError):
        is_irreducible(0)
    with pytest.raises(ValueError):
        is_irreducible(1)


def test_factor_smallest_hand_examples():
    assert factor_smallest(0b101) == 0b11
    assert factor_smallest(0b10011) is None
    assert factor_smallest(0b100) == 0b10
    with pytest.raises(ValueError):
        factor_smallest(1)


def test_is_irreducible_agrees_with_trial_division_to_degree_12():
    for bits in range(2, 1 << 13):
        assert is_irreducible(bits) == (factor_smallest(bits) is None), hex(bits)


def _rabin(m: int) -> bool:
    """Rabin's test, as a referee: degree-k m is irreducible iff
    u^(2^k) = u (mod m) and gcd(u^(2^(k/d)) + u, m) = 1 for each prime d
    dividing k."""
    k = _deg(m)
    primes = [d for d in range(2, k + 1) if k % d == 0
              and all(d % e for e in range(2, d))]
    u = _mod(0b10, m)
    return _powmod(u, 1 << k, m) == u and all(
        _gcd(_powmod(u, 1 << (k // d), m) ^ u, m) == 1 for d in primes
    )


def test_is_irreducible_agrees_with_rabin_at_degrees_20_to_160():
    # Random patterns are mostly reducible with a small factor, so
    # products of two irreducibles (no factor below the smaller degree;
    # two of degree k/2 pass every squaring but the last) and the
    # irreducibles themselves are checked as well.
    rng = random.Random(20261018)
    degrees = [rng.randrange(20, 161) for _ in range(200)]
    cases = [rng.getrandbits(k) | (1 << k) | 1 for k in degrees]
    for k in degrees[:40]:
        for j in (k // 2, rng.randrange(1, k)):
            cases.append(_clmul(find_irreducible(j).bits, find_irreducible(k - j).bits))
    cases += [find_irreducible(k).bits for k in set(degrees)]
    assert any(_rabin(p) for p in cases[:200])
    for p in cases:
        assert is_irreducible(p) == _rabin(p), hex(p)


def test_irreducible_counts_match_necklace_numbers_to_degree_8():
    expected = {2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30}
    for k, want in expected.items():
        got = sum(1 for bits in range(1 << k, 1 << (k + 1)) if is_irreducible(bits))
        assert got == want, f"degree {k}"


# --------------------------------------------------------- find_irreducible

def test_find_irreducible_frozen_values():
    assert find_irreducible(1) == Gf2Poly(0b10)
    assert [find_irreducible(k).bits for k in (2, 3, 4, 5)] == [0x7, 0xb, 0x13, 0x25]


def test_find_irreducible_is_minimal_in_enumeration_order():
    # Independent oracle: ascending integer scan, trial-division check.
    for k in range(2, 11):
        got = find_irreducible(k).bits
        for bits in range(1 << k, got):
            assert factor_smallest(bits) is not None, (
                f"degree {k}: skipped irreducible {bits:#x}"
            )
        assert factor_smallest(got) is None


def test_find_irreducible_pinned_moduli():
    # Every fingerprint and sketch file names its modulus, so a change to
    # the search must find the same first irreducible at every degree.
    pinned = {
        31: 0x80000009,
        32: 0x10000008d,
        33: 0x20000004b,
        50: 0x400000000001d,
        58: 0x400000000000063,
        62: 0x4000000000000069,
        64: 0x1000000000000001b,
        65: 0x2000000000000001b,
        100: 0x10000000000000000000000065,
        128: 0x100000000000000000000000000000087,
        256: (1 << 256) | 0x425,
    }
    assert {k: find_irreducible(k).bits for k in pinned} == pinned


def test_find_irreducible_deterministic():
    first = [find_irreducible(k).bits for k in range(1, 20)]
    second = [find_irreducible(k).bits for k in range(1, 20)]
    assert first == second


def test_find_irreducible_large_degrees():
    for k in (64, 96, 129):
        p = find_irreducible(k).bits
        assert _deg(p) == k
        assert is_irreducible(p)


def test_find_irreducible_cap():
    with pytest.raises(ValueError):
        find_irreducible(0)
    with pytest.raises(ValueError):
        find_irreducible(IRREDUCIBLE_DEGREE_CAP + 1)
