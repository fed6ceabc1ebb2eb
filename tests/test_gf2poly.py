"""GF(2)[u] polynomial arithmetic: frozen hand-worked values, ring
axioms on random samples, and the irreducibility test checked against
an independent trial-division oracle and against Rabin's test."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfp.gf2poly import (
    IRREDUCIBLE_DEGREE_CAP,
    Gf2Poly,
    ONE,
    U,
    ZERO,
    factor_smallest,
    find_irreducible,
    gcd,
    is_irreducible,
    powmod,
)


def poly(bits: int) -> Gf2Poly:
    return Gf2Poly(bits)


# ----------------------------------------------------------- representation

def test_hex_convention_round_trip():
    # u^4 + u + 1 has coefficient bits 10011, LSB = constant term.
    p = Gf2Poly.from_hex("0x13")
    assert p.degree == 4
    assert p == poly(0b10011)
    assert p.to_hex() == "0x13"
    assert Gf2Poly.from_hex("13") == p


def test_zero_and_one_are_distinct():
    assert ZERO != ONE
    assert not ZERO
    assert ONE
    assert ZERO.degree < 0
    assert ONE.degree == 0
    assert U.degree == 1


def test_repr_names_terms():
    assert repr(poly(0b111)) == "u^2+u+1"
    assert repr(ZERO) == "0"
    assert repr(ONE) == "1"
    assert repr(U) == "u"


def test_from_hex_rejects_garbage():
    with pytest.raises(ValueError):
        Gf2Poly.from_hex("0xZZ")
    with pytest.raises(ValueError):
        Gf2Poly.from_hex("")


# ------------------------------------------------------------------ add/mul

def test_add_self_cancels():
    p = poly(0b11)  # u + 1
    assert p + p == ZERO


def test_add_disjoint_supports():
    assert poly(0b101) + poly(0b10) == poly(0b111)


def test_add_identity():
    for bits in (0, 1, 0b1011, 0b110101):
        assert poly(bits) + ZERO == poly(bits)


def test_mul_hand_examples():
    assert poly(0b11) * poly(0b11) == poly(0b101)  # (u+1)^2 = u^2+1
    assert poly(0b11) * poly(0b111) == poly(0b1001)  # (u+1)(u^2+u+1) = u^3+1
    assert poly(0b1011) * ZERO == ZERO


def test_mul_degree_adds():
    rng = random.Random(1)
    for _ in range(200):
        p = poly(rng.getrandbits(40) | (1 << 40))
        q = poly(rng.getrandbits(25) | (1 << 25))
        assert (p * q).degree == p.degree + q.degree


# ------------------------------------------------------------------- divmod

def test_divmod_hand_examples():
    q, r = divmod(poly(0b1011), poly(0b111))
    assert (q, r) == (poly(0b11), poly(0b10))
    q, r = divmod(poly(0b100), poly(0b111))
    assert (q, r) == (ONE, poly(0b11))


def test_divmod_self():
    for bits in (1, 0b10, 0b111, 0b100101):
        q, r = divmod(poly(bits), poly(bits))
        assert (q, r) == (ONE, ZERO)


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(poly(0b101), ZERO)
    with pytest.raises(ZeroDivisionError):
        poly(0b101) % ZERO


@given(st.integers(min_value=0, max_value=2 ** 96 - 1),
       st.integers(min_value=1, max_value=2 ** 48 - 1))
@settings(max_examples=200, deadline=None)
def test_divmod_reconstruction(pbits, mbits):
    p, m = poly(pbits), poly(mbits)
    q, r = divmod(p, m)
    assert q * m + r == p
    assert r.degree < m.degree


# --------------------------------------------------------------- ring axioms

def test_ring_axioms_random_sample():
    rng = random.Random(20240817)
    for _ in range(10_000):
        a = poly(rng.getrandbits(rng.randrange(1, 257)))
        b = poly(rng.getrandbits(rng.randrange(1, 257)))
        c = poly(rng.getrandbits(rng.randrange(1, 257)))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + a == ZERO


def test_frobenius_linearity():
    rng = random.Random(7)
    for _ in range(500):
        a = poly(rng.getrandbits(120))
        b = poly(rng.getrandbits(120))
        s = a + b
        assert s * s == a * a + b * b


# ---------------------------------------------------------------------- gcd

def test_gcd_hand_examples():
    assert gcd(poly(0b101), poly(0b11)) == poly(0b11)
    assert gcd(poly(0b111), U) == ONE
    p = poly(0b110111)
    assert gcd(p, p) == p
    assert gcd(p, ZERO) == p
    assert gcd(ZERO, p) == p


def test_gcd_of_zeros_raises():
    with pytest.raises(ValueError):
        gcd(ZERO, ZERO)


def test_gcd_divides_both():
    rng = random.Random(3)
    for _ in range(300):
        a = poly(rng.getrandbits(60))
        b = poly(rng.getrandbits(60))
        if not a and not b:
            continue
        g = gcd(a, b)
        assert a % g == ZERO
        assert b % g == ZERO


# ------------------------------------------------------------------- powmod

def test_powmod_hand_examples():
    t = poly(0b111)
    assert powmod(U, 2, t) == poly(0b11)
    assert powmod(U, 4, t) == U
    assert powmod(poly(0b1101), 0, t) == ONE


def test_powmod_matches_repeated_multiplication():
    rng = random.Random(11)
    m = find_irreducible(13)
    for _ in range(50):
        a = poly(rng.getrandbits(13))
        e = rng.randrange(0, 50)
        expected = ONE
        for _ in range(e):
            expected = (expected * a) % m
        assert powmod(a, e, m) == expected


def test_powmod_big_exponent_composes():
    # a^(2^60) mod m computed in one call equals sixty squarings.
    m = find_irreducible(17)
    a = poly(0b10110111)
    x = a % m
    for _ in range(60):
        x = (x * x) % m
    assert powmod(a, 1 << 60, m) == x


def test_powmod_errors():
    with pytest.raises(ZeroDivisionError):
        powmod(U, 3, ZERO)
    with pytest.raises(ValueError):
        powmod(U, 3, ONE)  # modulus must have degree >= 1
    with pytest.raises(ValueError):
        powmod(U, -1, poly(0b111))


# ------------------------------------------------------------ irreducibility

def test_is_irreducible_hand_examples():
    assert is_irreducible(poly(0b111)) is True
    assert is_irreducible(poly(0b101)) is False  # (u+1)^2
    assert is_irreducible(U) is True
    assert is_irreducible(poly(0b11)) is True


def test_is_irreducible_rejects_constants():
    with pytest.raises(ValueError):
        is_irreducible(ZERO)
    with pytest.raises(ValueError):
        is_irreducible(ONE)


def test_factor_smallest_hand_examples():
    assert factor_smallest(poly(0b101)) == poly(0b11)
    assert factor_smallest(poly(0b10011)) is None
    assert factor_smallest(poly(0b100)) == U
    with pytest.raises(ValueError):
        factor_smallest(ONE)


def test_is_irreducible_agrees_with_trial_division_to_degree_12():
    for bits in range(2, 1 << 13):
        p = poly(bits)
        assert is_irreducible(p) == (factor_smallest(p) is None), repr(p)


def _rabin(m: Gf2Poly) -> bool:
    """Rabin's test, as a referee: degree-k m is irreducible iff
    u^(2^k) = u (mod m) and gcd(u^(2^(k/d)) + u, m) = 1 for each prime d
    dividing k."""
    k = m.degree
    primes = [d for d in range(2, k + 1) if k % d == 0
              and all(d % e for e in range(2, d))]
    return powmod(U, 1 << k, m) == U % m and all(
        gcd(powmod(U, 1 << (k // d), m) + U, m) == ONE for d in primes
    )


def test_is_irreducible_agrees_with_rabin_at_degrees_20_to_160():
    # Random patterns are mostly reducible with a small factor, so
    # products of two irreducibles (no factor below the smaller degree;
    # two of degree k/2 pass every squaring but the last) and the
    # irreducibles themselves are checked as well.
    rng = random.Random(20261018)
    degrees = [rng.randrange(20, 161) for _ in range(200)]
    cases = [poly(rng.getrandbits(k) | (1 << k) | 1) for k in degrees]
    for k in degrees[:40]:
        for j in (k // 2, rng.randrange(1, k)):
            cases.append(find_irreducible(j) * find_irreducible(k - j))
    cases += [find_irreducible(k) for k in set(degrees)]
    assert any(_rabin(p) for p in cases[:200])
    for p in cases:
        assert is_irreducible(p) == _rabin(p), p.to_hex()


def test_irreducible_counts_match_necklace_numbers_to_degree_8():
    expected = {2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30}
    for k, want in expected.items():
        got = sum(
            1 for bits in range(1 << k, 1 << (k + 1)) if is_irreducible(poly(bits))
        )
        assert got == want, f"degree {k}"


# --------------------------------------------------------- find_irreducible

def test_find_irreducible_frozen_values():
    assert find_irreducible(1) == U
    assert find_irreducible(2).to_hex() == "0x7"
    assert find_irreducible(3).to_hex() == "0xb"
    assert find_irreducible(4).to_hex() == "0x13"
    assert find_irreducible(5).to_hex() == "0x25"


def test_find_irreducible_is_minimal_in_enumeration_order():
    # Independent oracle: ascending integer scan, trial-division check.
    for k in range(2, 11):
        got = find_irreducible(k)
        for bits in range(1 << k, int(got)):
            assert factor_smallest(poly(bits)) is not None, (
                f"degree {k}: skipped irreducible {poly(bits)!r}"
            )
        assert factor_smallest(got) is None


def test_find_irreducible_pinned_moduli():
    # Every fingerprint and sketch file names its modulus, so a change to
    # the search must find the same first irreducible at every degree.
    pinned = {
        31: "0x80000009",
        32: "0x10000008d",
        33: "0x20000004b",
        50: "0x400000000001d",
        58: "0x400000000000063",
        62: "0x4000000000000069",
        64: "0x1000000000000001b",
        65: "0x2000000000000001b",
        100: "0x10000000000000000000000065",
        128: "0x100000000000000000000000000000087",
        256: format((1 << 256) | 0x425, "#x"),
    }
    assert {k: find_irreducible(k).to_hex() for k in pinned} == pinned


def test_find_irreducible_deterministic():
    first = [int(find_irreducible(k)) for k in range(1, 20)]
    second = [int(find_irreducible(k)) for k in range(1, 20)]
    assert first == second


def test_find_irreducible_large_degrees():
    for k in (64, 96, 129):
        p = find_irreducible(k)
        assert p.degree == k
        assert is_irreducible(p)


def test_find_irreducible_cap():
    with pytest.raises(ValueError):
        find_irreducible(0)
    with pytest.raises(ValueError):
        find_irreducible(IRREDUCIBLE_DEGREE_CAP + 1)


def test_hash_and_equality_consistency():
    a = poly(0b1011)
    b = Gf2Poly.from_hex("0xb")
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
