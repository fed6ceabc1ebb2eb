"""Field contexts: sizing rule, GF(4) hand tables, axioms across both
representation tiers, segment conversion, and seeded randomness."""

from __future__ import annotations

import math
import random
import time

import pytest

from streamfp.field import (
    ENUMERATION_DEGREE_CAP,
    DensityFn,
    _iroot,
    field_of,
    horner_fold,
    make_field,
    select_field_size,
    split_tables,
)
from streamfp.gf2poly import find_irreducible


# ------------------------------------------------------------------- sizing

def test_select_field_size_frozen_examples():
    assert select_field_size(4, 4) == 8
    assert select_field_size(8, 1) == 7
    assert select_field_size(1024, 1024) == 24


def test_select_field_size_is_unique_power_in_interval():
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randrange(1, 10 ** 6)
        f = rng.randrange(1, 10 ** 6)
        k = select_field_size(n, f)
        assert 8 * f * n < 2 ** k <= 16 * f * n
        # No other power of two fits in a half-open doubling interval.
        assert not (8 * f * n < 2 ** (k - 1) <= 16 * f * n)


def test_select_field_size_validates():
    with pytest.raises(ValueError):
        select_field_size(0, 1)
    with pytest.raises(ValueError):
        select_field_size(1, 0)


@pytest.mark.parametrize("r", [1, 2, 3, 7, 64, 1000])
def test_iroot_is_the_floor_root(r):
    rng = random.Random(r)
    xs = [0, 1, 2, 3] + [rng.getrandbits(rng.choice([8, 64, 1000, 10 ** 4, 10 ** 5]))
                         for _ in range(12)]
    for base in (2, 3, 255, 10 ** 5, 2 ** 70 + 1):  # perfect powers and their neighbours
        xs += [base ** r - 1, base ** r, base ** r + 1]
    for x in xs:
        t = _iroot(x, r)
        assert t ** r <= x < (t + 1) ** r, (x.bit_length(), r)


def test_iroot_of_a_large_root_degree_is_fast():
    # f(2) = 2^(10^6 / 1000) = 2^1000, so k = 1005.  Newton from twice the
    # root shrank by about 1/1000 a step, and took over a minute.
    start = time.perf_counter()
    assert DensityFn("power", 1000000, 1000).field_size(2) == 1005
    assert time.perf_counter() - start < 1.0


def test_select_field_size_huge_inputs_supported():
    # Big integers carry the product exactly; no overflow error path needed.
    k = select_field_size(10 ** 40, 10 ** 40)
    assert 8 * 10 ** 80 < 2 ** k <= 16 * 10 ** 80


# ----------------------------------------------------------------- contexts

def test_make_field_frozen_moduli():
    assert make_field(2).t_hex == "0x7"
    assert make_field(4).t_hex == "0x13"


def test_make_field_validates_k():
    with pytest.raises(ValueError):
        make_field(0)


def test_make_field_tests_irreducibility_only_in_its_search(monkeypatch):
    from streamfp import gf2poly

    calls = []
    test = gf2poly.is_irreducible
    monkeypatch.setattr(gf2poly, "is_irreducible", lambda m: calls.append(m) or test(m))
    k = 40
    find_irreducible.cache_clear()
    ctx = make_field.__wrapped__(k)
    # One test per odd candidate up to the modulus the search returns.
    searched = list(range((1 << k) | 1, ctx.modulus.bits + 1, 2))
    assert calls == searched
    # A record's modulus is compared with make_field(k)'s, not proved again.
    assert field_of(k, ctx.t_hex) == ctx
    assert calls == searched
    assert (ctx.m_bits, ctx.m_low, ctx.t_hex) == (
        ctx.modulus.bits, ctx.modulus.bits ^ (1 << k), hex(ctx.modulus.bits))


def test_field_ctx_rejects_bad_modulus():
    # field_of names GF(2^k) only by make_field(k)'s own string.
    assert field_of(2, "0x7") is make_field(2)
    for k, t_hex in [(2, "0x5"),  # (u+1)^2 is reducible
                     (3, "0x7"),  # degree mismatch
                     (4, "0xZZ"), (4, ""), (4, 0x13),  # not the hex string
                     (4, "0x19"),  # irreducible, but not find_irreducible(4)
                     (4, "0X13"), (4, "13"), (4, "0x013")]:  # 0x13 spelled otherwise
        with pytest.raises(ValueError, match="is not the modulus of GF"):
            field_of(k, t_hex)
    with pytest.raises(ValueError):
        make_field(0)


def test_q_property():
    assert make_field(2).q == 4
    assert make_field(10).q == 1024


# ----------------------------------------------------------- GF(4) by hand

def test_gf4_full_multiplication_table():
    ctx = make_field(2)
    # Order: 0, 1, u, u+1 as bit patterns 0..3.
    expected = [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ]
    for a in range(4):
        for b in range(4):
            assert ctx.mul(a, b) == expected[a][b], (a, b)


def test_gf4_hand_examples():
    ctx = make_field(2)
    assert ctx.mul(2, 2) == 3  # u*u = u+1
    assert ctx.mul(2, 3) == 1  # u*(u+1) = 1
    assert ctx.pow(2, 3) == 1  # u^3 = 1
    assert ctx.add(3, 0) == 3
    assert ctx.mul(3, 1) == 3


def test_pow_identities():
    ctx = make_field(5)
    for a in ctx.elements():
        assert ctx.pow(a, 1) == a
    assert ctx.pow(0, 0) == 1  # documented empty-product convention
    with pytest.raises(ValueError):
        ctx.pow(2, -1)


# ------------------------------------------------------------------- axioms

def _axiom_sweep(ctx, trials: int, rng) -> None:
    for _ in range(trials):
        a = ctx.random_elem(rng)
        b = ctx.random_elem(rng)
        c = ctx.random_elem(rng)
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1


def test_axioms_small_field():
    _axiom_sweep(make_field(8), 400, random.Random(21))


def test_axioms_word_boundary_field():
    _axiom_sweep(make_field(64), 200, random.Random(22))


def test_axioms_beyond_word_size():
    _axiom_sweep(make_field(80), 100, random.Random(23))


def test_lagrange_exhaustive_small_fields():
    for k in (1, 2, 3, 6, 12):
        ctx = make_field(k)
        for a in ctx.elements():
            if a:
                assert ctx.pow(a, ctx.q - 1) == 1, (k, a)


def test_inverse_exhaustive_gf256():
    ctx = make_field(8)
    for a in range(1, 256):
        assert ctx.mul(a, ctx.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


# --------------------------------------------------------- segment mapping

def test_from_segment_hand_examples():
    ctx = make_field(2)
    assert ctx.from_segment("10") == 1  # first-read bit is the u^0 coefficient
    assert ctx.from_segment("01") == 2
    assert ctx.from_segment("11") == 3
    assert ctx.from_segment("1") == 1  # short final segment zero-extends high


def test_from_segment_bijection_exhaustive():
    for k in (3, 12):
        ctx = make_field(k)
        seen = {ctx.from_segment(format(i, f"0{k}b")[::-1]) for i in range(2 ** k)}
        assert seen == set(range(2 ** k))


def test_from_segment_validates():
    ctx = make_field(2)
    with pytest.raises(ValueError):
        ctx.from_segment("")
    with pytest.raises(ValueError):
        ctx.from_segment("101")
    with pytest.raises(ValueError):
        ctx.from_segment("1x")


# -------------------------------------------------------------- enumeration

def test_elements_order_and_length():
    ctx = make_field(2)
    assert list(ctx.elements()) == [0, 1, 2, 3]
    assert len(make_field(10).elements()) == 1024


def test_elements_guard():
    ctx = make_field(ENUMERATION_DEGREE_CAP + 1)
    with pytest.raises(ValueError):
        ctx.elements()


# -------------------------------------------------------------- random_elem

def test_random_elem_deterministic_replay():
    ctx = make_field(2)
    seq1 = [ctx.random_elem(random.Random(99)) for _ in range(1)]
    rng_a, rng_b = random.Random(5), random.Random(5)
    a_seq = [ctx.random_elem(rng_a) for _ in range(50)]
    b_seq = [ctx.random_elem(rng_b) for _ in range(50)]
    assert a_seq == b_seq
    assert seq1 == [ctx.random_elem(random.Random(99))]


def test_random_elem_frequencies_within_five_sigma():
    ctx = make_field(2)
    rng = random.Random(1234)
    draws = 4096 * 100
    counts = [0, 0, 0, 0]
    for _ in range(draws):
        counts[ctx.random_elem(rng)] += 1
    expect = draws / 4
    sigma = math.sqrt(draws * 0.25 * 0.75)
    for a, c in enumerate(counts):
        assert abs(c - expect) < 5 * sigma, (a, c)


def test_random_elem_covers_zero():
    ctx = make_field(1)
    rng = random.Random(0)
    seen = {ctx.random_elem(rng) for _ in range(64)}
    assert seen == {0, 1}


# ------------------------------------------------------------ element text

def test_elem_hex_fixed_width():
    ctx = make_field(12)
    assert ctx.elem_hex(0) == "000"
    assert ctx.elem_hex(0xABC) == "abc"
    assert ctx.elem_from_hex("0ab") == 0xAB


def test_elem_bits_msb_first():
    ctx = make_field(4)
    assert ctx.elem_bits(0b0010) == "0010"
    assert ctx.elem_bits(1) == "0001"


def test_elem_range_checks():
    ctx = make_field(2)
    with pytest.raises(ValueError):
        ctx.elem_hex(4)
    with pytest.raises(ValueError):
        ctx.elem_from_hex("ff")


def _shift_and_reduce_mul(a: int, b: int, m: int, k: int) -> int:
    """a*b mod m, deg m = k, bit-serially: for each bit of b from the top,
    multiply the product so far by u, reduce, and add a if the bit is set.
    It shares no routine with the field, so it referees ctx.mul."""
    acc = 0
    for i in range(b.bit_length() - 1, -1, -1):
        acc <<= 1
        if acc >> k:
            acc ^= m
        if (b >> i) & 1:
            acc ^= a
    return acc


def test_word_and_bigint_tiers_agree():
    # Random products through a context (the word-tier kernels use these
    # bit patterns up to k = 64) and through the bit-serial referee.
    rng = random.Random(77)
    for k in (24, 64, 65, 128):
        ctx = make_field(k)
        for _ in range(300):
            a = rng.getrandbits(k)
            b = rng.getrandbits(k)
            assert ctx.mul(a, b) == _shift_and_reduce_mul(a, b, ctx.modulus.bits, k), (k, a, b)


@pytest.mark.parametrize("k", [1, 5, 8, 12, 64, 65, 72])
def test_split_tables_match_bigint_mul(k):
    ctx = make_field(k)
    rng = random.Random(900 + k)
    for a in (0, 1, rng.getrandbits(k)):
        tables = split_tables(a, ctx.m_bits, k)
        assert len(tables) == -(-k // 8)
        for i, table in enumerate(tables):
            width = min(8, k - 8 * i)
            for b in range(1 << width):
                assert table[b] == ctx.mul(a, b << (8 * i)), (k, a, i, b)
        for _ in range(50):
            v = rng.getrandbits(k)
            assert horner_fold(v, [0], tables) == ctx.mul(v, a)
