"""Word-tier kernels: they must agree bit for bit with the big-integer
polynomial tier."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamfp import kernels
from streamfp.field import ENUMERATION_DEGREE_CAP, horner_fold, make_field, split_tables
from streamfp.gf2poly import Gf2Poly
from streamfp.stream import direct_eval

DIFF_KS = (1, 2, 3, 5, 8, 16, 24, 32, 47, 63, 64)


def _ref_mul(ctx, a: int, b: int) -> int:
    return int((Gf2Poly(a) * Gf2Poly(b)) % ctx.modulus)


def test_mulmod_matches_bigint_tier():
    rng = random.Random(101)
    for k in DIFF_KS:
        ctx = make_field(k)
        xs = np.array([rng.getrandbits(k) for _ in range(64)], np.uint64)
        ys = np.array([rng.getrandbits(k) for _ in range(64)], np.uint64)
        got = kernels.mulmod(xs, ys, ctx.m_low, k)
        want = [_ref_mul(ctx, int(x), int(y)) for x, y in zip(xs, ys)]
        assert got.tolist() == want, f"k={k}"


def test_mulmod_broadcasts_scalar():
    ctx = make_field(8)
    ys = np.arange(256, dtype=np.uint64)
    got = kernels.mulmod(3, ys, ctx.m_low, 8)
    want = [_ref_mul(ctx, 3, int(y)) for y in ys]
    assert got.tolist() == want


def test_eval_points_is_horner():
    rng = random.Random(55)
    for k in (2, 8, 16):
        ctx = make_field(k)
        coeffs = [rng.getrandbits(k) for _ in range(5)]
        pts = [rng.getrandbits(k) for _ in range(32)]
        got = kernels.eval_points(
            np.array(pts, np.uint64), np.array(coeffs, np.uint64), ctx.m_low, k
        )
        for a, v in zip(pts, got.tolist()):
            want = 1
            for c in coeffs:
                want = ctx.add(ctx.mul(want, a), c)
            assert v == want, (k, a)


def _bigint_horner(ctx, coeffs, a: int) -> int:
    v = 1
    for c in coeffs:
        v = ctx.add(ctx.mul(v, a), c)
    return v


def test_eval_points_matches_bigint_on_every_point():
    rng = random.Random(77)
    for k in range(1, 13):
        ctx = make_field(k)
        pts = np.arange(ctx.q, dtype=np.uint64)
        # Zero coefficients drive v to 0 at a = 0, so the next step
        # multiplies 0 by 0: both operands hit the log sentinel.
        for coeffs in ([rng.getrandbits(k) for _ in range(5)], [0, 0, rng.getrandbits(k)]):
            got = kernels.eval_points(pts, np.array(coeffs, np.uint64), ctx.m_low, k)
            want = [_bigint_horner(ctx, coeffs, a) for a in range(ctx.q)]
            assert got.tolist() == want, (k, coeffs)


@pytest.mark.parametrize("k", [13, 16, 20])
def test_eval_points_matches_bigint_on_random_points(k):
    rng = random.Random(k)
    ctx = make_field(k)
    a0 = rng.getrandbits(k) | 1
    pts = [0, a0] + [rng.getrandbits(k) for _ in range(200)]
    # c_0 = a0 makes the first step at a0 give v = 0, which the next
    # step must keep at 0.
    for coeffs in ([a0] + [rng.getrandbits(k) for _ in range(3)],
                   [0, 0] + [rng.getrandbits(k) for _ in range(2)]):
        got = kernels.eval_points(np.array(pts, np.uint64), np.array(coeffs, np.uint64),
                                  ctx.m_low, k)
        want = [_bigint_horner(ctx, coeffs, a) for a in pts]
        assert got.tolist() == want, coeffs


def test_eval_points_empty_coeffs_gives_ones():
    ctx = make_field(4)
    got = kernels.eval_points(
        np.arange(16, dtype=np.uint64), np.empty(0, np.uint64), ctx.m_low, 4
    )
    assert got.tolist() == [1] * 16


def test_fold_segments_is_horner():
    # 5000 segments fold in 417 blocks of L = 12, the last block padded.
    rng = random.Random(9)
    for k in (1, 8, 33, 64):
        ctx = make_field(k)
        segs = [rng.getrandbits(k) for _ in range(5000)]
        a = rng.getrandbits(k)
        got = kernels.fold_segments(np.array(segs, np.uint64), a, ctx.m_low, k)
        want = 1
        for s in segs:
            want = ctx.add(ctx.mul(want, a), s)
        assert got == want, k


def _segment_bits(segs, k: int) -> str:
    """The bit string whose segments are segs: bit i of an element is the
    i-th bit of its segment in reading order."""
    return "".join(format(s, f"0{k}b")[::-1] for s in segs)


@given(
    k=st.sampled_from([1, 8, 9, 63, 64]),
    r=st.integers(min_value=0, max_value=700),
    length=st.integers(min_value=1, max_value=80),
    a=st.one_of(st.just(0), st.just(1), st.integers(min_value=0, max_value=2**64 - 1)),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(k=9, r=5, length=40, a=3, seed=1)      # R < L: one block, mostly padding
@example(k=9, r=40, length=40, a=3, seed=2)     # R = L: v alone in the first block
@example(k=63, r=41, length=6, a=0, seed=3)     # R not divisible by L, a = 0
@example(k=64, r=700, length=7, a=1, seed=4)    # R >> L, a = 1
@example(k=1, r=300, length=80, a=1, seed=5)
@settings(max_examples=150, deadline=None)
def test_block_fold_matches_horner_fold_and_direct_eval(k, r, length, a, seed):
    ctx = make_field(k)
    a %= ctx.q
    rng = random.Random(seed)
    segs = [rng.getrandbits(k) for _ in range(r)]
    v = rng.getrandbits(k)
    arr = np.array(segs, np.uint64)
    tables = split_tables(a, ctx.m_bits, k)
    got = kernels._block_fold(v, arr, a, ctx.m_low, k, length)
    assert got == horner_fold(v, segs, tables)
    if r:
        # From v = 1 the fold is d_x(a) for the input whose segments these are.
        want = direct_eval(ctx, _segment_bits(segs, k), a)
        assert kernels._block_fold(1, arr, a, ctx.m_low, k, length) == want
    # The public entry picks L from R alone and must give the same value.
    assert kernels.fold(v, arr, a, ctx.m_low, k) == got


def test_degree_guard():
    xs = np.ones(4, np.uint64)
    with pytest.raises(ValueError):
        kernels.mulmod(xs, xs, 3, 0)
    with pytest.raises(ValueError):
        kernels.mulmod(xs, xs, 3, 65)
    with pytest.raises(ValueError):
        kernels.fold_segments(xs, 1, 3, 65)
    for k in (0, ENUMERATION_DEGREE_CAP + 1):
        with pytest.raises(ValueError):
            kernels.eval_points(xs, xs, 3, k)
