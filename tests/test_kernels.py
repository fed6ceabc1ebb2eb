"""Word-tier kernels: they must agree bit for bit with the big-integer
polynomial tier."""

from __future__ import annotations

import random

import numpy as np
import pytest

from streamfp import kernels
from streamfp.field import make_field
from streamfp.gf2poly import Gf2Poly

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


def test_eval_points_empty_coeffs_gives_ones():
    ctx = make_field(4)
    got = kernels.eval_points(
        np.arange(16, dtype=np.uint64), np.empty(0, np.uint64), ctx.m_low, 4
    )
    assert got.tolist() == [1] * 16


def test_fold_segments_is_horner():
    rng = random.Random(9)
    for k in (1, 8, 33, 64):
        ctx = make_field(k)
        segs = [rng.getrandbits(k) for _ in range(40)]
        a = rng.getrandbits(k)
        got = kernels.fold_segments(np.array(segs, np.uint64), a, ctx.m_low, k)
        want = 1
        for s in segs:
            want = ctx.add(ctx.mul(want, a), s)
        assert got == want, k


def test_degree_guard():
    xs = np.ones(4, np.uint64)
    with pytest.raises(ValueError):
        kernels.mulmod(xs, xs, 3, 0)
    with pytest.raises(ValueError):
        kernels.mulmod(xs, xs, 3, 65)
    with pytest.raises(ValueError):
        kernels.fold_segments(xs, 1, 3, 65)
