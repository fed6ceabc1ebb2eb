"""Word-tier kernels: they must agree bit for bit with the big-integer
polynomial tier."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamfp import kernels
from streamfp.field import (ENUMERATION_DEGREE_CAP, fold_block_length, horner_fold, make_field,
                            split_tables)
from streamfp.gf2poly import _clmul, _mod
from streamfp.stream import coefficients, direct_eval

DIFF_KS = (1, 2, 3, 5, 8, 16, 24, 32, 47, 63, 64)


def _ref_mul(ctx, a: int, b: int) -> int:
    return _mod(_clmul(a, b), ctx.m_bits)


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


def _batch_rows(rng, ctx, r: int, zero_at: int) -> list[list[int]]:
    """Random rows plus the edge rows: all-zero and zero-led coefficients,
    and c_0 = a for a = zero_at, where Horner's v is 0 after one step."""
    k = ctx.k
    rows = [[rng.getrandbits(k) for _ in range(r)] for _ in range(3)]
    rows.append([0] * r)
    rows.append([0, 0] + [rng.getrandbits(k) for _ in range(r - 2)])
    rows.append([zero_at] + [rng.getrandbits(k) for _ in range(r - 1)])
    rows.append([zero_at, 0] + [rng.getrandbits(k) for _ in range(r - 2)])
    return rows


def _check_batch(ctx, rows, pts) -> None:
    got = kernels.eval_points(np.array(pts, np.uint64), np.array(rows, np.uint64),
                              ctx.m_low, ctx.k)
    assert got.shape == (len(rows), len(pts))
    for row, values in zip(rows, got.tolist()):
        assert values == [_bigint_horner(ctx, row, a) for a in pts], (ctx.k, row)


def test_batched_eval_points_matches_bigint_on_every_point():
    rng = random.Random(78)
    for k in range(1, 13):
        ctx = make_field(k)
        zero_at = rng.getrandbits(k) | 1
        _check_batch(ctx, _batch_rows(rng, ctx, 5, zero_at), range(ctx.q))


@pytest.mark.parametrize("k", [13, 16, 20, 24])
def test_batched_eval_points_matches_bigint_on_random_points(k):
    rng = random.Random(k + 100)
    ctx = make_field(k)
    zero_at = rng.getrandbits(k) | 1
    pts = [0, zero_at, 1] + [rng.getrandbits(k) for _ in range(60)]
    _check_batch(ctx, _batch_rows(rng, ctx, 4, zero_at), pts)
    if k == 24:
        kernels._log_tables.cache_clear()  # 192 MiB of tables


def test_batched_eval_points_degree_zero_rows_give_ones():
    ctx = make_field(5)
    got = kernels.eval_points(np.arange(32, dtype=np.uint64), np.empty((3, 0), np.uint64),
                              ctx.m_low, 5)
    assert got.shape == (3, 32) and (got == 1).all()


def test_one_row_batch_equals_the_1d_call():
    rng = random.Random(3)
    ctx = make_field(10)
    pts = np.arange(ctx.q, dtype=np.uint64)
    coeffs = np.array([rng.getrandbits(10) for _ in range(6)], np.uint64)
    one = kernels.eval_points(pts, coeffs, ctx.m_low, 10)
    batch = kernels.eval_points(pts, coeffs[None], ctx.m_low, 10)
    assert one.shape == (ctx.q,) and batch.shape == (1, ctx.q)
    assert (batch[0] == one).all()


def test_batch_spanning_several_blocks_matches_row_by_row():
    rng = random.Random(4)
    ctx = make_field(14)
    rows = 40
    step = kernels.block_points(rows)
    count = 3 * step + step // 3  # several blocks and a short last one
    pts = np.array([rng.getrandbits(14) for _ in range(count)], np.uint64)
    coeffs = np.array([[rng.getrandbits(14) for _ in range(4)] for _ in range(rows)],
                      np.uint64)
    got = kernels.eval_points(pts, coeffs, ctx.m_low, 14)
    for row, values in zip(coeffs, got):
        assert (values == kernels.eval_points(pts, row, ctx.m_low, 14)).all()
    for j in (0, step - 1, step, count - 1):  # both sides of each block edge
        want = [_bigint_horner(ctx, row.tolist(), int(pts[j])) for row in coeffs]
        assert got[:, j].tolist() == want


@pytest.mark.parametrize("k, dtype", [(8, np.uint8), (16, np.uint16), (20, np.uint32)])
def test_eval_points_writes_into_out(k, dtype):
    rng = random.Random(k)
    ctx = make_field(k)
    pts = np.array([0] + [rng.getrandbits(k) for _ in range(300)], np.uint64)
    coeffs = np.array([[rng.getrandbits(k) for _ in range(3)] for _ in range(5)], np.uint64)
    out = np.empty((5, pts.size), dtype)
    assert kernels.eval_points(pts, coeffs, ctx.m_low, k, out=out) is out
    assert (out == kernels.eval_points(pts, coeffs, ctx.m_low, k)).all()


# ------------------------------------------------- whole-field sweeps

def _sweep_strings(rng, k: int, r: int) -> list[str]:
    """Strings of r segments: three random, one all zero and one whose
    even segments are zero (zero coefficients, the log sentinel)."""
    rows = [[rng.getrandbits(k) for _ in range(r)] for _ in range(3)]
    rows.append([0] * r)
    rows.append([rng.getrandbits(k) if i % 2 else 0 for i in range(r)])
    return [_segment_bits(row, k) for row in rows]


def _sweep_rows(ctx, strings, r: int) -> np.ndarray:
    return np.array([coefficients(ctx, x) if x else [] for x in strings],
                    np.uint64).reshape(len(strings), r)


def _log_order_sweep(ctx, rows, dtype=np.uint64) -> np.ndarray:
    """The log-order sweep itself (r >= 1), whichever path eval_points
    dispatches to."""
    res = np.empty((len(rows), ctx.q), dtype)
    log, exp = kernels._log_tables(ctx.k, ctx.m_low)
    kernels._eval_field(rows, log, exp, res)
    return res


@pytest.mark.parametrize("k", range(1, 13))
def test_field_sweep_matches_gather_and_direct_eval_on_every_point(k):
    rng = random.Random(k + 300)
    ctx = make_field(k)
    q = ctx.q
    # r >= q - 2 puts a run's stride at or past q - 1, so every run is
    # one point; only small fields keep those sweeps short.
    degrees = {0, 1, 2, 5} | ({q - 2, q - 1, q, 2 * q + 1} if k <= 6 else set())
    for r in sorted(d for d in degrees if d >= 0):
        strings = _sweep_strings(rng, k, r)
        rows = _sweep_rows(ctx, strings, r)
        got = kernels.eval_points(range(q), rows, ctx.m_low, k)
        gather = kernels.eval_points(np.arange(q, dtype=np.uint64), rows, ctx.m_low, k)
        assert (got == gather).all(), (k, r)
        if r:  # the sweep's own rows have r >= 1; r = 0 gathers
            assert (_log_order_sweep(ctx, rows) == gather).all(), (k, r)
        for x, values in zip(strings, got.tolist()):
            assert values == [direct_eval(ctx, x, a) if x else 1 for a in range(q)], (k, r)


@pytest.mark.parametrize("k, r", [(16, 4), (16, 63), (18, 8)])
def test_field_sweep_matches_gather_on_random_rows(k, r):
    rng = random.Random(k * r)
    ctx = make_field(k)
    strings = _sweep_strings(rng, k, r)
    rows = _sweep_rows(ctx, strings, r)
    assert kernels.log_order(k, r)
    out = np.empty((len(rows), ctx.q), kernels.value_dtype(k))  # uint32 at k = 18
    kernels.eval_points(range(ctx.q), rows, ctx.m_low, k, out=out)
    gather = kernels.eval_points(np.arange(ctx.q, dtype=np.uint64), rows, ctx.m_low, k)
    assert (out == gather).all()
    for a in [0, 1, ctx.q - 1] + [rng.getrandbits(k) for _ in range(40)]:
        assert out[:, a].tolist() == [direct_eval(ctx, x, a) for x in strings], a


@pytest.mark.parametrize("k, dtype", [(8, np.uint8), (12, np.uint16), (16, np.uint16),
                                      (12, np.uint32), (18, np.uint32), (12, None)])
def test_field_sweep_writes_into_out(k, dtype):
    rng = random.Random(k + 400)
    ctx = make_field(k)
    rows = _sweep_rows(ctx, _sweep_strings(rng, k, 3), 3)
    gather = kernels.eval_points(np.arange(ctx.q, dtype=np.uint64), rows, ctx.m_low, k)
    out = None if dtype is None else np.empty((len(rows), ctx.q), dtype)
    got = kernels.eval_points(range(ctx.q), rows, ctx.m_low, k, out=out)
    assert got is out or (out is None and got.dtype == np.uint64)
    assert (got == gather).all()
    assert (_log_order_sweep(ctx, rows, dtype or np.uint64) == gather).all()
    one = kernels.eval_points(range(ctx.q), rows[0], ctx.m_low, k)  # 1-D: one row
    assert one.shape == (ctx.q,) and (one == gather[0]).all()


def test_field_sweep_dispatch(monkeypatch):
    ctx = make_field(12)
    q = ctx.q
    swept = []
    sweep = kernels._eval_field
    monkeypatch.setattr(kernels, "_eval_field", lambda *args: swept.append(1) or sweep(*args))
    rng = random.Random(12)
    for r, runs_in_log_order in ((3, True), (9, False)):  # runs of 1365 and 455 points
        assert kernels.log_order(12, r) == runs_in_log_order
        rows = _sweep_rows(ctx, _sweep_strings(rng, 12, r), r)
        # Only exactly range(q) is a whole-field sweep; other points gather.
        for points, whole in ((range(q), True), (range(0, q, 1), True), (range(1, q), False),
                              (range(q - 1), False), (np.arange(q, dtype=np.uint64), False),
                              (list(range(q)), False)):
            swept.clear()
            got = kernels.eval_points(points, rows, ctx.m_low, 12)
            assert bool(swept) == (whole and runs_in_log_order), (r, points)
            pts = np.asarray(points, np.uint64)
            assert (got == kernels.eval_points(pts, rows, ctx.m_low, 12)).all(), (r, points)


def test_block_rows_hold_about_64_kib():
    # Whole rows of width values in 64 KiB, by k's value size, and one
    # row when a row is longer: the save's table blocks and the exact
    # count's member batches.
    assert [kernels.block_rows(4096, k) for k in (8, 16, 18)] == [16, 8, 4]
    assert kernels.block_rows(1023, 11) == 32  # one run of 1023 points in log order at k = 11
    assert kernels.block_rows(655, 10) == 50
    assert kernels.block_rows(1, 8) == 1 << 16
    assert [kernels.block_rows(1 << k, k) for k in (14, 15, 16, 18)] == [2, 1, 1, 1]


# Log order in several runs of SWEEP_WIDTH and fewer points, and in
# runs of (q - 1) // r (at (11, 2) one less than (q + 1) // r), the
# longest a run may be; gathers of block_points(5) points in several
# blocks and in one.  The 15 member rows fill one batch at (12, 3) and
# (11, 2), of 24 and 32 rows, and span several elsewhere: 8 rows a batch
# at (13, 1), 5 at (14, 40) and (12, 9), 10 at k = 1 and 3.
@pytest.mark.parametrize("k, r", [(13, 1), (12, 3), (14, 40), (12, 9), (1, 1), (3, 2), (11, 2)])
def test_sweep_field_blocks_hold_every_point_once(k, r):
    # A block's column is one point's values in every string row, and the
    # member rows yielded with the block are the members' at the same
    # points: the blocks' columns, members over strings, taken together,
    # are the whole field's, each once.  The buffer out, as wide as
    # exact_fp_count makes it, fixes the width, and has two rows more
    # than the strings, as for a short last group.
    ctx = make_field(k)
    rng = random.Random(k * 100 + r)
    strings = _sweep_rows(ctx, _sweep_strings(rng, k, r), r)
    members = _sweep_rows(ctx, [x for _ in range(3) for x in _sweep_strings(rng, k, r)], r)
    whole = kernels.eval_points(np.arange(ctx.q, dtype=np.uint64), np.vstack([members, strings]),
                                ctx.m_low, k)
    if kernels.log_order(k, r):
        width = min(kernels.SWEEP_WIDTH, (ctx.q - 1) // r)
    else:
        width = kernels.block_points(len(strings))
    per_batch = kernels.block_rows(width, k)
    out = np.empty((len(strings) + 2, width), kernels.value_dtype(k))
    blocks = []
    for i, (block, member_rows) in enumerate(
            kernels.sweep_field(members, strings, ctx.m_low, k, out)):
        views, rows = zip(*[(y, y.copy()) for y in member_rows])  # each read in its turn
        if i:  # past a = 0: the strings in out, and row j of the members in slot j % per_batch
            assert np.shares_memory(block, out[:len(strings)])
            assert not np.shares_memory(block, out[len(strings):])
            assert all(np.shares_memory(y, views[j % per_batch]) for j, y in enumerate(views))
            assert not any(np.shares_memory(y, out) for y in views)
        blocks.append(np.vstack([*rows, block]))
    assert (per_batch < len(members)) == ((k, r) not in ((12, 3), (11, 2)))
    assert all(block.dtype == kernels.value_dtype(k) for block in blocks)
    widths = [block.shape[1] for block in blocks]
    assert widths[0] == 1  # a = 0
    assert max(widths[1:]) == min(width, ctx.q - 1)
    got = np.concatenate(blocks, axis=1)
    assert sorted(map(tuple, got.T.tolist())) == sorted(map(tuple, whole.T.tolist()))


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


# Segment counts whose block fold has 1 block (v alone), 128 blocks (the
# last joined one by one), 129 (the first joined in lanes), 1024, and
# 1025: the CLI's chunk of 8 * _CHUNK_BLOCKS segments, with v.
FOLD_BLOCKS = {0: 1, 254: 128, 256: 129, 31743: 1024, 32768: 1025}


@pytest.mark.parametrize("k", [1, 8, 9, 16, 63, 64])
def test_fold_segments_matches_horner_fold_at_every_join(k):
    ctx = make_field(k)
    rng = random.Random(9500 + k)
    for r, blocks in FOLD_BLOCKS.items():
        assert -(-(r + 1) // fold_block_length(r)) == blocks
    for a in (0, 1, rng.getrandbits(k)):
        tables = split_tables(a, ctx.m_bits, k)
        for r in FOLD_BLOCKS:
            segs = [rng.getrandbits(k) for _ in range(r)]
            v = rng.randrange(2, 1 << k) if k > 1 else 0
            got = kernels.fold_segments(np.array(segs, np.uint64), a, ctx.m_low, k, v)
            assert got == horner_fold(v, segs, tables), (k, a, r)


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
    assert kernels.fold_segments(arr, a, ctx.m_low, k, v) == got
    if r:
        assert kernels.fold_segments(arr, a, ctx.m_low, k) == want


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
