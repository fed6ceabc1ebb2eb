"""Streaming fingerprints: hand-worked Horner folds, the direct
polynomial oracle, agreement counting, resource accounting, the raw-byte
entry point, and the self-delimiting tuple coding."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfp import field, kernels, stream
from streamfp.field import (
    WORD_DEGREE_CAP,
    _lane_fold,
    _lane_plan,
    fold_block_length,
    horner_fold,
    make_field,
    split_tables,
)
from streamfp.gf2poly import find_irreducible, is_irreducible
from streamfp.stream import (
    _CHUNK_BLOCKS,
    SPACE_CONSTANT,
    Fingerprint,
    ResourceProfile,
    begin,
    begin_seeded,
    bits_from_bytes,
    coefficients,
    count_agreements,
    decode_fingerprint,
    decode_tuple,
    direct_eval,
    encode_fingerprint,
    encode_tuple,
    fingerprint,
    split_segments,
)

from conftest import FixedRng

GF4 = make_field(2)


def run_stream(x: str, ctx, a: int, chunks=None):
    state = begin(len(x), ctx, FixedRng(a))
    if chunks is None:
        state.feed(x)
    else:
        pos = 0
        for c in chunks:
            state.feed(x[pos:pos + c])
            pos += c
    return state.finish()


# ---------------------------------------------------------- frozen examples

def test_fold_1011_at_u():
    fp = run_stream("1011", GF4, 2)
    assert fp.v == 2  # d_x(u) = u
    assert fp.a == 2
    assert fp.n == 4


def test_fold_1011_at_zero():
    # d_x(0) is the constant coefficient w("11") = 1+u.
    assert run_stream("1011", GF4, 0).v == 3


def test_fold_all_zero_input_gives_a():
    for a in range(4):
        assert run_stream("00", GF4, a).v == a


def test_segment_counts():
    assert len(split_segments("1011", 2)) == 2
    assert split_segments("10110", 2) == ["10", "11", "0"]
    assert split_segments("1", 2) == ["1"]
    assert split_segments("1011011", 3) == ["101", "101", "1"]


def test_coefficients_orientation():
    # x="1011", k=2: prefix segment first, w("10")=1 then w("11")=3.
    assert coefficients(GF4, "1011") == [1, 3]


def test_direct_eval_frozen():
    assert direct_eval(GF4, "1011", 2) == 2
    for a in range(4):
        assert direct_eval(GF4, "00", a) == a


# ------------------------------------------------------------ feed/finish

def test_chunking_invariance():
    ctx = make_field(3)
    x = "110100101100110"
    whole = run_stream(x, ctx, 5)
    per_char = run_stream(x, ctx, 5, chunks=[1] * len(x))
    ragged = run_stream(x, ctx, 5, chunks=[4, 1, 7, 3])
    assert whole.v == per_char.v == ragged.v


@pytest.mark.parametrize("k, x", [
    (3, "110100101100110"),  # n=15, r=5
    # r=301: a one-shot feed folds in numpy, small chunks in Python.
    (8, "".join(random.Random(8).choice("01") for _ in range(8 * 300 + 5))),
], ids=["k3-r5", "k8-r301"])
def test_chunking_invariant_profile_counts(k, x):
    ctx = make_field(k)
    n, r = len(x), -(-len(x) // k)
    whole = begin(n, ctx, FixedRng(4))
    whole.feed(x)
    want = whole.finish().v
    for chunks in ([1] * n, [2, 5, 8] + [n], [k * 129, 0, 3, k * 128 - 3] + [n]):
        state = begin(n, ctx, FixedRng(4))
        pos = 0
        for c in chunks:
            state.feed(x[pos:pos + c])
            pos += c
        assert state.finish().v == want
        assert state.profile.conversions == r
        assert state.profile.field_ops <= 2 * r
        assert state.profile.bits_read == n
        assert state.profile == whole.profile


def test_overfeed_rejected():
    state = begin(4, GF4, FixedRng(1))
    state.feed("101")
    with pytest.raises(ValueError):
        state.feed("11")


def test_premature_finish_rejected():
    state = begin(4, GF4, FixedRng(1))
    state.feed("101")
    with pytest.raises(ValueError):
        state.finish()


def test_feed_after_finish_rejected():
    state = begin(2, GF4, FixedRng(1))
    state.feed("10")
    state.finish()
    with pytest.raises(ValueError):
        state.feed("1")
    with pytest.raises(ValueError):
        state.finish()


def test_feed_rejects_non_bits():
    # Besides a stray digit: forms that int(..., 2) accepts, namely an
    # underscore, surrounding space, a sign and a non-ASCII digit (U+0661,
    # Arabic-Indic one, which has no latin-1 byte).
    state = begin(4, GF4, FixedRng(1))
    int_forms = ["1_0", " 1", "+1", "\u0661"]
    assert [int(s, 2) for s in int_forms] == [2, 1, 1, 1]
    for bad in ["102"] + int_forms:
        with pytest.raises(ValueError, match="'0' and '1'"):
            state.feed(bad)
    assert state.profile.bits_read == 0
    state.feed("1010")
    assert state.finish().n == 4


def test_begin_rejects_zero_length():
    with pytest.raises(ValueError):
        begin(0, GF4, FixedRng(1))


def test_short_single_segment():
    # n < k is legal: r=1, d_x(z) = z + w(x).
    ctx = make_field(4)
    fp = run_stream("101", ctx, 9)
    assert fp.v == ctx.add(9, ctx.from_segment("101"))


# -------------------------------------------------- streaming == direct

def test_streaming_matches_direct_eval_random():
    rng = random.Random(1818)
    for _ in range(400):
        k = rng.choice((2, 3, 8))
        ctx = make_field(k)
        n = rng.randrange(1, 40)
        x = "".join(rng.choice("01") for _ in range(n))
        a = rng.getrandbits(k)
        assert run_stream(x, ctx, a).v == direct_eval(ctx, x, a)


def test_fingerprint_seed_reproducibility():
    fp1 = fingerprint(4, "1011", seed=909, f_of_n=4)
    fp2 = fingerprint(4, "1011", seed=909, f_of_n=4)
    assert fp1 == fp2
    assert fp1.k == 8  # sizing rule: (8*4*4).bit_length()


def test_fingerprint_length_mismatch():
    with pytest.raises(ValueError):
        fingerprint(4, "101", seed=1, f_of_n=4)


# ----------------------------------------------------------- injectivity

def test_coefficient_vectors_injective_exhaustive():
    for k in (2, 3):
        ctx = make_field(k)
        for n in range(1, 11):
            seen = {}
            for bits in range(1 << n):
                x = format(bits, f"0{n}b")
                key = tuple(coefficients(ctx, x))
                assert key not in seen, (k, n, x, seen[key])
                seen[key] = x


def test_agreement_bound_exhaustive_small():
    for k in (2, 3):
        ctx = make_field(k)
        for n in range(1, 7):
            r = -(-n // k)
            strings = [format(b, f"0{n}b") for b in range(1 << n)]
            for i, x in enumerate(strings):
                for y in strings[i + 1:]:
                    assert count_agreements(ctx, x, y) <= r - 1, (k, x, y)


def test_count_agreements_frozen():
    assert count_agreements(GF4, "0000", "1111") == 1
    assert count_agreements(GF4, "0110", "0110") == 4  # x = y agrees everywhere
    assert count_agreements(GF4, "00", "01") == 0


def test_count_agreements_validates():
    with pytest.raises(ValueError):
        count_agreements(GF4, "00", "000")


# -------------------------------------------------------------- profile

def test_profile_frozen_small_run():
    state = begin(4, GF4, FixedRng(2))
    state.feed("1011")
    state.finish()
    assert state.profile.conversions == 2
    assert state.profile.field_ops <= 4
    assert state.profile.bits_read == 4
    assert state.profile.random_bits == 2


def test_profile_space_bound_sweep():
    rng = random.Random(606)
    for _ in range(60):
        k = rng.randrange(1, 25)
        n = rng.randrange(1, 3000)
        ctx = make_field(k)
        x = "".join(rng.choice("01") for _ in range(n))
        state = begin(n, ctx, FixedRng(0))
        pos = 0
        while pos < n:
            step = min(n - pos, rng.randrange(1, 2 * k + 2))
            state.feed(x[pos:pos + step])
            pos += step
        state.finish()
        bound = SPACE_CONSTANT * (k + n.bit_length())
        assert state.profile.peak_state_bits <= bound, (n, k)


def test_one_pass_exact_read_count():
    ctx = make_field(3)
    x = "101100101"
    state = begin(9, ctx, FixedRng(1))
    for ch in x:
        state.feed(ch)
    state.finish()
    assert state.profile.bits_read == 9


# ------------------------------------------------------------ fingerprints

def test_fingerprint_json_round_trip():
    fp = fingerprint(6, "101101", seed=44, f_of_n=6)
    d = fp.to_json_dict()
    assert d["n"] == 6 and d["seed"] == 44
    back = Fingerprint.from_json_dict(d)
    assert back == fp
    # Only the modulus make_field(k) writes names the field, not the next
    # irreducible of degree k.
    first = find_irreducible(fp.k).bits
    foreign = next(m for m in range(first + 2, 2 << fp.k, 2) if is_irreducible(m))
    with pytest.raises(ValueError, match="is not the modulus"):
        Fingerprint.from_json_dict({**d, "t_hex": hex(foreign)})


# ------------------------------------------------------------ tuple coding

def test_encode_tuple_frozen():
    assert encode_tuple(("1", "0", "1")) == "1100100011"
    assert encode_tuple(("10", "11")) == "1110001111"


def test_decode_tuple_frozen():
    assert decode_tuple("1100100011") == ["1", "0", "1"]
    assert decode_tuple("1110001111") == ["10", "11"]


def test_tuple_parts_validation():
    with pytest.raises(ValueError):
        encode_tuple(("1",))
    with pytest.raises(ValueError):
        encode_tuple(("1", "0", "1", "1"))
    with pytest.raises(ValueError):
        encode_tuple(("1", "", "1"))


def test_decode_tuple_malformed():
    for bad in ("1", "110", "0011", "11000011" + "0", "01"):
        with pytest.raises(ValueError):
            decode_tuple(bad)


@given(
    st.lists(st.text(alphabet="01", min_size=1, max_size=12), min_size=2, max_size=3)
)
@settings(max_examples=300, deadline=None)
def test_tuple_round_trip(parts):
    coded = encode_tuple(parts)
    assert decode_tuple(coded) == list(parts)
    total = sum(len(p) for p in parts)
    assert len(coded) == 2 * total + 2 * (len(parts) - 1)


def test_encode_fingerprint_frozen():
    fp = Fingerprint(n=4, a=2, v=2, ctx=GF4)
    coded = encode_fingerprint(fp)
    assert coded == encode_tuple(("100", "10", "10"))
    assert len(coded) == 2 * (3 + 2 * 2) + 4


def test_decode_fingerprint_round_trip():
    fp = Fingerprint(n=4, a=2, v=2, ctx=GF4)
    back = decode_fingerprint(encode_fingerprint(fp), GF4)
    assert (back.n, back.a, back.v) == (4, 2, 2)


def test_decode_fingerprint_rejects_badly_formed():
    with pytest.raises(ValueError):
        decode_fingerprint(encode_tuple(("100", "10")), GF4)  # two parts
    with pytest.raises(ValueError):
        decode_fingerprint(encode_tuple(("0100", "10", "10")), GF4)  # leading zero n
    with pytest.raises(ValueError):
        decode_fingerprint(encode_tuple(("100", "1", "10")), GF4)  # a not k bits


# --------------------------------------------------------------- raw bytes

def test_bits_from_bytes_msb_first():
    assert bits_from_bytes(b"\xb0") == "10110000"
    assert bits_from_bytes(b"\x01\x80") == "0000000110000000"
    assert bits_from_bytes(b"") == ""


def run_stream_bytes(data: bytes, n: int, ctx, a: int, step: int):
    """Feed the first n bits of data in byte chunks of the given size."""
    state = begin(n, ctx, FixedRng(a))
    for pos in range(0, -(-n // 8), step):
        chunk = data[pos:pos + step]
        state.feed_bytes(chunk, min(8 * len(chunk), n - 8 * pos))
    return state.finish()


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 16, 63, 64, 65, 72])
def test_split_table_fold_matches_direct_eval(k):
    # Edge cases of the fold against the big-int referee: the point a = 0,
    # k not dividing n, n < k, k = 1, and widths around the 64-bit word.
    ctx = make_field(k)
    rng = random.Random(7000 + k)
    for n in sorted({1, max(1, k - 1), k, k + 1, 3 * k, 3 * k + 5, 211}):
        data = rng.randbytes(-(-n // 8))
        x = bits_from_bytes(data)[:n]
        for a in (0, 1, rng.getrandbits(k)):
            want = direct_eval(ctx, x, a)
            assert run_stream(x, ctx, a).v == want, (k, n, a)
            assert run_stream_bytes(data, n, ctx, a, step=3).v == want, (k, n, a)


def _first_chunk_matches_bigint(k: int) -> bool:
    """Feed a stream of 2^25 bits the first chunk the CLI reads (4096 k-byte
    blocks) and compare its value with FieldCtx.mul and add folded over
    the chunk's segments."""
    ctx = make_field(k)
    data = random.Random(k).randbytes(k * _CHUNK_BLOCKS)
    state = begin_seeded(1 << 25, k, ctx=ctx)
    state.feed_bytes(data)
    want = 1
    for c in coefficients(ctx, bits_from_bytes(data)):
        want = ctx.add(ctx.mul(want, state.a), c)
    return state.v == want


# At 2^25 bits every k of the word tier folds the chunk in numpy, k = 1
# and 64 at its edges; two degrees past the word tier fold in lanes.
@pytest.mark.parametrize("k", [1, 9, 15, 16, 63, 64, 65, 100])
def test_first_cli_chunk_of_a_long_stream_matches_bigint(k):
    assert _first_chunk_matches_bigint(k)


def test_first_chunk_check_catches_a_wrong_numpy_fold(monkeypatch):
    fold = kernels.fold_groups
    monkeypatch.setattr(kernels, "fold_groups", lambda *a: fold(*a) ^ 1)
    assert not _first_chunk_matches_bigint(16)


def test_first_chunk_check_catches_a_wrong_lane_fold(monkeypatch):
    lane_fold = stream._lane_fold
    monkeypatch.setattr(stream, "_lane_fold", lambda *a: lane_fold(*a) ^ 1)
    assert not _first_chunk_matches_bigint(100)


@given(
    data=st.binary(min_size=1, max_size=64),
    cut=st.integers(min_value=0, max_value=7),
    k=st.sampled_from([1, 3, 8, 13, 64, 70]),
    cuts=st.lists(st.integers(min_value=0, max_value=64), max_size=6),
    a_seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150, deadline=None)
def test_feed_bytes_random_chunking_equals_feed(data, cut, k, cuts, a_seed):
    n = max(1, 8 * len(data) - cut)  # usually not a multiple of 8
    ctx = make_field(k)
    a = random.Random(a_seed).getrandbits(k)
    x = bits_from_bytes(data)[:n]
    bounds = sorted({0, -(-n // 8), *(c for c in cuts if c < -(-n // 8))})
    state = begin(n, ctx, FixedRng(a))
    for lo, hi in zip(bounds, bounds[1:]):
        # Every chunk but the last is whole bytes; the last ends at bit n.
        state.feed_bytes(data[lo:hi], min(8 * (hi - lo), n - 8 * lo))
    fp = state.finish()
    assert fp.v == run_stream(x, ctx, a).v
    assert state.profile.conversions == -(-n // k)
    assert state.profile.peak_state_bits <= SPACE_CONSTANT * (k + n.bit_length())


@given(
    k=st.sampled_from([1, 8, 9, 63, 64]),
    size=st.integers(min_value=1, max_value=140),
    ones=st.integers(min_value=0, max_value=40),
    cuts=st.lists(st.integers(min_value=1, max_value=140 * 64 + 200), max_size=5),
    a=st.one_of(st.just(0), st.just(1), st.integers(min_value=0, max_value=2**64 - 1)),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100, deadline=None)
def test_feed_bytes_bit_chunks_match_direct_eval(k, size, ones, cuts, a, seed):
    # Up to 140 segments, so one large feed folds in blocks (L >= 2 from 128
    # segments) while a run of 1-bit feeds takes the L = 1 path.
    ctx = make_field(k)
    a %= ctx.q
    rng = random.Random(seed)
    n = max(1, size * k - rng.randrange(k))  # n < k and k not dividing n too
    x = "".join(rng.choice("01") for _ in range(n))
    bounds = sorted({0, n, *range(1, min(ones, n)), *(c for c in cuts if c < n)})
    state = begin(n, ctx, FixedRng(a))
    for lo, hi in zip(bounds, bounds[1:]):
        piece = np.frombuffer(x[lo:hi].encode(), np.uint8) - np.uint8(ord("0"))
        state.feed_bytes(np.packbits(piece).tobytes(), hi - lo)
    assert state.finish().v == direct_eval(ctx, x, a)


def _packed(piece: str) -> bytes:
    """piece as raw bytes, padded with 1 bits that feed_bytes must ignore."""
    pad = -len(piece) % 8
    return int(piece + "1" * pad, 2).to_bytes((len(piece) + pad) // 8, "big") if piece else b""


@pytest.mark.parametrize("k", [1, 7, 8, 14, 63, 64, 65, 100])
@pytest.mark.parametrize("feeder", ["feed", "feed_bytes", "alternate"])
def test_packer_selection_boundary_matches_direct_eval(k, feeder):
    # Calls of 127, 128 and 129 whole segments sit on both sides of the
    # packer selection (the lane fold from 128 segments), in one stream
    # with empty calls, 1- and 3-bit calls and a short final segment.
    ctx = make_field(k)
    sizes = [0, 127 * k, 128 * k, 1, 129 * k - 1, 0, 3, 128 * k - 3, 127 * k, 0,
             k // 2 or 1]
    n = sum(sizes)
    rng = random.Random(4400 + k)
    x = "".join(rng.choice("01") for _ in range(n))
    a = rng.getrandbits(k)
    state = begin(n, ctx, FixedRng(a))
    done, pos = [], 0
    for i, size in enumerate(sizes):
        piece = x[pos:pos + size]
        before = state.profile.conversions
        if feeder == "feed" or (feeder == "alternate" and i % 2):
            state.feed(piece)
        elif piece or i % 2 == 0:
            state.feed_bytes(_packed(piece), len(piece))
        else:
            state.feed_bytes(b"\xff", 0)
        done.append(state.profile.conversions - before)
        pos += size
    fp = state.finish()
    if k > 3:
        assert done == [0, 127, 128, 0, 129, 0, 0, 128, 127, 0, 1]
    assert fp.v == direct_eval(ctx, x, a)
    assert fp.v == run_stream(x, ctx, a).v
    r = -(-n // k)
    assert state.profile == ResourceProfile(
        conversions=r, field_ops=2 * r, random_bits=k, bits_read=n,
        peak_state_bits=4 * k + 1 + 3 * n.bit_length())


@given(
    k=st.sampled_from([1, 7, 8, 9, 64, 65]),
    x=st.text("01", min_size=1, max_size=400),
    calls=st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=200)),
                   max_size=10),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150, deadline=None)
def test_register_holds_under_k_bits_after_every_call(k, x, calls, seed):
    # Any mix of feed and feed_bytes calls; the last call takes the rest.
    n = len(x)
    ctx = make_field(k)
    state = begin_seeded(n, seed, ctx=ctx)
    pos = 0
    for as_bytes, size in calls + [(len(calls) % 2 == 1, n)]:
        piece = x[pos:pos + size]
        if as_bytes:
            state.feed_bytes(_packed(piece), len(piece))
        else:
            state.feed(piece)
        pos += len(piece)
        assert state._partial_bits == (pos % k if pos < n else 0) < k
        assert state._partial >> state._partial_bits == 0
    assert state.finish() == fingerprint(n, x, seed, ctx=ctx)


def test_negative_seed_is_refused():
    # random.Random(-s) draws what random.Random(s) draws.
    ctx = make_field(8)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        fingerprint(4, "1011", seed=-1, ctx=ctx)
    assert fingerprint(4, "1011", seed=0, ctx=ctx).seed == 0


def test_feed_bytes_validates():
    state = begin(12, GF4, FixedRng(1))
    with pytest.raises(ValueError):
        state.feed_bytes(b"\xff", 9)
    with pytest.raises(ValueError):
        state.feed_bytes(b"\xff", -1)
    state.feed_bytes(b"\xff")
    with pytest.raises(ValueError):
        state.feed_bytes(b"\xff")  # 16 bits for n=12
    state.feed_bytes(b"\xf0", 4)
    assert state.finish().n == 12


def test_feed_rejects_non_ascii():
    state = begin(4, GF4, FixedRng(1))
    with pytest.raises(ValueError, match="'0' and '1'"):
        state.feed("10\u00e91")


# ------------------------------------------------------------ lane fold

LANE_DEGREES = [1, 2, 7, 8, 9, 14, 16, 50, 63, 64, 65, 66, 100, 127, 128, 129]


def _lane_counts() -> list[int]:
    """Segment counts from 128 on whose framed groups fill whole steps of B
    lanes, or miss by one group either way."""
    counts = []
    for count in range(128, 700):
        fields = -(-(count + 1) // 8) * 8
        lanes = 8 * fold_block_length(fields)
        if fields % lanes in (0, 8, lanes - 8):
            counts.append(count)
    return counts[::4] + [1000, 4096]


def _framed(v: int, segments: list[int], k: int) -> bytes:
    """v and the segments as a stream frames a call for its folds: v leads,
    zero fields in front make whole k-byte groups of eight fields."""
    fields = [0] * (-(len(segments) + 1) % 8) + [v] + segments
    return sum(f << i * k for i, f in enumerate(fields)).to_bytes(len(fields) * k // 8, "little")


@pytest.mark.parametrize("k", LANE_DEGREES)
def test_lane_fold_matches_horner_fold_and_direct_eval(k):
    # One differential test for the stream's two folds: both read the same
    # framed groups, the cascade only in the word tier.
    ctx = make_field(k)
    rng = random.Random(9100 + k)
    counts = _lane_counts()
    assert len({8 * fold_block_length(-(-(c + 1) // 8) * 8) for c in counts}) >= 4
    for a in (0, 1, rng.getrandbits(k)):
        tables = split_tables(a, ctx.m_bits, k)
        for count in [1, 7, 8, 126, 127] + counts:
            segments = [rng.getrandbits(k) for _ in range(count)]
            v = rng.randrange(2, 1 << k) if k > 1 else 0
            groups = _framed(v, segments, k)
            want = horner_fold(v, segments, tables)
            assert _lane_fold(groups, a, ctx.m_bits, k) == want, (k, a, count)
            if k <= WORD_DEGREE_CAP:
                assert kernels.fold_groups(groups, a, ctx.m_low, k) == want, (k, a, count)
        # A stream's own calls, k not dividing n: one call, then chunks of
        # 128 to 300 segments through feed and feed_bytes in turn.
        n = 700 * k + rng.randrange(1, k) if k > 1 else 701
        x = "".join(rng.choice("01") for _ in range(n))
        want = direct_eval(ctx, x, a)
        assert run_stream(x, ctx, a).v == want, (k, a)
        state = begin(n, ctx, FixedRng(a))
        pos = calls = 0
        while pos < n:
            piece = x[pos:pos + rng.randrange(128 * k, 300 * k)]
            if calls % 2:
                state.feed(piece)
            else:
                state.feed_bytes(_packed(piece), len(piece))
            pos += len(piece)
            calls += 1
        assert calls >= 3 and state.finish().v == want, (k, a)


def test_lane_fold_runs_8l_lanes_from_128_fields(monkeypatch):
    # The schedule, which the value does not show: one step per field
    # under 128 fields, and 8 * fold_block_length(fields) lanes from 128.
    lanes = []
    plan = field._lane_plan
    monkeypatch.setattr(field, "_lane_plan", lambda *a: lanes.append(a[3]) or plan(*a))
    ctx = make_field(16)
    rng = random.Random(9200)
    for groups in (1, 15, 16, 17, 100, 513):
        lanes.clear()
        data = rng.randbytes(16 * groups)
        assert _lane_fold(data, 3, ctx.m_bits, 16) == horner_fold(
            0, [int.from_bytes(data[i:i + 2], "little") for i in range(0, len(data), 2)],
            split_tables(3, ctx.m_bits, 16))
        fields = 8 * groups
        assert lanes == ([8 * fold_block_length(fields)] if fields >= 128 else []), groups


def test_lane_plan_digits_spell_the_power_at_every_width():
    # The multiplier a^B is taken in digits of 1 to 4 bits, whichever width
    # costs the fewest operations; every width occurs, and the digits
    # always add up to a^B.
    sizes = set()
    for k in LANE_DEGREES:
        ctx = make_field(k)
        rng = random.Random(9300 + k)
        for a in (0, 1, rng.getrandbits(k), rng.getrandbits(k)):
            for lanes in (16, 24, 256):
                size, digits = _lane_plan(a, ctx.m_bits, k, lanes)[:2]
                sizes.add(size)
                assert all(0 < d < size for _, d in digits)
                power = 0
                for i, d in digits:
                    power ^= d << i
                assert power == ctx.pow(a, lanes), (k, a, lanes)
    assert sizes == {2, 4, 8, 16}


def test_lane_fold_reduces_in_two_rounds_for_the_library_moduli():
    # A lane product has degree <= 2k - 2, so its high half h has degree
    # <= k - 2; folding h with a tail of degree d leaves an overflow of
    # degree <= d - 2, and folding that leaves degree <= 2d - 2, below k
    # when 2d <= k + 1.  Every modulus find_irreducible returns keeps to it.
    for k in range(1, 161):
        tail = find_irreducible(k).bits ^ (1 << k)
        assert 2 * (tail.bit_length() - 1) <= k + 1, k


def test_lane_fold_reduces_any_tail():
    # An irreducible modulus with a dense tail of degree k - 1 needs more
    # than two rounds; the fold keeps reducing until every high half is 0.
    modulus = 0x1FFED
    assert is_irreducible(modulus)
    rng = random.Random(16)
    a = rng.getrandbits(16)
    tables = split_tables(a, modulus, 16)
    segments = [rng.getrandbits(16) for _ in range(500)]
    assert _lane_fold(_framed(5, segments, 16), a, modulus, 16) == horner_fold(5, segments, tables)
