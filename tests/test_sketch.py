"""Membership sketches: hand-counted sketch sizes, completeness and
soundness against brute-force set construction, file round trips, and
the acceptance-rate experiment driver."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import streamfp.sketch as sketch_mod
from streamfp import kernels
from streamfp.field import make_field
from streamfp.sketch import (
    ACCEPT_BOUND,
    DensityFn,
    SparseLanguageSpec,
    build_sketch,
    contains,
    exact_fp_count,
    fp_rate_experiment,
    load_sketch,
    make_language,
    query_membership,
    _sampled_counts,
    save_sketch,
)
from streamfp.stream import Fingerprint, coefficients, direct_eval, fingerprint

GF4 = make_field(2)


def listed_language(*members: str) -> SparseLanguageSpec:
    return SparseLanguageSpec(
        name="listed",
        density=DensityFn("constant", len(members)),
        enumerator=lambda n: [m for m in members if len(m) == n],
        membership=lambda x: x in members,
    )


def table_values(sk) -> np.ndarray:
    """A sketch's member_count x q table: a numpy view of a loaded sketch's
    buffer, or a built sketch's rows evaluated at every point."""
    shape, dtype = (sk.member_count, sk.ctx.q), kernels.value_dtype(sk.ctx.k)
    if sk.rows is None:
        return np.frombuffer(sk.table, dtype).reshape(shape)
    rows = np.array(sk.rows, np.uint64).reshape(sk.member_count, -(-sk.n // sk.ctx.k))
    return kernels.eval_points(range(sk.ctx.q), rows, sk.ctx.m_low, sk.ctx.k,
                               out=np.empty(shape, dtype))


# ---------------------------------------------------------------- languages

def test_low_weight_language_frozen():
    spec = make_language("low-weight", max_ones=1)
    assert spec.enumerator(4) == ["0000", "1000", "0100", "0010", "0001"]
    assert spec.density.eval(4) == 5
    assert spec.membership("0010")
    assert not spec.membership("0011")


def test_singleton_language():
    spec = make_language("singleton", member="1011")
    assert spec.enumerator(4) == ["1011"]
    assert spec.enumerator(3) == []
    assert spec.membership("1011")
    assert not spec.membership("1111")


def test_empty_language():
    spec = make_language("empty")
    assert spec.enumerator(5) == []
    assert not spec.membership("10101")


def test_seeded_random_language_is_deterministic():
    s1 = make_language("seeded-random", seed=9)
    s2 = make_language("seeded-random", seed=9)
    s3 = make_language("seeded-random", seed=10)
    assert s1.enumerator(8) == s2.enumerator(8)
    assert s1.enumerator(8) != s3.enumerator(8)
    members = s1.enumerator(8)
    assert len(members) == 8
    assert len(set(members)) == 8
    assert all(len(m) == 8 for m in members)
    assert all(s1.membership(m) for m in members)


def test_seeded_random_members_are_the_first_distinct_draws():
    # The enumerator lists them in draw order and the predicate reads the
    # same members, as one set per length.
    from streamfp.seeds import derived_rng

    spec = make_language("seeded-random", seed=9)
    for n in (1, 2, 3, 8):
        rng = derived_rng(9, "language", n)
        want: list[str] = []
        while len(want) < n:
            x = format(rng.getrandbits(n), f"0{n}b")
            if x not in want:
                want.append(x)
        got = spec.enumerator(n)
        assert got == want
        got.append("0" * n)  # the caller's own list
        assert spec.enumerator(n) == want
        strings = (format(v, f"0{n}b") for v in range(1 << n))
        assert [x for x in strings if spec.membership(x)] == sorted(want)
    assert not spec.membership("")


def test_unknown_language_kind():
    with pytest.raises(ValueError):
        make_language("mystery")


def test_density_fn_parse():
    assert DensityFn.parse("constant:4").eval(100) == 4
    assert DensityFn.parse("linear").eval(100) == 100
    assert DensityFn.parse("power:3/2").eval(16) == 64
    for text in ("cubic-ish", "linear:5", "linear:", "constant:", "constant:-1", "power:",
                 "power:3/0", "power:3/"):
        with pytest.raises(ValueError):
            DensityFn.parse(text)
    # A non-integer argument is named with the flag and the family's form,
    # not by int()'s own message.
    for text, form in (("constant:", "--f constant:C"), ("power:x/2", "--f power:P/Q"),
                       ("power:3/x", "--f power:P/Q"), ("power:3/", "--f power:P/Q")):
        with pytest.raises(ValueError, match=f"^{re.escape(form)} needs integers"):
            DensityFn.parse(text)


def test_binomial_sum_density_matches_math_comb():
    # eval sums by C(n, i + 1) = C(n, i)(n - i)/(i + 1); math.comb is the referee.
    cases = [(n, c) for n in range(1, 34) for c in range(0, 36)]
    for n, c in cases + [(64, 2), (128, 3), (2000, 2000)]:
        want = sum(math.comb(n, i) for i in range(min(c, n) + 1))
        assert DensityFn("binomial-sum", c).eval(n) == want, (n, c)


def test_power_density_past_the_degree_cap_is_refused_before_f_n():
    # At n = 3, n^(p/q) >= 2^(p/q): from p/q = 1024 on, k would pass the
    # degree cap, and f(n) is never computed.
    with pytest.raises(ValueError, match="at least 2\\^1024, so k would exceed 1024"):
        DensityFn("power", 1024, 1).field_size(3)
    with pytest.raises(ValueError, match="2\\^1024"):
        DensityFn("power", 10 ** 9, 1).field_size(4)
    with pytest.raises(ValueError, match="2\\^1024"):
        DensityFn("power", 2048, 3).field_size(8)  # 3 * 2048/3 = 2048 >= 1024
    # Just under the line f(n) is computed, and sizes past the cap as before.
    assert DensityFn("power", 1023, 1).field_size(3) == (8 * 3 ** 1023 * 3).bit_length()
    assert DensityFn("power", 1023, 3).field_size(8) == (8 * 2 ** 1023 * 8).bit_length()


def test_fingerprint_density_with_a_stray_argument_exits_3(capsys):
    from streamfp.cli import EXIT_PRECONDITION, main

    assert main(["fingerprint", "--bits", "1011", "--seed", "7", "--f", "linear:5"]) \
        == EXIT_PRECONDITION
    out = capsys.readouterr()
    assert out.out == "" and "linear" in out.err


@pytest.mark.parametrize("density, f_of_n", [("constant:0", 0), ("constant:1", 1),
                                            ("linear", 4)])
def test_library_and_cli_size_a_density_alike(capsys, density, f_of_n):
    # A density of 0 sizes as 1 in both: the CLI through DensityFn.field_size,
    # the library through begin_seeded.
    from streamfp.cli import EXIT_OK, main
    from streamfp.stream import fingerprint

    assert main(["fingerprint", "--bits", "1011", "--seed", "1", "--f", density]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    fp = fingerprint(4, "1011", seed=1, f_of_n=f_of_n)
    assert (record["k"], record["a_hex"], record["v_hex"]) == \
        (fp.k, fp.ctx.elem_hex(fp.a), fp.ctx.elem_hex(fp.v))
    assert fp.k == DensityFn.parse(density).field_size(4)
    with pytest.raises(ValueError, match="f\\(n\\) must be >= 0"):
        fingerprint(4, "1011", seed=1, f_of_n=-1)


def test_density_violation_reported_with_n():
    too_many = SparseLanguageSpec(
        name="toomany",
        density=DensityFn("constant", 1),
        enumerator=lambda n: ["0" * n, "1" * n],
        membership=lambda x: x in ("0" * len(x), "1" * len(x)),
    )
    with pytest.raises(ValueError, match="n=4"):
        build_sketch(too_many, 4, ctx=GF4)


def test_enumerator_membership_disagreement_detected():
    broken = SparseLanguageSpec(
        name="broken",
        density=DensityFn("constant", 1),
        enumerator=lambda n: ["1" * n],
        membership=lambda x: False,
    )
    with pytest.raises(ValueError):
        build_sketch(broken, 4, ctx=GF4)


# ------------------------------------------------------------- sketch sizes

def test_singleton_sketch_size_gf4():
    sk = build_sketch(make_language("singleton", member="1011"), 4, ctx=GF4)
    assert sk.size == 4  # one (a, v) pair per field point
    assert not sk.rule_sized


def test_pair_sketch_size_gf4():
    # 4 + 4: the members agree at a=1, and each row keeps its own value there.
    sk = build_sketch(listed_language("0000", "1111"), 4, ctx=GF4)
    assert sk.size == 8
    values = table_values(sk)
    assert values[0, 1] == values[1, 1]


def test_empty_sketch():
    sk = build_sketch(make_language("empty"), 4, ctx=GF4)
    assert sk.size == 0
    assert exact_fp_count(GF4, 4, [], "1011") == 0
    assert not query_membership(sk, "1011", seed=5)


def test_sketch_matches_direct_set_construction(tmp_path):
    spec = make_language("seeded-random", seed=31)
    n = 8
    sk = build_sketch(spec, n)
    ctx = sk.ctx
    oracle = [
        [direct_eval(ctx, y, a) for a in ctx.elements()]
        for y in spec.enumerator(n)
    ]
    assert table_values(sk).tolist() == oracle
    assert sk.rule_sized
    # The table exists only in the file: the save evaluates it block by block.
    path = os.fspath(tmp_path / "n8.spsk")
    save_sketch(sk, path)
    assert table_values(load_sketch(path)).tolist() == oracle


def test_built_sketch_holds_its_members_rows_and_no_table():
    spec = make_language("seeded-random", seed=31)
    sk = build_sketch(spec, 20)
    assert sk.table is None
    assert sk.rows == [coefficients(sk.ctx, y) for y in spec.enumerator(20)]
    assert sk.size == 20 * sk.ctx.q


@pytest.mark.parametrize("spec, n, ctx", [
    (listed_language("0000", "1111"), 4, GF4),             # the members agree at a = 1
    (make_language("low-weight", max_ones=2), 9, None),  # many agreements, zero segments
    (make_language("seeded-random", seed=5), 12, None),
])
def test_values_table_is_members_by_points_in_the_narrowest_dtype(tmp_path, spec, n, ctx):
    path = os.fspath(tmp_path / "t.spsk")
    save_sketch(build_sketch(spec, n, ctx=ctx), path)
    sk = load_sketch(path)
    q = sk.ctx.q
    values = table_values(sk)
    assert values.shape == (len(spec.enumerator(n)), q)
    assert values.dtype == np.min_scalar_type(q - 1)
    assert values.flags.c_contiguous
    assert values.size > 0
    assert int(values.max()) < q


# ------------------------------------------------------------------ queries

def test_contains_member_fingerprint_any_point():
    sk = build_sketch(make_language("singleton", member="1011"), 4, ctx=GF4)
    for a in range(4):
        v = direct_eval(GF4, "1011", a)
        assert contains(sk, Fingerprint(n=4, a=a, v=v, ctx=GF4))


def test_contains_frozen_stream_example():
    sk = build_sketch(make_language("singleton", member="1011"), 4, ctx=GF4)
    assert contains(sk, Fingerprint(n=4, a=2, v=2, ctx=GF4))


def test_contains_perturbed_value():
    sk = build_sketch(make_language("singleton", member="1011"), 4, ctx=GF4)
    for a in range(4):
        v = direct_eval(GF4, "1011", a)
        assert not contains(sk, Fingerprint(n=4, a=a, v=v ^ 1, ctx=GF4))


def test_contains_validates_context():
    sk = build_sketch(make_language("singleton", member="1011"), 4, ctx=GF4)
    with pytest.raises(ValueError):
        contains(sk, Fingerprint(n=5, a=2, v=2, ctx=GF4))
    with pytest.raises(ValueError):
        contains(sk, Fingerprint(n=4, a=2, v=2, ctx=make_field(3)))


def test_exact_fp_count_frozen():
    assert exact_fp_count(GF4, 4, ["0000"], "0000") == 4  # member hits every point
    assert exact_fp_count(GF4, 4, ["0000"], "1111") == 1  # agreement only at a=1


def test_member_query_accepts_for_every_seed():
    sk = build_sketch(make_language("singleton", member="1011"), 4, ctx=GF4)
    assert all(query_membership(sk, "1011", seed=s) for s in range(64))


def test_query_matches_fingerprint_replay():
    sk = build_sketch(make_language("singleton", member="1011"), 4, ctx=GF4)
    for seed in range(16):
        fp = fingerprint(4, "0111", seed=seed, ctx=sk.ctx)
        assert query_membership(sk, "0111", seed) == contains(sk, fp)


def test_completeness_exhaustive_rule_sized():
    spec = make_language("seeded-random", seed=17)
    n = 6
    sk = build_sketch(spec, n)
    for y in spec.enumerator(n):
        for a in sk.ctx.elements():
            fp = Fingerprint(n=n, a=a, v=direct_eval(sk.ctx, y, a), ctx=sk.ctx)
            assert contains(sk, fp)


@pytest.mark.parametrize("spec, n, k", [
    (make_language("seeded-random", seed=11), 32, None),  # k = 14, r = 3
    (make_language("seeded-random", seed=11), 1, None),   # n = 1: k = 4, one member
    (make_language("low-weight", max_ones=1), 13, None),  # k = 11 does not divide n
    (make_language("singleton", member="1011001"), 7, None),  # k = 6 does not divide n
    (make_language("empty"), 5, None),
    (make_language("seeded-random", seed=11), 40, 12),    # --k 12
], ids=["seeded-random", "n1", "low-weight", "singleton", "empty", "k12"])
def test_built_and_loaded_lookups_agree_with_direct_eval(tmp_path, spec, n, k):
    # A built sketch evaluates its rows at a; its saved-and-loaded copy
    # reads column a of the file's table.  Both must answer as the members'
    # polynomials do, for every member and for 200 non-member fingerprints.
    sk = build_sketch(spec, n, ctx=None if k is None else make_field(k))
    path, again = os.fspath(tmp_path / "d.spsk"), os.fspath(tmp_path / "again.spsk")
    save_sketch(sk, path)
    loaded = load_sketch(path)
    save_sketch(loaded, again)  # a loaded sketch saves the file's own table
    assert open(again, "rb").read() == open(path, "rb").read()
    ctx, members = sk.ctx, spec.enumerator(n)
    rng = random.Random(n)
    fps = [fingerprint(n, y, seed=s, ctx=ctx) for y in members for s in range(2)]
    while len(fps) < 2 * len(members) + 200:
        x = format(rng.getrandbits(n), f"0{n}b")
        if x not in members:
            fps.append(fingerprint(n, x, seed=len(fps), ctx=ctx))
    for i, fp in enumerate(fps):
        want = any(direct_eval(ctx, y, fp.a) == fp.v for y in members)
        assert contains(sk, fp) == contains(loaded, fp) == want, fp
        assert want or i >= 2 * len(members)


@pytest.mark.parametrize("k, n", [
    (1, 4), (8, 4), (9, 4), (16, 4), (17, 4),  # uint8 ends at k = 8, uint16 at 16
    (8, 9), (9, 10),                           # two segments: 0...0 and 1...1 agree once
])
def test_counts_and_lookups_match_direct_eval_at_dtype_boundaries(tmp_path, k, n):
    ctx = make_field(k)
    path = os.fspath(tmp_path / "s.spsk")
    members = ("0" * n, "1" * n)
    rows = {x: [direct_eval(ctx, x, a) for a in ctx.elements()]
            for x in (*members, ("0110" * n)[:n])}
    assert any(u == v for u, v in zip(*(rows[y] for y in members))) == (k == 1 or n > k)
    rng = random.Random(k)
    points = [0, 0, 1, ctx.q - 1] + [rng.randrange(ctx.q) for _ in range(60)]
    for spec, stored in ((listed_language(*members), members), (make_language("empty"), ())):
        built = build_sketch(spec, n, ctx=ctx)
        save_sketch(built, path)
        sk = load_sketch(path)  # the table as a query reads it, in place from the file
        values = table_values(sk)
        assert values.dtype == table_values(built).dtype == np.min_scalar_type(ctx.q - 1)
        assert np.array_equal(values, table_values(built))
        for x, row in rows.items():
            hits = [any(rows[y][a] == v for y in stored) for a, v in enumerate(row)]
            assert exact_fp_count(ctx, n, list(stored), x) == sum(hits)
            assert _sampled_counts(ctx, n, list(stored), [x], [np.array(points, np.uint64)]
                                   ) == [sum(hits[a] for a in points)]
            for a in points[:8]:
                assert contains(sk, Fingerprint(n=n, a=a, v=row[a], ctx=ctx)) == hits[a]


def test_exact_fp_count_list_equals_per_string_counts():
    spec = make_language("seeded-random", seed=29)
    n = 32
    ctx = make_field(spec.density.field_size(n))
    members = spec.enumerator(n)
    rng = random.Random(29)
    xs = members[:5] + [format(rng.getrandbits(n), "032b") for _ in range(60)]
    counts = exact_fp_count(ctx, n, members, xs)
    assert counts == [exact_fp_count(ctx, n, members, x) for x in xs]
    assert all(isinstance(c, int) for c in counts)
    assert counts[:5] == [ctx.q] * 5  # members hit at every point
    assert exact_fp_count(ctx, n, members, []) == []
    # The sampled count at every point once is the exhaustive count, and
    # it counts a repeated point each time it is drawn.
    field = np.arange(ctx.q, dtype=np.uint64)
    assert _sampled_counts(ctx, n, members, xs, [field] * len(xs)) == counts
    points = np.array([0, 0, 1] + [rng.randrange(ctx.q) for _ in range(3000)], np.uint64)
    sampled = _sampled_counts(ctx, n, members, xs, [points] * len(xs))
    assert all(isinstance(c, int) for c in sampled)
    assert sampled[:5] == [points.size] * 5
    twice = np.concatenate([points, points])
    assert _sampled_counts(ctx, n, members, xs, [twice] * len(xs)) == [
        2 * c for c in sampled]
    with pytest.raises(ValueError, match="length mismatch"):
        exact_fp_count(ctx, n, members, xs[:3] + ["0"])
    with pytest.raises(ValueError, match="length mismatch"):
        exact_fp_count(ctx, n, members + ["0"], xs)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_exhaustive_counts_are_the_union_of_agreements(k):
    # The referee: d_x agrees with the member y exactly where direct_eval
    # gives the same value, and x counts the union of those points.
    spec = make_language("seeded-random", seed=31 + k)
    n = 9
    ctx = make_field(k)
    members = spec.enumerator(n)
    rows = {x: [direct_eval(ctx, x, a) for a in ctx.elements()]
            for x in (format(b, "09b") for b in range(1 << n))}
    want = [sum(any(v == rows[y][a] for y in members) for a, v in enumerate(row))
            for row in rows.values()]
    assert exact_fp_count(ctx, n, members, list(rows)) == want


def test_soundness_pairwise_bound_exhaustive():
    spec = make_language("seeded-random", seed=23)
    n = 6
    ctx = make_field(spec.density.field_size(n))
    members = spec.enumerator(n)
    r = -(-n // ctx.k)
    cap = (r - 1) * len(members)
    for bits in range(1 << n):
        x = format(bits, f"0{n}b")
        if x in members:
            continue
        c = exact_fp_count(ctx, n, members, x)
        assert c <= cap
        assert c / ctx.q <= ACCEPT_BOUND


def _strings(rng: random.Random, n: int, count: int) -> list[str]:
    """count distinct length-n strings in a seeded order (all 2^n if fewer)."""
    bits = range(1 << n) if count >= 1 << n else rng.sample(range(1 << n), count)
    return [format(b, f"0{n}b") for b in bits]


def _referee_rows(ctx, strings, points) -> dict:
    """{x: {a: d_x(a)}} term by term as direct_eval, from each string's
    coefficients listed once and each point's powers taken once for every
    string, where direct_eval redoes both per call."""
    coeffs = {x: coefficients(ctx, x) for x in strings}
    r = len(next(iter(coeffs.values()), []))
    rows = {x: {} for x in coeffs}
    for a in points:
        powers = [ctx.pow(a, e) for e in range(r + 1)]
        for x, cs in coeffs.items():
            acc = powers[r]
            for j, c in enumerate(cs):
                acc = ctx.add(acc, ctx.mul(c, powers[r - 1 - j]))
            rows[x][a] = acc
    return rows


# Member counts none, one, and 7, 8 and 9 around C = 8; string counts
# around the string group G: one short of a group, one group, and one
# string into a second group.  Member counts around B, the member rows
# sweep_field evaluates per batch beside the strings: 32 rows of a
# 1023-point run in log order at k = 10 and 11, and 12 rows of a
# 2730-point block (block_points of 12 strings) in gather order at k = 10.
@pytest.mark.parametrize("k, n, members, batch, given", [
    *[(4, 9, m, 40, False) for m in ("0", "1", "C-1", "C", "C+1")],
    *[(4, 9, "C", b, False) for b in ("G-1", "G", "G+1")],
    (10, 23, "C+1", 40, False),  # 49 rows gather 668 points a block: two blocks
    (10, 23, "C", 40, True),     # given points with repeats, across a block edge
    (5, 4, "C-1", 16, False),    # n <= k: r = 1, every string of length 4
    (1, 3, "C-1", 8, True),      # k = 1: two points, every string of length 3
    (11, 22, "C+1", 40, False),  # log order: runs of 1023 points, then a = 0
    *[(11, 22, m, 8, False) for m in ("B-1", "B", "B+1")],
    *[(10, 23, m, 12, False) for m in ("B-1", "B", "B+1")],
    (10, 10, "B+1", "G+1", False),  # log order: two string groups, two member batches
    # Gather order, 65 members: groups of 260 strings, then 64, whose
    # blocks keep the first group's width of block_points(260) = 126 points.
    (10, 23, 65, 324, False),
], ids=[f"k4-members-{m}" for m in ("0", "1", "C-1", "C", "C+1")]
    + [f"k4-strings-{b}" for b in ("G-1", "G", "G+1")]
    + ["k10-two-blocks", "k10-given-points", "r1", "k1", "k11-row-groups"]
    + [f"k11-members-{m}" for m in ("B-1", "B", "B+1")]
    + [f"k10-members-{m}" for m in ("B-1", "B", "B+1")]
    + ["two-groups-two-batches", "gather-two-groups-short-last"])
def test_exact_fp_count_matches_direct_eval_referee(monkeypatch, k, n, members, batch, given):
    rng = random.Random(k * 100 + n)
    ctx = make_field(k)
    chunk = 8
    per_batch = 32 if kernels.log_order(k, -(-n // k)) else 12
    count = {"0": 0, "1": 1, "C-1": chunk - 1, "C": chunk, "C+1": chunk + 1,
             "B-1": per_batch - 1, "B": per_batch, "B+1": per_batch + 1}.get(members, members)
    group = max(sketch_mod._STRING_GROUP, 4 * count)
    batch = {"G-1": group - 1, "G": group, "G+1": group + 1}.get(batch, batch)
    block_rows, batches = kernels.block_rows, set()
    monkeypatch.setattr(kernels, "block_rows", lambda *args: (
        batches.add(block_rows(*args)) or block_rows(*args)))
    stored = _strings(rng, n, count)
    assert len(stored) == count
    xs = _strings(rng, n, batch)
    points = list(range(ctx.q))
    if given:
        points = [0, 0, ctx.q - 1] + [rng.randrange(ctx.q) for _ in range(900)] + [0]
    # The referee: x is accepted at a exactly when some member's polynomial
    # takes x's value there, each evaluated on its own term by term, as
    # direct_eval does (the first string checked against it).
    at = sorted(set(points))
    rows = _referee_rows(ctx, {*stored, *xs}, at)
    assert rows[xs[0]] == {a: direct_eval(ctx, xs[0], a) for a in at}
    taken = {a: {rows[y][a] for y in stored} for a in at}  # the members' values at a
    want = [sum(rows[x][a] in taken[a] for a in points) for x in xs]
    if given:  # the sampled count, from the member rows with no table
        got = _sampled_counts(ctx, n, stored, xs, [np.array(points, np.uint64)] * len(xs))
    else:
        got = exact_fp_count(ctx, n, stored, xs)
        if str(members).startswith("B"):  # the batch edge is where the count puts it
            assert batches == {per_batch}
    assert got == want


# A group holds _STRING_GROUP strings, or 4m if more.  One buffer serves
# every group, as wide as a run may be in log order ((q - 1) // r points
# at r = 1, under SWEEP_WIDTH), and in gather order block_points of the
# strings the first group holds (128 for 256, 102 for 320, 126 for 260).
@pytest.mark.parametrize("k, n, m, count, groups, shape", [
    (4, 9, 8, 257, [256, 1], (256, 128)), (4, 9, 80, 321, [320, 1], (320, 102)),
    (10, 10, 3, 12, [12], (12, 1023)), (10, 23, 65, 324, [260, 64], (260, 126))])
def test_exact_count_sweeps_the_strings_a_group_at_a_time(monkeypatch, k, n, m, count, groups,
                                                          shape):
    sweep, sizes, outs = kernels.sweep_field, [], []
    monkeypatch.setattr(kernels, "sweep_field", lambda members, strings, *args: (
        sizes.append(len(strings)) or outs.append(args[-1]) or sweep(members, strings, *args)))
    rng = random.Random(m)
    counts = exact_fp_count(make_field(k), n, _strings(rng, n, m), _strings(rng, n, count))
    assert len(counts) == count and sizes == groups
    assert all(out is outs[0] for out in outs) and outs[0].shape == shape


@pytest.mark.parametrize("k, n", [(11, 22), (10, 23)], ids=["log-order", "gather"])
def test_exact_count_is_the_points_a_query_accepts(k, n):
    # The count reads no table, so this ties it to the table `sketch
    # query` reads: x counts at a exactly when contains() accepts its
    # fingerprint there.
    ctx = make_field(k)
    assert kernels.log_order(k, -(-n // k)) == (k == 11)
    rng = random.Random(k)
    strings = _strings(rng, n, 24)
    members, xs = strings[:20], strings[20:]
    sk = build_sketch(listed_language(*members), n, ctx=ctx)
    counts = exact_fp_count(ctx, n, members, xs + members[:1])
    assert counts[-1] == ctx.q
    for x, count in zip(xs, counts):
        accepted = [contains(sk, Fingerprint(n=n, a=a, v=direct_eval(ctx, x, a), ctx=ctx))
                    for a in ctx.elements()]
        assert count == sum(accepted), x


# ------------------------------------------------------------------ budgets

def unlisted(spec: SparseLanguageSpec) -> SparseLanguageSpec:
    """spec with an enumerator that fails the test if anything lists a member."""
    def no_listing(n):
        raise AssertionError(f"a refused run listed the members at n={n}")

    return dataclasses.replace(spec, enumerator=no_listing)


def test_default_entry_budget_refuses_before_evaluating(monkeypatch):
    # n = 400 sizes k = 21: q x f(n) = 2^21 x 400 = 8.4e8 entries, over
    # ENTRY_CAP = 10^8.  k and f(n) decide it, so no member is listed.
    def no_evaluation(*args, **kwargs):
        raise AssertionError("a refused build evaluated a polynomial")

    monkeypatch.setattr(kernels, "eval_points", no_evaluation)
    spec = unlisted(make_language("seeded-random", seed=1))
    with pytest.raises(ValueError, match="could hold 838860800 entries, over "
                                         "sketch.ENTRY_CAP = 100000000$"):
        build_sketch(spec, 400)
    assert sketch_mod.ENTRY_CAP == 10 ** 8


def test_refusals_from_k_and_f_n_list_no_member():
    # A --k override over a dense language: f(20) = 2^20 low-weight strings.
    dense = unlisted(make_language("low-weight", max_ones=22))
    with pytest.raises(ValueError, match="could hold 1099511627776 entries"):
        build_sketch(dense, 20, ctx=make_field(20))
    # Exhaustive fp-rate past EXHAUSTIVE_DEGREE_CAP.
    with pytest.raises(ValueError, match="exhaustive mode sweeps q = 2\\^22 points"):
        fp_rate_experiment(dense, 22, trials=1, seed=1, ctx=make_field(22))
    # The log tables' k <= 24, by override and by the sizing rule (n = 1500: k = 25).
    need = "which need k <= 24; got k = 25"
    with pytest.raises(ValueError, match=need):
        build_sketch(dense, 22, ctx=make_field(25))
    for a_samples in (None, 512):
        with pytest.raises(ValueError, match=need):
            fp_rate_experiment(dense, 22, trials=1, seed=1, ctx=make_field(25),
                               a_samples=a_samples)
    wide = unlisted(make_language("seeded-random", seed=1))
    with pytest.raises(ValueError, match=need):
        build_sketch(wide, 1500)
    with pytest.raises(ValueError, match=need):
        fp_rate_experiment(wide, 1500, trials=1, seed=1, a_samples=64)


def test_listed_bits_cap_refuses_before_listing():
    # f(n) x n past LISTED_BITS_CAP = 2^21 bits refuses before a member is
    # listed: a --k 4 build that ENTRY_CAP allows (16 x 679121 entries),
    # and fp-rate at --k 20 --n 30 --max-ones 15 (f(30) = 614429672), in
    # both modes, once its non-member has been drawn.
    assert sketch_mod.LISTED_BITS_CAP == 1 << 21
    with pytest.raises(ValueError, match=r"^listing f\(n\) = 679121 members of n = 64 bits "
                                         r"could take 43463744 bits, over "
                                         r"sketch.LISTED_BITS_CAP = 2097152$"):
        build_sketch(unlisted(make_language("low-weight", max_ones=4)), 64, ctx=make_field(4))
    dense = unlisted(make_language("low-weight", max_ones=15))
    for a_samples in (None, 64):
        with pytest.raises(ValueError, match="over sketch.LISTED_BITS_CAP"):
            fp_rate_experiment(dense, 30, trials=1, seed=1, ctx=make_field(20),
                               a_samples=a_samples)


def test_listed_bits_cap_admits_every_rule_sized_run():
    # The sizing rule's 8 f(n) n < 2^k makes f(n) x n < 2^21 at k <= 24,
    # so the cap refuses only overrides; at n = 64 it admits f(n) = 32768.
    for n in range(1, 400):
        for density in (DensityFn("linear"), DensityFn("power", 3, 2),
                        DensityFn("binomial-sum", 2)):
            if density.field_size(n) <= 24:
                assert density.eval(n) * n <= sketch_mod.LISTED_BITS_CAP
    ok = SparseLanguageSpec("listed", DensityFn("constant", 32768), lambda n: ["1" * n],
                            lambda x: x == "1" * 64)
    assert build_sketch(ok, 64, ctx=make_field(1)).member_count == 1
    over = unlisted(dataclasses.replace(ok, density=DensityFn("constant", 32769)))
    with pytest.raises(ValueError, match="2097216 bits, over sketch.LISTED_BITS_CAP"):
        build_sketch(over, 64, ctx=make_field(1))


# ------------------------------------------------------------------- files

def test_saved_n64_sketch_bytes_are_pinned(tmp_path):
    # k = 16 and r = 4: each member's row is swept in log order as five
    # runs of points.  SHA-256 pinned from the point-block gather sweep.
    sk = build_sketch(make_language("seeded-random", seed=64), 64, source_seed=64)
    assert (sk.ctx.k, sk.member_count) == (16, 64)
    path = os.fspath(tmp_path / "n64.spsk")
    save_sketch(sk, path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == "b4b96bb3688f13da37e7b8f8daf96b564ae3abacf373beaad1929abaa84057fc"


def test_save_load_round_trip(tmp_path):
    spec = make_language("seeded-random", seed=77)
    sk = build_sketch(spec, 8, source_seed=77)
    path = os.fspath(tmp_path / "round.spsk")
    save_sketch(sk, path)
    back = load_sketch(path)
    assert back.n == sk.n
    assert back.ctx.k == sk.ctx.k
    assert back.ctx.modulus == sk.ctx.modulus
    assert back.member_count == sk.member_count
    assert back.rule_sized == sk.rule_sized
    assert back.source_seed == 77
    values = table_values(back)
    assert values.dtype == table_values(sk).dtype
    assert np.array_equal(values, table_values(sk))


@pytest.mark.parametrize("spec, n, ctx", [
    (make_language("empty"), 4, GF4),                        # 0 entries
    (make_language("singleton", member="1011"), 4, make_field(1)),
])
def test_save_load_round_trip_edge_sketches(tmp_path, spec, n, ctx):
    sk = build_sketch(spec, n, ctx=ctx)
    path = os.fspath(tmp_path / "edge.spsk")
    save_sketch(sk, path)
    # The value region starts at a multiple of 64 bytes of the file.
    with open(path, "rb") as fh:
        (header_len,) = struct.unpack("<I", fh.read(12)[8:])
    assert (12 + header_len) % 64 == 0
    back = load_sketch(path)
    assert (back.n, back.ctx, back.member_count) == (sk.n, sk.ctx, sk.member_count)
    assert back.rule_sized is False and back.source_seed is None
    values = table_values(back)
    assert values.dtype == np.uint8
    assert values.shape == table_values(sk).shape
    assert np.array_equal(values, table_values(sk))


def test_sketch_set_compares_and_hashes_by_its_fields_and_prints_no_table(tmp_path):
    # As the dataclass it replaces: equality and hashing by every field,
    # table and rows included, and a repr without the table or the rows.
    from streamfp.spsk import SketchSet

    sk = build_sketch(make_language("seeded-random", seed=77), 8, source_seed=77)
    path = os.fspath(tmp_path / "s.spsk")
    save_sketch(sk, path)
    loaded = load_sketch(path)
    assert loaded == load_sketch(path) and hash(loaded) == hash(load_sketch(path))
    assert loaded != sk  # a table, not rows
    assert sk == build_sketch(make_language("seeded-random", seed=77), 8, source_seed=77)
    fields = dict(n=8, ctx=sk.ctx, member_count=8, table=b"\x01", source_seed=77,
                  rule_sized=True, rows=None)
    one = SketchSet(**fields)
    assert one == SketchSet(**fields) and hash(one) == hash(SketchSet(**fields))
    for name, other in [("n", 9), ("ctx", make_field(5)), ("member_count", 7),
                        ("table", b"\x02"), ("source_seed", 78), ("rule_sized", False),
                        ("rows", [[1]])]:
        assert one != SketchSet(**{**fields, name: other}), name
    assert one != fields
    with pytest.raises(TypeError):
        hash(sk)  # rows are lists
    want = f"SketchSet(n=8, ctx={sk.ctx!r}, member_count=8, source_seed=77, rule_sized=True)"
    assert repr(one) == repr(sk) == repr(loaded) == want


def test_save_is_deterministic(tmp_path):
    sk = build_sketch(make_language("seeded-random", seed=77), 8, source_seed=77)
    first, second = tmp_path / "a.spsk", tmp_path / "b.spsk"
    save_sketch(sk, os.fspath(first))
    save_sketch(sk, os.fspath(second))
    assert first.read_bytes() == second.read_bytes()


def test_spsk_v3_golden_bytes(tmp_path):
    """Pins the v3 layout: prefix, canonical header padded to 64-byte
    alignment, the values row by row, SHA-256."""
    sk = build_sketch(make_language("singleton", member="1011"), 4,
                      ctx=make_field(4), source_seed=3)
    path = tmp_path / "golden.spsk"
    save_sketch(sk, os.fspath(path))
    header = (b'{"k":4,"member_count":1,"n":4,'
              b'"rule_sized":false,"seed":3,"t_hex":"0x13"}')
    assert len(header) == 73
    header += b" " * 43  # 12 + 116 = 128: the values start 64-byte aligned
    # d_1011(a) = a + 1101b: one segment, so the polynomial is monic of degree 1.
    values = bytes(a ^ 0b1101 for a in range(16))  # k = 4: one uint8 per point
    body = b"SPSK" + (3).to_bytes(4, "little") + (116).to_bytes(4, "little") + header + values
    digest = bytes.fromhex("55b5ffbd70f7adbaf913e8ab791fcc4f"
                           "679390ee5aced24704cb929e0ee106e0")
    assert path.read_bytes() == body + digest


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.spsk"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError, match="magic"):
        load_sketch(os.fspath(path))


@pytest.mark.parametrize("make, message", [
    (lambda good: b"NOPE", "bad magic"),
    (lambda good: b"SPSK" + struct.pack("<II", 3, 0xFFFF_FFFF),
     "shorter than its 4294967295-byte header"),
    (lambda good: good, f"{64 << 20} bytes, expected"),  # a sketch's header, a longer file
], ids=["bad-magic", "header-past-the-end", "sketch-header"])
def test_load_refuses_a_64_mib_file_before_reading_its_body(tmp_path, make, message):
    path = os.fspath(tmp_path / "big.spsk")
    save_sketch(build_sketch(make_language("singleton", member="1011"), 4, ctx=GF4), path)
    good = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(make(good))
        fh.truncate(64 << 20)  # sparse: the 64 MiB are never written
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            load_sketch(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_sketch_query_on_a_fifo_exits_3_without_blocking(tmp_path):
    path = tmp_path / "fifo.spsk"
    os.mkfifo(path)
    proc = subprocess.run(
        [sys.executable, "-m", "streamfp.cli", "sketch", "query", "--sketch", os.fspath(path),
         "--bits", "1011", "--seed", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == f"streamfp: not a sketch file (not a regular file): {path}\n"


def test_load_rejects_truncated_file(tmp_path):
    spec = make_language("singleton", member="1011")
    sk = build_sketch(spec, 4, ctx=GF4)
    path = os.fspath(tmp_path / "trunc.spsk")
    save_sketch(sk, path)
    data = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(data[:-3])
    with pytest.raises(ValueError):
        load_sketch(path)


# -------------------------------------------------------------- experiments

def test_fp_rate_deterministic_and_bounded():
    spec = make_language("seeded-random", seed=5)
    r1 = fp_rate_experiment(spec, 12, trials=20, seed=99)
    r2 = fp_rate_experiment(spec, 12, trials=20, seed=99)
    assert r1 == r2
    assert r1["bound_checked"] is True
    assert r1["bound_satisfied"] is True
    assert r1["max_fraction"] <= r1["pairwise_agreement_bound"]
    assert r1["pairwise_agreement_bound"] <= r1["coarse_agreement_bound"]
    assert r1["member_fractions"] == [1.0] * r1["member_count"]
    assert len(r1["nonmember_fractions"]) == 20


def test_fp_rate_override_skips_bound_check():
    spec = make_language("singleton", member="1011")
    r = fp_rate_experiment(spec, 4, trials=5, seed=3, ctx=GF4)
    assert r["rule_sized"] is False
    assert r["bound_checked"] is False
    assert r["bound_satisfied"] is None


def test_fp_rate_sampled_mode():
    spec = make_language("seeded-random", seed=5)
    r = fp_rate_experiment(spec, 12, trials=5, seed=99, a_samples=64)
    assert (r["mode"], r["points_per_query"]) == ("sampled-a", 64)
    assert r["member_fractions"] == [1.0] * r["member_count"]
    assert all(f <= 1.0 for f in r["nonmember_fractions"])
    r2 = fp_rate_experiment(spec, 12, trials=5, seed=99, a_samples=64)
    assert r == r2


def _binomial_tail(n: int, h: int) -> float:
    """P[Bin(n, 1/4) >= h], exactly."""
    return sum(math.comb(n, i) * 3 ** (n - i) for i in range(h, n + 1)) / 4 ** n


def test_sampled_bound_rejects_only_improbable_hits():
    reject = sketch_mod._bound_rejected
    assert reject(64, 64, 1)        # every point of 64 hit: 4^-64
    assert not reject(1, 2, 1)      # one of two: 7/16, no evidence
    assert not reject(2, 2, 200)    # both of two: 1/16 per non-member
    # Hoeffding's bound overstates the tail, so a rejection is never
    # weaker than the exact binomial test at the same level.
    for trials in (1, 50):
        for n in range(1, 61):
            for h in range(n + 1):
                if reject(h, n, trials):
                    assert _binomial_tail(n, h) <= sketch_mod.SAMPLED_ALPHA / trials, (h, n)


def test_sampled_bound_weighs_the_misses_too():
    # 20 hits of 64 is over 1/4, but not by enough to reject at one trial:
    # the misses' term (1 - x) log((1 - x)/(1 - p)) of D is negative.
    assert not sketch_mod._bound_rejected(20, 64, 1)
    # With both terms, N = 64 rejects from h = 30 at one trial, 34 at 50.
    for trials, least in ((1, 30), (50, 34)):
        rejected = [h for h in range(65) if sketch_mod._bound_rejected(h, 64, trials)]
        assert rejected == list(range(least, 65)), trials


@given(n=st.integers(1, 1 << 20), trials=st.integers(1, 10 ** 4), data=st.data())
def test_sampled_bound_never_rejects_a_rate_within_the_bound(n, trials, data):
    h = data.draw(st.integers(0, n // 4))
    assert h / n <= ACCEPT_BOUND
    assert not sketch_mod._bound_rejected(h, n, trials)


def _fp_rate_builds_no_table(monkeypatch, a_samples: int | None) -> None:
    # No sketch, and no whole-field row of q values: each string is
    # evaluated a block of points at a time.
    def no_table(*args, **kwargs):
        raise AssertionError(f"fp-rate at a_samples={a_samples} built a sketch table")

    spec = make_language("seeded-random", seed=5)
    want = fp_rate_experiment(spec, 12, trials=5, seed=99, a_samples=a_samples)
    for name in ("build_sketch", "SketchSet"):
        monkeypatch.setattr(sketch_mod, name, no_table)
    monkeypatch.setattr(kernels, "_eval_field", no_table)
    r = fp_rate_experiment(spec, 12, trials=5, seed=99, a_samples=a_samples)
    assert r == want
    assert r["entry_count"] == r["member_count"] * r["q"]


def test_fp_rate_sampled_mode_builds_no_table(monkeypatch):
    _fp_rate_builds_no_table(monkeypatch, 64)


def test_fp_rate_exhaustive_mode_builds_no_table(monkeypatch):
    _fp_rate_builds_no_table(monkeypatch, None)


def test_fp_rate_sampled_mode_evaluates_only_the_nonmembers(monkeypatch):
    # A member y reads a_samples by construction (y itself takes d_y's
    # value at each of its points), so only the trials non-members are
    # evaluated, each with the member rows: trials x (1 + m) x N
    # evaluations, counted as rows x points over every kernel call.
    evals = []
    eval_points = kernels.eval_points

    def counted(points, coeffs, *args, **kwargs):
        evals.append(len(np.atleast_2d(coeffs)) * len(points))
        return eval_points(points, coeffs, *args, **kwargs)

    monkeypatch.setattr(kernels, "eval_points", counted)
    spec = make_language("seeded-random", seed=5)
    trials, n, samples = 7, 40, 600
    r = fp_rate_experiment(spec, n, trials=trials, seed=99, a_samples=samples)
    m = r["member_count"]
    assert m == n
    assert sum(evals) == trials * (1 + m) * samples
    assert r["member_fractions"] == [1.0] * m


def test_fp_rate_rejects_bad_mode_and_trials():
    spec = make_language("singleton", member="1011")
    with pytest.raises(ValueError, match="--a-samples must be >= 1, got 0"):
        fp_rate_experiment(spec, 4, trials=5, seed=1, a_samples=0)
    with pytest.raises(ValueError):
        fp_rate_experiment(spec, 4, trials=0, seed=1)


def test_fp_rate_exhaustive_cap_suggests_sampling():
    # The cap names the flag that samples; the log-table limit names the
    # report's modes.
    spec = make_language("singleton", member="1" * 600)
    with pytest.raises(ValueError, match="use --a-samples N to sample N points for fields "
                                         "this large"):
        fp_rate_experiment(spec, 600, trials=1, seed=1, ctx=make_field(22))
    for a_samples in (None, 512):
        with pytest.raises(ValueError, match="sketch builds and the exhaustive-a and "
                                             "sampled-a modes evaluate on log tables"):
            fp_rate_experiment(spec, 600, trials=1, seed=1, ctx=make_field(25),
                               a_samples=a_samples)


def test_nonmember_draw_refuses_dense_language():
    full = SparseLanguageSpec(
        name="everything",
        density=DensityFn("power", 2, 1),  # n^2 >= 2^n at n=2
        enumerator=lambda n: [format(b, f"0{n}b") for b in range(1 << n)],
        membership=lambda x: True,
    )
    with pytest.raises(ValueError, match="dense"):
        fp_rate_experiment(full, 2, trials=3, seed=1, ctx=GF4)


def test_nonmember_draw_refuses_before_the_members_are_listed():
    # Every string of length 20 has at most 20 ones: the draw reads only
    # the membership predicate, so it refuses before the 2^20 members
    # would be listed, in both modes.
    dense = unlisted(make_language("low-weight", max_ones=20))
    for a_samples in (None, 64):
        with pytest.raises(ValueError, match="language too dense"):
            fp_rate_experiment(dense, 20, trials=1, seed=1, ctx=make_field(20),
                               a_samples=a_samples)
