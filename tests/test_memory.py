"""Memory claims, measured on the running process.  The O(k + log n)
state claim: the peak RSS of `fingerprint --format raw` stays flat as the
input grows, read from a file or from a stdin pipe.  Entry budgets bound
real bytes: a sketch build's peak allocation is a small constant per
projected entry.  The fp-rate counts hold no members x points array, and
the field's log tables are built with little beyond their own bytes."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from streamfp import kernels
from streamfp.field import make_field, select_field_size
from streamfp.sketch import (_draw_nonmembers, _sampled_counts, build_sketch, exact_fp_count,
                             make_language)

# A child's ru_maxrss also holds the peak of the address space it was
# spawned from (Linux keeps the old high-water mark across exec, and a
# vfork child shares its parent's), so the CLI is started from a small
# launcher process, not from the test process.
LAUNCHER = r"""
import os, shutil, subprocess, sys
stdin_path, args = sys.argv[1], sys.argv[2:]
proc = subprocess.Popen(
    [sys.executable, "-m", "streamfp.cli", *args],
    stdin=subprocess.PIPE if stdin_path else subprocess.DEVNULL,
    stdout=subprocess.DEVNULL,
)
if stdin_path:
    with open(stdin_path, "rb") as fh:
        shutil.copyfileobj(fh, proc.stdin)
    proc.stdin.close()
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

MIB = 1 << 20
HEADROOM_MIB = 24   # over a bare `--version` start
GROWTH_MIB = 8      # allowed difference between the 1 MiB and 16 MiB runs


def peak_rss_mib(*args: str, stdin_path: str = "") -> float:
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, stdin_path, *args],
        capture_output=True, check=True, text=True,
    ).stdout.split()
    code, rss_kib = int(out[0]), int(out[1])
    assert code == 0, args
    return rss_kib / 1024


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    paths = {}
    for mib in (1, 16):
        path = root / f"input-{mib}.bin"
        path.write_bytes(random.Random(mib).randbytes(mib * MIB))
        paths[mib] = os.fspath(path)
    return paths


# Both inputs of a case share a fold: numpy at the default k (50 and 58),
# as the stream has 2^23 bits or more, and the lane fold at k = 66.
@pytest.mark.parametrize("source, k", [("file", None), ("stdin", None), ("file", 66)],
                         ids=["file", "stdin", "file-k66"])
def test_fingerprint_rss_is_flat_in_n(inputs, source, k):
    bound = peak_rss_mib("--version") + HEADROOM_MIB
    rss = {}
    for mib, path in inputs.items():
        args = ("fingerprint", "--format", "raw", "--seed", "1")
        if k is not None:
            args += ("--k", str(k))
        if source == "file":
            rss[mib] = peak_rss_mib(*args, "--input", path)
        else:
            rss[mib] = peak_rss_mib(*args, "--input", "-", "--n", str(8 * mib * MIB),
                                    stdin_path=path)
        assert rss[mib] < bound, (source, mib, rss[mib], bound)
    assert abs(rss[16] - rss[1]) < GROWTH_MIB, (source, rss)


BUILD_BYTES_PER_ENTRY = 4


def test_build_peak_bytes_per_projected_entry():
    spec = make_language("seeded-random", seed=3)
    n = 32
    ctx = make_field(select_field_size(n, spec.density.eval(n)))
    projected = ctx.q * len(spec.enumerator(n))
    assert (ctx.k, projected) == (14, 524288)
    # The field's log/antilog tables are cached per field, not per build,
    # so they are built before the measurement starts.
    kernels.eval_points(np.zeros(1, np.uint64), np.ones(1, np.uint64), ctx.m_low, ctx.k)
    tracemalloc.start()
    try:
        sk = build_sketch(spec, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sk.ctx == ctx
    assert peak <= BUILD_BYTES_PER_ENTRY * projected, peak / projected


@pytest.mark.parametrize("r", [16, 64])
def test_field_sweep_peak_does_not_grow_with_r(r):
    # The log-order sweep slices the antilog table itself: beyond its
    # output it holds one row of q values and one take index, whatever
    # the degree.  An (r + 1) x q extended table (8.1 MiB at r = 64)
    # would break the bound.
    ctx = make_field(16)
    q = ctx.q
    assert kernels.log_order(16, r)
    rng = random.Random(r)
    rows = np.array([[rng.getrandbits(16) for _ in range(r)] for _ in range(4)], np.uint64)
    kernels.eval_points(np.zeros(1, np.uint64), np.ones(1, np.uint64), ctx.m_low, ctx.k)
    tracemalloc.start()
    try:
        out = kernels.eval_points(range(q), rows, ctx.m_low, ctx.k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (4, q)
    assert peak <= out.nbytes + 2 * 8 * q + (64 << 10), (peak - out.nbytes) / (8 * q)


def test_exact_fp_count_peak_is_below_the_table():
    # The exact count evaluates the members and the strings a block of
    # points at a time and reads no table, so its working arrays stay far
    # below the members x q table a sketch of them would store (128 MiB
    # at n = 128, k = 18).
    spec = make_language("seeded-random", seed=3)
    n = 128
    members = spec.enumerator(n)
    ctx = make_field(select_field_size(n, len(members)))
    xs = _draw_nonmembers(spec, n, 20, 128)
    kernels.eval_points(np.zeros(1, np.uint64), np.ones(1, np.uint64), ctx.m_low, ctx.k)
    tracemalloc.start()
    try:
        counts = exact_fp_count(ctx, n, members, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.k == 18 and len(counts) == len(xs)
    table = len(members) * ctx.q * kernels.value_dtype(ctx.k).itemsize
    assert peak <= table // 8, peak / table


def test_exact_fp_count_peak_is_flat_in_the_number_of_strings():
    # Strings are evaluated a group at a time, so counting four groups'
    # worth peaks as high as counting one.
    spec = make_language("seeded-random", seed=3)
    n = 16
    members = spec.enumerator(n)
    ctx = make_field(select_field_size(n, len(members)))
    xs = _draw_nonmembers(spec, n, 1024, 16)
    kernels.eval_points(np.zeros(1, np.uint64), np.ones(1, np.uint64), ctx.m_low, ctx.k)
    peaks = []
    for count in (256, 1024):
        tracemalloc.start()
        try:
            exact_fp_count(ctx, n, members, xs[:count])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 64 << 10, peaks


def test_log_tables_peak_is_the_tables_they_keep():
    # Both tables are filled a chunk at a time: building them holds the
    # 12 MiB they keep at k = 20 and under 1 MiB more.
    ctx = make_field(20)
    tracemalloc.start()
    try:
        log, exp = kernels._log_tables.__wrapped__(ctx.k, ctx.m_low)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = log.nbytes + exp.nbytes
    assert kept == 12 << 20
    assert peak <= kept + (1 << 20), (peak - kept) / (1 << 20)


def test_sampled_count_peak_is_flat_in_the_number_of_points():
    # A string's points are read a block at a time: 2^18 points from a
    # generator never become one 2 MiB array, so the peak is that of
    # 2^14 points.
    members = ["0" * 64, "1" * 64, "01" * 32]
    ctx = make_field(16)
    kernels.eval_points(np.zeros(1, np.uint64), np.ones(1, np.uint64), ctx.m_low, ctx.k)
    peaks = []
    for count in (1 << 14, 1 << 18):
        rng = random.Random(count)
        points = (rng.randrange(ctx.q) for _ in range(count))
        tracemalloc.start()
        try:
            _sampled_counts(ctx, 64, members, ["10" * 32], [points])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 64 << 10, peaks


def test_sampled_count_peak_is_flat_in_members_times_points():
    # The sampled count evaluates and compares a string's points a block
    # at a time, so it never holds a (1 + m) x N array of values (34 MB at
    # m = 64 and N = 65536); the points' own uint64 array is 512 KiB.
    spec = make_language("seeded-random", seed=3)
    n = 64
    members = spec.enumerator(n)
    ctx = make_field(select_field_size(n, len(members)))
    rng = random.Random(64)
    points = [rng.randrange(ctx.q) for _ in range(1 << 16)]
    x = format(rng.getrandbits(n), f"0{n}b")
    kernels.eval_points(np.zeros(1, np.uint64), np.ones(1, np.uint64), ctx.m_low, ctx.k)
    tracemalloc.start()
    try:
        counts = _sampled_counts(ctx, n, members, [x], [points])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(members) == 64 and len(counts) == 1
    one_array = (1 + len(members)) * len(points) * 8
    assert peak <= one_array // 16, peak / one_array
