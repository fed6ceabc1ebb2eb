"""Memory claims, measured on the running process.  The O(k + log n)
state claim: the peak RSS of `fingerprint --format raw` stays flat as the
input grows, read from a file or from a stdin pipe.  Entry budgets bound
real bytes: a sketch build and its save peak at a small constant per
projected entry, as the save holds one block of table rows whatever the
member count, and a load holds the file and one range-check window.
The fp-rate counts hold no members x points array, the exact count not
even every member's values at one block of points, and the field's log
tables are built with little beyond their own bytes."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from streamfp import kernels, stream
from streamfp.field import make_field, select_field_size
from streamfp.sketch import (_draw_nonmembers, _sampled_counts, build_sketch, exact_fp_count,
                             load_sketch, make_language, save_sketch)

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
GROWTH_MIB = 8      # allowed difference between the two runs of a case


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
    for mib in (1, 2, 4, 16):
        path = root / f"input-{mib}.bin"
        path.write_bytes(random.Random(mib).randbytes(mib * MIB))
        paths[mib] = os.fspath(path)
    return paths


# Both inputs of a case share a fold, so a difference between them is
# growth in n, not numpy's start-up: at the default k (50 to 58) the lane
# fold under 2^25 bits (1 and 2 MiB) and numpy from there (4 and 16 MiB);
# at k = 66 the lane fold at every n.
@pytest.mark.parametrize("source, k, sizes", [
    ("file", None, (1, 2)), ("file", None, (4, 16)), ("stdin", None, (4, 16)),
    ("file", 66, (1, 16)),
], ids=["file", "file-numpy", "stdin", "file-k66"])
def test_fingerprint_rss_is_flat_in_n(inputs, source, k, sizes):
    assert 2 * 8 * MIB < stream._NUMPY_FOLD_BITS <= 4 * 8 * MIB
    bound = peak_rss_mib("--version") + HEADROOM_MIB
    rss = {}
    for mib in sizes:
        path = inputs[mib]
        args = ("fingerprint", "--format", "raw", "--seed", "1")
        if k is not None:
            args += ("--k", str(k))
        if source == "file":
            rss[mib] = peak_rss_mib(*args, "--input", path)
        else:
            rss[mib] = peak_rss_mib(*args, "--input", "-", "--n", str(8 * mib * MIB),
                                    stdin_path=path)
        assert rss[mib] < bound, (source, mib, rss[mib], bound)
    small, large = sizes
    assert abs(rss[large] - rss[small]) < GROWTH_MIB, (source, rss)


BUILD_BYTES_PER_ENTRY = 4


def test_build_peak_bytes_per_projected_entry(tmp_path):
    spec = make_language("seeded-random", seed=3)
    n = 32
    ctx = make_field(select_field_size(n, spec.density.eval(n)))
    projected = ctx.q * len(spec.enumerator(n))
    assert (ctx.k, projected) == (14, 524288)
    # The field's log/antilog tables are cached per field, not per build,
    # so they are built before the measurement starts.
    kernels.eval_points(np.zeros(1, np.uint64), np.ones(1, np.uint64), ctx.m_low, ctx.k)
    tracemalloc.start()
    try:  # what `sketch build --output` runs: the build, then the save that writes the table
        sk = build_sketch(spec, n)
        save_sketch(sk, os.fspath(tmp_path / "n32.spsk"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sk.ctx == ctx
    assert peak <= BUILD_BYTES_PER_ENTRY * projected, peak / projected


def test_build_and_save_peak_is_one_block_whatever_the_member_count(tmp_path):
    # A built sketch holds its rows; its save evaluates the table a block
    # of whole rows at a time into one reused buffer (at k = 16 one row,
    # 128 KiB), hashing and writing each before the next.  So building and
    # saving 128 members peaks as high as 32, far below the 16 MiB table.
    ctx = make_field(16)
    kernels.eval_points(np.zeros(1, np.uint64), np.ones(1, np.uint64), ctx.m_low, ctx.k)
    peaks = []
    for n in (32, 128):
        spec = make_language("seeded-random", seed=n)
        path = os.fspath(tmp_path / f"n{n}.spsk")
        tracemalloc.start()
        try:
            save_sketch(build_sketch(spec, n, ctx=ctx), path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert os.path.getsize(path) > n * ctx.q * 2
    assert peaks[1] - peaks[0] <= 64 << 10, peaks
    assert peaks[1] <= (128 * ctx.q * 2) // 8, peaks


def test_load_peak_is_the_file_and_one_range_check_window(tmp_path):
    # At k = 18 the values are 4 bytes and bytes 2 and 3 are range-checked.
    # Taking byte i of every value at once copied a quarter of the table
    # (4 MiB of this 16 MiB file); a 1 MiB window of it peaks 513 KiB over
    # the file, and a 2 MiB window 1025 KiB.
    ctx = make_field(18)
    path = os.fspath(tmp_path / "k18.spsk")
    save_sketch(build_sketch(make_language("low-weight", max_ones=1), 15, ctx=ctx), path)
    size = os.path.getsize(path)
    assert size > 16 * ctx.q * 4
    tracemalloc.start()
    try:
        sk = load_sketch(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sk.member_count == 16
    assert peak - size < 768 << 10, (peak - size) / MIB


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
    # The exact count evaluates a group of strings a block of points at a
    # time, and each member row just before its compare, and reads no
    # table: it holds the group's values, hit and compare flags and one
    # batch of member rows (at n = 128, k = 18: 20 strings x 4096 points,
    # and 4 rows), 0.5 MiB, where a sketch of the members stores 128 MiB.
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
    item = kernels.value_dtype(ctx.k).itemsize
    width = kernels.SWEEP_WIDTH  # a log-order block: r = 8 coefficients
    assert kernels.log_order(ctx.k, 8) and (ctx.q - 1) // 8 >= width
    group = len(xs) * width * (item + 2)  # values, hit and compare
    batch = kernels.block_rows(width, ctx.k) * width * item
    # np.count_nonzero along an axis sums through numpy's cast buffer,
    # getbufsize() intp values (64 KiB), for a moment per block.
    reduce = np.getbufsize() * np.dtype(np.intp).itemsize
    assert peak <= group + batch + reduce + (64 << 10), (peak - group - batch - reduce) / 1024


def test_exact_fp_count_peak_is_flat_in_the_number_of_members():
    # Each member row is evaluated at a block's points just before its
    # compare, a batch of about 64 KiB at a time, so 256 members peak as
    # high as 32.  Holding every member's values beside the strings' grew
    # the peak by (256 - 32) x 4096 points x 2 bytes, 1.8 MiB.
    ctx = make_field(16)
    n = 64
    rng = random.Random(16)
    strings = list(dict.fromkeys(format(rng.getrandbits(n), "064b") for _ in range(32 + 256)))
    xs, members = strings[:32], strings[32:]
    assert len(members) == 256
    width = kernels.SWEEP_WIDTH  # a log-order block: r = 4 coefficients
    assert kernels.log_order(ctx.k, 4) and (ctx.q - 1) // 4 >= width
    batch = kernels.block_rows(width, ctx.k) * width * kernels.value_dtype(ctx.k).itemsize
    kernels.eval_points(np.zeros(1, np.uint64), np.ones(1, np.uint64), ctx.m_low, ctx.k)
    peaks = []
    for count in (32, 256):
        tracemalloc.start()
        try:
            exact_fp_count(ctx, n, members[:count], xs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= batch + (64 << 10), peaks


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
