"""Memory claims, measured on the running process.  The O(k + log n)
state claim: the peak RSS of `fingerprint --format raw` stays flat as the
input grows, read from a file or from a stdin pipe.  Entry budgets bound
real bytes: a sketch build's peak allocation is a small constant per
projected entry."""

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
from streamfp.sketch import build_sketch, exact_fp_count, make_language

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


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_fingerprint_rss_is_flat_in_n(inputs, source):
    bound = peak_rss_mib("--version") + HEADROOM_MIB
    rss = {}
    for mib, path in inputs.items():
        args = ("fingerprint", "--format", "raw", "--seed", "1")
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
    # Counting a batch works a block of points at a time, so its working
    # arrays stay below the sketch table however many inputs it counts.
    spec = make_language("seeded-random", seed=3)
    sk = build_sketch(spec, 32)
    rng = random.Random(32)
    xs = [format(rng.getrandbits(32), "032b") for _ in range(100)]
    tracemalloc.start()
    try:
        counts = exact_fp_count(sk, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counts) == len(xs)
    assert peak <= sk.values.nbytes, peak / sk.values.nbytes
