"""Benchmark driver: the stream's own fold in the CLI's chunks, big-int
cross-check, report shape."""

from __future__ import annotations

import pytest

from streamfp import kernels, stream
from streamfp.bench import run_bench
from streamfp.gf2poly import IRREDUCIBLE_DEGREE_CAP


def test_run_bench_compares_backends():
    # The stream's folds against the big-int tier: k = 8 and 64 run the
    # numpy block fold, k = 65 the lane fold.
    report = run_bench(ks=(8, 64, 65), mib=1, seed=2)
    assert set(report) == {"seed", "mib", "results"}  # the CLI adds kind and tool
    for k, entry in report["results"].items():
        assert entry["matches_bigint"] is True
        assert entry["segments_measured"] == -(-8 * (1 << 20) // int(k))
        assert entry["seconds"] > 0


def test_run_bench_times_the_chunks_fingerprint_reads(monkeypatch):
    # One feed_bytes call per chunk of _CHUNK_BLOCKS k-byte blocks, after a
    # first chunk fed to the cross-check's stream.
    sizes = []
    feed_bytes = stream.StreamState.feed_bytes

    def counted(self, data, nbits=None):
        sizes.append(len(data))
        return feed_bytes(self, data, nbits)

    monkeypatch.setattr(stream.StreamState, "feed_bytes", counted)
    run_bench(ks=(100,), mib=1, seed=2)
    chunk = 100 * stream._CHUNK_BLOCKS
    timed = [chunk] * ((1 << 20) // chunk) + [(1 << 20) % chunk]
    assert sizes == [chunk] + timed


def test_run_bench_raises_when_fold_disagrees_with_bigint(monkeypatch):
    # A 1 MiB stream at k = 16 folds through kernels.fold_segments.
    fold = kernels.fold_segments
    monkeypatch.setattr(kernels, "fold_segments", lambda *a: fold(*a) ^ 1)
    with pytest.raises(AssertionError, match="big-int"):
        run_bench(ks=(16,), mib=1, seed=2)


def test_run_bench_raises_when_lane_fold_disagrees_with_bigint(monkeypatch):
    # Past k = 64 the stream folds in lanes.
    lane_fold = stream._lane_fold
    monkeypatch.setattr(stream, "_lane_fold", lambda *a: lane_fold(*a) ^ 1)
    with pytest.raises(AssertionError, match="big-int"):
        run_bench(ks=(100,), mib=1, seed=2)


def test_run_bench_validates_k():
    for k in (0, IRREDUCIBLE_DEGREE_CAP + 1):
        with pytest.raises(ValueError, match="bench covers k"):
            run_bench(ks=(k,), mib=1, seed=1)
    for mib in (0, -3):
        with pytest.raises(ValueError):
            run_bench(ks=(8,), mib=mib, seed=1)
