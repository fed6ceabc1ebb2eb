"""Benchmark driver: deterministic inputs, big-int cross-check, report shape."""

from __future__ import annotations

import pytest

from streamfp import kernels
from streamfp.bench import _random_words, run_bench


def test_random_words_deterministic_and_in_range():
    a = _random_words(123, 12, 1000)
    b = _random_words(123, 12, 1000)
    assert (a == b).all()
    assert int(a.max()) < 2 ** 12
    c = _random_words(124, 12, 1000)
    assert (a != c).any()


def test_run_bench_compares_backends():
    # One fold implementation remains; the comparison is against the big-int tier.
    report = run_bench(ks=(8, 64), mib=1, seed=2)
    assert set(report) == {"kind", "tool", "seed", "mib", "results"}
    for k, entry in report["results"].items():
        assert entry["matches_bigint"] is True
        assert entry["segments_measured"] == 8 * (1 << 20) // int(k)
        assert entry["seconds"] > 0


def test_run_bench_raises_when_fold_disagrees_with_bigint(monkeypatch):
    fold = kernels.fold_segments
    monkeypatch.setattr(kernels, "fold_segments", lambda *a: fold(*a) ^ 1)
    with pytest.raises(AssertionError, match="big-int"):
        run_bench(ks=(16,), mib=1, seed=2)


def test_run_bench_validates_k():
    with pytest.raises(ValueError):
        run_bench(ks=(0,), mib=1, seed=1)
    with pytest.raises(ValueError):
        run_bench(ks=(65,), mib=1, seed=1)
    for mib in (0, -3):
        with pytest.raises(ValueError):
            run_bench(ks=(8,), mib=mib, seed=1)
