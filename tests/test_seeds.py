"""Seed derivation: the interpreter's own SHA-256 and hashlib's give the
same derived seeds, with hashlib's as the referee."""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import random
import sys

import pytest

from streamfp import seeds


def _referee(seed: int, *labels: object) -> int:
    text = "streamfp/" + repr(int(seed)) + "/" + "/".join(repr(x) for x in labels)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def _cases() -> list[tuple]:
    rng = random.Random(33)
    labels = [(), ("nonmembers",), ("language", 64), ("query-points", 7), ("fp-rate", -1, 2.5)]
    return [(rng.randrange(-(1 << 70), 1 << 70), *rng.choice(labels)) for _ in range(200)]


def _check(derive) -> None:
    for case in _cases():
        assert derive(*case) == _referee(*case), case


def test_derive_seed_is_hashlibs_sha256():
    _check(seeds.derive_seed)


def test_derive_seed_falls_back_to_hashlib(monkeypatch):
    # A None entry in sys.modules makes its import raise ImportError.  A
    # fresh copy of seeds loads under the block, and the package's stays.
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    spec = importlib.util.spec_from_file_location("seeds_fallback", seeds.__file__)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback.sha256 is hashlib.sha256
    _check(fallback.derive_seed)


@pytest.mark.parametrize("module", ["_sha2", "_sha256"])
def test_builtin_sha256_is_the_one_seeds_uses_when_present(module):
    try:
        builtin = importlib.import_module(module)
    except ImportError:
        pytest.skip(f"{module} is not in this interpreter")
    assert seeds.sha256 is builtin.sha256
