"""Deterministic seed derivation.

Experiments fan one recorded seed out into independent streams (language
construction, nonmember draws, per-query points).  Derivation goes
through SHA-256 of a label path, so the same seed and labels give the
same child seed on every platform and run, and results never depend on
the order in which the streams are consumed.

Its SHA-256 is the interpreter's own, or ``hashlib``'s where that is
missing: the digests are the same, and the first maps no OpenSSL.
"""

from __future__ import annotations

import random

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["derive_seed", "derived_rng"]


def derive_seed(seed: int, *labels: object) -> int:
    text = "streamfp/" + repr(int(seed)) + "/" + "/".join(repr(x) for x in labels)
    digest = sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derived_rng(seed: int, *labels: object) -> random.Random:
    return random.Random(derive_seed(seed, *labels))
