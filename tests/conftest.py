"""Shared test helpers."""

from __future__ import annotations

import os

import streamfp

# Tests that start `python -m streamfp.cli` as a child process need the
# child to import the same package as this process, also when it was
# found through pytest's `pythonpath` setting rather than PYTHONPATH.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(streamfp.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
)


class FixedRng:
    """A stand-in RNG returning preset getrandbits values in order."""

    def __init__(self, *values: int):
        self._values = list(values)

    def getrandbits(self, _k: int) -> int:
        return self._values.pop(0)
