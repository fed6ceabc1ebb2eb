"""Atomic file writes: a temp file in the target's directory, then a rename."""

from __future__ import annotations

import os
import tempfile


def write_atomic(path: str, data: bytes) -> None:
    """Replace path with data, so readers see the old file or the new one.

    The file gets the mode a plain ``open(path, "w")`` would give it
    (0o666 less the umask), not mkstemp's 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".streamfp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
