"""Atomic file writes: a temp file in the target's directory, then a rename."""

from __future__ import annotations

import os
import tempfile


def write_atomic(path: str, *parts) -> None:
    """Replace path with the bytes-like parts in order, so readers see the
    old file or the new one.

    The file gets the mode a plain ``open(path, "w")`` would give it
    (0o666 less the umask), not mkstemp's 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".streamfp-")
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # its message may name the temp file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
