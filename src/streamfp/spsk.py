"""The sketch file (.spsk) and the membership lookup on a sketch.

A :class:`SketchSet` holds the pair set (a, d_y(a)) of its members y as
their m coefficient rows (a build, :mod:`streamfp.sketch`'s), which fix
it, or as the member_count x q table values[j, a] = d_{y_j}(a), in the
narrowest unsigned little-endian type that holds a field element (1, 2
or 4 bytes, by k alone).  The table exists only in the file, which a save
writes a block of rows at a time, and in a loaded sketch, as the file's
own bytes used in place.  :func:`contains` evaluates a built sketch's
rows at a by Horner's rule, or reads column a of a loaded one.  At its
top level this module imports no numpy, no dataclasses and no language
code, so a ``sketch query`` loads none of them.

The sketch file format (.spsk, version 3) is that table itself,
deterministic and little-endian:

    magic "SPSK" | u32 version = 3 | u32 header length | header JSON,
    space-padded so the values start at a multiple of 64 bytes |
    values, row by row | SHA-256 of every byte before it

The header JSON has sorted keys and no spaces before its padding and
holds k, t_hex, n, member_count, rule_sized and seed.  Loading refuses
a path that is not a regular file, then checks the magic, the version,
that the file holds the header length it gives, the header's keys and
types, k in 1..ENUMERATION_DEGREE_CAP and a t_hex that is make_field(k)'s
own, that the values start 64-byte aligned, a file length of
exactly start + member_count q itemsize + 32 bytes, the digest, and
that every value is below 2^k, and raises ValueError on the first that
fails.  It reads the values only once the length check has passed.
"""

from __future__ import annotations

import json
import os
import stat
import struct

from .field import (ENUMERATION_DEGREE_CAP, FieldCtx, _Record, field_of, horner_fold,
                    item_bytes, split_tables)

__all__ = ["SketchSet", "contains", "save_sketch", "load_sketch"]

_SPSK_MAGIC = b"SPSK"
_SPSK_VERSION = 3
_SPSK_PREFIX = struct.Struct("<4sII")  # magic, version, header length
_SPSK_ALIGN = 64  # the values start at a multiple of this many bytes
_DIGEST_BYTES = 32  # SHA-256
_HEADER_TYPES = {"k": int, "member_count": int, "n": int, "rule_sized": bool,
                 "seed": (int, type(None)), "t_hex": str}


class SketchSet(_Record):
    """All pairs (a, d_y(a)) for members y: a built sketch's rows or a loaded one's table."""

    _fields = ("n", "ctx", "member_count", "table", "source_seed", "rule_sized", "rows")
    _unprinted = ("table", "rows")

    def __init__(self, n: int, ctx: FieldCtx, member_count: int, table=None,
                 source_seed: int | None = None, rule_sized: bool = True, rows=None):
        self.n, self.ctx, self.member_count = n, ctx, member_count
        self.source_seed, self.rule_sized = source_seed, rule_sized
        self.table = table  # loaded: flat bytes, item_bytes(k) per value
        self.rows = rows  # built: m lists of r ints

    @property
    def size(self) -> int:
        """Entries of the pair set, member_count x q: the values a save writes."""
        return self.member_count * self.ctx.q


def contains(sketch: SketchSet, fp) -> bool:
    """Whether the pair (a, v) of this fingerprint is in the sketch: a built
    row evaluated at a, or a loaded table's value of column a, is v."""
    if fp.n != sketch.n:
        raise ValueError(f"length mismatch: fingerprint n={fp.n}, sketch n={sketch.n}")
    if fp.ctx != sketch.ctx:
        raise ValueError("fingerprint context does not match the sketch's field")
    if sketch.rows is not None:
        tables = split_tables(fp.a, sketch.ctx.m_bits, sketch.ctx.k)
        return any(horner_fold(1, row, tables) == fp.v for row in sketch.rows)
    width = item_bytes(sketch.ctx.k)
    table = memoryview(sketch.table)
    want = fp.v.to_bytes(width, "little")
    return any(table[i:i + width] == want
               for i in range(fp.a * width, len(table), sketch.ctx.q * width))


def _table_blocks(sketch: SketchSet):
    """A built sketch's table, a block of whole rows at a time in one buffer."""
    import numpy as np
    from . import kernels

    ctx, m = sketch.ctx, sketch.member_count
    step = kernels.block_rows(ctx.q, ctx.k)
    buf = np.empty((min(step, m), ctx.q), kernels.value_dtype(ctx.k))
    return (kernels.eval_points(range(ctx.q), sketch.rows[s:s + step], ctx.m_low, ctx.k,
                                out=buf[:m - s]) for s in range(0, m, step))


def save_sketch(sketch: SketchSet, path: str) -> None:
    """Write the deterministic .spsk form (atomic: temp file + rename)."""
    header = json.dumps({
        "k": sketch.ctx.k, "member_count": sketch.member_count, "n": sketch.n,
        "rule_sized": sketch.rule_sized, "seed": sketch.source_seed,
        "t_hex": sketch.ctx.t_hex,
    }, sort_keys=True, separators=(",", ":")).encode()
    header += b" " * (-(_SPSK_PREFIX.size + len(header)) % _SPSK_ALIGN)
    head = _SPSK_PREFIX.pack(_SPSK_MAGIC, _SPSK_VERSION, len(header)) + header
    import hashlib  # OpenSSL's SHA-256, the fastest on a whole file
    from ._atomic import write_atomic

    def parts():  # each block is hashed and written before the next is evaluated
        digest = hashlib.sha256(head)
        yield head
        for block in [sketch.table] if sketch.rows is None else _table_blocks(sketch):
            digest.update(block)
            yield block
        yield digest.digest()

    write_atomic(path, parts())


def _parse_header(text: bytes) -> dict:
    """The header JSON of a .spsk file, with its keys, types and ranges checked."""
    try:
        header = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"corrupt sketch file: bad header JSON ({exc})") from exc
    if not isinstance(header, dict) or header.keys() != _HEADER_TYPES.keys():
        keys = ", ".join(_HEADER_TYPES)
        raise ValueError(f"corrupt sketch file: header keys must be {keys}")
    for name, kind in _HEADER_TYPES.items():
        value = header[name]
        # bool is an int subclass: int fields refuse it, the bool field needs it.
        if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
            raise ValueError(f"corrupt sketch file: header {name} has the wrong type")
    if header["n"] < 1 or header["member_count"] < 0:
        raise ValueError("corrupt sketch file: header needs n >= 1 and member_count >= 0")
    if not 1 <= header["k"] <= ENUMERATION_DEGREE_CAP:
        raise ValueError(f"corrupt sketch file: k must be in 1..{ENUMERATION_DEGREE_CAP}")
    return header


def load_sketch(path: str) -> SketchSet:
    """Read a .spsk file back, raising ValueError unless every check in the
    module docstring passes."""
    # A FIFO or a device has no size to check, and may block or never end.
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(f"not a sketch file (not a regular file): {path}")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_SPSK_PREFIX.size)
        if len(head) < _SPSK_PREFIX.size or head[:4] != _SPSK_MAGIC:
            raise ValueError("not a sketch file (bad magic)")
        _, version, header_len = _SPSK_PREFIX.unpack(head)
        if version != _SPSK_VERSION:
            raise ValueError(f"unsupported sketch file version {version}")
        start = _SPSK_PREFIX.size + header_len
        if start > size:
            raise ValueError(f"corrupt sketch file: {size} bytes, "
                             f"shorter than its {header_len}-byte header")
        head += fh.read(header_len)
        header = _parse_header(head[_SPSK_PREFIX.size:])
        k, members = header["k"], header["member_count"]
        try:
            ctx = field_of(k, header["t_hex"])
        except ValueError as exc:  # not the modulus make_field(k) writes
            raise ValueError(f"corrupt sketch file: header t_hex: {exc}") from exc
        if start % _SPSK_ALIGN:
            raise ValueError(f"corrupt sketch file: value region not {_SPSK_ALIGN}-byte aligned")
        width = item_bytes(k)
        end = members * ctx.q * width  # the values' end in body, the bytes after head
        if size != start + end + _DIGEST_BYTES:
            raise ValueError(
                f"corrupt sketch file: {size} bytes, expected {start + end + _DIGEST_BYTES}")
        body = fh.read(end + _DIGEST_BYTES)
    import hashlib

    digest = hashlib.sha256(head)
    digest.update(memoryview(body)[:end])
    if digest.digest() != body[end:]:
        raise ValueError("corrupt sketch file: digest mismatch")
    # A value is below 2^k when its little-endian byte i is below 2^(k - 8i):
    # take that byte of each value, 1 MiB of the table at a time, and delete the allowed ones.
    for i in range(k // 8, width):
        allowed = bytes(range(1 << max(0, k - 8 * i)))
        for s in range(i, end, 1 << 20):
            if body[s:min(s + (1 << 20), end):width].translate(None, allowed):
                raise ValueError(f"corrupt sketch file: a value is not below 2^{k}")
    return SketchSet(n=header["n"], ctx=ctx, member_count=members,
                     table=memoryview(body)[:end], source_seed=header["seed"],
                     rule_sized=header["rule_sized"])
