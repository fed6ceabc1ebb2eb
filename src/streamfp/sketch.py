"""Sparse-language membership sketches.

For a language with at most f(n) strings of length n, pick GF(2^k) with
8 f(n) n < 2^k <= 16 f(n) n and store, for every member y and every
field point a, the pair (a, d_y(a)).  A query fingerprints its input at
one random a and looks the resulting pair up: members hit at every a,
while a nonmember's polynomial can agree with the members' on at most
(r-1)|L^n| of the q points, which the sizing rule keeps below q/4.  So
a single random-point query accepts a nonmember with probability
at most 1/4, with no false negatives.

A built :class:`SketchSet` holds that pair set as the members' m
coefficient rows, which fix it.  The member_count x q table values[j, a] =
d_{y_j}(a), in the narrowest unsigned little-endian type that holds a field
element (1, 2 or 4 bytes, by k alone), exists only in the file, which a save
writes a block of rows at a time, and in a loaded sketch, as the file's own
bytes used in place.  A lookup evaluates a built sketch's rows at a by
Horner's rule, or reads column a of a loaded one: neither imports numpy.
The false-positive counts read no table either: they evaluate the members
with the counted strings a block of points at a time.

Results are plain dicts with no ``kind`` or ``tool``: the CLI adds that
envelope.  :func:`sketch_header` holds the fields a build summary and an
fp-rate report share.

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

import itertools
import json
import math
import os
import stat
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .field import (ENUMERATION_DEGREE_CAP, DensityFn, FieldCtx, field_of, horner_fold,
                    item_bytes, make_field, split_tables)
from .stream import coefficients, fingerprint

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DensityFn",
    "SparseLanguageSpec",
    "make_language",
    "ENTRY_CAP",
    "LISTED_BITS_CAP",
    "SketchSet",
    "build_sketch",
    "contains",
    "exact_fp_count",
    "query_membership",
    "fp_rate_experiment",
    "sketch_header",
    "save_sketch",
    "load_sketch",
    "ACCEPT_BOUND",
]

ACCEPT_BOUND = 0.25

# Sampled-a's false-alarm rate: exit 5 needs a non-member whose hits are
# this unlikely, Bonferroni-split over the trials, at rate ACCEPT_BOUND.
SAMPLED_ALPHA = 1e-3

ENTRY_CAP = 10 ** 8  # the most entries, q x f(n), a built sketch's save may write
LISTED_BITS_CAP = 1 << 21  # the most member bits, f(n) x n, a run may list: 8 f(n) n < 2^24

EXHAUSTIVE_DEGREE_CAP = 20  # beyond this, fp-rate's per-input full-field sweeps get slow

_STRING_GROUP = 256  # strings an exact count evaluates with the members per sweep


@dataclass(frozen=True)
class SparseLanguageSpec:
    """A length-sparse language: density bound, per-length enumerator, and
    a membership predicate that must agree with the enumerator."""

    name: str
    density: DensityFn
    enumerator: Callable[[int], list[str]]
    membership: Callable[[str], bool]
    describe_params: dict | None = None

    def describe(self) -> dict:
        d = {"name": self.name, "density": self.density.describe()}
        if self.describe_params:
            d.update(self.describe_params)
        return d


def _low_weight_strings(n: int, c: int) -> list[str]:
    out = ["0" * n]
    from itertools import combinations

    for w in range(1, min(c, n) + 1):
        for ones in combinations(range(n), w):
            s = ["0"] * n
            for i in ones:
                s[i] = "1"
            out.append("".join(s))
    return out


def make_language(kind: str, *, seed: int | None = None, max_ones: int | None = None,
                  member: str | None = None) -> SparseLanguageSpec:
    """Built-in language kinds.

    seeded-random: exactly n distinct pseudorandom strings per length,
    reproducible from the seed; density f(n) = n.
    low-weight: strings with at most max_ones ones; density sum_{i<=c} C(n,i).
    singleton: the one given string at its own length, nothing elsewhere.
    empty: no members at any length.
    """
    if kind == "seeded-random":
        if seed is None:
            raise ValueError("seeded-random language needs a seed")
        from .seeds import derived_rng

        cache: dict[int, tuple[list[str], frozenset[str]]] = {}

        def draw(n: int) -> tuple[list[str], frozenset[str]]:
            """The members of length n in draw order, and as one set."""
            if n not in cache:
                rng = derived_rng(seed, "language", n)
                out: dict[str, None] = {}  # first draws, in order
                while len(out) < n:
                    out.setdefault(format(rng.getrandbits(n), f"0{n}b"))
                cache[n] = list(out), frozenset(out)
            return cache[n]

        return SparseLanguageSpec(
            "seeded-random", DensityFn("linear"),
            lambda n: list(draw(n)[0]),
            lambda x: bool(x) and x in draw(len(x))[1],
            {"seed": seed},
        )

    if kind == "low-weight":
        if max_ones is None or max_ones < 0:
            raise ValueError("low-weight language needs max_ones >= 0 (--max-ones)")
        c = max_ones
        return SparseLanguageSpec(
            "low-weight",
            DensityFn("binomial-sum", c),
            lambda n: _low_weight_strings(n, c),
            lambda x: bool(x) and x.count("1") <= c,
            {"max_ones": c},
        )

    if kind == "singleton":
        if not member or member.strip("01"):
            raise ValueError("singleton language needs a nonempty bit string member (--member)")
        return SparseLanguageSpec(
            "singleton",
            DensityFn("constant", 1),
            lambda n: [member] if n == len(member) else [],
            lambda x: x == member,
            {"member": member},
        )

    if kind == "empty":
        return SparseLanguageSpec(
            "empty", DensityFn("constant", 0), lambda n: [], lambda x: False
        )

    raise ValueError(f"unknown language kind {kind!r}")


@dataclass(frozen=True)
class SketchSet:
    """All pairs (a, d_y(a)) for members y: a built sketch's rows or a loaded one's table."""

    n: int
    ctx: FieldCtx
    member_count: int
    table: object = field(default=None, repr=False)  # loaded: flat bytes, item_bytes(k) per value
    source_seed: int | None = None
    rule_sized: bool = True
    rows: list | None = field(default=None, repr=False)  # built: m lists of r ints

    @property
    def size(self) -> int:
        """Entries of the pair set, member_count x q: the values a save writes."""
        return self.member_count * self.ctx.q


def _size(spec: SparseLanguageSpec, n: int, ctx: FieldCtx | None):
    """(field, rule_sized, f(n)) of a build or an fp-rate run, from the
    density alone: nothing is listed, so every refusal that k and f(n)
    decide can run first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = ctx.k if ctx is not None else spec.density.field_size(n)
    if k > ENUMERATION_DEGREE_CAP:
        raise ValueError(f"sketch builds and the exhaustive-a and sampled-a modes evaluate "
                         f"on log tables, which need k <= {ENUMERATION_DEGREE_CAP}; got k = {k}")
    return ctx or make_field(k), ctx is None, spec.density.eval(n)


def _members(spec: SparseLanguageSpec, n: int, bound: int) -> list[str]:
    """The members of length n, validated and held to f(n) = bound."""
    if bound * n > LISTED_BITS_CAP:
        raise ValueError(f"listing f(n) = {bound} members of n = {n} bits could take "
                         f"{bound * n} bits, over sketch.LISTED_BITS_CAP = {LISTED_BITS_CAP}")
    members = spec.enumerator(n)
    for y in members:
        if len(y) != n or y.strip("01"):
            raise ValueError(f"language enumerator emitted a bad string at n={n}")
        if not spec.membership(y):
            raise ValueError(f"membership predicate rejects an enumerated member at n={n}")
    if len(set(members)) != len(members):
        raise ValueError(f"language enumerator emitted duplicates at n={n}")
    if len(members) > bound:
        raise ValueError(
            f"density violation at n={n}: {len(members)} members exceed f(n)={bound}"
        )
    return members


def sketch_header(spec: SparseLanguageSpec, n: int, ctx: FieldCtx, member_count: int,
                  rule_sized: bool, seed: int | None) -> dict:
    """The fields a ``sketch build`` summary and an fp-rate report share:
    the sketch of member_count members of spec at length n over ctx, and
    its entry_count, member_count x q."""
    return {"seed": seed, "n": n, "k": ctx.k, "q": ctx.q, "t_hex": ctx.t_hex,
            "rule_sized": rule_sized, "language": spec.describe(),
            "member_count": member_count, "entry_count": member_count * ctx.q}


def build_sketch(
    spec: SparseLanguageSpec,
    n: int,
    *,
    ctx: FieldCtx | None = None,
    source_seed: int | None = None,
) -> SketchSet:
    """The pair set for length n over all q points, as the members' rows.

    The context defaults to the sizing rule applied to the language's own
    density bound; passing ctx overrides the rule (and the sketch records
    that it is not rule-sized, so acceptance bounds are not promised).
    A build whose save could write more than ENTRY_CAP entries, q x f(n),
    or list more than LISTED_BITS_CAP bits raises ValueError first.
    """
    ctx, rule_sized, bound = _size(spec, n, ctx)
    if ctx.q * bound > ENTRY_CAP:
        raise ValueError(f"a sketch of up to f(n) = {bound} members over q = 2^{ctx.k} "
                         f"points could hold {ctx.q * bound} entries, over "
                         f"sketch.ENTRY_CAP = {ENTRY_CAP}")
    members = _members(spec, n, bound)
    return SketchSet(n=n, ctx=ctx, member_count=len(members), source_seed=source_seed,
                     rule_sized=rule_sized, rows=[coefficients(ctx, y) for y in members])


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


def _coeff_rows(ctx: FieldCtx, n: int, strings: list[str]) -> np.ndarray:
    """The coefficients of each d_x, one row per length-n string."""
    import numpy as np

    rows = [coefficients(ctx, x) for x in strings]
    return np.array(rows, np.uint64).reshape(len(rows), -(-n // ctx.k))


def exact_fp_count(ctx: FieldCtx, n: int, members: list[str], x):
    """|{a : d_y(a) = d_x(a) for some member y}| over every field point,
    where a sketch of the members accepts x.  x is one string (an int
    back) or a list of strings (a list of counts).  The members and a
    group of strings are evaluated together per block of
    ``kernels.sweep_field``, and the strings' values compared with one
    member row per numpy step.  A group holds _STRING_GROUP strings, or
    4m if more, so the members' sweep, repeated per group, adds at most a
    quarter to the strings' own."""
    import numpy as np
    from . import kernels

    xs = [x] if isinstance(x, str) else list(x)
    for y in (*members, *xs):
        if len(y) != n:
            raise ValueError(f"length mismatch: |x|={len(y)}, n={n}")
    counts = np.zeros(len(xs), np.int64)
    m = len(members)
    group = max(_STRING_GROUP, 4 * m)
    for i in range(0, len(xs), group):
        rows = _coeff_rows(ctx, n, members + xs[i:i + group])
        for vals in kernels.sweep_field(rows, ctx.m_low, ctx.k):
            hit = np.zeros((len(rows) - m, vals.shape[1]), bool)
            same = np.empty_like(hit)
            for y in vals[:m]:
                np.equal(y, vals[m:], out=same)
                hit |= same
            counts[i:i + group] += np.count_nonzero(hit, axis=1)
    return int(counts[0]) if isinstance(x, str) else counts.tolist()


def _sampled_counts(ctx: FieldCtx, n: int, members: list[str], xs: list[str],
                    points) -> list[int]:
    """For each x of xs and its points (any iterable of ints), how many of
    them (repeats counted) some member's d_y takes d_x's value at, with no
    table: the points are read, evaluated and compared a block of
    ``kernels.block_points`` at a time, so the working arrays grow with
    neither members x points nor the number of points."""
    import numpy as np
    from . import kernels

    rows = _coeff_rows(ctx, n, xs[:1] + members)  # row 0: each x's in turn
    step = kernels.block_points(len(rows))
    counts = []
    for x, pts in zip(xs, points):
        rows[0] = coefficients(ctx, x)
        pts = iter(pts)
        hits = 0
        while (block := np.fromiter(itertools.islice(pts, step), np.uint64)).size:
            vals = kernels.eval_points(block, rows, ctx.m_low, ctx.k)
            hits += int(np.count_nonzero((vals[1:] == vals[0]).any(axis=0)))
        counts.append(hits)
    return counts


def _bound_rejected(hits: int, samples: int, trials: int) -> bool:
    """Whether h = hits of N = samples drawn points refute an acceptance
    rate p <= ACCEPT_BOUND at level SAMPLED_ALPHA / trials.  The tail
    P[Bin(N, p) >= h] is bounded by exp(-N D(h/N || p)) for h/N > p
    (Hoeffding, JASA 1963), D the binary relative entropy; the bound
    overstates the tail, so a rejection is conservative.  A rate h/N of
    at most ACCEPT_BOUND never rejects."""
    x, p = hits / samples, ACCEPT_BOUND
    if x <= p:
        return False
    divergence = x * math.log(x / p)
    if x < 1:
        divergence += (1 - x) * math.log((1 - x) / (1 - p))
    return -samples * divergence <= math.log(SAMPLED_ALPHA / trials)


def query_membership(sketch: SketchSet, x: str, seed: int) -> bool:
    """One random-point membership query (replayable from its seed)."""
    fp = fingerprint(sketch.n, x, seed=seed, ctx=sketch.ctx)
    return contains(sketch, fp)


def _draw_nonmembers(spec: SparseLanguageSpec, n: int, count: int, seed: int) -> list[str]:
    from .seeds import derived_rng

    rng = derived_rng(seed, "nonmembers")
    out: list[str] = []
    for _ in range(64 * count + 1024):
        x = format(rng.getrandbits(n), f"0{n}b")
        if not spec.membership(x):
            out.append(x)
            if len(out) == count:
                return out
    raise ValueError(f"could not draw {count} nonmembers of length {n}: language too dense")


def fp_rate_experiment(
    spec: SparseLanguageSpec,
    n: int,
    trials: int,
    seed: int,
    *,
    ctx: FieldCtx | None = None,
    a_samples: int | None = None,
) -> dict:
    """Acceptance fractions of `trials` uniform nonmembers (and of the
    members): over all q points (mode exhaustive-a), or, given a_samples,
    at that many drawn points per nonmember (mode sampled-a).

    Neither mode builds the sketch, though both report its entry_count =
    m x q.  Only the nonmembers are evaluated, with the member rows, at
    every point (``exact_fp_count``) or at their drawn points
    (``_sampled_counts``): a member y itself takes d_y's value at each.
    A rule-sized run checks the bound: exhaustive-a exactly, as
    max_fraction <= ACCEPT_BOUND, and sampled-a as a test that no
    non-member's hits reject it (``_bound_rejected``).

    The report is :func:`sketch_header`'s fields and the experiment's
    own.  It is fully deterministic given the seed: nonmember draws and
    per-query point draws come from derived streams indexed by position,
    so the report is byte-for-byte reproducible.
    """
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    if a_samples is not None and a_samples < 1:
        raise ValueError(f"--a-samples must be >= 1, got {a_samples}")
    fctx, rule_sized, bound = _size(spec, n, ctx)
    if a_samples is None and fctx.k > EXHAUSTIVE_DEGREE_CAP:
        raise ValueError(f"exhaustive mode sweeps q = 2^{fctx.k} points per input; "
                         "use --a-samples N to sample N points for fields this large")
    # First, so that a language too dense to draw from refuses before it is listed.
    xs = _draw_nonmembers(spec, n, trials, seed)
    members = _members(spec, n, bound)
    r = -(-n // fctx.k)
    denom = fctx.q if a_samples is None else a_samples  # points per string
    if a_samples is None:
        nm_counts = exact_fp_count(fctx, n, members, xs)
    else:
        from .seeds import derived_rng

        rngs = (derived_rng(seed, "query-points", i) for i in range(trials))
        points = ((fctx.random_elem(rng) for _ in range(a_samples)) for rng in rngs)
        nm_counts = _sampled_counts(fctx, n, members, xs, points)
    nm_fractions = [c / denom for c in nm_counts]
    max_fraction = max(nm_fractions)
    if a_samples is None:
        satisfied = max_fraction <= ACCEPT_BOUND
    else:
        satisfied = not any(_bound_rejected(c, a_samples, trials) for c in nm_counts)
    return {
        **sketch_header(spec, n, fctx, len(members), rule_sized, seed),
        "mode": "exhaustive-a" if a_samples is None else "sampled-a",
        "nonmember_count": trials,
        "points_per_query": denom,
        "bound": ACCEPT_BOUND,
        "bound_checked": rule_sized,
        "bound_satisfied": satisfied if rule_sized else None,
        # Two per-nonmember acceptance caps: distinct monic degree-r
        # polynomials agree on at most r-1 points (exact algebra), while
        # the coarser analysis allows r per member.
        "pairwise_agreement_bound": (r - 1) * len(members) / fctx.q,
        "coarse_agreement_bound": r * len(members) / fctx.q,
        "max_fraction": max_fraction,
        "nonmember_accept_counts": nm_counts,
        "nonmember_fractions": nm_fractions,
        "member_fractions": [1.0] * len(members),
    }


# ------------------------------------------------------------- file I/O

_SPSK_MAGIC = b"SPSK"
_SPSK_VERSION = 3
_SPSK_PREFIX = struct.Struct("<4sII")  # magic, version, header length
_SPSK_ALIGN = 64  # the values start at a multiple of this many bytes
_DIGEST_BYTES = 32  # SHA-256
_HEADER_TYPES = {"k": int, "member_count": int, "n": int, "rule_sized": bool,
                 "seed": (int, type(None)), "t_hex": str}


def _table_blocks(sketch: SketchSet):
    """A built sketch's table, a block of whole rows at a time in one buffer."""
    import numpy as np
    from . import kernels

    ctx, m = sketch.ctx, sketch.member_count
    step = max(1, (1 << 16) // (ctx.q * item_bytes(ctx.k)))  # rows in 64 KiB, or one
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
