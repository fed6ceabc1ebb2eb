"""Sparse-language membership sketches.

For a language with at most f(n) strings of length n, pick GF(2^k) with
8 f(n) n < 2^k <= 16 f(n) n and store, for every member y and every
field point a, the pair (a, d_y(a)).  A query fingerprints its input at
one random a and looks the resulting pair up: members hit at every a,
while a nonmember's polynomial can agree with the members' on at most
(r-1)|L^n| of the q points, which the sizing rule keeps below q/4.  So
a single random-point query accepts a nonmember with probability
at most 1/4, with no false negatives.

Storage is that pair set as a member_count x q table, values[j, a] =
d_{y_j}(a), in the narrowest unsigned little-endian type that holds a
field element (1, 2 or 4 bytes, by k alone).  A :class:`SketchSet` keeps
the table as that value buffer: the array one batched kernel call filled
for a built sketch, and the file's own bytes, used in place, for a loaded
one.  A lookup reads the member_count values of one column straight from
the buffer, with no numpy, so loading a sketch and querying it never
import it.  The numpy view ``values`` serves the exact false-positive
count, a block of points and a chunk of member rows at a time (a member
control against its own row alone); the sampled count needs no table,
as it evaluates a nonmember and the members at the nonmember's drawn
points, and a member's count there is its point count by construction.

The sketch file format (.spsk, version 3) is that table itself,
deterministic and little-endian:

    magic "SPSK" | u32 version = 3 | u32 header length | header JSON,
    space-padded so the values start at a multiple of 64 bytes |
    values, row by row | SHA-256 of every byte before it

The header JSON has sorted keys and no spaces before its padding and
holds k, t_hex, n, member_count, rule_sized and seed.  Loading checks
the magic, the version, the header's keys and types, k in
1..ENUMERATION_DEGREE_CAP and an irreducible modulus of degree k, that
the values start 64-byte aligned, a file length of exactly
start + member_count q itemsize + 32 bytes, the digest, and that every
value is below 2^k, and raises ValueError on the first that fails.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ._atomic import write_atomic
from ._version import __version__
from .field import (ENUMERATION_DEGREE_CAP, FieldCtx, item_bytes, make_field,
                    select_field_size)
from .gf2poly import Gf2Poly
from .seeds import derive_seed, derived_rng
from .stream import coefficients, fingerprint

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DensityFn",
    "SparseLanguageSpec",
    "make_language",
    "EntryBudgetError",
    "DEFAULT_ENTRY_BUDGET",
    "SketchSet",
    "build_sketch",
    "contains",
    "exact_fp_count",
    "query_membership",
    "fp_rate_experiment",
    "save_sketch",
    "load_sketch",
    "ACCEPT_BOUND",
]

ACCEPT_BOUND = 0.25

DEFAULT_ENTRY_BUDGET = 10 ** 8

EXHAUSTIVE_QUERY_DEGREE_CAP = 20  # beyond this, per-input full-field sweeps get slow


class EntryBudgetError(RuntimeError):
    """Raised when a build would exceed the entry budget; never truncates."""


def _iroot(x: int, r: int) -> int:
    """Largest t with t**r <= x, exact integer arithmetic."""
    if x < 0 or r < 1:
        raise ValueError("iroot needs x >= 0, r >= 1")
    if x < 2 or r == 1:
        return x
    t = 1 << (x.bit_length() // r + 1)
    while t ** r > x:
        t = (t * (r - 1) + x // t ** (r - 1)) // r
    while (t + 1) ** r <= x:
        t += 1
    return t


@dataclass(frozen=True)
class DensityFn:
    """Length-indexed bound f(n) on how many members a language may have.

    Families: constant c; linear (f(n) = n); power p/q (f(n) =
    floor(n^(p/q)), exact integer roots); binomial-sum c (f(n) =
    sum_{i<=c} C(n, i), the low-weight count).  Parsed from
    "constant:4", "linear", "power:3/2".
    """

    kind: str
    num: int = 0
    den: int = 1

    def eval(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == "constant":
            return self.num
        if self.kind == "linear":
            return n
        if self.kind == "power":
            return _iroot(n ** self.num, self.den)
        if self.kind == "binomial-sum":
            return sum(math.comb(n, i) for i in range(0, min(self.num, n) + 1))
        raise ValueError(f"unknown density family {self.kind!r}")

    def field_size(self, n: int) -> int:
        """k for length n by the sizing rule.  A density of 0 (an empty
        language) sizes as f(n) = 1: the rule needs f(n) >= 1, and a sketch
        of no members needs no larger field."""
        return select_field_size(n, max(1, self.eval(n)))

    def describe(self) -> dict:
        if self.kind == "constant":
            return {"family": "constant", "c": self.num}
        if self.kind == "linear":
            return {"family": "linear"}
        if self.kind == "binomial-sum":
            return {"family": "binomial-sum", "max_ones": self.num}
        return {"family": "power", "exponent": f"{self.num}/{self.den}"}

    @classmethod
    def parse(cls, text: str) -> "DensityFn":
        name, sep, arg = text.partition(":")

        def integer(part: str, form: str) -> int:
            try:
                return int(part)
            except ValueError:
                raise ValueError(f"--f {form} needs integers, got {text!r}") from None

        if name == "linear":
            if sep:
                raise ValueError(f"linear density takes no argument, got {text!r}")
            return cls("linear")
        if name == "constant":
            c = integer(arg, "constant:C")
            if c < 0:
                raise ValueError("constant density must be >= 0")
            return cls("constant", c)
        if name == "power":
            num, _, den = arg.partition("/")
            num_i = integer(num, "power:P/Q")
            den_i = integer(den, "power:P/Q") if den else 1
            if num_i < 0 or den_i < 1:
                raise ValueError("power density needs a nonnegative rational exponent")
            return cls("power", num_i, den_i)
        raise ValueError(f"unknown density family {name!r}")


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
        cache: dict[int, list[str]] = {}

        def enum(n: int) -> list[str]:
            if n not in cache:
                rng = derived_rng(seed, "language", n)
                seen: set[int] = set()
                out: list[str] = []
                while len(out) < n:
                    x = rng.getrandbits(n)
                    if x not in seen:
                        seen.add(x)
                        out.append(format(x, f"0{n}b"))
                cache[n] = out
            return list(cache[n])

        def member_q(x: str) -> bool:
            return bool(x) and x in set(enum(len(x)))

        return SparseLanguageSpec(
            "seeded-random", DensityFn("linear"), enum, member_q,
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
    """All pairs (a, d_y(a)) for members y, as the little-endian buffer of
    the member_count x q table values[j, a] = d_{y_j}(a)."""

    n: int
    ctx: FieldCtx
    member_count: int
    table: object = field(repr=False)  # flat bytes, item_bytes(k) per value
    source_seed: int | None = None
    rule_sized: bool = True

    @property
    def size(self) -> int:
        """Stored entries: member_count x q, the count the entry budget bounds."""
        return self.member_count * self.ctx.q

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The table as a member_count x q numpy view."""
        import numpy as np
        from . import kernels

        values = np.frombuffer(self.table, kernels.value_dtype(self.ctx.k), self.size)
        return values.reshape(self.member_count, self.ctx.q)


def _resolve(spec: SparseLanguageSpec, n: int, ctx: FieldCtx | None, entry_budget: int):
    """(validated members, field, rule_sized) of a build or an fp-rate run."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if entry_budget < 0:
        raise ValueError(f"--entry-budget must be >= 0, got {entry_budget}")
    k = ctx.k if ctx is not None else spec.density.field_size(n)
    if k > ENUMERATION_DEGREE_CAP:
        raise ValueError(f"sketch builds and sampled-a mode evaluate on log tables, "
                         f"which need k <= {ENUMERATION_DEGREE_CAP}; got k = {k}")
    members = spec.enumerator(n)
    for y in members:
        if len(y) != n or y.strip("01"):
            raise ValueError(f"language enumerator emitted a bad string at n={n}")
        if not spec.membership(y):
            raise ValueError(f"membership predicate rejects an enumerated member at n={n}")
    if len(set(members)) != len(members):
        raise ValueError(f"language enumerator emitted duplicates at n={n}")
    bound = spec.density.eval(n)
    if len(members) > bound:
        raise ValueError(
            f"density violation at n={n}: {len(members)} members exceed f(n)={bound}"
        )
    return members, ctx or make_field(k), ctx is None


def build_sketch(
    spec: SparseLanguageSpec,
    n: int,
    *,
    ctx: FieldCtx | None = None,
    entry_budget: int = DEFAULT_ENTRY_BUDGET,
    source_seed: int | None = None,
) -> SketchSet:
    """Materialize the full pair set for length n over all q points.

    The context defaults to the sizing rule applied to the language's own
    density bound; passing ctx overrides the rule (and the sketch records
    that it is not rule-sized, so acceptance bounds are not promised).
    A build of more than entry_budget stored entries (member_count x q,
    1, 2 or 4 bytes each) raises EntryBudgetError before it evaluates
    anything.
    """
    return _build(*_resolve(spec, n, ctx, entry_budget), n, entry_budget, source_seed)


def _build(members: list[str], ctx: FieldCtx, rule_sized: bool, n: int,
           entry_budget: int, source_seed: int | None) -> SketchSet:
    """build_sketch on resolved inputs."""
    q = ctx.q
    projected = q * len(members)
    if projected > entry_budget:
        raise EntryBudgetError(
            f"build would create {projected} entries, over the budget of "
            f"{entry_budget}; raise --entry-budget to proceed"
        )
    import numpy as np
    from . import kernels

    values = np.empty((len(members), q), kernels.value_dtype(ctx.k))
    kernels.eval_points(range(q), _coeff_rows(ctx, n, members), ctx.m_low, ctx.k, out=values)
    return SketchSet(n=n, ctx=ctx, member_count=len(members),
                     table=values.reshape(-1).view(np.uint8), source_seed=source_seed,
                     rule_sized=rule_sized)


def contains(sketch: SketchSet, fp) -> bool:
    """Whether the pair (a, v) of this fingerprint is in the sketch: one
    little-endian value of column a per member, read from the buffer."""
    if fp.n != sketch.n:
        raise ValueError(f"length mismatch: fingerprint n={fp.n}, sketch n={sketch.n}")
    if fp.ctx != sketch.ctx:
        raise ValueError("fingerprint context does not match the sketch's field")
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


def exact_fp_count(sketch: SketchSet, x):
    """|{a : (a, d_x(a)) is stored}| over every field point.  x is one
    string (an int back) or a list of strings (a list of counts).  Each
    block of values from ``_blocks`` is compared with the member rows a
    chunk of rows per numpy step (``kernels.compare_shape``)."""
    import numpy as np
    from . import kernels

    xs = [x] if isinstance(x, str) else list(x)
    for y in xs:
        if len(y) != sketch.n:
            raise ValueError(f"length mismatch: |x|={len(y)}, sketch n={sketch.n}")
    counts = np.zeros(len(xs), np.int64)
    for rows, cols, vals in _blocks(sketch, xs):
        chunk = kernels.compare_shape(len(vals), sketch.member_count)[1]
        hit = np.zeros(vals.shape, bool)
        same = np.empty((chunk,) + vals.shape, bool)
        for j in range(0, len(cols), chunk):
            np.equal(cols[j:j + chunk, None], vals, out=same[:len(cols) - j])
            hit |= same[:len(cols) - j].any(axis=0)
        counts[rows] += np.count_nonzero(hit, axis=1)
        del hit, same  # before the next block is compared
    return int(counts[0]) if isinstance(x, str) else counts.tolist()


def _member_counts(sketch: SketchSet, members: list[str]) -> list[int]:
    """exact_fp_count(sketch, members) for the members the sketch was built
    from, in order: q if d_y equals its own row at every point, else exact."""
    import numpy as np

    if len(members) != sketch.member_count:  # not the build's enumeration
        return exact_fp_count(sketch, members)
    same = np.ones(len(members), bool)
    for rows, cols, vals in _blocks(sketch, members):
        same[rows] &= (vals == cols[rows]).all(axis=1)
    redo = [y for y, ok in zip(members, same) if not ok]
    fallback = iter(exact_fp_count(sketch, redo) if redo else [])
    return [sketch.ctx.q if ok else next(fallback) for ok in same]


def _blocks(sketch: SketchSet, xs: list[str]):
    """(slice of xs, table columns, their d_x values in a reused buffer) per
    block of points: the field swept by ``eval_points(range(q), ...)`` per
    group of rows (1/16 of the table's bytes, at least 128 KiB: the compare
    reads the whole table once per group)."""
    import numpy as np
    from . import kernels

    ctx, table = sketch.ctx, sketch.values
    coeffs = _coeff_rows(ctx, sketch.n, xs)
    group = max(1, max(1 << 17, table.nbytes >> 4) // (ctx.q * table.itemsize))
    vals = np.empty((min(group, len(xs)), ctx.q), table.dtype)
    for i in range(0, len(xs), group):
        out = vals[:len(xs) - i]
        kernels.eval_points(range(ctx.q), coeffs[i:i + group], ctx.m_low, ctx.k, out=out)
        step = kernels.block_points(len(out))
        for s in range(0, ctx.q, step):
            yield slice(i, i + group), table[:, s:s + step], out[:, s:s + step]


def _sampled_counts(ctx: FieldCtx, n: int, members: list[str], xs: list[str],
                    points) -> list[int]:
    """For each x of xs and its points (any iterable of ints), how many of
    them (repeats counted) some member's d_y takes d_x's value at, with no
    table: x's row and the member rows are evaluated and compared a block
    of ``kernels.block_points`` points at a time, so the working arrays do
    not grow with members x points."""
    import numpy as np
    from . import kernels

    rows = _coeff_rows(ctx, n, xs[:1] + members)  # row 0: each x's in turn
    step = kernels.block_points(len(rows))
    counts = []
    for x, pts in zip(xs, points):
        rows[0] = coefficients(ctx, x)
        pts = np.fromiter(pts, np.uint64)
        hits = 0
        for s in range(0, pts.size, step):
            vals = kernels.eval_points(pts[s:s + step], rows, ctx.m_low, ctx.k)
            hits += int(np.count_nonzero((vals[1:] == vals[0]).any(axis=0)))
        counts.append(hits)
    return counts


def query_membership(sketch: SketchSet, x: str, seed: int) -> bool:
    """One random-point membership query (replayable from its seed)."""
    fp = fingerprint(sketch.n, x, seed=seed, ctx=sketch.ctx)
    return contains(sketch, fp)


def _draw_nonmembers(spec: SparseLanguageSpec, n: int, count: int, seed: int) -> list[str]:
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
    mode: str = "exhaustive-a",
    *,
    ctx: FieldCtx | None = None,
    a_samples: int = 512,
    entry_budget: int = DEFAULT_ENTRY_BUDGET,
) -> dict:
    """Acceptance fractions of `trials` uniform nonmembers (plus member
    controls), either exhaustively over all q points or on sampled points.

    Exhaustive-a builds the sketch within entry_budget, and a member
    control compares a fresh evaluation with the stored table.  Sampled-a
    keeps no table, but still reports entry_count = m x q.  It evaluates
    only the nonmembers (``_sampled_counts``): a member y reads a_samples
    by construction, as y itself takes d_y's value at each of its points.

    Fully deterministic given the seed: nonmember draws and per-query
    point draws come from derived streams indexed by position, so the
    report is byte-for-byte reproducible.
    """
    if mode not in ("exhaustive-a", "sampled-a"):
        raise ValueError("mode must be 'exhaustive-a' or 'sampled-a'")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if mode == "sampled-a" and a_samples < 1:
        raise ValueError("sampled-a mode needs a_samples >= 1")
    members, fctx, rule_sized = _resolve(spec, n, ctx, entry_budget)
    if mode == "exhaustive-a" and fctx.k > EXHAUSTIVE_QUERY_DEGREE_CAP:
        raise ValueError(f"exhaustive mode sweeps q = 2^{fctx.k} points per input; "
                         "use mode='sampled-a' for fields this large")
    r = -(-n // fctx.k)
    denom = fctx.q if mode == "exhaustive-a" else a_samples  # points per string
    if mode == "exhaustive-a":
        sketch = _build(members, fctx, rule_sized, n, entry_budget, seed)
        counts = (exact_fp_count(sketch, _draw_nonmembers(spec, n, trials, seed))
                  + _member_counts(sketch, members))
    else:
        xs = _draw_nonmembers(spec, n, trials, seed)
        rngs = (derived_rng(seed, "query-points", i) for i in range(trials))
        points = ((fctx.random_elem(rng) for _ in range(a_samples)) for rng in rngs)
        counts = _sampled_counts(fctx, n, members, xs, points) + [a_samples] * len(members)
    nm_counts = counts[:trials]
    nm_fractions = [c / denom for c in nm_counts]
    max_fraction = max(nm_fractions)
    return {
        "kind": "fp-rate",
        "tool": {"name": "streamfp", "version": __version__},
        "seed": seed,
        "n": n,
        "k": fctx.k,
        "q": fctx.q,
        "t_hex": fctx.modulus.to_hex(),
        "rule_sized": rule_sized,
        "language": spec.describe(),
        "member_count": len(members),
        "entry_count": len(members) * fctx.q,
        "mode": mode,
        "nonmember_count": trials,
        "points_per_query": denom,
        "bound": ACCEPT_BOUND,
        "bound_checked": rule_sized,
        "bound_satisfied": (max_fraction <= ACCEPT_BOUND) if rule_sized else None,
        # Two per-nonmember acceptance caps: distinct monic degree-r
        # polynomials agree on at most r-1 points (exact algebra), while
        # the coarser analysis allows r per member.
        "pairwise_agreement_bound": (r - 1) * len(members) / fctx.q,
        "coarse_agreement_bound": r * len(members) / fctx.q,
        "max_fraction": max_fraction,
        "nonmember_accept_counts": nm_counts,
        "nonmember_fractions": nm_fractions,
        "member_fractions": [c / denom for c in counts[trials:]],
    }


# ------------------------------------------------------------- file I/O

_SPSK_MAGIC = b"SPSK"
_SPSK_VERSION = 3
_SPSK_PREFIX = struct.Struct("<4sII")  # magic, version, header length
_SPSK_ALIGN = 64  # the values start at a multiple of this many bytes
_DIGEST_BYTES = 32  # SHA-256
_HEADER_TYPES = {"k": int, "member_count": int, "n": int, "rule_sized": bool,
                 "seed": (int, type(None)), "t_hex": str}


def save_sketch(sketch: SketchSet, path: str) -> None:
    """Write the deterministic .spsk form (atomic: temp file + rename)."""
    header = json.dumps({
        "k": sketch.ctx.k, "member_count": sketch.member_count, "n": sketch.n,
        "rule_sized": sketch.rule_sized, "seed": sketch.source_seed,
        "t_hex": sketch.ctx.modulus.to_hex(),
    }, sort_keys=True, separators=(",", ":")).encode()
    header += b" " * (-(_SPSK_PREFIX.size + len(header)) % _SPSK_ALIGN)
    head = _SPSK_PREFIX.pack(_SPSK_MAGIC, _SPSK_VERSION, len(header)) + header
    digest = hashlib.sha256(head)
    digest.update(sketch.table)
    write_atomic(path, head, sketch.table, digest.digest())


def load_sketch(path: str) -> SketchSet:
    """Read a .spsk file back, raising ValueError unless every check in the
    module docstring passes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _SPSK_PREFIX.size or blob[:4] != _SPSK_MAGIC:
        raise ValueError("not a sketch file (bad magic)")
    _, version, header_len = _SPSK_PREFIX.unpack_from(blob)
    if version != _SPSK_VERSION:
        raise ValueError(f"unsupported sketch file version {version}")
    start = _SPSK_PREFIX.size + header_len
    try:
        header = json.loads(blob[_SPSK_PREFIX.size:start])
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
    k, members = header["k"], header["member_count"]
    if header["n"] < 1 or members < 0:
        raise ValueError("corrupt sketch file: header needs n >= 1 and member_count >= 0")
    if not 1 <= k <= ENUMERATION_DEGREE_CAP:
        raise ValueError(f"corrupt sketch file: k must be in 1..{ENUMERATION_DEGREE_CAP}")
    ctx = FieldCtx(k, Gf2Poly.from_hex(header["t_hex"]))
    if start % _SPSK_ALIGN:
        raise ValueError(f"corrupt sketch file: value region not {_SPSK_ALIGN}-byte aligned")
    width = item_bytes(k)
    end = start + members * ctx.q * width
    if len(blob) != end + _DIGEST_BYTES:
        raise ValueError(
            f"corrupt sketch file: {len(blob)} bytes, expected {end + _DIGEST_BYTES}")
    if hashlib.sha256(memoryview(blob)[:end]).digest() != blob[end:]:
        raise ValueError("corrupt sketch file: digest mismatch")
    # A value is below 2^k when byte i of it, little-endian, is below
    # 2^(k - 8i): take that byte of every value and delete the allowed ones.
    for i in range(k // 8, width):
        allowed = bytes(range(1 << max(0, k - 8 * i)))
        if blob[start + i:end:width].translate(None, allowed):
            raise ValueError(f"corrupt sketch file: a value is not below 2^{k}")
    return SketchSet(n=header["n"], ctx=ctx, member_count=members,
                     table=memoryview(blob)[start:end], source_seed=header["seed"],
                     rule_sized=header["rule_sized"])
