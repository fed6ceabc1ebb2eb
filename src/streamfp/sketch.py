"""Sparse-language membership sketches.

For a language with at most f(n) strings of length n, pick GF(2^k) with
8 f(n) n < 2^k <= 16 f(n) n and store, for every member y and every
field point a, the pair (a, d_y(a)).  A query fingerprints its input at
one random a and looks the resulting pair up: members hit at every a,
while a nonmember's polynomial can agree with the members' on at most
(r-1)|L^n| of the q points, which the sizing rule keeps below q/4.  So
a single random-point query accepts a nonmember with probability
at most 1/4, with no false negatives.

Storage is one sorted uint64 array of packed (a << k) | v keys, i.e. a
map keyed by a with sorted value sets, flattened.  Building and exact
false-positive counting run on the batched kernels.

The sketch file format (.spsk) is deterministic and platform-free:

    magic "SPSK" | u32 version | u32 header length | header JSON
    (canonical, sorted keys) | u64 record count | records

with one record per point a holding value count and hex-coded values,
sorted by a then v; element hex is fixed-width per the context.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._atomic import write_atomic
from ._version import __version__
from .field import ENUMERATION_DEGREE_CAP, FieldCtx, make_field, select_field_size
from .gf2poly import Gf2Poly
from . import kernels
from .seeds import derive_seed, derived_rng
from .stream import coefficients, fingerprint

__all__ = [
    "DensityFn",
    "SparseLanguageSpec",
    "make_language",
    "EntryBudgetError",
    "DEFAULT_ENTRY_BUDGET",
    "ENTRY_BUDGET_ENV",
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
ENTRY_BUDGET_ENV = "STREAMFP_ENTRY_BUDGET"

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
        name, _, arg = text.partition(":")
        if name == "linear":
            return cls("linear")
        if name == "constant":
            c = int(arg)
            if c < 0:
                raise ValueError("constant density must be >= 0")
            return cls("constant", c)
        if name == "power":
            num, _, den = arg.partition("/")
            num_i, den_i = int(num), int(den) if den else 1
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
            raise ValueError("low-weight language needs max_ones >= 0")
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
            raise ValueError("singleton language needs a nonempty bit string member")
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
    """All pairs (a, d_y(a)) for members y, as sorted packed keys."""

    n: int
    ctx: FieldCtx
    packed: np.ndarray  # uint64, sorted, key = (a << k) | v
    member_count: int
    source_seed: int | None = None
    rule_sized: bool = True

    @property
    def size(self) -> int:
        return int(self.packed.size)


def _resolve_budget(entry_budget: int | None) -> int:
    if entry_budget is not None:
        return entry_budget
    env = os.environ.get(ENTRY_BUDGET_ENV, "").strip()
    if env:
        return int(env)
    return DEFAULT_ENTRY_BUDGET


def _validate_members(spec: SparseLanguageSpec, n: int) -> list[str]:
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
    return members


def build_sketch(
    spec: SparseLanguageSpec,
    n: int,
    *,
    ctx: FieldCtx | None = None,
    entry_budget: int | None = None,
    source_seed: int | None = None,
) -> SketchSet:
    """Materialize the full pair set for length n over all q points.

    The context defaults to the sizing rule applied to the language's own
    density bound; passing ctx overrides the rule (and the sketch records
    that it is not rule-sized, so acceptance bounds are not promised).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    members = _validate_members(spec, n)
    rule_sized = ctx is None
    if ctx is None:
        ctx = make_field(select_field_size(n, max(1, spec.density.eval(n))))
    if ctx.k > ENUMERATION_DEGREE_CAP:
        raise ValueError(
            f"sketch building sweeps all q points and needs k <= {ENUMERATION_DEGREE_CAP}"
        )
    q = ctx.q
    budget = _resolve_budget(entry_budget)
    projected = q * len(members)
    if projected > budget:
        raise EntryBudgetError(
            f"build would create {projected} entries, over the budget of {budget}; "
            f"raise --entry-budget or {ENTRY_BUDGET_ENV} to proceed"
        )
    packed = np.empty(projected, np.uint64)
    if members:
        # One q-entry row per member, sorted in place, then compacted:
        # the peak is this array, its keep-mask and the compacted copy.
        points = np.arange(q, dtype=np.uint64)
        keys = points << np.uint64(ctx.k)
        for row, y in zip(packed.reshape(len(members), q), members):
            coeffs = np.array(coefficients(ctx, y), dtype=np.uint64)
            vals = kernels.eval_points(points, coeffs, ctx.m_low, ctx.k)
            np.bitwise_or(keys, vals, out=row)
        packed.sort()
        keep = np.empty(projected, bool)
        keep[0] = True
        np.not_equal(packed[1:], packed[:-1], out=keep[1:])
        packed = packed[keep]
    return SketchSet(
        n=n,
        ctx=ctx,
        packed=packed,
        member_count=len(members),
        source_seed=source_seed,
        rule_sized=rule_sized,
    )


def _keys_present(packed: np.ndarray, keys: np.ndarray) -> np.ndarray:
    if packed.size == 0:
        return np.zeros(keys.shape, bool)
    idx = np.searchsorted(packed, keys)
    idx = np.minimum(idx, packed.size - 1)
    return packed[idx] == keys


def contains(sketch: SketchSet, fp) -> bool:
    """Whether the pair (a, v) of this fingerprint is in the sketch."""
    if fp.n != sketch.n:
        raise ValueError(f"length mismatch: fingerprint n={fp.n}, sketch n={sketch.n}")
    if fp.ctx != sketch.ctx:
        raise ValueError("fingerprint context does not match the sketch's field")
    key = np.uint64((fp.a << sketch.ctx.k) | fp.v)
    return bool(_keys_present(sketch.packed, np.array([key], np.uint64))[0])


def exact_fp_count(sketch: SketchSet, x: str) -> int:
    """|{a : (a, d_x(a)) is stored}| by sweeping every field point."""
    ctx = sketch.ctx
    if len(x) != sketch.n:
        raise ValueError(f"length mismatch: |x|={len(x)}, sketch n={sketch.n}")
    points = np.arange(ctx.q, dtype=np.uint64)
    coeffs = np.array(coefficients(ctx, x), dtype=np.uint64)
    vals = kernels.eval_points(points, coeffs, ctx.m_low, ctx.k)
    keys = (points << np.uint64(ctx.k)) | vals
    return int(_keys_present(sketch.packed, keys).sum())


def query_membership(sketch: SketchSet, x: str, seed: int) -> bool:
    """One random-point membership query (replayable from its seed)."""
    fp = fingerprint(sketch.n, x, seed=seed, ctx=sketch.ctx)
    return contains(sketch, fp)


def _draw_nonmembers(spec: SparseLanguageSpec, n: int, count: int, seed: int) -> list[str]:
    rng = derived_rng(seed, "nonmembers")
    out: list[str] = []
    attempts = 0
    limit = 64 * count + 1024
    while len(out) < count:
        attempts += 1
        if attempts > limit:
            raise ValueError(
                f"could not draw {count} nonmembers of length {n}: language too dense"
            )
        x = format(rng.getrandbits(n), f"0{n}b")
        if not spec.membership(x):
            out.append(x)
    return out


def fp_rate_experiment(
    spec: SparseLanguageSpec,
    n: int,
    trials: int,
    seed: int,
    mode: str = "exhaustive-a",
    *,
    ctx: FieldCtx | None = None,
    a_samples: int = 512,
    entry_budget: int | None = None,
) -> dict:
    """Acceptance fractions of `trials` uniform nonmembers (plus member
    controls), either exhaustively over all q points or on sampled points.

    Fully deterministic given the seed: nonmember draws and per-query
    point draws come from derived streams indexed by position, so the
    report is byte-for-byte reproducible.
    """
    if mode not in ("exhaustive-a", "sampled-a"):
        raise ValueError("mode must be 'exhaustive-a' or 'sampled-a'")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    planned_k = (
        ctx.k if ctx is not None
        else select_field_size(n, max(1, spec.density.eval(n)))
    )
    if mode == "exhaustive-a" and planned_k > EXHAUSTIVE_QUERY_DEGREE_CAP:
        raise ValueError(
            f"exhaustive mode sweeps q = 2^{planned_k} points per input; "
            "use mode='sampled-a' for fields this large"
        )
    sketch = build_sketch(
        spec, n, ctx=ctx, entry_budget=entry_budget, source_seed=seed
    )
    fctx = sketch.ctx
    members = spec.enumerator(n)
    nonmembers = _draw_nonmembers(spec, n, trials, seed)
    r = -(-n // fctx.k)

    def fraction(x: str, index: int) -> tuple[int, int]:
        if mode == "exhaustive-a":
            return exact_fp_count(sketch, x), fctx.q
        rng = derived_rng(seed, "query-points", index)
        pts = np.array([fctx.random_elem(rng) for _ in range(a_samples)], np.uint64)
        coeffs = np.array(coefficients(fctx, x), dtype=np.uint64)
        vals = kernels.eval_points(pts, coeffs, fctx.m_low, fctx.k)
        keys = (pts << np.uint64(fctx.k)) | vals
        return int(_keys_present(sketch.packed, keys).sum()), a_samples

    nm_counts: list[int] = []
    nm_fractions: list[float] = []
    denom = fctx.q if mode == "exhaustive-a" else a_samples
    for i, x in enumerate(nonmembers):
        c, d = fraction(x, i)
        nm_counts.append(c)
        nm_fractions.append(c / d)
    member_fractions = [
        fraction(y, -1 - j)[0] / denom for j, y in enumerate(members)
    ]
    max_fraction = max(nm_fractions) if nm_fractions else 0.0
    report = {
        "kind": "fp-rate",
        "tool": {"name": "streamfp", "version": __version__},
        "seed": seed,
        "n": n,
        "k": fctx.k,
        "q": fctx.q,
        "t_hex": fctx.modulus.to_hex(),
        "rule_sized": sketch.rule_sized,
        "language": spec.describe(),
        "member_count": len(members),
        "entry_count": sketch.size,
        "mode": mode,
        "nonmember_count": trials,
        "points_per_query": denom,
        "bound": ACCEPT_BOUND,
        "bound_checked": sketch.rule_sized,
        "bound_satisfied": (max_fraction <= ACCEPT_BOUND) if sketch.rule_sized else None,
        # Two per-nonmember acceptance caps: distinct monic degree-r
        # polynomials agree on at most r-1 points (exact algebra), while
        # the coarser analysis allows r per member.
        "pairwise_agreement_bound": (r - 1) * len(members) / fctx.q,
        "coarse_agreement_bound": r * len(members) / fctx.q,
        "max_fraction": max_fraction,
        "nonmember_accept_counts": nm_counts,
        "nonmember_fractions": nm_fractions,
        "member_fractions": member_fractions,
    }
    return report


# ------------------------------------------------------------- file I/O

_SPSK_MAGIC = b"SPSK"
_SPSK_VERSION = 1


def save_sketch(sketch: SketchSet, path: str) -> None:
    """Write the deterministic .spsk form (atomic: temp file + rename)."""
    ctx = sketch.ctx
    header = {
        "magic": "SPSK",
        "version": _SPSK_VERSION,
        "n": sketch.n,
        "k": ctx.k,
        "t_hex": ctx.modulus.to_hex(),
        "rule_sized": sketch.rule_sized,
        "seed": sketch.source_seed,
        "member_count": sketch.member_count,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    kk = np.uint64(ctx.k)
    a_keys = (sketch.packed >> kk).astype(np.uint64)
    v_vals = sketch.packed & np.uint64((1 << ctx.k) - 1)
    out = bytearray()
    out += _SPSK_MAGIC
    out += struct.pack("<II", _SPSK_VERSION, len(header_bytes))
    out += header_bytes
    boundaries = np.flatnonzero(np.diff(a_keys)) + 1 if a_keys.size else np.array([], int)
    groups = np.split(np.arange(a_keys.size), boundaries)
    records = [g for g in groups if g.size]
    out += struct.pack("<Q", len(records))
    for g in records:
        a_hex = ctx.elem_hex(int(a_keys[g[0]])).encode()
        out += struct.pack("<H", len(a_hex)) + a_hex
        out += struct.pack("<I", g.size)
        for idx in g:
            v_hex = ctx.elem_hex(int(v_vals[idx])).encode()
            out += struct.pack("<H", len(v_hex)) + v_hex
    write_atomic(path, bytes(out))


def load_sketch(path: str) -> SketchSet:
    """Read a .spsk file back; validates magic, version, and the field."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _SPSK_MAGIC:
        raise ValueError("not a sketch file (bad magic)")
    try:
        version, header_len = struct.unpack_from("<II", blob, 4)
        if version != _SPSK_VERSION:
            raise ValueError(f"unsupported sketch file version {version}")
        pos = 12
        header = json.loads(blob[pos:pos + header_len].decode())
        pos += header_len
        ctx = FieldCtx(int(header["k"]), Gf2Poly.from_hex(header["t_hex"]))
        (record_count,) = struct.unpack_from("<Q", blob, pos)
        pos += 8
        keys: list[int] = []
        for _ in range(record_count):
            (alen,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            a = ctx.elem_from_hex(blob[pos:pos + alen].decode())
            pos += alen
            (count,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            for _ in range(count):
                (vlen,) = struct.unpack_from("<H", blob, pos)
                pos += 2
                v = ctx.elem_from_hex(blob[pos:pos + vlen].decode())
                pos += vlen
                keys.append((a << ctx.k) | v)
        packed = np.array(sorted(keys), dtype=np.uint64)
        return SketchSet(
            n=int(header["n"]),
            ctx=ctx,
            packed=packed,
            member_count=int(header["member_count"]),
            source_seed=None if header.get("seed") is None else int(header["seed"]),
            rule_sized=bool(header["rule_sized"]),
        )
    except (struct.error, KeyError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"corrupt sketch file: {exc}") from exc
