"""Tally sets under density and gap constraints, and the padding map.

A tally set here is a finite, sorted, duplicate-free set of positive
lengths.  It respects a density bound d and a gap bound g when at most
d(n) members are <= n for every n (checked at member lengths, where the
count jumps) and any two members n < m satisfy g(n) < m (checked on
consecutive pairs; both function families are nondecreasing, so that
suffices).

The padding map sends a length n to 2^n + n.  A gap function g is
padding stable at n when g(2^n + n) < 2^{g(n)} + g(n); for the doubled
iterated exponentials g(n) = exp^(i)(2n) this holds at every n >= 2 and
fails at n = 1.  Padding a valid tally set through a padding-stable gap
function keeps it valid: padded members are strictly longer, so counts
through any length can only drop, and stability carries each gap
constraint across the map.

All values are exact big integers.  Tower evaluations refuse, rather
than approximate, once an intermediate would exceed the bit cap
CAP_BITS (10^7 bits); out-of-range is the distinct OutOfRangeError,
never a boolean.  Stability comparisons stay exact past the cap when
bit lengths alone decide them: 2^{g(n)} + g(n) has exactly g(n) + 1
bits, so any in-cap left side with at most g(n) bits is smaller without
materializing the tower.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

__all__ = [
    "CAP_BITS",
    "OutOfRangeError",
    "iter_exp",
    "iter_log",
    "GrowthFn",
    "as_tally",
    "pad",
    "is_padding_stable_at",
    "TallyCheck",
    "validate_tally",
    "pad_preserves_validity",
    "construct_lengths",
    "tally_to_json",
    "tally_from_json",
]

CAP_BITS = 10 ** 7  # the most bits of any integer a tally check materializes

_MAX_DOUBLINGS = 512  # a density at its threshold after this many doublings is bounded


class OutOfRangeError(ValueError):
    """A tower evaluation would exceed the bit cap; distinct from any
    boolean answer and from ordinary precondition errors."""


def iter_exp(depth: int, n: int) -> int:
    """Iterated exponential: depth 1 is 2^n, each extra level re-exponentiates."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n < 0:
        raise ValueError("argument must be >= 0")
    v = n
    for _ in range(depth):
        if v >= CAP_BITS:
            # v itself may already be astronomically large; report its size.
            raise OutOfRangeError(
                f"tower needs an integer of roughly 2^{v.bit_length() - 1} bits, "
                f"over the cap of {CAP_BITS} bits"
            )
        v = 1 << v
    return v


def iter_log(depth: int, n: int) -> int:
    """Iterated floor log base 2; every intermediate must stay >= 2."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    v = n
    for _ in range(depth):
        if v < 2:
            raise ValueError(f"iterated log leaves the domain: reached {v}")
        v = v.bit_length() - 1
    return v


def _int_like(x) -> bool:
    """A value int() turns into the same integer or a ValueError: an int,
    an integral float such as 2.0, or a string.  A float with a fraction
    would be truncated and is refused, as is JSON's Infinity."""
    return isinstance(x, (int, str)) or (isinstance(x, float) and x.is_integer())


@dataclass(frozen=True)
class GrowthFn:
    """A nondecreasing length-to-length function from a named family.

    Families (JSON form {"family", "depth", "params"}):

    * iter-exp: exp^(depth)(scale * n), the doubled towers use scale=2;
    * iter-log: log^(depth)(scale * n), floor at each level;
    * polynomial: coeff * n^exponent;
    * identity: n;
    * custom-table: step function through sorted (n, value) points,
      0 before the first point (values must be nondecreasing).
    """

    family: str
    depth: int = 1
    params: Mapping = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.family not in ("iter-exp", "iter-log", "polynomial", "identity", "custom-table"):
            raise ValueError(f"unknown growth family {self.family!r}")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not all(_int_like(self.params.get(key, 1)) for key in ("scale", "coeff", "exponent")):
            raise ValueError("growth params scale, coeff and exponent must be integers")
        if self.family == "custom-table":
            pts = self.params.get("points", ())
            if not isinstance(pts, (list, tuple)) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_int_like, p))
                for p in pts
            ):
                raise ValueError("custom-table points must be [n, value] pairs")
            if not pts:
                raise ValueError("custom-table needs points")
            ns = [int(p[0]) for p in pts]
            vs = [int(p[1]) for p in pts]
            if ns != sorted(ns) or len(set(ns)) != len(ns):
                raise ValueError("custom-table points must be sorted by n, unique")
            if vs != sorted(vs):
                raise ValueError("custom-table values must be nondecreasing")

    def eval(self, n: int) -> int:
        if n < 1:
            raise ValueError("growth functions are defined on n >= 1")
        scale = int(self.params.get("scale", 1))
        if self.family == "iter-exp":
            return iter_exp(self.depth, scale * n)
        if self.family == "iter-log":
            return iter_log(self.depth, scale * n)
        if self.family == "polynomial":
            coeff = int(self.params.get("coeff", 1))
            exponent = int(self.params.get("exponent", 1))
            if exponent * n.bit_length() > CAP_BITS:
                raise OutOfRangeError("polynomial value exceeds the bit cap")
            return coeff * n ** exponent
        if self.family == "identity":
            return n
        value = 0
        for pn, pv in self.params["points"]:
            if int(pn) <= n:
                value = int(pv)
            else:
                break
        return value

    def describe(self) -> dict:
        return {"family": self.family, "depth": self.depth, "params": dict(self.params)}

    @classmethod
    def from_json(cls, d: Mapping) -> "GrowthFn":
        if (
            not isinstance(d, Mapping)
            or "family" not in d
            or not _int_like(d.get("depth", 1))
            or not isinstance(d.get("params", {}), Mapping)
        ):
            raise ValueError(
                'growth function must be a JSON object {"family": ..., '
                '"depth": int, "params": {...}}'
            )
        return cls(
            family=d["family"],
            depth=int(d.get("depth", 1)),
            params=dict(d.get("params", {})),
        )


def as_tally(lengths: Sequence[int]) -> tuple[int, ...]:
    """Normalize to the canonical sorted duplicate-free tuple of lengths."""
    out = sorted(set(int(x) for x in lengths))
    if out and out[0] < 1:
        raise ValueError("tally lengths must be >= 1")
    return tuple(out)


def pad(lengths: Sequence[int]) -> tuple[int, ...]:
    """Image of the tally set under n -> 2^n + n (strictly monotone, so
    the image is again sorted and duplicate-free)."""
    t = as_tally(lengths)
    for m in t:
        if m >= CAP_BITS:
            raise OutOfRangeError(f"padded length 2^{m} + {m} exceeds the {CAP_BITS}-bit cap")
    return tuple((1 << m) + m for m in t)


def is_padding_stable_at(g: GrowthFn, n: int) -> bool:
    """Exact check of g(2^n + n) < 2^{g(n)} + g(n).

    The left side is always materialized (OutOfRangeError past the cap).
    The right side is materialized only while g(n) stays under the cap;
    beyond that its bit length g(n) + 1 alone decides the comparison,
    which keeps the check exact out to arguments whose towers could
    never be stored.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n >= CAP_BITS:
        raise OutOfRangeError(f"2^{n} + {n} exceeds the {CAP_BITS}-bit cap")
    lhs = g.eval((1 << n) + n)
    gn = g.eval(n)
    if gn + 1 <= CAP_BITS:
        return lhs < (1 << gn) + gn
    bl = lhs.bit_length()
    if bl <= gn:
        return True
    if bl > gn + 1:
        return False
    raise OutOfRangeError("comparison needs the materialized tower (equal bit lengths) "
                          f"but g(n) = {gn} exceeds the {CAP_BITS}-bit cap")


@dataclass(frozen=True)
class TallyCheck:
    """Outcome of validate_tally with the first violation, if any."""

    ok: bool
    violation: str | None = None  # "density" | "gap"
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_tally(lengths: Sequence[int], d: GrowthFn, g: GrowthFn) -> TallyCheck:
    """Check the density bound at every member length and the gap bound on
    every consecutive pair; reports the first violation found."""
    t = as_tally(lengths)
    for i, ell in enumerate(t):
        if i + 1 > d.eval(ell):
            return TallyCheck(False, "density", (ell, i + 1))
        if i + 1 < len(t):
            nxt = t[i + 1]
            if g.eval(ell) >= nxt:
                return TallyCheck(False, "gap", (ell, nxt))
    return TallyCheck(True)


def pad_preserves_validity(lengths: Sequence[int], d: GrowthFn, g: GrowthFn) -> bool:
    """Whether the padded image of a valid tally set is still valid.

    Preconditions (violations raise, they are not counterexamples): the
    input set itself validates, and g is padding stable at every member.
    """
    base = validate_tally(lengths, d, g)
    if not base.ok:
        raise ValueError(
            f"input tally set fails validation: {base.violation} at {base.witness}"
        )
    t = as_tally(lengths)
    for m in t:
        if not is_padding_stable_at(g, m):
            raise ValueError(f"gap function is not padding stable at member {m}")
    return validate_tally(pad(t), d, g).ok


def _least_with_density_above(d: GrowthFn, threshold: int, lo: int) -> int:
    """Least n >= lo with d(n) > threshold (d nondecreasing)."""
    hi = max(lo, 1)
    doublings = 0
    while d.eval(hi) <= threshold:
        hi *= 2
        doublings += 1
        if doublings > _MAX_DOUBLINGS:
            raise ValueError(
                f"density function appears bounded by {threshold} on the probed range"
            )
    lo_search = max(lo, hi // 2)
    while lo_search < hi:
        mid = (lo_search + hi) // 2
        if d.eval(mid) > threshold:
            hi = mid
        else:
            lo_search = mid + 1
    return hi


def construct_lengths(d: GrowthFn, g: GrowthFn, count: int) -> list[int]:
    """A strictly increasing length sequence whose singleton-per-length
    tally set respects (d, g).

    Walk the least lengths n_1 < n_2 < ... at which d takes strictly
    increasing positive values (so j members fit under d at n_j), then
    push each pick past the gap bound of its predecessor:
    f(1) = n_1 and f(j) = max(n_j, g(f(j-1)) + 1, f(j-1) + 1).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    out: list[int] = []
    prev_density = 0
    probe_from = 1
    for _ in range(count):
        nj = _least_with_density_above(d, prev_density, probe_from)
        prev_density = d.eval(nj)
        probe_from = nj + 1
        if not out:
            out.append(nj)
        else:
            out.append(max(nj, g.eval(out[-1]) + 1, out[-1] + 1))
    return out


def tally_to_json(lengths: Sequence[int]) -> list[str]:
    """Decimal-string form (safe for arbitrarily large lengths)."""
    return [str(x) for x in as_tally(lengths)]


def tally_from_json(items: Sequence[str]) -> tuple[int, ...]:
    return as_tally([int(x) for x in items])
