"""Sparse-language membership sketches.

For a language with at most f(n) strings of length n, pick GF(2^k) with
8 f(n) n < 2^k <= 16 f(n) n and store, for every member y and every
field point a, the pair (a, d_y(a)).  A query fingerprints its input at
one random a and looks the resulting pair up: members hit at every a,
while a nonmember's polynomial can agree with the members' on at most
(r-1)|L^n| of the q points, which the sizing rule keeps below q/4.  So
a single random-point query accepts a nonmember with probability
at most 1/4, with no false negatives.

A build returns a :class:`~streamfp.spsk.SketchSet` of the members' m
coefficient rows, which fix that pair set.  The file format, its save
and load, and the lookup :func:`contains` are :mod:`streamfp.spsk`'s,
re-exported here; a query needs only that module.  The false-positive
counts read no table: they evaluate the strings a block of points at a
time, and each member there before its compare.

Results are plain dicts with no ``kind`` or ``tool``: the CLI adds that
envelope.  :func:`sketch_header` holds the fields a build summary and an
fp-rate report share.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .field import ENUMERATION_DEGREE_CAP, DensityFn, FieldCtx, make_field
from .spsk import SketchSet, contains, load_sketch, save_sketch
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


def _coeff_rows(ctx: FieldCtx, n: int, strings: list[str]) -> np.ndarray:
    """The coefficients of each d_x, one row per length-n string, with no list of rows."""
    import numpy as np

    rows = itertools.chain.from_iterable(coefficients(ctx, x) for x in strings)
    return np.fromiter(rows, np.uint64).reshape(len(strings), -(-n // ctx.k))


def exact_fp_count(ctx: FieldCtx, n: int, members: list[str], x):
    """|{a : d_y(a) = d_x(a) for some member y}| over every field point,
    where a sketch of the members accepts x.  x is one string (an int
    back) or a list of strings (a list of counts).  Per block of
    ``kernels.sweep_field``, a group of strings is compared with each
    member row just after its evaluation, in buffers reused throughout.
    A group holds _STRING_GROUP strings, or 4m if more, so the members'
    sweep, repeated per group, adds at most a quarter to the strings'."""
    import numpy as np
    from . import kernels

    xs = [x] if isinstance(x, str) else list(x)
    for y in (*members, *xs):
        if len(y) != n:
            raise ValueError(f"length mismatch: |x|={len(y)}, n={n}")
    rows = _coeff_rows(ctx, n, members)
    counts = np.zeros(len(xs), np.int64)
    group = max(_STRING_GROUP, 4 * len(members))
    held, r = min(group, len(xs)), -(-n // ctx.k)
    width = (min(kernels.SWEEP_WIDTH, (ctx.q - 1) // r) if kernels.log_order(ctx.k, r)
             else kernels.block_points(held))  # points per block of every group
    vals = np.empty((held, width), kernels.value_dtype(ctx.k))
    flags = np.empty((2, vals.size), bool)
    for i in range(0, len(xs), group):
        strings = _coeff_rows(ctx, n, xs[i:i + group])
        for block, member_rows in kernels.sweep_field(rows, strings, ctx.m_low, ctx.k, vals):
            hit, same = flags[:, :block.size].reshape(2, *block.shape)
            hit[:] = False
            for y in member_rows:
                np.equal(y, block, out=same)
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
