"""Per-layer metrics from the traced in-process run.

While a traced sequence runs, the public functions of streamfp's modules
are routed through spans by rebinding the module attributes that callers
look up at call time (restored afterwards), so a call made by one layer
into another becomes a child span.  Probes time single operations that a
sequence runs too often, or too deep, to wrap one by one.

Metric conventions: `_s`, `_us` and `_ns` metrics of calls made many times
are medians per call (eval_points per all-q sweep, load per query,
exact_fp_count per input, mulmod per element); the others are totals over
the sequence.  A metric whose layer the workload does not reach reads 0.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from collections import defaultdict

__all__ = ["PER_LAYER", "patched", "layer_metrics", "subtree_self_time"]

# name, unit, better
PER_LAYER = [
    ("cli.startup_s", "s", "lower"),
    ("gf2poly.find_irreducible_s", "s", "lower"),
    ("field.mul_ns", "ns", "lower"),
    ("field.from_segment_ns", "ns", "lower"),
    ("stream.bits_from_bytes_s", "s", "lower"),
    ("stream.fingerprint_s", "s", "lower"),
    ("stream.fingerprint_mbit_s", "Mbit/s", "higher"),
    ("stream.field_ops", "count", "lower"),
    ("stream.peak_state_bits", "bits", "lower"),
    ("kernels.eval_points_s", "s", "lower"),
    ("kernels.evals_per_s", "1/s", "higher"),
    ("kernels.mulmod_ns", "ns", "lower"),
    ("kernels.fold_segments_mbit_s", "Mbit/s", "higher"),
    ("sketch.enumerate_s", "s", "lower"),
    ("sketch.build_s", "s", "lower"),
    ("sketch.build_self_s", "s", "lower"),
    ("sketch.entries", "count", "lower"),
    ("sketch.entry_yield", "fraction", "higher"),
    ("sketch.save_s", "s", "lower"),
    ("sketch.file_bytes", "bytes", "lower"),
    ("sketch.load_s", "s", "lower"),
    ("sketch.query_membership_us", "us", "lower"),
    ("sketch.contains_us", "us", "lower"),
    ("sketch.exact_fp_count_s", "s", "lower"),
    ("sketch.fp_rate_experiment_s", "s", "lower"),
    ("trace.total_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]


def _profile_counts(args, _out) -> dict:
    p = args[0].profile
    return {"bits": len(args[1]), "field_ops": p.field_ops,
            "conversions": p.conversions, "peak_state_bits": p.peak_state_bits}


@contextlib.contextmanager
def patched(tr):
    """Route calls between streamfp's layers through tr's spans."""
    from streamfp import kernels, sketch, stream

    targets = [
        (kernels, "eval_points", "kernels.eval_points",
         lambda a, out: {"points": len(a[0]), "coeffs": len(a[1])}),
        (sketch, "build_sketch", "sketch.build_sketch",
         lambda a, out: {"entries": out.size, "members": out.member_count, "q": out.ctx.q}),
        (sketch, "save_sketch", "sketch.save_sketch",
         lambda a, out: {"file_bytes": os.path.getsize(a[1])}),
        (sketch, "load_sketch", "sketch.load_sketch", lambda a, out: {"entries": out.size}),
        (sketch, "query_membership", "sketch.query_membership", None),
        (sketch, "contains", "sketch.contains", lambda a, out: {"hit": int(out)}),
        (sketch, "exact_fp_count", "sketch.exact_fp_count", lambda a, out: {"accepted": out}),
        (sketch, "fp_rate_experiment", "sketch.fp_rate_experiment", None),
        (sketch, "fingerprint", "stream.fingerprint", lambda a, out: {"bits": a[0]}),
        (stream, "fingerprint", "stream.fingerprint", lambda a, out: {"bits": a[0]}),
        (stream, "bits_from_bytes", "stream.bits_from_bytes", lambda a, out: {"bytes": len(a[0])}),
        (stream.StreamState, "feed", "stream.feed", _profile_counts),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _, _ in targets]
    try:
        for obj, attr, name, counts in targets:
            setattr(obj, attr, tr.wrap(name, getattr(obj, attr), counts))
        yield
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)


def subtree_self_time(spans, selfs, root) -> float:
    """Sum of self times over root and all its descendants."""
    inside = {root.span_id}
    total = 0.0
    for sp in spans:  # parents are recorded before their children
        if sp.span_id in inside or sp.parent_id in inside:
            inside.add(sp.span_id)
            total += selfs[sp.span_id]
    return total


def layer_metrics(spans, selfs, root_total: float, overhead_frac: float) -> dict[str, float]:
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def total(name):
        return sum(sp.duration for sp in by_name[name])

    def median(name):
        durs = [sp.duration for sp in by_name[name]]
        return statistics.median(durs) if durs else 0.0

    def count(name, key):
        return sum(sp.counts.get(key, 0) for sp in by_name[name])

    def rate(name, key):
        t = total(name)
        return count(name, key) / t if t > 0 else 0.0

    def per_item(name, key):
        per = [sp.duration / sp.counts[key] for sp in by_name[name] if sp.counts.get(key)]
        return statistics.median(per) if per else 0.0

    builds = by_name["sketch.build_sketch"]
    attempted = sum(sp.counts["q"] * sp.counts["members"] for sp in builds)
    return {
        "cli.startup_s": median("cli.startup"),
        "gf2poly.find_irreducible_s": median("gf2poly.find_irreducible"),
        "field.mul_ns": per_item("field.mul", "calls") * 1e9,
        "field.from_segment_ns": per_item("field.from_segment", "calls") * 1e9,
        "stream.bits_from_bytes_s": total("stream.bits_from_bytes"),
        "stream.fingerprint_s": total("stream.fingerprint"),
        "stream.fingerprint_mbit_s": rate("stream.fingerprint", "bits") / 1e6,
        "stream.field_ops": count("stream.feed", "field_ops"),
        "stream.peak_state_bits": max(
            (sp.counts["peak_state_bits"] for sp in by_name["stream.feed"]), default=0),
        "kernels.eval_points_s": median("kernels.eval_points"),
        "kernels.evals_per_s": rate("kernels.eval_points", "points"),
        "kernels.mulmod_ns": per_item("kernels.mulmod", "elements") * 1e9,
        "kernels.fold_segments_mbit_s": rate("kernels.fold_segments", "bits") / 1e6,
        "sketch.enumerate_s": total("sketch.enumerate"),
        "sketch.build_s": total("sketch.build_sketch"),
        "sketch.build_self_s": sum(selfs[sp.span_id] for sp in builds),
        "sketch.entries": count("sketch.build_sketch", "entries"),
        "sketch.entry_yield": (count("sketch.build_sketch", "entries") / attempted
                               if attempted else 0.0),
        "sketch.save_s": total("sketch.save_sketch"),
        "sketch.file_bytes": count("sketch.save_sketch", "file_bytes"),
        "sketch.load_s": median("sketch.load_sketch"),
        "sketch.query_membership_us": median("sketch.query_membership") * 1e6,
        "sketch.contains_us": median("sketch.contains") * 1e6,
        "sketch.exact_fp_count_s": median("sketch.exact_fp_count"),
        "sketch.fp_rate_experiment_s": total("sketch.fp_rate_experiment"),
        "trace.total_s": root_total,
        "trace.overhead_frac": overhead_frac,
    }
