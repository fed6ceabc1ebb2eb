"""The benchmark's own tests: tiny-scale runs of each workload, live
referees, and the trace's self-time arithmetic.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random

import pytest

import layers
import run
import workloads
from referee import HornerReferee, clmul, reduce_mod
from spans import Span, Tracer, covered_length, self_times

TINY = workloads.Scale(raw_bytes=2048, serve_n=8, fp_n=8, fp_trials=3, warm_raw_bytes=256)

NAMED = {
    "stream-raw": {"setup_s", "fingerprint_mbit_s", "peak_rss_mib", "error_rate"},
    "sketch-serve": {"setup_s", "build_s", "query_p50_ms", "query_p75_ms",
                     "peak_rss_mib", "error_rate"},
    "fp-rate": {"setup_s", "fp_rate_s", "peak_rss_mib", "error_rate"},
}


def _bench(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace)], scale=TINY)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _declared(kind: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_end_to_end(capsys, workload):
    detail, result = _bench(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("end_to_end")
    assert set(result["metrics"]) == set(declared) == {name for name, _ in run.END_TO_END}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert metric["value"] > 0
    named = detail["detail"]["metrics"]
    assert set(named) == NAMED[workload]
    assert all({"value", "unit", "samples"} <= set(m) for m in named.values())
    assert named["error_rate"]["value"] == 0
    assert {"python", "numpy", "numba_importable", "kernels_backend", "nproc",
            "cpu_model"} <= set(detail["environment"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_traced(capsys, workload):
    detail, result = _bench(capsys, workload, 1)
    assert result["correct"] and result["failed"] == 0
    declared = _declared("per_layer")
    assert list(result["metrics"]) == [name for name, _, _ in layers.PER_LAYER]
    assert set(declared) == set(result["metrics"])
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["cli.startup_s"] > 0 and metrics["trace.total_s"] > 0
    touched = {
        "stream-raw": ["stream.fingerprint_s", "field.mul_ns", "kernels.fold_segments_mbit_s"],
        "sketch-serve": ["sketch.build_s", "sketch.save_s", "sketch.load_s",
                         "kernels.eval_points_s", "sketch.contains_us"],
        "fp-rate": ["sketch.fp_rate_experiment_s", "sketch.exact_fp_count_s",
                    "kernels.mulmod_ns"],
    }[workload]
    assert all(metrics[name] > 0 for name in touched)
    assert sum(detail["detail"]["self_s_by_span"].values()) > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_wrong_reference_counts_as_error(capsys, monkeypatch, workload):
    if workload == "stream-raw":
        right = HornerReferee.fold
        monkeypatch.setattr(HornerReferee, "fold", lambda self, segs: right(self, segs) ^ 1)
    elif workload == "sketch-serve":
        right = workloads.SketchServe.expected
        monkeypatch.setattr(workloads.SketchServe, "expected", lambda self, q: not right(self, q))
    else:
        right = workloads.rule_k
        monkeypatch.setattr(workloads, "rule_k", lambda n, m: right(n, m) + 1)
    detail, result = _bench(capsys, workload, 0)
    assert not result["correct"]
    assert result["failed"] >= 1
    error_rate = detail["detail"]["metrics"]["error_rate"]["value"]
    assert error_rate == result["failed"] / result["attempted"] > 0
    assert detail["failures"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 1, None, "t", 0.0, 10.0),
        Span("a", 2, 1, "t", 1.0, 4.0),
        Span("b", 3, 1, "t", 3.0, 6.0),    # overlaps a
        Span("a1", 4, 2, "t", 2.0, 3.0),
        Span("c", 5, 1, "t", 9.0, 12.0),   # runs past its parent
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0})
    assert covered_length([(0, 1), (0.5, 2), (3, 3), (4, 5)]) == pytest.approx(3.0)


def test_self_times_account_for_the_root():
    tr = Tracer("t")
    with tr.span("root") as root:
        with tr.span("a"):
            with tr.span("a1"):
                sum(range(1000))
            sum(range(1000))
        with tr.span("b"):
            sum(range(1000))
    selfs = self_times(tr.spans)
    assert layers.subtree_self_time(tr.spans, selfs, root) == pytest.approx(root.duration)
    assert [sp.parent_id for sp in tr.spans] == [None, 1, 2, 1]


@pytest.mark.parametrize("k", [1, 14, 50])
def test_table_multiply_matches_the_plain_one(k):
    from streamfp.field import make_field

    modulus = make_field(k).modulus.bits
    rng = random.Random(k)
    a = rng.getrandbits(k)
    ref = HornerReferee(k, modulus, a)
    for _ in range(200):
        v = rng.getrandbits(k)
        assert ref.mul_a(v) == reduce_mod(clmul(v, a), modulus)
