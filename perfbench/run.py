"""streamfp's benchmark: the CLI users run, checked against its own referees.

    python3 perfbench/run.py --workload stream-raw --seed 1 --seconds 30 --trace 0

Run from a checkout holding src/streamfp.  Workloads (see workloads.py):

  stream-raw    fingerprint --format raw on a seeded 1 MiB file (n = 2^23, k = 50)
  sketch-serve  sketch build at n = 32 (k = 14), then single sketch query calls
  fp-rate       sketch fp-rate --n 64 --trials 50, exhaustive (k = 16)

--trace 0 times the CLI as child processes and reports the end-to-end
metrics, the same on every workload:

  setup_s       median over set-up repetitions of the warm-up calls
  lead_call_s   mean wall time of the call that opens each cycle of the
                loop: sketch-serve's `sketch build` (with save), which
                writes the file the next queries read; on the others a
                cycle is one call, so this is the repeated call again
  call_mean_ms  mean wall time of the repeated call (fingerprint,
  call_p75_ms   sketch query, sketch fp-rate) and its 75th percentile
  peak_rss_mib  largest child ru_maxrss over the timed calls

Per-call times on a shared host fall into a fast and a slow mode whose mix
drifts from minute to minute.  A median jumps between the modes while a
mean moves with the mix, so the central values above are means; medians
(query_p50_ms, fingerprint_mbit_s, fp_rate_s) are on the detail line.

--trace 1 repeats the workload in process, once with spans off and once
with spans on, and reports the per-layer metrics of layers.py.  Spans are
written to .perfbench-out/ as JSON lines.

Output: one JSON line of detail (environment, parameters, each metric
under the workload's own name with its sample count, error_rate, failed
checks), then the result line {"correct", "attempted", "failed", "metrics"}.
Inputs and sketch files live in a temporary directory in the checkout,
removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = [
    ("setup_s", "s"),
    ("lead_call_s", "s"),
    ("call_mean_ms", "ms"),
    ("call_p75_ms", "ms"),
    ("peak_rss_mib", "MiB"),
]


def environment() -> dict:
    import numpy
    from streamfp import kernels

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": kernels.NUMBA_AVAILABLE,
        "kernels_backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or "unknown",
    }


def run_timed(workload, cli, seconds, checks):
    from workloads import SETUP_REPS, Samples, quantile75

    samples = Samples()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup(cli, checks)
        samples.setup_s.append(time.perf_counter() - t0)
    workload.timed(cli, seconds, samples, checks)

    ms = [c.seconds * 1e3 for c in samples.repeated]
    rss_mib = max(c.rss_kib for c in samples.timed) / 1024
    metrics = {
        "setup_s": statistics.median(samples.setup_s),
        "lead_call_s": statistics.fmean(c.seconds for c in samples.lead),
        "call_mean_ms": statistics.fmean(ms),
        "call_p75_ms": quantile75(ms),
        "peak_rss_mib": rss_mib,
    }
    named = {
        "setup_s": (metrics["setup_s"], "s", len(samples.setup_s)),
        **workload.named_metrics(samples),
        "peak_rss_mib": (rss_mib, "MiB", len(samples.timed)),
        "error_rate": (checks.error_rate, "fraction", checks.attempted),
    }
    return metrics, {
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in named.items()},
        "call_s": [c.seconds for c in samples.timed],
    }


def run_traced(workload, cli, seed, checks):
    from streamfp.field import make_field
    from streamfp.gf2poly import find_irreducible
    from layers import layer_metrics, patched, subtree_self_time
    from spans import NullTracer, Tracer, self_times, write_jsonl

    make_field(workload.k)  # keep the cached field search out of both passes
    t0 = time.perf_counter()
    plain = workload.sequence(NullTracer())
    untraced_s = time.perf_counter() - t0
    workload.check_sequence(plain, checks)

    tr = Tracer(f"{workload.name}-{seed}")
    with patched(tr), tr.span(f"workload.{workload.name}") as root:
        traced = workload.sequence(tr)
    workload.check_sequence(traced, checks)

    with tr.span("probes") as probes:
        for _ in range(3):
            with tr.span("cli.startup"):
                call = cli.run(["--version"])
            checks.check(call.exit_code == 0, f"--version exit {call.exit_code}")
        for _ in range(3):
            with tr.span("gf2poly.find_irreducible", k=workload.k):
                found = find_irreducible.__wrapped__(workload.k)  # past the cache
            checks.check(found == make_field(workload.k).modulus, "find_irreducible repeat")
        workload.probes(tr, checks)

    selfs = self_times(tr.spans)
    for top in (root, probes):
        accounted = subtree_self_time(tr.spans, selfs, top)
        checks.check(abs(accounted - top.duration) <= 1e-9 * len(tr.spans) + 1e-12,
                     f"self times of {top.name} sum to {accounted}, span lasts {top.duration}")

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"trace-{workload.name}-{seed}.jsonl"
    write_jsonl(tr.spans, selfs, spans_path)

    metrics = layer_metrics(tr.spans, selfs, root.duration,
                            root.duration / untraced_s - 1)
    self_by_name: dict[str, float] = {}
    for sp in tr.spans:
        if sp.span_id != probes.span_id:
            self_by_name[sp.name] = self_by_name.get(sp.name, 0.0) + selfs[sp.span_id]
    detail = {
        "spans": len(tr.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_s": untraced_s,
        "traced_s": root.duration,
        "self_s_by_span": self_by_name,
        # the modelled stream state, next to the memory this process used
        "stream_peak_state_bits": metrics["stream.peak_state_bits"],
        "process_peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": checks.error_rate,
    }
    return metrics, detail


def main(argv=None, scale=None) -> int:
    from workloads import FULL, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "streamfp" / "cli.py").is_file():
        print(f"perfbench: no streamfp sources under {ROOT / 'src'}; "
              "run from a streamfp checkout", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)

    from layers import PER_LAYER
    from referee import Checks
    from workloads import Cli

    checks = Checks()
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        workload = WORKLOADS[args.workload](args.seed, scale or FULL, Path(tmp))
        cli = Cli(ROOT, Path(tmp))
        if args.trace:
            metrics, detail = run_traced(workload, cli, args.seed, checks)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, detail = run_timed(workload, cli, args.seconds, checks)
            units = dict(END_TO_END)

    for failure in checks.failures[:20]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "params": workload.params(),
        "detail": detail,
        "failures": checks.failures[:20],
    }, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
