"""The three workloads: generated inputs, the timed CLI loop, the in-process
sequence the traced run repeats, and the checks on every output.

Every workload is a closed loop with one client: the next CLI call starts
only after the previous child has exited.  A call's time is the wall time
from spawning `python -m streamfp.cli` to reaping it, and its memory is
that child's own ru_maxrss from os.wait4.  After a minimum number of
calls, the loop starts another only while its expected end (the median of
its kind so far) stays inside the run's window.

Set-up is the untimed warm-up: every command the workload times, once, on
a small input in the same field, so work a program moves into first use
(disk caches, tables, compilation) shows in setup_s.  It is repeated
SETUP_REPS times and setup_s is the median.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from referee import (
    Checks,
    HornerReferee,
    draw_point,
    expected_accept,
    raw_segments,
    rule_k,
)

__all__ = ["Scale", "FULL", "SETUP_REPS", "Cli", "Samples", "WORKLOADS", "derive", "quantile75"]

# a hung child is killed, and counted as failed, well inside a run's 180 s
CALL_TIMEOUT_S = 120.0
SETUP_REPS = 3
WARM_N = 4             # string length of the sketch set-up calls
MIN_CALLS = 2          # repeated calls per run, whatever the window
# sketch-serve rebuilds its file every this many queries, so each run
# times several builds as well as the queries
QUERIES_PER_BUILD = 8
TRACE_QUERIES = 8      # queries in the traced in-process sequence


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, tests use smaller ones."""

    raw_bytes: int = 1 << 20   # stream-raw input
    serve_n: int = 32          # sketch-serve string length
    fp_n: int = 64             # fp-rate string length
    fp_trials: int = 50
    warm_raw_bytes: int = 4096  # stream-raw set-up input


FULL = Scale()


def derive(seed: int, *labels) -> int:
    """A 63-bit child seed of the benchmark seed; the same labels give the
    same value on every platform."""
    text = "perfbench/" + "/".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


@dataclass
class Call:
    seconds: float
    rss_kib: int
    exit_code: int
    stdout: bytes

    def json(self) -> dict | None:
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None


class Cli:
    """Runs the real CLI as child processes, one at a time."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, args: list[str]) -> Call:
        out_path = self.workdir / "cli.stdout"
        err_path = self.workdir / "cli.stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "streamfp.cli", *args],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                cwd=self.root, env=self.env,
            )
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
        return Call(seconds, usage.ru_maxrss, proc.returncode, stdout)


@dataclass
class Samples:
    """What one timed run measured.  Each cycle of the loop opens with a
    lead call; where a workload has one command, every call is both."""

    setup_s: list[float] = field(default_factory=list)
    lead: list[Call] = field(default_factory=list)
    repeated: list[Call] = field(default_factory=list)

    @property
    def timed(self) -> list[Call]:
        if self.lead is self.repeated:
            return list(self.repeated)
        return self.lead + self.repeated


def closed_loop(cli: Cli, seconds: float, calls, min_calls: int,
                start: float) -> list[tuple[str, Call]]:
    """Run (kind, args) calls in turn until the next one, expected to last
    as long as the median of its kind so far, would end past the window."""
    done: list[tuple[str, Call]] = []
    for kind, args in calls:
        if len(done) >= min_calls:
            same = [c.seconds for k, c in done if k == kind]
            expected = statistics.median(same) if same else 0.0
            if time.perf_counter() - start + expected > seconds:
                break
        done.append((kind, cli.run(args)))
    return done


def _fields_match(rec: dict | None, **expected) -> bool:
    return rec is not None and all(rec.get(key) == value for key, value in expected.items())


def _hex(rec: dict, key: str) -> int | None:
    try:
        return int(rec[key], 16)
    except (KeyError, TypeError, ValueError):
        return None


# ----------------------------------------------------------- stream-raw

class StreamRaw:
    """`fingerprint --format raw` on a seeded random file."""

    name = "stream-raw"

    def __init__(self, seed: int, scale: Scale, tmp: Path):
        from streamfp.field import make_field

        self.n = 8 * scale.raw_bytes
        self.k = rule_k(self.n, self.n)
        self.modulus = make_field(self.k).modulus.bits
        self.data = random.Random(derive(seed, "raw")).randbytes(scale.raw_bytes)
        self.path = tmp / "input.bin"
        self.path.write_bytes(self.data)
        self.cli_seed = derive(seed, "fingerprint")
        self.a = draw_point(self.cli_seed, self.k)
        self.segments = raw_segments(self.data, self.n, self.k)
        self.expected_v = HornerReferee(self.k, self.modulus, self.a).fold(self.segments)

        warm = random.Random(derive(seed, "warm-raw")).randbytes(scale.warm_raw_bytes)
        self.warm_path = tmp / "warm.bin"
        self.warm_path.write_bytes(warm)
        self.warm_n = 8 * len(warm)
        self.warm_seed = derive(seed, "warm-fingerprint")
        self.warm_a = draw_point(self.warm_seed, self.k)
        self.warm_v = HornerReferee(self.k, self.modulus, self.warm_a).fold(
            raw_segments(warm, self.warm_n, self.k))

    def params(self) -> dict:
        return {"n": self.n, "k": self.k, "segments": len(self.segments),
                "bytes": len(self.data)}

    def _args(self) -> list[str]:
        return ["fingerprint", "--format", "raw", "--input", str(self.path),
                "--n", str(self.n), "--seed", str(self.cli_seed)]

    def _check(self, checks: Checks, call: Call, n: int, a: int, v: int) -> None:
        rec = call.json()
        ok = (call.exit_code == 0
              and _fields_match(rec, n=n, k=self.k)
              and _hex(rec, "t_hex") == self.modulus
              and _hex(rec, "a_hex") == a
              and _hex(rec, "v_hex") == v)
        checks.check(ok, f"fingerprint n={n}: exit {call.exit_code}, record {rec}")

    def setup(self, cli: Cli, checks: Checks) -> None:
        call = cli.run(["fingerprint", "--format", "raw", "--input", str(self.warm_path),
                        "--n", str(self.warm_n), "--k", str(self.k),
                        "--seed", str(self.warm_seed)])
        self._check(checks, call, self.warm_n, self.warm_a, self.warm_v)

    def timed(self, cli: Cli, seconds: float, samples: Samples, checks: Checks) -> None:
        start = time.perf_counter()
        done = closed_loop(cli, seconds, itertools.repeat(("fingerprint", self._args())),
                           MIN_CALLS, start)
        samples.repeated = samples.lead = [call for _, call in done]
        for call in samples.repeated:
            self._check(checks, call, self.n, self.a, self.expected_v)

    def named_metrics(self, samples: Samples) -> dict:
        secs = [c.seconds for c in samples.repeated]
        return {"fingerprint_mbit_s": (self.n / statistics.median(secs) / 1e6, "Mbit/s", len(secs))}

    # in-process sequence: what `fingerprint --format raw` runs, in order
    def sequence(self, tr) -> dict:
        from streamfp import sketch, stream

        with tr.span("cli.read_input", bytes=len(self.data)):
            data = self.path.read_bytes()
        bits = stream.bits_from_bytes(data)
        f_of_n = sketch.DensityFn.parse("linear").eval(self.n)
        fp = stream.fingerprint(self.n, bits, seed=self.cli_seed, f_of_n=f_of_n)
        return {"fp": fp}

    def check_sequence(self, out: dict, checks: Checks) -> None:
        fp = out["fp"]
        checks.check(fp.k == self.k and fp.a == self.a and fp.v == self.expected_v,
                     f"in-process fingerprint: k={fp.k} a={fp.a:x} v={fp.v:x}")

    def probes(self, tr, checks: Checks) -> None:
        import numpy as np
        from streamfp import kernels
        from streamfp.field import make_field

        ctx = make_field(self.k)
        rng = random.Random(self.cli_seed)
        pairs = [(rng.getrandbits(self.k), rng.getrandbits(self.k)) for _ in range(20000)]
        mul = ctx.mul
        with tr.span("field.mul", calls=len(pairs)):
            for x, y in pairs:
                mul(x, y)
        bits = "".join(format(b, "08b") for b in self.data[:25000])
        seg_strs = [bits[i:i + self.k] for i in range(0, len(bits) - self.k + 1, self.k)]
        with tr.span("field.from_segment", calls=len(seg_strs)):
            for s in seg_strs:
                ctx.from_segment(s)
        count = min(len(self.segments), 8192)
        segs = np.array(self.segments[:count], dtype=np.uint64)
        with tr.span("kernels.fold_segments", bits=count * self.k):
            v = kernels.fold_segments(segs, self.a, ctx.m_low, self.k)
        ref = HornerReferee(self.k, self.modulus, self.a).fold(self.segments[:count])
        checks.check(int(v) == ref, f"kernels.fold_segments over {count} segments")


# --------------------------------------------------------- sketch-serve

@dataclass(frozen=True)
class Query:
    bits: str
    seed: int
    member: bool


class SketchServe:
    """`sketch build`, then single `sketch query` calls on the file it wrote."""

    name = "sketch-serve"

    def __init__(self, seed: int, scale: Scale, tmp: Path):
        from streamfp.field import make_field
        from streamfp.sketch import make_language

        self.seed = seed
        self.n = scale.serve_n
        self.k = rule_k(self.n, self.n)
        self.ctx = make_field(self.k)
        self.lang_seed = derive(seed, "language")
        self.build_seed = derive(seed, "build")
        self.members = make_language("seeded-random", seed=self.lang_seed).enumerator(self.n)
        self.member_set = set(self.members)
        self.path = tmp / "sketch.spsk"

        self.warm_lang_seed = derive(seed, "warm-language")
        self.warm_members = make_language(
            "seeded-random", seed=self.warm_lang_seed).enumerator(WARM_N)
        self.warm_path = tmp / "warm.spsk"

    def params(self) -> dict:
        q = 1 << self.k
        return {"n": self.n, "k": self.k, "q": q, "members": len(self.members),
                "max_entries": q * len(self.members)}

    def queries(self):
        """Members and uniform non-members in turn, each with its own seed."""
        rng = random.Random(derive(self.seed, "queries"))
        for i in itertools.count():
            if i % 2 == 0:
                x = self.members[rng.randrange(len(self.members))]
            else:
                x = format(rng.getrandbits(self.n), f"0{self.n}b")
                while x in self.member_set:
                    x = format(rng.getrandbits(self.n), f"0{self.n}b")
            yield Query(x, derive(self.seed, "query", i), i % 2 == 0)

    def _build_args(self, n: int, path: Path, lang_seed: int, extra=()) -> list[str]:
        return ["sketch", "build", "--n", str(n), *extra, "--language-seed", str(lang_seed),
                "--seed", str(self.build_seed), "--output", str(path)]

    def _query_args(self, path: Path, q: Query) -> list[str]:
        return ["sketch", "query", "--sketch", str(path), "--bits", q.bits,
                "--seed", str(q.seed)]

    def _check_build(self, checks: Checks, call: Call, n: int, members: int) -> None:
        rec = call.json()
        q = 1 << self.k
        ok = (call.exit_code == 0
              and _fields_match(rec, n=n, k=self.k, q=q, member_count=members)
              and 0 < rec.get("entry_count", 0) <= q * members)
        checks.check(ok, f"sketch build n={n}: exit {call.exit_code}, summary {rec}")

    def _check_query(self, checks: Checks, call: Call, q: Query, n: int, accept: bool) -> None:
        rec = call.json()
        ok = (_fields_match(rec, n=n, k=self.k, accepted=accept)
              and call.exit_code == (0 if accept else 1))
        checks.check(ok, f"sketch query {q}: expected accept={accept}, "
                         f"exit {call.exit_code}, result {rec}")

    def expected(self, q: Query) -> bool:
        from streamfp.stream import direct_eval

        if q.member:
            return True
        a = draw_point(q.seed, self.k)
        return expected_accept(self.ctx, self.members, q.bits, a, direct_eval)

    def setup(self, cli: Cli, checks: Checks) -> None:
        wn = WARM_N
        build = cli.run(self._build_args(wn, self.warm_path, self.warm_lang_seed,
                                         ("--k", str(self.k))))
        self._check_build(checks, build, wn, len(self.warm_members))
        q = Query(self.warm_members[0], derive(self.seed, "warm-query"), True)
        self._check_query(checks, cli.run(self._query_args(self.warm_path, q)), q, wn, True)

    def timed(self, cli: Cli, seconds: float, samples: Samples, checks: Checks) -> None:
        start = time.perf_counter()
        build = self._build_args(self.n, self.path, self.lang_seed)
        queries: list[Query] = []

        def calls():
            for i, q in enumerate(self.queries()):
                if i % QUERIES_PER_BUILD == 0:
                    yield "build", build
                queries.append(q)
                yield "query", self._query_args(self.path, q)

        done = closed_loop(cli, seconds, calls(), 1 + MIN_CALLS, start)
        samples.lead = [call for kind, call in done if kind == "build"]
        samples.repeated = [call for kind, call in done if kind == "query"]
        for call in samples.lead:
            self._check_build(checks, call, self.n, len(self.members))
        for call, q in zip(samples.repeated, queries):
            self._check_query(checks, call, q, self.n, self.expected(q))

    def named_metrics(self, samples: Samples) -> dict:
        ms = [c.seconds * 1e3 for c in samples.repeated]
        return {
            "build_s": (statistics.fmean(c.seconds for c in samples.lead), "s",
                        len(samples.lead)),
            "query_p50_ms": (statistics.median(ms), "ms", len(ms)),
            "query_p75_ms": (quantile75(ms), "ms", len(ms)),
        }

    # in-process sequence: `sketch build`, then load + query per `sketch query`
    def sequence(self, tr) -> dict:
        from streamfp import sketch

        spec = sketch.make_language("seeded-random", seed=self.lang_seed)
        if tr.enabled:
            spec = _traced_enumerator(tr, spec)
        sk = sketch.build_sketch(spec, self.n, source_seed=self.build_seed)
        sketch.save_sketch(sk, str(self.path))
        answers = []
        for q in itertools.islice(self.queries(), TRACE_QUERIES):
            loaded = sketch.load_sketch(str(self.path))
            answers.append((q, sketch.query_membership(loaded, q.bits, q.seed)))
        return {"entries": sk.size, "answers": answers}

    def check_sequence(self, out: dict, checks: Checks) -> None:
        q = 1 << self.k
        checks.check(0 < out["entries"] <= q * len(self.members),
                     f"in-process build: {out['entries']} entries")
        for query, accepted in out["answers"]:
            checks.check(accepted == self.expected(query), f"in-process query {query}")

    def probes(self, tr, checks: Checks) -> None:
        _mulmod_probe(tr, self.k, self.build_seed)


# -------------------------------------------------------------- fp-rate

class FpRate:
    """`sketch fp-rate` in exhaustive mode, repeated with one seed."""

    name = "fp-rate"

    def __init__(self, seed: int, scale: Scale, tmp: Path):
        self.n = scale.fp_n
        self.trials = scale.fp_trials
        self.k = rule_k(self.n, self.n)
        self.lang_seed = derive(seed, "language")
        self.cli_seed = derive(seed, "fp-rate")
        self.warm_lang_seed = derive(seed, "warm-language")

    def params(self) -> dict:
        q = 1 << self.k
        return {"n": self.n, "k": self.k, "q": q, "members": self.n,
                "trials": self.trials, "max_entries": q * self.n,
                "sweeps": 2 * self.n + self.trials}

    def _args(self, n: int, trials: int, lang_seed: int, extra=()) -> list[str]:
        return ["sketch", "fp-rate", "--n", str(n), "--trials", str(trials), *extra,
                "--language-seed", str(lang_seed), "--seed", str(self.cli_seed)]

    def check_report(self, checks: Checks, rep: dict | None, n: int, trials: int,
                     rule_sized: bool, what: str) -> None:
        r = -(-n // self.k)
        ok = _fields_match(rep, n=n, k=self.k, nonmember_count=trials, member_count=n)
        if ok:
            members = rep.get("member_fractions", [])
            counts = rep.get("nonmember_accept_counts", [])
            ok = (len(members) == n and all(f == 1.0 for f in members)
                  and len(counts) == trials and all(c <= (r - 1) * n for c in counts)
                  and (not rule_sized or rep.get("bound_satisfied") is True))
        checks.check(ok, f"{what}: report {str(rep)[:300]}")

    def setup(self, cli: Cli, checks: Checks) -> None:
        wn = WARM_N
        call = cli.run(self._args(wn, 1, self.warm_lang_seed, ("--k", str(self.k))))
        checks.check(call.exit_code == 0, f"warm fp-rate exit {call.exit_code}")
        self.check_report(checks, call.json(), wn, 1, False, "warm fp-rate")

    def timed(self, cli: Cli, seconds: float, samples: Samples, checks: Checks) -> None:
        start = time.perf_counter()
        args = self._args(self.n, self.trials, self.lang_seed)
        done = closed_loop(cli, seconds, itertools.repeat(("fp-rate", args)),
                           MIN_CALLS, start)
        samples.repeated = samples.lead = [call for _, call in done]
        for call in samples.repeated:
            checks.check(call.exit_code == 0, f"fp-rate exit {call.exit_code}")
            self.check_report(checks, call.json(), self.n, self.trials, True, "fp-rate")
            checks.check(call.stdout == samples.repeated[0].stdout,
                         "fp-rate report bytes differ between calls with one seed")

    def named_metrics(self, samples: Samples) -> dict:
        secs = [c.seconds for c in samples.repeated]
        return {"fp_rate_s": (statistics.median(secs), "s", len(secs))}

    def sequence(self, tr) -> dict:
        from streamfp import sketch

        spec = sketch.make_language("seeded-random", seed=self.lang_seed)
        if tr.enabled:
            spec = _traced_enumerator(tr, spec)
        return {"report": sketch.fp_rate_experiment(spec, self.n, self.trials, self.cli_seed)}

    def check_sequence(self, out: dict, checks: Checks) -> None:
        self.check_report(checks, out["report"], self.n, self.trials, True, "in-process fp-rate")

    def probes(self, tr, checks: Checks) -> None:
        _mulmod_probe(tr, self.k, self.cli_seed)


# --------------------------------------------------------------- shared

def quantile75(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def _traced_enumerator(tr, spec):
    import dataclasses

    return dataclasses.replace(spec, enumerator=tr.wrap(
        "sketch.enumerate", spec.enumerator, lambda args, out: {"members": len(out)}))


def _mulmod_probe(tr, k: int, seed: int, reps: int = 5) -> None:
    import numpy as np
    from streamfp import kernels
    from streamfp.field import make_field

    ctx = make_field(k)
    q = ctx.q
    gen = np.random.Generator(np.random.PCG64(seed))
    x = np.arange(q, dtype=np.uint64)
    y = gen.integers(0, q, size=q, dtype=np.uint64)
    for _ in range(reps):
        with tr.span("kernels.mulmod", elements=q):
            kernels.mulmod(x, y, ctx.m_low, k)


WORKLOADS = {w.name: w for w in (StreamRaw, SketchServe, FpRate)}
