"""Command line: fingerprint, sketch build|query|fp-rate, tally, irreducible.

Exit codes: 0 success (query: accept), 1 query reject, 2 I/O error,
3 precondition violation (bad arguments, out-of-range towers, a sketch
build over sketch.ENTRY_CAP), 5 acceptance-bound violation in a
rule-sized fp-rate run; 4 is unused and reserved.  Every report embeds
the resolved seed, k, the modulus hex, the tool version, and whether
the field came from the sizing rule.  The library returns results
without ``kind`` and ``tool``: ``_report`` adds both, and fingerprint's
record takes ``_TOOL`` alone.  File outputs are written atomically
(temp file, then rename).

No flag asks for what the inputs already give: ``sketch query`` streams
exactly the n bits its sketch records, and ``sketch fp-rate`` samples
points when given ``--a-samples`` and otherwise tries every point.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import stat
import sys

from ._version import __version__
from .field import DensityFn, make_field
from .gf2poly import IRREDUCIBLE_DEGREE_CAP
from .stream import _CHUNK_BLOCKS, Fingerprint, begin_seeded, encode_fingerprint

__all__ = ["main"]

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_IO = 2
EXIT_PRECONDITION = 3
EXIT_BOUND = 5  # 4 is unused and reserved


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    return int.from_bytes(os.urandom(8), "big")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_TOOL = {"name": "streamfp", "version": __version__}


def _report(kind: str, **fields) -> dict:
    """A command's JSON report: its kind, the tool, and its own fields."""
    return {"kind": kind, "tool": _TOOL, **fields}


def _write_output(text: str, path: str | None = None) -> None:
    if path is None or path == "-":
        if sys.stdout is None:  # fd 1 was closed when Python started
            raise OSError("stdout is closed")
        sys.stdout.write(text)
        return
    from ._atomic import write_atomic

    write_atomic(path, text.encode())


def _write_error(text: str = "") -> None:
    """Write text to stderr and flush it.  A closed fd 2 (sys.stderr is
    None) or a full one loses the text, never the exit code."""
    try:
        if sys.stderr is not None:
            sys.stderr.write(text)
            sys.stderr.flush()
    except OSError:
        pass


def _stream_input(args, n: int | None, start, *, n_name: str = "--n",
                  prefix: bool = True) -> Fingerprint:
    """Fingerprint --bits / --input / stdin (per --format) in one pass.

    n is the input length in bits; None takes it from the file.
    start(n) opens the stream once n is known; the input is then fed in
    fixed chunks and never held whole.  --bits is read as the text of a
    bits file.  Bits text must hold exactly n bits; raw input at least n,
    and exactly ceil(n/8) bytes unless prefix.  Errors name n as n_name.
    """
    sources = [s for s in (args.bits, args.input) if s is not None]
    if len(sources) != 1:
        raise ValueError("provide exactly one of --bits or --input")
    if args.bits is not None:
        return _stream_file(n, n_name, prefix, "bits",
                            io.BytesIO(os.fsencode(args.bits)), start)
    # Only a regular file's size is known before it is read.
    if n is None and (args.input == "-" or not stat.S_ISREG(os.stat(args.input).st_mode)):
        raise ValueError("streaming from stdin or a file that is not regular requires --n")
    if args.input == "-":
        return _stream_file(n, n_name, prefix, args.format, sys.stdin.buffer, start)
    with open(args.input, "rb") as fh:
        return _stream_file(n, n_name, prefix, args.format, fh, start)


def _checked_length(n: int) -> int:
    if n < 1:
        raise ValueError("input must hold at least one bit")
    return n


def _text_chunks(fh, size: int):
    """'0'/'1' text of a --format bits input, whitespace removed, by chunk."""
    for chunk in iter(lambda: fh.read(size), b""):
        yield b"".join(chunk.split()).decode("latin-1")


def _stream_file(n: int | None, n_name: str, prefix: bool, fmt: str, fh,
                 start) -> Fingerprint:
    if fmt == "raw":
        # Raw bytes pad to a multiple of 8; a prefix n selects leading bits.
        if n is None:
            n = 8 * os.fstat(fh.fileno()).st_size
        state = start(_checked_length(n))
        chunk_bytes = state.ctx.k * _CHUNK_BLOCKS
        while state.profile.bits_read < n:
            want = min(chunk_bytes, -(-(n - state.profile.bits_read) // 8))
            data = fh.read(want)
            state.feed_bytes(data, min(8 * len(data), n - state.profile.bits_read))
            if len(data) < want:
                raise ValueError(
                    f"{n_name} {n} exceeds the {state.profile.bits_read} bits available"
                )
        if not prefix and fh.read(1):
            raise ValueError(f"{n_name} {n} does not match the input, which holds more bits")
        return state.finish()
    if n is None:
        # A counting pass first: the field, and so k, depends on n.
        n = sum(len(text) for text in _text_chunks(fh, _CHUNK_BLOCKS * 64))
        fh.seek(0)
    state = start(_checked_length(n))
    seen = 0
    for text in _text_chunks(fh, state.ctx.k * _CHUNK_BLOCKS):
        seen += len(text)
        if seen > n:
            raise ValueError(f"{n_name} {n} does not match the input, which holds more bits")
        state.feed(text)
    if seen < n:
        raise ValueError(f"{n_name} {n} does not match the {seen} input bits")
    return state.finish()


def _language_from_args(args, seed: int):
    from .seeds import derive_seed
    from .sketch import make_language

    lang_seed = args.language_seed
    if lang_seed is None:
        lang_seed = derive_seed(seed, "language")
    return make_language(args.language, seed=lang_seed,
                         max_ones=args.max_ones, member=args.member)


def _ctx_override(args):
    if getattr(args, "k", None) is None:
        return None
    return make_field(args.k)


def _growth_from_arg(text: str | None, flag: str):
    from .tally import GrowthFn

    if text is None:
        raise ValueError(f"--validate and --construct need {flag}")
    try:
        return GrowthFn.from_json(json.loads(text))
    except RecursionError as exc:  # a JSONDecodeError is a ValueError already
        raise ValueError(f"{flag} is nested too deeply to parse") from exc


# The gap --padding-stable checks unless --gap names another: exp(2n).
_PADDING_STABLE_GAP = '{"family": "iter-exp", "params": {"scale": 2}}'


# ------------------------------------------------------------- commands

def _cmd_fingerprint(args) -> int:
    seed = _resolve_seed(args.seed)
    ctx = _ctx_override(args)
    rule_sized = ctx is None
    density = DensityFn.parse(args.f)

    def start(n):
        return begin_seeded(n, seed, ctx=ctx or make_field(density.field_size(n)))

    fp = _stream_input(args, args.n, start)
    record = fp.to_json_dict()
    record["rule_sized"] = rule_sized
    record["tool"] = _TOOL
    if args.tuple_bits:
        record["tuple_bits"] = encode_fingerprint(fp)
    _write_output(_dump_json(record), args.output)
    return EXIT_OK


def _cmd_sketch_build(args) -> int:
    from . import sketch as sketch_mod

    seed = _resolve_seed(args.seed)
    spec = _language_from_args(args, seed)
    sk = sketch_mod.build_sketch(spec, args.n, ctx=_ctx_override(args), source_seed=seed)
    sketch_mod.save_sketch(sk, args.output)
    header = sketch_mod.sketch_header(spec, sk.n, sk.ctx, sk.member_count,
                                      sk.rule_sized, seed)
    summary = _report("sketch-build", **header, output=args.output)
    _write_output(_dump_json(summary))
    return EXIT_OK


def _cmd_sketch_query(args) -> int:
    from . import sketch as sketch_mod

    seed = _resolve_seed(args.seed)
    sk = sketch_mod.load_sketch(args.sketch)

    # The same draw and test as sketch.query_membership, on streamed input
    # of exactly the sketch's n bits.
    fp = _stream_input(args, sk.n, lambda n: begin_seeded(n, seed, ctx=sk.ctx),
                       n_name="the sketch's n =", prefix=False)
    accepted = sketch_mod.contains(sk, fp)
    result = _report(
        "sketch-query",
        seed=seed,
        n=sk.n,
        k=sk.ctx.k,
        t_hex=sk.ctx.t_hex,
        rule_sized=sk.rule_sized,
        accepted=accepted,
    )
    _write_output(_dump_json(result))
    return EXIT_OK if accepted else EXIT_REJECT


def _fp_rate_exit(report: dict) -> int:
    if report["bound_checked"] and not report["bound_satisfied"]:
        return EXIT_BOUND
    return EXIT_OK


def _fp_rate_csv(report: dict) -> str:
    lines = ["index,accept_count,points,fraction"]
    pts = report["points_per_query"]
    for i, (c, f) in enumerate(
        zip(report["nonmember_accept_counts"], report["nonmember_fractions"])
    ):
        lines.append(f"{i},{c},{pts},{f}")
    return "\n".join(lines) + "\n"


def _cmd_sketch_fp_rate(args) -> int:
    from . import sketch as sketch_mod

    seed = _resolve_seed(args.seed)
    spec = _language_from_args(args, seed)
    report = _report("fp-rate", **sketch_mod.fp_rate_experiment(
        spec,
        args.n,
        trials=args.trials,
        seed=seed,
        ctx=_ctx_override(args),
        a_samples=args.a_samples,
    ))
    if args.report_format == "csv":
        _write_output(_fp_rate_csv(report), args.output)
    else:
        _write_output(_dump_json(report), args.output)
    return _fp_rate_exit(report)


def _cmd_tally(args) -> int:
    from . import tally as tally_mod

    if args.mode == "padding-stable":
        if args.n is None:
            raise ValueError("--padding-stable needs --n")
        g = _growth_from_arg(_PADDING_STABLE_GAP if args.gap is None else args.gap, "--gap")
        result = _report(
            "tally-padding-stable",
            gap=g.describe(),
            n=args.n,
            cap_bits=tally_mod.CAP_BITS,
            stable=tally_mod.is_padding_stable_at(g, args.n),
        )
    elif args.mode == "validate":
        if not args.lengths:
            raise ValueError("--validate needs --lengths")
        lengths = tally_mod.as_tally(int(x) for x in args.lengths.split(","))
        d = _growth_from_arg(args.density, "--density")
        g = _growth_from_arg(args.gap, "--gap")
        check = tally_mod.validate_tally(lengths, d, g)
        result = _report(
            "tally-validate",
            lengths=tally_mod.tally_to_json(lengths),
            density=d.describe(),
            gap=g.describe(),
            cap_bits=tally_mod.CAP_BITS,
            ok=check.ok,
            violation=check.violation,
            witness=list(check.witness) if check.witness else None,
        )
    else:
        d = _growth_from_arg(args.density, "--density")
        g = _growth_from_arg(args.gap, "--gap")
        lengths = tally_mod.construct_lengths(d, g, args.count)
        result = _report(
            "tally-construct",
            density=d.describe(),
            gap=g.describe(),
            count=args.count,
            cap_bits=tally_mod.CAP_BITS,
            lengths=[str(x) for x in lengths],
        )
    _write_output(_dump_json(result), args.output)
    return EXIT_OK


def _cmd_irreducible(args) -> int:
    if not 1 <= args.k <= IRREDUCIBLE_DEGREE_CAP:
        raise ValueError(f"--k must be in 1..{IRREDUCIBLE_DEGREE_CAP}")
    _write_output(make_field(args.k).t_hex + "\n")
    return EXIT_OK


# --------------------------------------------------------------- parser

def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bits", default=None, help="inline bit string input")
    p.add_argument("--input", default=None, help="input path, or - for stdin")
    p.add_argument(
        "--format",
        choices=("bits", "raw"),
        default="bits",
        help="file/stdin payload: '01' text or raw bytes (MSB of each byte first)",
    )


def _add_language_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--language", default="seeded-random",
                   help="seeded-random (default), low-weight, singleton or empty")
    p.add_argument("--language-seed", type=int, default=None,
                   help="seed of a seeded-random language (default: derived from --seed)")
    p.add_argument("--max-ones", type=int, default=None, help="low-weight bound")
    p.add_argument("--member", default=None, help="singleton member bit string")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_PRECONDITION; argparse's own code, 2, is EXIT_IO."""

    def _print_message(self, message, file=None):
        # Only --help and --version print here, to stdout.  argparse would drop
        # a failed write and send a closed stdout's text to stderr.
        _write_output(message)

    def error(self, message):
        # Not print_usage(sys.stderr): given None, for a closed fd 2, it prints to stdout.
        _write_error(f"{self.format_usage()}{self.prog}: error: {message}\n")
        sys.exit(EXIT_PRECONDITION)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="streamfp",
        description="One-pass GF(2^k) fingerprints and sparse-set membership sketches",
    )
    ap.add_argument("--version", action="version", version=f"streamfp {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fingerprint", help="fingerprint a bit stream")
    p.add_argument("--n", type=int, default=None, help="input length in bits")
    _add_input_flags(p)
    p.add_argument("--f", default="linear",
                   help="density family for field sizing: linear, constant:c, power:p/q")
    p.add_argument("--k", type=int, default=None, help="field override (skips sizing rule)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tuple-bits", action="store_true",
                   help="include the self-delimiting tuple bit encoding")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("sketch", help="membership sketches")
    ssub = p.add_subparsers(dest="sketch_command", required=True)

    b = ssub.add_parser("build", help="build and save a sketch")
    _add_language_flags(b)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--k", type=int, default=None, help="field override (skips sizing rule)")
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--output", required=True, help="sketch file (.spsk)")
    b.set_defaults(func=_cmd_sketch_build)

    qp = ssub.add_parser("query", help="one random-point membership query")
    qp.add_argument("--sketch", required=True)
    _add_input_flags(qp)
    qp.add_argument("--seed", type=int, default=None)
    qp.set_defaults(func=_cmd_sketch_query)

    fr = ssub.add_parser("fp-rate", help="nonmember acceptance-rate experiment")
    _add_language_flags(fr)
    fr.add_argument("--n", type=int, required=True)
    fr.add_argument("--trials", type=int, required=True, help="number of nonmembers")
    fr.add_argument("--a-samples", type=int, default=None,
                    help="sample this many points per query (default: every point)")
    fr.add_argument("--k", type=int, default=None, help="field override (skips sizing rule)")
    fr.add_argument("--seed", type=int, default=None)
    fr.add_argument("--report-format", choices=("json", "csv"), default="json")
    fr.add_argument("--output", default=None)
    fr.set_defaults(func=_cmd_sketch_fp_rate)

    p = sub.add_parser("tally", help="tally-set density/gap checks")
    modes = p.add_mutually_exclusive_group(required=True)
    for mode in ("padding-stable", "validate", "construct"):
        modes.add_argument(f"--{mode}", action="store_const", dest="mode", const=mode)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--lengths", default=None, help="comma-separated member lengths")
    p.add_argument("--density", default=None, help='JSON {"family", "depth", "params"}')
    p.add_argument("--gap", default=None,
                   help='JSON {"family", "depth", "params"} (--padding-stable default: '
                        f'{_PADDING_STABLE_GAP})')
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_tally)

    p = sub.add_parser("irreducible", help="deterministic irreducible modulus, as hex")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_irreducible)

    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:
        _write_error(f"streamfp: {exc}\n")
        return EXIT_IO
    except (ValueError, ZeroDivisionError) as exc:  # tally's OutOfRangeError too
        _write_error(f"streamfp: {exc}\n")
        return EXIT_PRECONDITION
    except MemoryError as exc:  # a size too large to hold
        _write_error(f"streamfp: {str(exc) or 'out of memory'}\n")
        return EXIT_PRECONDITION


def console():
    """Entry point of a CLI process: ``python -m streamfp.cli`` and the
    ``streamfp`` script.  streamfp calls no BLAS routine, so OpenBLAS is
    kept from starting a thread pool when numpy loads, unless the user
    has set OPENBLAS_NUM_THREADS.

    Once main() returns, or argparse exits with its code (--version,
    --help, usage errors), the process flushes its output and ends with
    os._exit, skipping the interpreter's teardown (18 to 38 ms a call,
    most of it freeing modules).  A stdout that cannot take the
    output, such as a full disk, a closed pipe or a closed fd 1, is an I/O
    error like any other.  A stderr that is closed or cannot take an
    error line loses the line, never the exit code.  An uncaught
    exception leaves the normal way, so a bug still prints its traceback."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = main()
    except SystemExit as exc:  # argparse's exits, always with an int code
        code = exc.code
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_IO:  # main() has reported a failed write already
            _write_error(f"streamfp: {exc}\n")
        code = EXIT_IO
    _write_error()  # flushes whatever else went to stderr
    os._exit(code)


if __name__ == "__main__":
    console()
