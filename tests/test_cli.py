"""Command-line surface: subcommand behavior, report shapes, input
formats, and the exit-code contract."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import stat
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from streamfp import cli
from streamfp.cli import (
    EXIT_BOUND,
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_REJECT,
    _fp_rate_exit,
    main,
)


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv: str):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


# -------------------------------------------------------------- irreducible

def test_irreducible_frozen(capsys):
    code, out, _ = run_cli(capsys, "irreducible", "--k", "4")
    assert code == EXIT_OK
    assert out.strip() == "0x13"


def test_irreducible_rejects_bad_k(capsys):
    code, _, err = run_cli(capsys, "irreducible", "--k", "0")
    assert code == EXIT_PRECONDITION
    assert "--k" in err


# -------------------------------------------------------------- fingerprint

def test_fingerprint_reproducible(capsys):
    r1 = run_json(capsys, "fingerprint", "--bits", "1011", "--seed", "7")
    r2 = run_json(capsys, "fingerprint", "--bits", "1011", "--seed", "7")
    assert r1 == r2
    assert r1["n"] == 4
    assert r1["k"] == 8  # linear density: (8*4*4).bit_length()
    assert r1["rule_sized"] is True
    assert r1["seed"] == 7
    assert set(r1) >= {"n", "k", "t_hex", "a_hex", "v_hex", "seed", "tool"}


def test_fingerprint_reports_fresh_seed(capsys):
    r = run_json(capsys, "fingerprint", "--bits", "1011")
    assert isinstance(r["seed"], int)


def test_negative_seed_exits_3(capsys, tmp_path):
    # random.Random uses |seed|, so -s would silently replay s's point.
    code, out, err = run_cli(capsys, "fingerprint", "--bits", "1011", "--seed", "-1")
    assert code == EXIT_PRECONDITION and out == ""
    assert "seed must be >= 0" in err
    path = os.fspath(tmp_path / "s.spsk")
    run_json(capsys, "sketch", "build", "--language", "singleton", "--member", "1011",
             "--n", "4", "--seed", "3", "--output", path)
    code, out, err = run_cli(capsys, "sketch", "query", "--sketch", path,
                             "--bits", "1011", "--seed", "-11")
    assert code == EXIT_PRECONDITION and out == ""
    assert "seed must be >= 0" in err
    code, out, _ = run_cli(capsys, "sketch", "query", "--sketch", path,
                           "--bits", "1011", "--seed", "0")
    assert code == EXIT_OK and json.loads(out)["seed"] == 0


@pytest.mark.parametrize("flags, message", [
    (["--bits", "1011", "--seed", "-1"], "seed must be >= 0"),
    (["--bits", "1011", "--input", "in.bin", "--seed", "1"],
     "provide exactly one of --bits or --input"),
    (["--seed", "1"], "provide exactly one of --bits or --input"),
], ids=["negative-seed", "bits-and-input", "no-input"])
def test_sketch_query_refuses_bad_arguments_before_reading_the_sketch(monkeypatch, capsys,
                                                                      tmp_path, flags, message):
    # A refusal the arguments alone decide costs no read or hash of the sketch.
    from streamfp import spsk

    def unread(path):
        raise AssertionError(f"{path} was loaded")

    monkeypatch.setattr(spsk, "load_sketch", unread)
    assert run_cli(capsys, "sketch", "query", "--sketch", os.fspath(tmp_path / "s.spsk"),
                   *flags) == (EXIT_PRECONDITION, "", f"streamfp: {message}\n")


def test_fingerprint_tuple_bits(capsys):
    r = run_json(capsys, "fingerprint", "--bits", "1011", "--seed", "7", "--tuple-bits")
    assert set(r["tuple_bits"]) <= {"0", "1"}
    # Coding overhead: 2*(|binary n| + 2k) + 4.
    assert len(r["tuple_bits"]) == 2 * (3 + 2 * r["k"]) + 4


def test_fingerprint_field_override(capsys):
    r = run_json(capsys, "fingerprint", "--bits", "1011", "--seed", "7", "--k", "2")
    assert r["k"] == 2
    assert r["rule_sized"] is False
    assert r["v_hex"] in {"0", "1", "2", "3"}


@pytest.mark.parametrize("argv, message", [
    (["fingerprint", "--bits", "1011", "--f", "power:1000000000/1"], "k would exceed 1024"),
    (["sketch", "build", "--n", "20000", "--language", "low-weight", "--max-ones", "20000",
      "--output", "x.spsk"], "got k = 20018"),
], ids=["power", "binomial-sum"])
def test_a_field_too_large_is_refused_without_computing_all_of_f_n(tmp_path, capsys,
                                                                   monkeypatch, argv, message):
    # Neither 4^(10^9) nor 20001 separate binomials: each refusal takes well under 2 s.
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (EXIT_PRECONDITION, "") and message in err
    assert os.listdir(tmp_path) == []


def test_fingerprint_density_families(capsys):
    r = run_json(capsys, "fingerprint", "--bits", "10110101", "--seed", "1",
                 "--f", "constant:1")
    assert r["k"] == 7  # (8*1*8).bit_length()


def test_zero_density_sizes_fingerprint_and_sketch_alike(tmp_path, capsys):
    # A density of 0 sizes as f = 1 everywhere, so --f constant:0 makes a
    # fingerprint in the field of the empty language's sketch.
    fp = run_json(capsys, "fingerprint", "--bits", "1011", "--f", "constant:0",
                  "--seed", "1")
    sk = run_json(capsys, "sketch", "build", "--language", "empty", "--n", "4",
                  "--seed", "1", "--output", os.fspath(tmp_path / "empty.spsk"))
    assert fp["k"] == sk["k"] == 6
    assert fp["t_hex"] == sk["t_hex"] and fp["rule_sized"] is True


# SHA-256 of the stdout of `fingerprint --format raw --seed 2` on 300 KB of
# random.Random(300) bytes, pinned from the segment register kept as '0'/'1'
# text: k = 1 folds single bits, 14 and 50 cross byte boundaries, 64 is the
# word tier's edge and 65 and 100 are on the big-int tier.
@pytest.mark.parametrize("k, digest", [
    (1, "4f2e987b6da69cb7e983ef44f7769ddd4a79487b32f15442e209fd78f2eae24f"),
    (14, "39f3dfbd8c7933ebf4d7ebe4138b8e4b7bc974ef10e0320fdc1e9568b7616b3f"),
    (50, "9f07f8a6918e04737b03fd9dec1874482bb2ad15a2ed42e2db7d6edfd9624e02"),
    (64, "14022e918eaac0d33f89edd8595afb482b5084eea50321b2451ec552a95c7f2d"),
    (65, "e92a3b0d05b2684ba45236e47fb8fc79265693ded09fca97bfb8a4eb93bcaa8b"),
    (100, "80ae1383b43881c7f48fcc38c825567b9bd09df3562880f364cec453aac3e45b"),
])
def test_raw_fingerprint_stdout_is_pinned(tmp_path, capsys, k, digest):
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(300).randbytes(300_000))
    code, out, _ = run_cli(capsys, "fingerprint", "--format", "raw", "--input",
                           os.fspath(src), "--k", str(k), "--seed", "2")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fingerprint_file_and_output(tmp_path, capsys):
    src = tmp_path / "input.txt"
    src.write_text("10 11\n")
    dst = tmp_path / "fp.json"
    code, out, _ = run_cli(capsys, "fingerprint", "--input", os.fspath(src),
                           "--seed", "7", "--output", os.fspath(dst))
    assert code == EXIT_OK and out == ""
    assert json.loads(dst.read_text())["n"] == 4


def test_fingerprint_raw_format(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(b"\xb0")
    r = run_json(capsys, "fingerprint", "--input", os.fspath(src),
                 "--format", "raw", "--n", "4", "--seed", "7")
    r2 = run_json(capsys, "fingerprint", "--bits", "1011", "--seed", "7")
    assert r["v_hex"] == r2["v_hex"]


def test_outputs_get_the_mode_plain_open_gives(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        plain = tmp_path / "plain"
        plain.write_text("")
        fp = tmp_path / "fp.json"
        sk = tmp_path / "s.spsk"
        code, _, _ = run_cli(capsys, "fingerprint", "--bits", "1011", "--seed", "7",
                             "--output", os.fspath(fp))
        assert code == EXIT_OK
        run_json(capsys, "sketch", "build", "--language", "singleton", "--member", "1011",
                 "--n", "4", "--seed", "1", "--output", os.fspath(sk))
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(p.stat().st_mode) for p in (plain, fp, sk)}
    assert modes == {0o640}


def test_fingerprint_input_errors(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "fingerprint", "--input", "/does/not/exist")
    assert code == EXIT_IO
    code, _, err = run_cli(capsys, "fingerprint", "--bits", "10", "--n", "3")
    assert code == EXIT_PRECONDITION and "does not match" in err
    code, _, _ = run_cli(capsys, "fingerprint", "--bits", "012")
    assert code == EXIT_PRECONDITION
    code, _, _ = run_cli(capsys, "fingerprint")
    assert code == EXIT_PRECONDITION
    code, _, _ = run_cli(capsys, "fingerprint", "--bits", "1011",
                         "--input", os.fspath(tmp_path))
    assert code == EXIT_PRECONDITION


def test_fingerprint_stdin():
    proc = subprocess.run(
        [sys.executable, "-m", "streamfp.cli", "fingerprint", "--input", "-",
         "--n", "4", "--seed", "7"],
        input=b"1011",
        capture_output=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["n"] == 4


def test_stdin_requires_n():
    proc = subprocess.run(
        [sys.executable, "-m", "streamfp.cli", "fingerprint", "--input", "-"],
        input=b"1011",
        capture_output=True,
    )
    assert proc.returncode == EXIT_PRECONDITION


def test_raw_n_beyond_file_exits_3_without_output(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(b"\xb0\x01")
    dst = tmp_path / "fp.json"
    code, out, err = run_cli(capsys, "fingerprint", "--input", os.fspath(src),
                             "--format", "raw", "--n", "17", "--seed", "7",
                             "--output", os.fspath(dst))
    assert code == EXIT_PRECONDITION and out == ""
    assert "exceeds the 16 bits available" in err
    assert not dst.exists()


def test_raw_n_beyond_stdin_exits_3_without_output(tmp_path):
    dst = tmp_path / "fp.json"
    proc = subprocess.run(
        [sys.executable, "-m", "streamfp.cli", "fingerprint", "--input", "-",
         "--format", "raw", "--n", str(8 * 5000 + 1), "--seed", "7",
         "--output", os.fspath(dst)],
        input=bytes(5000),
        capture_output=True,
    )
    assert proc.returncode == EXIT_PRECONDITION
    assert b"exceeds the 40000 bits available" in proc.stderr
    assert proc.stdout == b"" and not dst.exists()


def test_raw_file_length_from_the_file(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(b"\xb0\x01")
    r = run_json(capsys, "fingerprint", "--input", os.fspath(src), "--format", "raw",
                 "--seed", "7")
    r2 = run_json(capsys, "fingerprint", "--bits", "1011000000000001", "--seed", "7")
    assert r["n"] == 16 and r == r2


def test_chunked_reader_matches_inline_bits(tmp_path, capsys, monkeypatch):
    # One-block chunks put every segment and every run of whitespace (and
    # the raw prefix cut) on or across a chunk boundary.
    monkeypatch.setattr(cli, "_CHUNK_BLOCKS", 1)
    rng = random.Random(55)
    data = rng.randbytes(160)
    n = 8 * len(data) - 3
    bits = "".join(format(b, "08b") for b in data)[:n]
    want = run_json(capsys, "fingerprint", "--bits", bits, "--k", "9", "--seed", "5")

    raw = tmp_path / "input.bin"
    raw.write_bytes(data)
    got = run_json(capsys, "fingerprint", "--input", os.fspath(raw), "--format", "raw",
                   "--n", str(n), "--k", "9", "--seed", "5")
    assert got == want

    pieces = []
    for ch in bits:
        pieces.append(ch)
        if rng.random() < 0.2:
            pieces.append(rng.choice([" ", "\n", "\r\n", "\t", "  \n "]))
    text = tmp_path / "input.txt"
    text.write_text("".join(pieces))
    for extra in ((), ("--n", str(n))):
        got = run_json(capsys, "fingerprint", "--input", os.fspath(text), "--k", "9",
                       "--seed", "5", *extra)
        assert got == want


def test_bits_stream_whitespace_across_chunks(tmp_path):
    from streamfp.stream import fingerprint

    rng = random.Random(56)
    n = 200_000  # k = 39 by the sizing rule: chunks of 39 * 4096 characters
    bits = format(rng.getrandbits(n), f"0{n}b")
    lines = [bits[i:i + 61] for i in range(0, n, 61)]
    payload = "\n".join(" ".join((line[:30], line[30:])) for line in lines) + "\n"
    assert len(payload) > 39 * cli._CHUNK_BLOCKS
    proc = subprocess.run(
        [sys.executable, "-m", "streamfp.cli", "fingerprint", "--input", "-",
         "--n", str(n), "--seed", "12"],
        input=payload.encode(),
        capture_output=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    want = fingerprint(n, bits, seed=12, f_of_n=n)
    rec = json.loads(proc.stdout)
    assert (rec["k"], rec["v_hex"]) == (want.k, want.ctx.elem_hex(want.v))


@pytest.mark.parametrize("stray", [b"x", b"\xff", b"2"])
def test_stray_byte_deep_in_text_stream_exits_3(stray):
    n = 300_000
    payload = bytearray(b"01" * (n // 2))
    payload[250_000] = stray[0]
    proc = subprocess.run(
        [sys.executable, "-m", "streamfp.cli", "fingerprint", "--input", "-",
         "--n", str(n), "--seed", "3"],
        input=bytes(payload),
        capture_output=True,
    )
    assert proc.returncode == EXIT_PRECONDITION
    assert b"Traceback" not in proc.stderr
    assert b"'0' and '1'" in proc.stderr
    assert proc.stdout == b""


def test_bits_file_count_mismatch(tmp_path, capsys):
    src = tmp_path / "input.txt"
    src.write_text("1011 0\n")
    code, _, err = run_cli(capsys, "fingerprint", "--input", os.fspath(src), "--n", "4")
    assert code == EXIT_PRECONDITION and "does not match" in err
    code, _, err = run_cli(capsys, "fingerprint", "--input", os.fspath(src), "--n", "6")
    assert code == EXIT_PRECONDITION and "does not match the 5 input bits" in err


def test_bits_flag_reads_like_a_bits_file(tmp_path, capsys):
    # --bits goes through the bits-file reader: whitespace is skipped, --n
    # is checked against the bits it holds, and --format does not apply.
    text = "1011 0010\n1\t1 "
    src = tmp_path / "input.txt"
    src.write_text(text)
    want = run_json(capsys, "fingerprint", "--input", os.fspath(src), "--seed", "7")
    assert want["n"] == 10
    for argv in (("--bits", text), ("--bits", "1011001011"), ("--bits", text, "--n", "10"),
                 ("--bits", text, "--format", "raw")):
        assert run_json(capsys, "fingerprint", *argv, "--seed", "7") == want, argv
    for argv, fragment in ((("--bits", text, "--n", "11"), "does not match the 10 input bits"),
                           (("--bits", text, "--n", "9"), "does not match the input"),
                           (("--bits", " \n"), "at least one bit"),
                           (("--bits", "10\u00e91"), "'0' and '1'")):
        code, out, err = run_cli(capsys, "fingerprint", *argv, "--seed", "7")
        assert code == EXIT_PRECONDITION and out == "", argv
        assert err.startswith("streamfp: ") and fragment in err, argv


# ------------------------------------------------------------------- sketch

def test_sketch_build_query_cycle(tmp_path, capsys):
    path = os.fspath(tmp_path / "s.spsk")
    summary = run_json(capsys, "sketch", "build", "--language", "singleton",
                       "--member", "1011", "--n", "4", "--seed", "3",
                       "--output", path)
    assert summary["member_count"] == 1
    assert summary["rule_sized"] is True
    assert os.path.exists(path)

    code, out, _ = run_cli(capsys, "sketch", "query", "--sketch", path,
                           "--bits", "1011", "--seed", "11")
    assert code == EXIT_OK
    assert json.loads(out)["accepted"] is True

    code, out, _ = run_cli(capsys, "sketch", "query", "--sketch", path,
                           "--bits", "0111", "--seed", "11")
    assert code == EXIT_REJECT
    assert json.loads(out)["accepted"] is False


def test_sketch_query_length_mismatch(tmp_path, capsys):
    path = os.fspath(tmp_path / "s.spsk")
    run_json(capsys, "sketch", "build", "--language", "singleton",
             "--member", "1011", "--n", "4", "--seed", "3", "--output", path)
    code, _, _ = run_cli(capsys, "sketch", "query", "--sketch", path,
                         "--bits", "10111", "--seed", "1")
    assert code == EXIT_PRECONDITION


def _low_weight_sketch(capsys, tmp_path) -> str:
    """The README's example sketch: n = 6, the 7 strings of weight <= 1."""
    path = os.fspath(tmp_path / "lw.spsk")
    run_json(capsys, "sketch", "build", "--language", "low-weight", "--max-ones", "1",
             "--n", "6", "--seed", "3", "--output", path)
    return path


def _query_stdin(path: str, payload: bytes, *extra: str):
    return subprocess.run(
        [sys.executable, "-m", "streamfp.cli", "sketch", "query", "--sketch", path,
         "--input", "-", "--seed", "11", *extra],
        input=payload, capture_output=True,
    )


@pytest.mark.parametrize("bits, raw, code", [
    ("000100", b"\x10", EXIT_OK),
    ("110110", b"\xd8", EXIT_REJECT),
])
def test_sketch_query_streams_stdin_and_raw_input_at_the_sketchs_n(tmp_path, capsys,
                                                                   bits, raw, code):
    # n = 6 comes from the sketch: stdin needs no --n, and one raw byte
    # holds the 6 bits and 2 bits of padding.
    path = _low_weight_sketch(capsys, tmp_path)
    want_code, want, _ = run_cli(capsys, "sketch", "query", "--sketch", path,
                                 "--bits", bits, "--seed", "11")
    assert want_code == code
    for payload, extra in ((bits.encode(), ()), (raw, ("--format", "raw"))):
        proc = _query_stdin(path, payload, *extra)
        assert (proc.returncode, proc.stdout) == (code, want.encode()), proc.stderr
    src = tmp_path / "input.bin"
    src.write_bytes(raw)
    assert run_cli(capsys, "sketch", "query", "--sketch", path, "--input", os.fspath(src),
                   "--format", "raw", "--seed", "11") == (code, want, "")


@pytest.mark.parametrize("payload, fmt", [
    (b"\x10\xff", "raw"),  # a member's 6 bits, then a byte more
    (b"", "raw"),
    (b"0001000", "bits"),
    (b"00010", "bits"),
])
def test_sketch_query_input_of_another_length_exits_3_naming_n(tmp_path, capsys,
                                                               payload, fmt):
    path = _low_weight_sketch(capsys, tmp_path)
    src = tmp_path / "input"
    src.write_bytes(payload)
    code, out, err = run_cli(capsys, "sketch", "query", "--sketch", path,
                             "--input", os.fspath(src), "--format", fmt, "--seed", "11")
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err.startswith("streamfp: the sketch's n = 6 ") and err.count("\n") == 1
    proc = _query_stdin(path, payload, "--format", fmt)
    assert (proc.returncode, proc.stdout) == (EXIT_PRECONDITION, b"")
    assert proc.stderr.decode() == err


def test_sketch_query_reads_a_bits_file_once(tmp_path, capsys):
    # A FIFO cannot be rewound: a counting pass before the fold would fail.
    path = _low_weight_sketch(capsys, tmp_path)
    want = run_cli(capsys, "sketch", "query", "--sketch", path, "--bits", "000100",
                   "--seed", "11")
    fifo = tmp_path / "bits.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("0001 00\n",), daemon=True)
    writer.start()
    got = run_cli(capsys, "sketch", "query", "--sketch", path, "--input", os.fspath(fifo),
                  "--seed", "11")
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == want and got[0] == EXIT_OK


@pytest.mark.parametrize("fmt, payload", [("bits", b"10110011 10110011\n"),
                                          ("raw", b"\xb3\xb3")], ids=["bits", "raw"])
def test_fingerprint_of_a_fifo_needs_n(tmp_path, fmt, payload):
    # Only a regular file's size is known before it is read: without --n a
    # FIFO is refused before it is opened, and with --n it streams.
    argv = [sys.executable, "-m", "streamfp.cli", "fingerprint", "--seed", "7"]
    want = subprocess.run(argv + ["--bits", "1011001110110011"], capture_output=True,
                          timeout=60)
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)
    argv += ["--input", os.fspath(fifo), "--format", fmt]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (EXIT_PRECONDITION, "")
    assert proc.stderr.startswith("streamfp: ") and proc.stderr.count("\n") == 1
    assert "requires --n" in proc.stderr
    writer = threading.Thread(target=fifo.write_bytes, args=(payload,), daemon=True)
    writer.start()
    got = subprocess.run(argv + ["--n", "16"], capture_output=True, timeout=60)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (got.returncode, got.stdout) == (EXIT_OK, want.stdout), got.stderr


def _spsk(header, values: bytes, version: int = 3, align: bool = True) -> bytes:
    """A .spsk file around the given header and values, with a valid digest;
    the header is space-padded to put the values at 64 bytes unless align
    is false."""
    if isinstance(header, dict):
        header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    if align:
        header += b" " * (-(12 + len(header)) % 64)
    body = b"SPSK" + struct.pack("<II", version, len(header)) + header + values
    return body + hashlib.sha256(body).digest()


# Each corrupt file breaks one check of load_sketch, named by the stderr
# fragment; a missing file is an I/O failure instead.
# Singleton 1011 at k = 4: one row of 16 uint8 values, each below 2^4.
@pytest.mark.parametrize("make, code, fragment", [
    (lambda h, vals, good: _spsk(b"[1,2]", vals), EXIT_PRECONDITION, "header keys"),
    (lambda h, vals, good: _spsk(b"[" * 100000, vals), EXIT_PRECONDITION, "bad header JSON"),
    (lambda h, vals, good: _spsk({**h, "t_hex": 19}, vals), EXIT_PRECONDITION,
     "t_hex has the wrong type"),
    (lambda h, vals, good: _spsk(h, vals, version=1), EXIT_PRECONDITION,
     "unsupported sketch file version 1"),
    (lambda h, vals, good: _spsk({**h, "entry_count": 16}, vals, version=2),
     EXIT_PRECONDITION, "unsupported sketch file version 2"),
    (lambda h, vals, good: _spsk({**h, "seed": True}, vals), EXIT_PRECONDITION,
     "seed has the wrong type"),
    (lambda h, vals, good: _spsk({**h, "member_count": -1}, vals), EXIT_PRECONDITION,
     "member_count >= 0"),
    (lambda h, vals, good: _spsk({**h, "k": 25}, vals), EXIT_PRECONDITION, "k must be in"),
    (lambda h, vals, good: good + b"\0", EXIT_PRECONDITION, "bytes, expected"),
    (lambda h, vals, good: good[:-1], EXIT_PRECONDITION, "bytes, expected"),
    # The last value, digest left as it was.
    (lambda h, vals, good: good[:-33] + bytes([good[-33] ^ 1]) + good[-32:],
     EXIT_PRECONDITION, "digest mismatch"),
    (lambda h, vals, good: _spsk(h, vals[:-1] + bytes([16])), EXIT_PRECONDITION,
     "not below 2^4"),
    (lambda h, vals, good: _spsk(h, vals, align=False), EXIT_PRECONDITION,
     "not 64-byte aligned"),
    # Any t_hex but the one make_field(4) writes, 0x13: reducible, of the
    # wrong degree, not hex, another irreducible, and 0x13 spelled otherwise.
    *[(lambda h, vals, good, t=t: _spsk({**h, "t_hex": t}, vals), EXIT_PRECONDITION,
       f"corrupt sketch file: header t_hex: {t!r} is not the modulus of GF(2^4), 0x13")
      for t in ("0x15", "0x7", "0xZZ", "0x19", "0X13")],
    (None, EXIT_IO, "No such file"),
], ids=["non-object-header", "nested-header", "numeric-t_hex", "v1-version", "v2-version",
        "bool-seed", "negative-member_count", "k-25", "trailing-byte",
        "truncated-digest", "flipped-value-byte", "value-too-large", "unaligned-values",
        "reducible-t_hex", "wrong-degree-t_hex", "non-hex-t_hex", "foreign-t_hex",
        "non-canonical-t_hex", "missing-file"])
def test_sketch_query_bad_file_exits_without_traceback(tmp_path, capsys, make, code,
                                                       fragment):
    good_path = tmp_path / "good.spsk"
    run_json(capsys, "sketch", "build", "--language", "singleton", "--member", "1011",
             "--n", "4", "--k", "4", "--seed", "3", "--output", os.fspath(good_path))
    good = good_path.read_bytes()
    (header_len,) = struct.unpack_from("<I", good, 8)
    start = 12 + header_len
    header = json.loads(good[12:start])
    values = good[start:-32]
    assert start % 64 == 0 and len(values) == header["member_count"] * 16 == 16
    path = tmp_path / "bad.spsk"
    if make is not None:
        path.write_bytes(make(header, values, good))
    proc = subprocess.run(
        [sys.executable, "-m", "streamfp.cli", "sketch", "query", "--sketch", os.fspath(path),
         "--bits", "1011", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert fragment in proc.stderr and proc.stderr.count("\n") == 1


# A value with a bit at or above k, for every item size: 2-byte items at
# k = 9 and 15, 4-byte items at k = 17 and 23, and a nonzero top byte at
# k = 24.  The digest is valid, so only the range check can fail.
@pytest.mark.parametrize("k, byte, bits", [
    (9, 1, 0x02), (15, 1, 0x80), (17, 2, 0x02), (23, 2, 0x80), (24, 3, 0x01),
])
def test_sketch_query_value_range_check_per_item_size(tmp_path, k, byte, bits):
    from streamfp.field import make_field

    width = 2 if k <= 16 else 4
    header = {"k": k, "member_count": 1, "n": 4, "rule_sized": False, "seed": 3,
              "t_hex": make_field(k).t_hex}
    values = bytearray(width << k)
    values[-width + byte] = bits  # the last value of the table
    path = tmp_path / "bad.spsk"
    path.write_bytes(_spsk(header, bytes(values)))
    del values
    proc = subprocess.run(
        [sys.executable, "-m", "streamfp.cli", "sketch", "query", "--sketch", os.fspath(path),
         "--bits", "1011", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_PRECONDITION, proc.stderr
    assert proc.stdout == ""
    assert f"a value is not below 2^{k}" in proc.stderr


def test_sketch_query_on_empty_language_rejects(tmp_path, capsys):
    path = os.fspath(tmp_path / "empty.spsk")
    summary = run_json(capsys, "sketch", "build", "--language", "empty", "--n", "8",
                       "--seed", "3", "--output", path)
    assert summary["member_count"] == 0
    code, out, _ = run_cli(capsys, "sketch", "query", "--sketch", path,
                           "--bits", "01011010", "--seed", "4")
    assert code == EXIT_REJECT
    assert json.loads(out)["accepted"] is False


@pytest.mark.parametrize("command", [
    ["sketch", "build", "--output", "n1.spsk"],
    ["sketch", "fp-rate", "--trials", "1"],
])
def test_sketch_commands_run_at_n_1(tmp_path, capsys, monkeypatch, command):
    # n = 1, the least length: one seeded-random member of the two strings.
    monkeypatch.chdir(tmp_path)
    report = run_json(capsys, *command, "--n", "1", "--seed", "3")
    assert (report["n"], report["k"], report["member_count"]) == (1, 4, 1)


def test_sketch_build_budget_exit(tmp_path, capsys):
    # n = 191 is the first seeded-random length whose q x f(n) passes
    # sketch.ENTRY_CAP: 2^19 x 191 = 100139008 entries.
    code, out, err = run_cli(capsys, "sketch", "build", "--language", "seeded-random",
                             "--n", "191", "--seed", "1",
                             "--output", os.fspath(tmp_path / "x.spsk"))
    assert code == EXIT_PRECONDITION and out == ""
    assert err == ("streamfp: a sketch of up to f(n) = 191 members over q = 2^19 points "
                   "could hold 100139008 entries, over sketch.ENTRY_CAP = 100000000\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, bits", [
    (["sketch", "build", "--k", "4", "--n", "64", "--max-ones", "4"], "679121 members of n = 64"),
    (["sketch", "fp-rate", "--k", "20", "--n", "30", "--max-ones", "15", "--trials", "1"],
     "614429672 members of n = 30"),
    (["sketch", "fp-rate", "--k", "20", "--n", "30", "--max-ones", "15", "--trials", "1",
      "--a-samples", "64"], "614429672 members of n = 30"),
], ids=["build-k4", "fp-rate", "fp-rate-sampled"])
def test_listed_bits_cap_exit(tmp_path, capsys, argv, bits):
    # Refusals from f(n) x n alone: nothing is listed, nothing is written.
    code, out, err = run_cli(capsys, *argv, "--language", "low-weight", "--seed", "1",
                             "--output", os.fspath(tmp_path / "out"))
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith(f"streamfp: listing f(n) = {bits} bits could take ")
    assert err.endswith(" bits, over sketch.LISTED_BITS_CAP = 2097152\n") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [
    ["sketch", "build", "--language", "singleton", "--member", "1011", "--n", "4"],
    ["fingerprint", "--bits", "1011"],
])
@pytest.mark.parametrize("target", ["nodir/out", "isdir"])
def test_unwritable_output_names_the_target(tmp_path, capsys, command, target):
    (tmp_path / "isdir").mkdir()
    target = os.fspath(tmp_path / target)
    code, out, err = run_cli(capsys, *command, "--seed", "1", "--output", target)
    assert code == EXIT_IO
    assert out == ""
    assert repr(target) in err and ".streamfp-" not in err
    assert os.listdir(tmp_path) == ["isdir"]


def test_fp_rate_reports_are_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "sketch", "fp-rate", "--language",
                             "seeded-random", "--n", "10", "--trials", "5",
                             "--seed", "42", "--output", os.fspath(out))
        assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["bound_satisfied"] is True
    # Replaying the embedded seed reproduces the file exactly.
    out3 = tmp_path / "r3.json"
    code, _, _ = run_cli(capsys, "sketch", "fp-rate", "--language",
                         "seeded-random", "--n", "10", "--trials", "5",
                         "--seed", str(report["seed"]), "--output", os.fspath(out3))
    assert code == EXIT_OK
    assert out3.read_bytes() == out1.read_bytes()


def test_fp_rate_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = run_cli(capsys, "sketch", "fp-rate", "--language", "seeded-random",
                         "--n", "10", "--trials", "4", "--seed", "42",
                         "--report-format", "csv", "--output", os.fspath(out))
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,accept_count,points,fraction"
    assert len(lines) == 5


# SHA-256 of the stdout of `sketch fp-rate --n 16 --trials 8 --seed 5`, pinned
# from the one-polynomial-at-a-time Horner sweep; the batched evaluation
# must reproduce these bytes.  The JSON pins include the tool version.
@pytest.mark.parametrize("extra, digest", [
    ((), "3e6ddb9bfe3d6bf97ab42d7c83e6e7e9c69765bbe245819a8db70feb4a7dfac8"),
    (("--report-format", "csv"),
     "9d789188996a898ddfdbc3887d719872fb7db158d341c246bbe3bdd8a17686b3"),
    (("--a-samples", "64"),
     "19c00807636618c75bf5eb249b5cc993c81afc9d303b9577e741a501e833da59"),
    (("--a-samples", "64", "--report-format", "csv"),
     "4520a7f5cc44e708e460437132403dd865942cc59f5ea9bdc69c63ade307056a"),
    (("--a-samples", "512"),
     "9ec6de573e2fb44ea8b0c69f796200814759a9d7295ea0c5a320c4504567ac9a"),
])
def test_fp_rate_stdout_is_pinned(capsys, extra, digest):
    code, out, _ = run_cli(capsys, "sketch", "fp-rate", "--n", "16", "--trials", "8",
                           "--seed", "5", *extra)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fp_rate_n64_stdout_is_pinned(capsys):
    # The benchmark's field size (k = 16): non-members counted in row
    # groups over the whole field, members against their own rows.
    # Pinned from the point-block gather sweep.
    code, out, _ = run_cli(capsys, "sketch", "fp-rate", "--n", "64", "--trials", "50",
                           "--seed", "5")
    assert code == EXIT_OK
    digest = "818ef9136ea61a33962b2fa0932b6abbbfc185b0f6e80c56a9e03e888e2fd1a3"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_fp_rate_sampled_chance_hit_exits_0(capsys, seed):
    # Two points per non-member and 200 non-members: some non-member hits
    # one of its two by chance, though the exhaustive count at seed 1 is
    # 0.0037, under the bound.
    report = run_json(capsys, "sketch", "fp-rate", "--n", "16", "--trials", "200",
                      "--a-samples", "2", "--language", "low-weight", "--max-ones", "2",
                      "--seed", seed)
    assert report["max_fraction"] == 0.5 and report["bound_satisfied"] is True


def test_fp_rate_sampled_true_violation_exits_5(capsys, monkeypatch):
    # Every drawn point of every non-member hits: far past chance at 1/4.
    from streamfp import sketch

    monkeypatch.setattr(sketch, "_sampled_counts",
                        lambda ctx, n, members, xs, points: [64] * len(xs))
    code, out, _ = run_cli(capsys, "sketch", "fp-rate", "--n", "16", "--trials", "4",
                           "--seed", "5", "--a-samples", "64")
    assert code == EXIT_BOUND
    assert json.loads(out)["bound_satisfied"] is False


def test_fp_rate_exit_code_mapping():
    assert _fp_rate_exit({"bound_checked": True, "bound_satisfied": True}) == EXIT_OK
    assert _fp_rate_exit({"bound_checked": False, "bound_satisfied": None}) == EXIT_OK
    assert _fp_rate_exit({"bound_checked": True, "bound_satisfied": False}) == EXIT_BOUND


@pytest.mark.parametrize("a_samples", ["0", "-1"])
def test_fp_rate_sampled_mode_refuses_a_samples_below_one(capsys, a_samples):
    code, out, err = run_cli(capsys, "sketch", "fp-rate", "--language", "seeded-random",
                             "--n", "10", "--trials", "3", "--seed", "42",
                             "--a-samples", a_samples)
    assert code == EXIT_PRECONDITION and out == ""
    assert err == f"streamfp: --a-samples must be >= 1, got {a_samples}\n"


def test_fp_rate_samples_a_single_point(capsys):
    report = run_json(capsys, "sketch", "fp-rate", "--language", "seeded-random",
                      "--n", "10", "--trials", "3", "--seed", "42", "--a-samples", "1")
    assert (report["mode"], report["points_per_query"]) == ("sampled-a", 1)
    assert set(report["nonmember_accept_counts"]) <= {0, 1}


def test_fp_rate_refuses_trials_below_one_naming_the_flag(capsys):
    code, out, err = run_cli(capsys, "sketch", "fp-rate", "--n", "10", "--trials", "0",
                             "--seed", "42")
    assert code == EXIT_PRECONDITION and out == ""
    assert err == "streamfp: --trials must be >= 1, got 0\n"


def test_fp_rate_sampled_mode_past_k24_exits_3_naming_the_mode(capsys):
    code, out, err = run_cli(capsys, "sketch", "fp-rate", "--n", "16", "--trials", "1",
                             "--seed", "5", "--a-samples", "512", "--k", "25")
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("streamfp: ") and "sampled-a mode" in err and err.count("\n") == 1
    assert "k <= 24; got k = 25" in err


@pytest.mark.parametrize("extra, fragment", [
    (("--language", "low-weight"), "low-weight language needs max_ones >= 0 (--max-ones)"),
    (("--language", "low-weight", "--max-ones", "-1"), "low-weight language needs max_ones"),
    (("--language", "singleton"), "needs a nonempty bit string member (--member)"),
    (("--language", "singleton", "--member", "10x1"), "singleton language needs a nonempty"),
    (("--language", "cubic"), "unknown language kind 'cubic'"),
])
@pytest.mark.parametrize("command", [
    ["sketch", "build", "--n", "6", "--output", "lang.spsk"],
    ["sketch", "fp-rate", "--n", "6", "--trials", "1"],
])
def test_bad_language_parameters_exit_3_with_one_line(tmp_path, capsys, monkeypatch,
                                                      command, extra, fragment):
    # make_language owns every per-kind check, the kind's name included.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *command, "--seed", "8", *extra)
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("streamfp: ") and err.count("\n") == 1
    assert fragment in err
    assert os.listdir(tmp_path) == []


def test_bad_language_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sketch", "fp-rate", "--n", "6", "--trials", "1", "--language-seed", "x"])
    assert exc.value.code == EXIT_PRECONDITION
    out = capsys.readouterr()
    assert out.out == "" and "--language-seed: invalid int value" in out.err


# -------------------------------------------------------------------- tally

def test_tally_padding_stable_cli(capsys):
    gap = json.dumps({"family": "iter-exp", "depth": 1, "params": {"scale": 2}})
    r = run_json(capsys, "tally", "--padding-stable", "--gap", gap, "--n", "2")
    assert r["stable"] is True
    r = run_json(capsys, "tally", "--padding-stable", "--gap", gap, "--n", "1")
    assert r["stable"] is False


def test_tally_padding_stable_default_gap(capsys):
    # Without --gap the check is exp(2n), the doubled tower at depth 1.
    for n in ("1", "2", "5"):
        _, default, _ = run_cli(capsys, "tally", "--padding-stable", "--n", n)
        _, given, _ = run_cli(capsys, "tally", "--padding-stable", "--n", n, "--gap",
                              json.dumps({"family": "iter-exp", "params": {"scale": 2}}))
        assert default == given
        assert json.loads(default)["gap"] == {"family": "iter-exp", "depth": 1,
                                              "params": {"scale": 2}}


def test_tally_padding_stable_needs_n(capsys):
    code, _, _ = run_cli(capsys, "tally", "--padding-stable")
    assert code == EXIT_PRECONDITION


def test_tally_padding_stable_decides_an_iter_exp_gap_at_any_n(capsys):
    # The closed form builds no tower: the default exp(2n) at n = 23 has a
    # left side of 2^24 + 47 bits, and depth 3 at n = 2 one of 2^4096 bits.
    for n in ("23", "1000000"):
        r = run_json(capsys, "tally", "--padding-stable", "--n", n)
        assert (r["stable"], r["n"], r["cap_bits"]) == (True, int(n), 10 ** 7)
    gap = json.dumps({"family": "iter-exp", "depth": 3, "params": {"scale": 2}})
    assert run_json(capsys, "tally", "--padding-stable", "--gap", gap, "--n", "2")["stable"]


def test_tally_out_of_range_exit(capsys):
    # 2^n + n itself is past the cap, for any gap.
    gap = json.dumps({"family": "iter-exp", "depth": 3, "params": {"scale": 2}})
    code, _, err = run_cli(capsys, "tally", "--padding-stable", "--gap", gap,
                           "--n", "10000000")
    assert code == EXIT_PRECONDITION
    assert "cap" in err
    gap = json.dumps({"family": "polynomial", "params": {"exponent": 10 ** 7}})
    code, _, err = run_cli(capsys, "tally", "--padding-stable", "--gap", gap, "--n", "2")
    assert code == EXIT_PRECONDITION
    assert "cap" in err


def test_tally_validate_cli(capsys):
    density = json.dumps({"family": "identity"})
    gap = json.dumps({"family": "polynomial", "params": {"coeff": 2, "exponent": 1}})
    r = run_json(capsys, "tally", "--validate", "--lengths", "1,5",
                 "--density", density, "--gap", gap)
    assert r["ok"] is True and r["violation"] is None
    r = run_json(capsys, "tally", "--validate", "--lengths", "1,2",
                 "--density", density, "--gap", gap)
    assert r["ok"] is False
    assert r["violation"] == "gap"
    assert r["witness"] == [1, 2]


@pytest.mark.parametrize("lengths", ["1,,2", "1.5", "a"])
def test_tally_validate_names_bad_lengths(capsys, lengths):
    code, out, err = run_cli(capsys, "tally", "--validate", "--lengths", lengths)
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err == f"streamfp: --lengths needs comma-separated integers, got {lengths!r}\n"


def test_tally_construct_cli(capsys):
    density = json.dumps({"family": "identity"})
    gap = json.dumps({"family": "polynomial", "params": {"coeff": 2, "exponent": 1}})
    r = run_json(capsys, "tally", "--construct", "--count", "3",
                 "--density", density, "--gap", gap)
    assert r["lengths"] == ["1", "3", "7"]


# A negative exponent made a float (a TypeError traceback in
# --padding-stable), and a negative coeff a decreasing function; a
# negative iter-exp scale failed deep in the tower.
NEGATIVE_GROWTH = (
    '{"family": "polynomial", "params": {"exponent": -1}}',
    '{"family": "polynomial", "params": {"coeff": -1}}',
    '{"family": "iter-exp", "params": {"scale": -2}}',
)


@pytest.mark.parametrize("mode", ["--validate", "--construct"])
@pytest.mark.parametrize("gap", [
    None,
    "{}",
    "[]",
    '{"family": "identity", "params": [1]}',
    '{"family": "identity", "depth": [1]}',
    '{"family": "polynomial", "params": {"coeff": [1]}}',
    '{"family": "polynomial", "depth": Infinity}',
    '{"family": "custom-table", "params": {"points": 5}}',
    '{"family": "custom-table", "params": {"points": [1]}}',
    # Non-integral numbers would be truncated by int(), not used as given.
    '{"family": "polynomial", "depth": 1.5}',
    '{"family": "polynomial", "params": {"coeff": 2.7}}',
    '{"family": "custom-table", "params": {"points": [[1.5, 2]]}}',
    *NEGATIVE_GROWTH,
    pytest.param("[" * 5000 + "]" * 5000, id="nested"),  # deeper than the JSON parser goes
])
def test_tally_bad_growth_argument_exits_3(capsys, mode, gap):
    argv = ["tally", mode, "--lengths", "1,5", "--density", json.dumps({"family": "identity"})]
    if gap is not None:
        argv += ["--gap", gap]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("streamfp: ")
    assert gap is not None or "--gap" in err
    if gap in NEGATIVE_GROWTH:
        assert err == "streamfp: growth params scale, coeff and exponent must be >= 0\n"


@pytest.mark.parametrize("gap", NEGATIVE_GROWTH)
def test_tally_padding_stable_refuses_negative_growth_params(capsys, gap):
    code, out, err = run_cli(capsys, "tally", "--padding-stable", "--n", "3", "--gap", gap)
    assert code == EXIT_PRECONDITION and out == ""
    assert err == "streamfp: growth params scale, coeff and exponent must be >= 0\n"


@pytest.mark.parametrize("gap", [
    '{"family": "polynomial", "depth": 1.0, "params": {"coeff": 2.0, "exponent": "1"}}',
    '{"family": "custom-table", "params": {"points": [[1, 3.0], ["5", 11]]}}',
])
def test_tally_integral_growth_params_accepted(capsys, gap):
    density = json.dumps({"family": "identity"})
    r = run_json(capsys, "tally", "--validate", "--lengths", "1,5",
                 "--density", density, "--gap", gap)
    assert r["ok"] is True


def test_tally_exactly_one_mode(capsys):
    # The mode flags are one required, mutually exclusive group: a usage error.
    for modes, message in (
        (["--validate", "--construct"], "not allowed with argument"),
        ([], "one of the arguments --padding-stable --validate --construct is required"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["tally", *modes])
        assert exc.value.code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "usage: streamfp tally" in err and message in err


# ------------------------------------------------------------ out of memory

@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 781. GiB"), MemoryError()])
def test_fingerprint_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, error):
    # The failure is stood in for at the stream's first feed.
    from streamfp import stream

    def refuse(self, data, nbits=None):
        raise error

    monkeypatch.setattr(stream.StreamState, "feed_bytes", refuse)
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(range(256)))
    code, out, err = run_cli(capsys, "fingerprint", "--format", "raw", "--input",
                             os.fspath(src), "--seed", "5")
    assert code == EXIT_PRECONDITION and out == ""
    assert err == f"streamfp: {str(error) or 'out of memory'}\n"


# ----------------------------------------------------------------- envelope

_IDENTITY = json.dumps({"family": "identity"})
_DOUBLING = json.dumps({"family": "polynomial", "params": {"coeff": 2, "exponent": 1}})


@pytest.mark.parametrize("argv, kind", [
    (["fingerprint", "--bits", "1011", "--seed", "7"], None),
    (["sketch", "build", "--language", "low-weight", "--max-ones", "1", "--n", "6",
      "--seed", "3", "--output", "lw.spsk"], "sketch-build"),
    (["sketch", "query", "--sketch", "lw.spsk", "--bits", "000100", "--seed", "11"],
     "sketch-query"),
    (["sketch", "fp-rate", "--n", "8", "--trials", "2", "--seed", "5"], "fp-rate"),
    (["sketch", "fp-rate", "--n", "8", "--trials", "2", "--seed", "5",
      "--a-samples", "8"], "fp-rate"),
    (["tally", "--padding-stable", "--n", "5"], "tally-padding-stable"),
    (["tally", "--validate", "--lengths", "1,5", "--density", _IDENTITY,
      "--gap", _DOUBLING], "tally-validate"),
    (["tally", "--construct", "--density", _IDENTITY, "--gap", _DOUBLING],
     "tally-construct"),
], ids=["fingerprint", "sketch-build", "sketch-query", "fp-rate-exhaustive",
        "fp-rate-sampled", "tally-padding-stable", "tally-validate",
        "tally-construct"])
def test_every_report_carries_the_tool_and_its_kind(tmp_path, capsys, monkeypatch,
                                                    argv, kind):
    # The CLI writes the envelope; fingerprint's record has a tool and no kind.
    # Every report with a k names make_field(k)'s modulus.
    from streamfp import __version__
    from streamfp.field import make_field

    monkeypatch.chdir(tmp_path)
    assert main(["sketch", "build", "--language", "low-weight", "--max-ones", "1",
                 "--n", "6", "--seed", "3", "--output", "lw.spsk"]) == EXIT_OK
    capsys.readouterr()
    report = run_json(capsys, *argv)
    assert report["tool"] == {"name": "streamfp", "version": __version__}
    assert report.get("kind") == kind
    if "k" in report:
        assert report["t_hex"] == make_field(report["k"]).t_hex


# ------------------------------------------------------------------ version

def test_version_flag(capsys):
    for argv in (["--version"], ["--help"], ["sketch", "query", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv


@pytest.mark.parametrize("argv", [
    ["fingerprint", "--bogus"],
    ["sketch", "query", "--bits", "1011"],
    ["fingerprint", "--bits", "1011", "--k", "x"],
    ["bench", "--k", "8"],  # a removed command; time fingerprint instead
])
def test_usage_errors_exit_3(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PRECONDITION
    assert "usage: streamfp" in capsys.readouterr().err


# Each kind of input has one flag: a language is --language and its
# parameters, a --padding-stable gap is --gap.
@pytest.mark.parametrize("argv", [
    ["sketch", "fp-rate", "--n", "6", "--trials", "1", "--language-file", "lang.json"],
    ["sketch", "build", "--n", "6", "--output", "x.spsk", "--language-file", "lang.json"],
    ["tally", "--padding-stable", "--n", "5", "--family", "iter-exp"],
    ["tally", "--padding-stable", "--n", "5", "--k", "1"],
    ["tally", "--padding-stable", "--n", "5", "--scale", "2"],
    # The tally bit cap is the constant tally.CAP_BITS.
    ["tally", "--padding-stable", "--n", "5", "--cap-bits", "5"],
    # A query streams at its sketch's n; --a-samples alone selects sampling.
    ["sketch", "query", "--sketch", "lw.spsk", "--bits", "000100", "--n", "6"],
    ["sketch", "fp-rate", "--n", "6", "--trials", "1", "--mode", "sampled-a"],
    # The entry cap is the constant sketch.ENTRY_CAP; fp-rate stores no table.
    ["sketch", "fp-rate", "--n", "4", "--trials", "1", "--entry-budget", "1"],
    ["sketch", "build", "--n", "6", "--output", "x.spsk", "--entry-budget", "5"],
])
def test_removed_input_flags_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PRECONDITION
    out = capsys.readouterr()
    assert out.out == "" and f"unrecognized arguments: {argv[-2]}" in out.err
    assert os.listdir(tmp_path) == []


def _option_strings(parser):
    """Every option string of parser and of its subparsers, recursively."""
    for action in parser._actions:
        yield from action.option_strings
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _option_strings(sub)


def test_readme_documents_only_flags_the_cli_has():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("\n## CLI\n")
    end = readme.index("\n## ", readme.index("\n## Conventions\n") + 1)
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme[start:end]))
    assert {"--bits", "--gap", "--output"} <= documented
    assert documented - set(_option_strings(cli._build_parser())) == set()
