"""The process entry: ``python -m streamfp.cli`` and ``console()`` print
what an in-process ``main()`` prints and exit with its code, write
``--output`` files whole, and turn a stdout that cannot take the output
into one ``streamfp:`` line and exit 2, buffered or not."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from streamfp.cli import EXIT_IO, EXIT_OK, EXIT_PRECONDITION, EXIT_REJECT, main

# What the `streamfp` script runs, on the arguments after -c.
_CONSOLE = "import sys; from streamfp.cli import console; sys.exit(console())"

# Without PYTHONUNBUFFERED a child's stdout is block-buffered, as it is
# by default, so its output leaves the process in console()'s flush.
_BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

_ENTRIES = {"-m": ["-m", "streamfp.cli"], "console": ["-c", _CONSOLE]}


def _run(entry: str, argv: list[str], cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *_ENTRIES[entry], *argv], capture_output=True,
                          env=_BUFFERED, cwd=cwd)


def _in_process(capsysbinary, argv: list[str]) -> tuple[int, bytes]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: --version and usage errors
        code = exc.code
    return code, capsysbinary.readouterr().out


@pytest.fixture(scope="module")
def sketch_path(tmp_path_factory) -> str:
    path = os.fspath(tmp_path_factory.mktemp("console") / "lw.spsk")
    assert main(["sketch", "build", "--language", "low-weight", "--max-ones", "1",
                 "--n", "6", "--seed", "3", "--output", path]) == EXIT_OK
    return path


_CASES = {
    "fingerprint": (["fingerprint", "--bits", "1011" * 20, "--seed", "3", "--tuple-bits"],
                    EXIT_OK),
    "build": (["sketch", "build", "--language", "low-weight", "--max-ones", "1", "--n", "6",
               "--seed", "3", "--output", "built.spsk"], EXIT_OK),
    "query-accept": (["sketch", "query", "--sketch", "SKETCH", "--bits", "000100",
                      "--seed", "11"], EXIT_OK),
    "query-reject": (["sketch", "query", "--sketch", "SKETCH", "--bits", "110110",
                      "--seed", "11"], EXIT_REJECT),
    "fp-rate": (["sketch", "fp-rate", "--n", "16", "--trials", "4", "--seed", "99"], EXIT_OK),
    "tally": (["tally", "--padding-stable", "--n", "5"], EXIT_OK),
    "irreducible": (["irreducible", "--k", "12"], EXIT_OK),
    "usage-error": (["fingerprint", "--no-such-flag"], EXIT_PRECONDITION),
    "precondition": (["irreducible", "--k", "0"], EXIT_PRECONDITION),
    "version": (["--version"], EXIT_OK),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_process_entries_print_what_main_prints(capsysbinary, tmp_path, monkeypatch,
                                                 sketch_path, case):
    argv, code = _CASES[case]
    argv = [sketch_path if a == "SKETCH" else a for a in argv]
    monkeypatch.chdir(tmp_path)
    want = _in_process(capsysbinary, argv)
    assert want[0] == code
    for entry in _ENTRIES:
        proc = _run(entry, argv, tmp_path)
        assert (proc.returncode, proc.stdout) == want, proc.stderr
        assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["sketch", "build", "--language", "seeded-random", "--n", "32", "--seed", "5"],
    ["fingerprint", "--bits", "1011" * 500, "--seed", "3", "--tuple-bits"],
    ["sketch", "fp-rate", "--n", "64", "--trials", "50", "--seed", "5"],
    ["sketch", "fp-rate", "--n", "16", "--trials", "8", "--seed", "5", "--a-samples", "64",
     "--report-format", "csv"],
    ["tally", "--construct", "--density", '{"family": "iter-exp", "params": {"scale": 1}}',
     "--gap", '{"family": "iter-exp", "params": {"scale": 1}}'],
], ids=["build", "fingerprint", "fp-rate", "fp-rate-csv", "tally"])
def test_process_entries_write_whole_output_files(capsysbinary, tmp_path, monkeypatch, argv):
    # Each run writes out.bin in a directory of its own, so a build's
    # summary, which names its output, reads the same in all three.
    argv = [*argv, "--output", "out.bin"]
    for name in ("main", *_ENTRIES):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / "main")
    code, out = _in_process(capsysbinary, argv)
    assert code == EXIT_OK
    want = (tmp_path / "main" / "out.bin").read_bytes()
    for entry in _ENTRIES:
        proc = _run(entry, argv, tmp_path / entry)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, b"")
        assert (tmp_path / entry / "out.bin").read_bytes() == want


def _assert_one_io_line(proc: subprocess.CompletedProcess, reason: str) -> None:
    assert proc.returncode == EXIT_IO, proc.stderr
    assert proc.stderr.startswith(b"streamfp: ") and proc.stderr.count(b"\n") == 1, proc.stderr
    assert reason.encode() in proc.stderr


# Both ways a stdout can hold the output: buffered, so the failure shows
# in console()'s flush, and unbuffered, so it shows in main()'s write.
_STDOUT_ENVS = {"buffered": _BUFFERED, "unbuffered": dict(os.environ, PYTHONUNBUFFERED="1")}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("env", sorted(_STDOUT_ENVS))
def test_stdout_on_a_full_device_exits_2(env):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "streamfp.cli", "fingerprint", "--bits",
                               "1011", "--seed", "3"], stdout=full, stderr=subprocess.PIPE,
                              env=_STDOUT_ENVS[env])
    _assert_one_io_line(proc, "No space left on device")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_argparse_output_on_a_full_device_exits_2(flag):
    # argparse prints these and exits itself; console() takes its code and
    # ends through the same flush as any command.
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "streamfp.cli", flag], stdout=full,
                              stderr=subprocess.PIPE, env=_BUFFERED)
    _assert_one_io_line(proc, "No space left on device")


@pytest.mark.parametrize("env", sorted(_STDOUT_ENVS))
def test_stdout_to_a_closed_pipe_exits_2(env):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-c", _CONSOLE, "fingerprint", "--bits", "1011",
                               "--seed", "3"], stdout=write_end, stderr=subprocess.PIPE,
                              env=_STDOUT_ENVS[env])
    finally:
        os.close(write_end)
    _assert_one_io_line(proc, "Broken pipe")


def test_an_uncaught_exception_keeps_its_traceback(tmp_path):
    # A bug is not an I/O error: console() leaves the normal way, with
    # the traceback and the interpreter's exit code 1.
    code = ("import sys\n"
            "from streamfp import cli\n"
            "def broken(args):\n"
            "    raise KeyError('bug')\n"
            "cli._cmd_irreducible = broken\n"
            "sys.argv[1:] = ['irreducible', '--k', '4']\n"
            "sys.exit(cli.console())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_BUFFERED)
    assert proc.returncode == 1
    assert b"Traceback" in proc.stderr and b"KeyError: 'bug'" in proc.stderr
