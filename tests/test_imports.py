"""Start-up footprint: the commands that run no batch kernel load no
numpy, a stream folds in numpy only from 2^25 bits at k <= 64, a call
that completes no segment folds nothing,
only the tally command loads the tally code, a command imports no module
it does not run (fp-rate no OpenSSL, a query no language code and no
dataclasses), importing the package loads only its version while every
exported name still resolves to its defining module's object, and a CLI
process keeps OpenBLAS single-threaded unless the user says otherwise."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import streamfp
from streamfp import stream
from streamfp.cli import EXIT_OK, EXIT_REJECT, main
from streamfp.field import WORD_DEGREE_CAP, make_field

# Runs cli.main on the arguments after the first, then fails if any of
# the modules named in the first (comma-separated) was imported.
_UNLOADED_CHILD = """
import sys
from streamfp import cli
banned, argv = sys.argv[1].split(","), sys.argv[2:]
try:
    code = cli.main(argv)
except SystemExit as exc:
    code = exc.code
for name in banned:
    if name in sys.modules:
        sys.exit(name + " was imported")
sys.exit(code)
"""


def _child(code: str, *args: str, env: dict | None = None,
           stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, input=stdin)


@pytest.fixture(scope="module")
def low_weight_sketch(tmp_path_factory) -> str:
    path = os.fspath(tmp_path_factory.mktemp("sketch") / "lw.spsk")
    assert main(["sketch", "build", "--language", "low-weight", "--max-ones", "1",
                 "--n", "6", "--seed", "3", "--output", path]) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    """The modules an interpreter has loaded before it runs any code: a
    site hook may load some, and an import test can assert only the rest."""
    proc = _child("import sys; print(' '.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _assert_unloaded(bare: set[str], modules: tuple[str, ...], *argv: str,
                     code: int = EXIT_OK, stdin: str | None = None) -> None:
    banned = [name for name in modules if name not in bare]
    assert any(name.startswith("streamfp.") for name in banned)
    proc = _child(_UNLOADED_CHILD, ",".join(banned), *argv, stdin=stdin)
    assert proc.returncode == code and "was imported" not in proc.stderr, proc.stderr


# Modules the fingerprint command does not run: the sketch layer, the
# seed derivation, hashlib, the atomic writer, and dataclasses.
_NOT_FINGERPRINT = ("streamfp.sketch", "streamfp.seeds", "streamfp._atomic", "dataclasses",
                    "hashlib")


@pytest.mark.parametrize("argv, code", [
    (["--version"], EXIT_OK),
    (["sketch", "query", "--bits", "000100", "--seed", "11"], EXIT_OK),
    (["sketch", "query", "--bits", "110110", "--seed", "11"], EXIT_REJECT),
    (["fingerprint", "--bits", "10" * 50, "--seed", "3"], EXIT_OK),
    (["tally", "--padding-stable", "--n", "5"], EXIT_OK),
    (["irreducible", "--k", "12"], EXIT_OK),
], ids=["version", "query-accept", "query-reject", "fingerprint-100-bits", "tally",
        "irreducible"])
def test_light_commands_import_no_numpy(low_weight_sketch, argv, code):
    if argv[:2] == ["sketch", "query"]:
        argv = argv + ["--sketch", low_weight_sketch]
    proc = _child(_UNLOADED_CHILD, "numpy", *argv)
    assert proc.returncode == code, proc.stderr
    assert "numpy was imported" not in proc.stderr


def _raw_fingerprint_imports_no_numpy(bare: set[str], path, size: int, *flags: str) -> None:
    path.write_bytes(random.Random(size).randbytes(size))
    _assert_unloaded(bare, ("numpy", *_NOT_FINGERPRINT), "fingerprint", "--format", "raw",
                     "--input", os.fspath(path), "--seed", "1", *flags)


def test_sub_mib_raw_fingerprint_imports_no_numpy(bare_modules, tmp_path):
    # 64 KiB at the default k = 42 is one call of 12484 segments, far past
    # the 128 from which a call folds in lanes rather than one by one.
    _raw_fingerprint_imports_no_numpy(bare_modules, tmp_path / "input.bin", 64 << 10)


def test_1_mib_raw_fingerprint_imports_no_numpy(bare_modules, tmp_path):
    # 1 MiB at the default k = 50 is 2^23 bits, under the numpy fold's
    # 2^25: its five calls of 32768 segments and the last fold in lanes.
    assert 1 << 23 < stream._NUMPY_FOLD_BITS
    _raw_fingerprint_imports_no_numpy(bare_modules, tmp_path / "input.bin", 1 << 20)


def test_1_mib_raw_fingerprint_past_the_word_tier_imports_no_numpy(bare_modules, tmp_path):
    # Past k = 64 every stream folds in lanes.
    assert 100 > WORD_DEGREE_CAP
    _raw_fingerprint_imports_no_numpy(bare_modules, tmp_path / "input.bin", 1 << 20, "--k", "100")


@pytest.mark.parametrize("n, k, numpy_calls", [
    (1 << 25, 1, 32), (1 << 25, 8, 32), (1 << 25, 15, 32), (1 << 25, 16, 32),
    (1 << 25, 58, 32), (1 << 25, 64, 32), ((1 << 25) - 1, 58, 0), (1 << 25, 65, 0),
])
def test_numpy_folds_streams_from_2_25_bits_at_k_up_to_64(monkeypatch, n, k, numpy_calls):
    from streamfp import kernels

    assert stream._NUMPY_FOLD_BITS == 1 << 25 and WORD_DEGREE_CAP == 64
    calls = []
    fold = kernels.fold_groups

    def spy(groups, *args):
        calls.append(len(groups) // k)
        return fold(groups, *args)

    monkeypatch.setattr(kernels, "fold_groups", spy)
    data = random.Random(n + k).randbytes(-(-n // 8))
    state = stream.begin_seeded(n, 1, ctx=make_field(k))
    for pos in range(0, len(data), 1 << 17):
        chunk = data[pos:pos + (1 << 17)]
        state.feed_bytes(chunk, min(8 * len(chunk), n - 8 * pos))
    state.finish()
    assert len(calls) == numpy_calls and all(c >= 16 for c in calls), calls


def test_numpy_folds_calls_from_128_segments(monkeypatch):
    # In a 2^25-bit stream at k = 16 a call of 128 segments (v and them:
    # 17 groups) folds in numpy, and the last call, of 127, in lanes.
    from streamfp import kernels

    calls = []
    fold = kernels.fold_groups

    def spy(groups, *args):
        calls.append(len(groups) // 16)
        return fold(groups, *args)

    monkeypatch.setattr(kernels, "fold_groups", spy)
    data = random.Random(16).randbytes(1 << 22)
    state = stream.begin_seeded(1 << 25, 1, ctx=make_field(16))
    state.feed_bytes(data[:-510])
    state.feed_bytes(data[-510:-254])
    state.feed_bytes(data[-254:])
    fp = state.finish()
    assert calls == [-(-((1 << 21) - 254) // 8), 17]
    assert fp == stream.fingerprint(1 << 25, stream.bits_from_bytes(data), 1, ctx=make_field(16))


@pytest.mark.parametrize("k", [16, 65])
def test_a_call_that_completes_no_segment_folds_nothing(monkeypatch, k):
    # A bit-by-bit feeder pays no fold until a segment is complete, in a
    # stream long enough for numpy (k = 16) and past the word tier (k = 65).
    from streamfp import kernels

    calls = []
    lane_fold, fold = stream._lane_fold, kernels.fold_groups
    monkeypatch.setattr(stream, "_lane_fold", lambda *a: calls.append("lanes") or lane_fold(*a))
    monkeypatch.setattr(kernels, "fold_groups", lambda *a: calls.append("numpy") or fold(*a))
    state = stream.begin_seeded(1 << 25, 1, ctx=make_field(k))
    for bit in ("10" * k)[:k - 1]:
        state.feed(bit)
    state.feed_bytes(b"", 0)
    assert calls == [] and state.v == 1
    state.feed("1")
    assert calls == ["lanes"] and state.profile.conversions == 1


@pytest.mark.parametrize("argv", [
    ["sketch", "query", "--bits", "000100", "--seed", "11"],
    ["fingerprint", "--bits", "10" * 50, "--seed", "3"],
    ["sketch", "fp-rate", "--n", "8", "--trials", "4", "--seed", "5"],
], ids=["query", "fingerprint", "fp-rate"])
def test_non_tally_commands_import_no_tally(low_weight_sketch, argv):
    if argv[:2] == ["sketch", "query"]:
        argv = argv + ["--sketch", low_weight_sketch]
    proc = _child(_UNLOADED_CHILD, "streamfp.tally", *argv)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "streamfp.tally was imported" not in proc.stderr


def test_fingerprint_of_bits_imports_only_what_it_runs(bare_modules):
    _assert_unloaded(bare_modules, _NOT_FINGERPRINT, "fingerprint", "--bits", "1011",
                     "--seed", "3")


# Modules a sketch query does not run: it loads the file layer
# (streamfp.spsk) and hashlib, but no language code, dataclasses, batch
# kernels, atomic writer or seed derivation.
_NOT_QUERY = ("streamfp.sketch", "dataclasses", "streamfp.kernels", "numpy",
              "streamfp._atomic", "streamfp.seeds")


@pytest.mark.parametrize("flags, stdin, code", [
    (["--bits", "000100"], None, EXIT_OK),
    (["--bits", "110110"], None, EXIT_REJECT),
    (["--input", "-", "--format", "raw"], "\x10", EXIT_OK),  # the bits 000100, padded
], ids=["member", "non-member", "raw-stdin"])
def test_sketch_query_loads_only_the_file_layer(bare_modules, low_weight_sketch, flags, stdin,
                                                code):
    _assert_unloaded(bare_modules, _NOT_QUERY, "sketch", "query", "--sketch", low_weight_sketch,
                     *flags, "--seed", "11", code=code, stdin=stdin)


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("mode", [[], ["--a-samples", "64"]], ids=["exhaustive", "sampled"])
def test_fp_rate_loads_no_openssl(bare_modules, tmp_path, mode, output):
    # fp-rate hashes no file: its seeds hash with the interpreter's own
    # SHA-256, and only a sketch file's save and load import hashlib.
    argv = ["sketch", "fp-rate", "--n", "16", "--trials", "4", "--seed", "5", *mode]
    if output:
        argv += ["--output", os.fspath(tmp_path / "report.json")]
    _assert_unloaded(bare_modules, ("hashlib", "_hashlib", "streamfp.tally"), *argv)


def test_build_and_built_lookup_import_no_numpy(tmp_path):
    # A build lists and validates the members and keeps their rows; a
    # lookup on it evaluates them at a on split tables.  Only the save,
    # which evaluates the table, imports numpy.
    proc = _child(
        "import sys\n"
        "from streamfp.sketch import build_sketch, contains, make_language, save_sketch\n"
        "from streamfp.stream import fingerprint\n"
        "spec = make_language('seeded-random', seed=5)\n"
        "sk = build_sketch(spec, 32)\n"
        "assert all(contains(sk, fingerprint(32, y, seed=1, ctx=sk.ctx))\n"
        "           for y in spec.enumerator(32))\n"
        "assert not contains(sk, fingerprint(32, '01' * 16, seed=1, ctx=sk.ctx))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "save_sketch(sk, sys.argv[1])\n"
        "assert 'numpy' in sys.modules\n",
        os.fspath(tmp_path / "s.spsk"))
    assert proc.returncode == 0, proc.stderr


def test_package_import_loads_only_its_version():
    proc = _child("import sys, streamfp\n"
                  "print(' '.join(sorted(m for m in sys.modules if m.startswith('streamfp'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["streamfp", "streamfp._version"]


def test_every_exported_name_is_its_defining_modules_object():
    import importlib

    for name in streamfp.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"streamfp.{streamfp._LAZY[name]}")
        obj = getattr(streamfp, name)
        assert obj is getattr(module, name), name
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name
    assert streamfp.DensityFn is streamfp.sketch.DensityFn  # names sketch keeps
    for name in ("SketchSet", "contains", "load_sketch", "save_sketch"):
        assert getattr(streamfp.sketch, name) is getattr(streamfp.spsk, name), name


def test_package_import_is_numpy_free_and_kernels_resolve_lazily():
    proc = _child(
        "import sys, streamfp\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'streamfp.tally' not in sys.modules\n"
        "from streamfp import tally\n"
        "assert streamfp.GrowthFn is tally.GrowthFn\n"
        "assert streamfp.OutOfRangeError is tally.OutOfRangeError\n"
        "assert 'numpy' not in sys.modules\n"
        "from streamfp import kernels\n"
        "assert streamfp.eval_points is kernels.eval_points\n"
        "assert streamfp.fold_segments is kernels.fold_segments\n"
        "assert streamfp.mulmod is kernels.mulmod\n"
        "assert streamfp.WORD_DEGREE_CAP == kernels.WORD_DEGREE_CAP == 64\n"
        "assert 'numpy' in sys.modules\n"
        "try:\n"
        "    streamfp.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit('no AttributeError')\n"
    )
    assert proc.returncode == 0, proc.stderr


# Starts the CLI through one of its process entries, and prints the
# OPENBLAS_NUM_THREADS it left in the environment as the process ends
# (console() ends it with os._exit, --version included).
_ENTRIES = {
    "-m": "import runpy; runpy.run_module('streamfp.cli', run_name='__main__')",
    "script": "from streamfp.cli import console; console()",
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
def test_cli_process_defaults_openblas_to_one_thread(entry, preset, seen):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, sys\n"
            "sys.argv = ['streamfp', '--version']\n"
            "exit_ = os._exit\n"
            "def _exit(code):\n"
            "    print(os.environ.get('OPENBLAS_NUM_THREADS'), flush=True)\n"
            "    exit_(code)\n"
            "os._exit = _exit\n"
            f"{_ENTRIES[entry]}\n")
    proc = _child(code, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == seen


def test_importing_the_cli_leaves_openblas_alone():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = _child("import os, streamfp.cli\n"
                  "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n", env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None"
