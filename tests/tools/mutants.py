"""Mutation check: break one site of the code at a time and see whether
the tests notice.

    python tests/tools/mutants.py streamfp.sketch:exact_fp_count \\
        streamfp.kernels:sweep_field,_fill_run --sample 30 --seed 7 \\
        --tests tests/test_sketch.py tests/test_kernels.py

Each target is a module and a comma-separated list of its functions
(nested functions included).  Each mutant makes one change inside them:
it flips a comparison (< and >=, > and <=, == and !=, is and is not,
in and not in), swaps a bit or arithmetic operator (+ and -, * and //,
% to //, | and ^, & to |, << and >>, ** to *), in an expression or an
augmented assignment, or adds 1 to an integer constant.  --sample N runs
a sample of N sites drawn with --seed (0, the default, runs every site).

The checkout's src/, tests/ and pyproject.toml are copied to a temporary
directory, the unmutated tests are run there once, and then each mutant
in turn is written over its module in the copy and the test files are
run with pytest -x, under a 4 GiB address-space limit.  A mutant is
killed when they fail or run past three times the unmutated run plus
30 s; each survivor is printed as a diff of its source.  The exit status
is 1 if any mutant survived.  The checkout itself is never written.

This file is a tool, not a test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import copy
import difflib
import importlib.util
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

FLIP = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
        ast.In: ast.NotIn, ast.NotIn: ast.In}
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
        ast.Mod: ast.FloorDiv, ast.BitOr: ast.BitXor, ast.BitXor: ast.BitOr,
        ast.BitAnd: ast.BitOr, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
        ast.Pow: ast.Mult}


def module_path(module: str) -> Path:
    """src/-relative path of a dotted module name, e.g. streamfp/kernels.py."""
    return Path(*module.split(".")).with_suffix(".py")


def _replace(source: bytes, node: ast.AST, text: str) -> bytes:
    """source with node's span replaced by text (ast offsets are UTF-8 bytes)."""
    lines = source.splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    joined = lines[first][:node.col_offset] + text.encode() + lines[last][node.end_col_offset:]
    return b"".join(lines[:first] + [joined] + lines[last + 1:])


def _nodes(func: ast.FunctionDef):
    """Every node of func's arguments and body, outside f-strings."""
    skip = set()
    for node in ast.walk(func):
        if isinstance(node, ast.JoinedStr):
            skip.update(id(n) for n in ast.walk(node))
    for root in (func.args, *func.body):
        for node in ast.walk(root):
            if id(node) not in skip:
                yield node


def mutants(module: str, functions: set[str], source: bytes) -> list[tuple[str, bytes]]:
    """(label, mutated source) for every site inside the named functions."""
    tree = ast.parse(source)
    found = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    missing = functions - found.keys()
    if missing:
        raise SystemExit(f"{module} has no function {', '.join(sorted(missing))}")
    out = []
    for name in sorted(functions, key=lambda f: found[f].lineno):
        for node in _nodes(found[name]):
            where = f"{module}:{name}:{getattr(node, 'lineno', '')}"
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    new = copy.deepcopy(node)
                    new.ops[i] = FLIP[type(op)]()
                    out.append((f"{where} compare", _replace(source, node, f"({ast.unparse(new)})")))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
                new = copy.deepcopy(node)
                new.op = SWAP[type(node.op)]()
                text = ast.unparse(new)
                out.append((f"{where} operator",
                            _replace(source, node, text if isinstance(node, ast.AugAssign)
                                     else f"({text})")))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, int)
                  and not isinstance(node.value, bool)):
                out.append((f"{where} constant", _replace(source, node, repr(node.value + 1))))
    return out


MAX_MEMORY = 4 << 30  # bytes of address space for each pytest run


def _pytest(work: Path, tests: list[str], timeout: float | None) -> str:
    """'passed', 'failed' or 'timeout' for the test files in the copy at work,
    under MAX_MEMORY, so that a mutant that allocates without bound fails."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=timeout,
                              preexec_fn=lambda: resource.setrlimit(
                                  resource.RLIMIT_AS, (MAX_MEMORY, MAX_MEMORY)))
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("targets", nargs="+", help="module:function[,function...]")
    ap.add_argument("--tests", nargs="+", required=True, help="test files, relative to the checkout")
    ap.add_argument("--sample", type=int, default=0, help="sites to draw (0: every site)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if importlib.util.find_spec("pytest") is None:
        raise SystemExit("pytest is not installed")

    sites, originals = [], {}  # the sources as read once, before any run
    for target in args.targets:
        module, _, names = target.partition(":")
        source = originals.setdefault(module, (ROOT / "src" / module_path(module)).read_bytes())
        sites += [(module, *site)
                  for site in mutants(module, set(filter(None, names.split(","))), source)]
    if args.sample and args.sample < len(sites):
        picked = sorted(random.Random(args.seed).sample(range(len(sites)), args.sample))
        sites = [sites[i] for i in picked]
    print(f"{len(sites)} mutants", flush=True)

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        for module, source in originals.items():
            (work / "src" / module_path(module)).write_bytes(source)
        start = time.perf_counter()
        if _pytest(work, args.tests, None) != "passed":
            raise SystemExit("the unmutated tests fail in the copy; fix them first")
        timeout = 3 * (time.perf_counter() - start) + 30
        for module, label, source in sites:
            target = work / "src" / module_path(module)
            target.write_bytes(source)
            try:
                results.append(_pytest(work, args.tests, timeout))
            finally:
                target.write_bytes(originals[module])
            print(f"{results[-1]:8} {label}", flush=True)

    for (module, label, source), result in zip(sites, results):
        if result != "passed":
            continue
        name = f"src/{module_path(module).as_posix()}"
        print(f"\nsurvived: {label}")
        sys.stdout.writelines(difflib.unified_diff(
            originals[module].decode().splitlines(keepends=True),
            source.decode().splitlines(keepends=True), f"a/{name}", f"b/{name}", n=1))
    counts = {s: results.count(s) for s in ("failed", "timeout", "passed")}
    print(f"\n{len(results)} mutants: {counts['failed']} killed by a failing test, "
          f"{counts['timeout']} by the timeout, {counts['passed']} survived")
    return 1 if counts["passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
