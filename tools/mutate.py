"""Mutation sweep: does the tier-1 suite fail when one operator of the program changes?

Each mutant changes one spot of one module of ``src/mp4wm``:

- a comparison flipped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``;
- ``and`` and ``or`` swapped;
- a float constant multiplied by 1.5;
- a ``raise`` statement replaced by ``pass``.

Every mutant runs the tier-1 suite, without ``tests/test_bench_smoke.py``, in
its own temporary copy of the tree; the tree itself is never edited.  A
mutant survives when the suite passes on it.  Survivors named in the
equivalents list (``tools/mutants_equivalent.txt``: one ``key  # reason`` a
line) are reported as equivalent; any other survivor, or an entry of a swept
module that names no mutant, makes the exit status 1.  The key of a mutant
is ``<module>: <source line> | <old> -> <new>``, the line without its
comment, with `` #2``, `` #3`` ... appended when one line yields the same
change twice.

Usage::

    python tools/mutate.py src/mp4wm/params.py src/mp4wm/experiments.py

Only the standard library is used; at most ``os.cpu_count()`` pytest
processes run at a time.
"""
from __future__ import annotations

import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENTS = ROOT / "tools" / "mutants_equivalent.txt"
SUITE_TIMEOUT_S = 600  # a mutant that loops counts as killed after this
_FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                               ".bench_out", ".bench_build", "*.egg-info")


def _sites(tree: ast.AST):
    """(node, mutate) for each mutation site of `tree`, in a fixed order;
    mutate() changes the tree in place and returns the (old, new) text."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _FLIPS:
                    yield node, partial(_flip, node, i)
        elif isinstance(node, ast.BoolOp):
            yield node, partial(_swap, node)
        elif (isinstance(node, ast.Constant) and type(node.value) is float
              and node.value * 1.5 != node.value):
            yield node, partial(_scale, node)
        for body in (value for _, value in ast.iter_fields(node) if isinstance(value, list)):
            for i, stmt in enumerate(body):
                if isinstance(stmt, ast.Raise):
                    yield stmt, partial(_silence, body, i)


def _flip(node: ast.Compare, i: int) -> tuple[str, str]:
    old = ast.unparse(node)
    node.ops[i] = _FLIPS[type(node.ops[i])]()
    return old, ast.unparse(node)


def _swap(node: ast.BoolOp) -> tuple[str, str]:
    old = ast.unparse(node)
    node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    return old, ast.unparse(node)


def _scale(node: ast.Constant) -> tuple[str, str]:
    old = ast.unparse(node)
    node.value *= 1.5
    return old, ast.unparse(node)


def _silence(body: list, i: int) -> tuple[str, str]:
    old = " ".join(ast.unparse(body[i]).split())
    body[i] = ast.Pass()
    return old, "pass"


def mutants(source: str, module: str = "<module>") -> list[tuple[str, str]]:
    """(key, mutated source) of every mutant of `source`, in a fixed order."""
    lines = source.splitlines()
    comment_at = {tok.start[0]: tok.start[1] for tok in
                  tokenize.generate_tokens(io.StringIO(source).readline)
                  if tok.type == tokenize.COMMENT}
    count = len(list(_sites(ast.parse(source))))
    out, seen = [], {}
    for k in range(count):
        tree = ast.parse(source)  # a fresh tree per mutant: each changes one site
        node, mutate = list(_sites(tree))[k]
        old, new = mutate()
        line = lines[node.lineno - 1][:comment_at.get(node.lineno)].strip()
        key = f"{module}: {line} | {old} -> {new}"
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key += f" #{seen[key]}"
        out.append((key, ast.unparse(tree) + "\n"))
    return out


def read_equivalents(path: Path) -> dict[str, str]:
    """Key -> reason of each listed equivalent mutant; `#` lines are comments."""
    listed = {}
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                key, _, reason = line.partition("  # ")
                listed[key.strip()] = reason.strip()
    return listed


def run_suite(mutated: tuple[str, str] | None) -> str:
    """"pass", "fail" or "timeout" of tier-1 on a copy of this tree, with the
    file at `mutated[0]` (relative to the tree) replaced by `mutated[1]`."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        if mutated is not None:
            (copy / mutated[0]).write_text(mutated[1], encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors",
               "--ignore", str(copy / "tests" / "test_bench_smoke.py"), str(copy / "tests")]
        try:
            proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True,
                                  timeout=SUITE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "pass" if proc.returncode == 0 else "fail"


def main(files: list[str]) -> int:
    """Sweep the modules at `files` (paths under this tree); the exit status."""
    if not files:
        print("usage: python tools/mutate.py MODULE.py ...", file=sys.stderr)
        return 2
    work = []
    for path in files:
        rel = (ROOT / path).resolve().relative_to(ROOT)
        work += [(key, (str(rel), src))
                 for key, src in mutants((ROOT / rel).read_text(encoding="utf-8"), rel.name)]
    if run_suite(None) != "pass":
        print("the suite fails on the unmutated tree", file=sys.stderr)
        return 2

    listed = read_equivalents(EQUIVALENTS)
    keys = {key for key, _ in work}
    stale = [key for key in listed
             if key.split(":")[0] in {k.split(":")[0] for k in keys} and key not in keys]
    start, tally, unlisted = time.monotonic(), {}, 0  # tally: module -> [survived, mutants]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        outcomes = pool.map(lambda item: run_suite(item[1]), work)
        for (key, (rel, _)), outcome in zip(work, outcomes):
            status = {"pass": "EQUIVALENT" if key in listed else "SURVIVED",
                      "fail": "killed", "timeout": "killed (timeout)"}[outcome]
            print(f"{status:16} {key}", flush=True)
            counts = tally.setdefault(Path(rel).name, [0, 0])
            counts[0] += outcome == "pass"
            counts[1] += 1
            unlisted += outcome == "pass" and key not in listed
    for key in stale:
        print(f"{'STALE':16} {key}")
    for name, (alive, total) in tally.items():
        print(f"{name}: {alive}/{total} survived")
    print(f"{len(work)} mutants in {time.monotonic() - start:.0f} s; "
          f"{unlisted} survivors not in {EQUIVALENTS.name}, {len(stale)} stale entries")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
