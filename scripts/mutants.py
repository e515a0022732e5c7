#!/usr/bin/env python3
"""Mutation probe: which small changes to a module do its tests miss?

    python3 scripts/mutants.py src/crashguard/estimation.py tests/test_estimation.py tests/test_cli.py
    python3 scripts/mutants.py src/crashguard/markov.py tests/test_markov.py

Each mutant is one change to the module, made with ``ast``: a comparison,
boolean or arithmetic operator swapped, an ``if`` test forced true or
false, a ``raise`` dropped, or a number shifted (an int by one, a float
doubled, 0.0 to 1.0).  The checkout is copied once into a temporary
directory, and each mutant is written there, never into the checkout; a
module path outside the checkout is refused.  The given test files then
run once per mutant, with ``pytest -x`` and a timeout of ``TIMEOUT_S``.  A
mutant that every test passes survived; the script prints a table of the
survivors and of the mutants that timed out.

Standard library only.  It runs the tests once per mutant, so it stays out
of tier-1; ``tests/test_mutants.py`` checks only the mutations themselves.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120.0  # per mutant; some mutants loop forever
KINDS = ("compare", "boolean", "arithmetic", "if_true", "if_false", "raise", "constant")

_SWAPS = {
    "compare": {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
                ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is},
    "boolean": {ast.And: ast.Or, ast.Or: ast.And},
    "arithmetic": {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
                   ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult},
}
_SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
            ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not", ast.And: "and",
            ast.Or: "or", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
            ast.Mod: "%", ast.Pow: "**"}


class Mutant(NamedTuple):
    kind: str
    line: int
    description: str
    source: str  # the whole mutated module


def _shifted(value):
    if isinstance(value, int):
        return value + 1
    return value * 2.0 if value else 1.0


def _sites(tree: ast.AST):
    """(walk index, kind, description, edit) for each mutation of ``tree``;
    ``edit(node, parent)`` applies it to the node at that index of a copy."""
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                new = _SWAPS["compare"].get(type(op))
                if new:
                    def edit(n, parent, k=k, new=new):
                        n.ops[k] = new()
                    yield index, "compare", f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[new]}", edit
        elif isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign)):
            kind = "boolean" if isinstance(node, ast.BoolOp) else "arithmetic"
            new = _SWAPS[kind].get(type(node.op))
            if new:
                def edit(n, parent, new=new):
                    n.op = new()
                yield index, kind, f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[new]}", edit
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield index, "boolean", "not x -> x", lambda n, parent: _replace(parent, n, n.operand)
        elif isinstance(node, ast.If):
            for value in (True, False):
                def edit(n, parent, value=value):
                    n.test = ast.Constant(value)
                yield index, f"if_{str(value).lower()}", f"if test -> {value}", edit
        elif isinstance(node, ast.Raise):
            yield index, "raise", "raise dropped", lambda n, parent: _replace(parent, n, ast.Pass())
        elif (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
              and not isinstance(node.value, bool)):
            def edit(n, parent):
                n.value = _shifted(n.value)
            yield index, "constant", f"{node.value!r} -> {_shifted(node.value)!r}", edit


def _replace(parent: ast.AST, old: ast.AST, new: ast.AST) -> None:
    for name, value in ast.iter_fields(parent):
        if value is old:
            setattr(parent, name, new)
        elif isinstance(value, list) and any(item is old for item in value):
            value[[item is old for item in value].index(True)] = new


def mutations(source: str) -> list[Mutant]:
    """Every mutant of ``source`` that compiles, in walk order."""
    tree = ast.parse(source)
    mutants = []
    for index, kind, description, edit in _sites(tree):
        mutated = copy.deepcopy(tree)
        nodes = list(ast.walk(mutated))
        parents = {child: parent for parent in nodes for child in ast.iter_child_nodes(parent)}
        node = nodes[index]
        edit(node, parents.get(node))
        text = ast.unparse(ast.fix_missing_locations(mutated))
        try:
            compile(text, "<mutant>", "exec")
        except SyntaxError:  # unparsed text this Python cannot compile
            continue
        mutants.append(Mutant(kind, node.lineno, description, text))
    return mutants


def _run_tests(copy_root: Path, tests: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy_root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy_root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def checkout_relative(module: str) -> Path:
    """``module`` as a path relative to the checkout; ``ValueError`` if it
    lies outside it (an absolute path elsewhere, or one through ``..``)."""
    return (ROOT / module).resolve().relative_to(ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="the module to mutate, inside the checkout")
    parser.add_argument("tests", nargs="+", help="test files to run per mutant, relative to the checkout")
    args = parser.parse_args(argv)

    try:
        module = checkout_relative(args.module)
    except ValueError:
        parser.error(f"{args.module} is not inside the checkout")
    mutants = mutations((ROOT / module).read_text(encoding="utf-8"))

    outcomes = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy_root = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy_root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work", ".bench_build"))
        target = copy_root / module
        if _run_tests(copy_root, args.tests) != "survived":
            print("the unmutated tests fail or time out; nothing to compare against", file=sys.stderr)
            return 2
        for number, m in enumerate(mutants, 1):
            target.write_text(m.source, encoding="utf-8")
            start = time.perf_counter()
            outcome = _run_tests(copy_root, args.tests)
            outcomes.append((m, outcome))
            print(f"[{number}/{len(mutants)}] {module}:{m.line} {m.kind} {m.description}: "
                  f"{outcome} ({time.perf_counter() - start:.1f} s)", file=sys.stderr, flush=True)

    left = [(m, outcome) for m, outcome in outcomes if outcome != "killed"]
    print(f"{'line':>5}  {'kind':<10}  {'outcome':<8}  mutation")
    for m, outcome in left:
        print(f"{m.line:>5}  {m.kind:<10}  {outcome:<8}  {m.description}")
    counts = {name: sum(outcome == name for _, outcome in outcomes) for name in ("killed", "survived", "timeout")}
    print(f"{len(outcomes)} mutants of {module}: " + ", ".join(f"{n} {name}" for name, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
