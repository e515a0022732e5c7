"""Tests for scripts/mutants.py's mutations; the probe itself runs the
tests once per mutant, so it stays out of tier-1."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TOY = '''
LIMIT = 2.5


def clip(x, low=0):
    if not low <= x and x != LIMIT:
        raise ValueError("below")
    total = x * 2 + low
    return total if total < LIMIT or low else LIMIT
'''


def load_script():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutations_of_a_toy_source_all_compile_and_cover_each_kind():
    script = load_script()
    mutants = script.mutations(TOY)
    assert {m.kind for m in mutants} == set(script.KINDS)
    # 3 comparisons, and/or/not, * and +, the if twice, the raise, 3 numbers
    assert len(mutants) == 14
    plain = ast.unparse(ast.parse(TOY))
    for m in mutants:
        compile(m.source, "<mutant>", "exec")
    assert len({plain, *(m.source for m in mutants)}) == len(mutants) + 1
    described = {(m.line, m.kind, m.description) for m in mutants}
    assert {
        (6, "compare", "<= -> <"), (6, "boolean", "not x -> x"), (6, "if_false", "if test -> False"),
        (7, "raise", "raise dropped"), (8, "arithmetic", "* -> /"), (5, "constant", "0 -> 1"),
        (2, "constant", "2.5 -> 5.0"),
    } <= described
    dropped = next(m for m in mutants if m.kind == "raise")
    namespace = {}
    exec(dropped.source, namespace)
    assert namespace["clip"](-1.0) == -2.0  # the raise is gone, the rest runs


@pytest.mark.parametrize("module", [
    str(ROOT.parent / "markov.py"), "../markov.py", "src/../../markov.py",
], ids=["absolute_outside", "dotdot", "dotdot_through_src"])
def test_a_module_outside_the_checkout_is_refused_before_anything_is_copied_or_written(module, monkeypatch, capsys):
    script = load_script()

    def forbidden(*args, **kwargs):
        raise AssertionError("touched the file system")
    monkeypatch.setattr(script.shutil, "copytree", forbidden)
    monkeypatch.setattr(script.Path, "read_text", forbidden)
    monkeypatch.setattr(script.Path, "write_text", forbidden)
    with pytest.raises(SystemExit) as exit_:
        script.main([module, "tests/test_markov.py"])
    assert exit_.value.code == 2
    assert "is not inside the checkout" in capsys.readouterr().err


def test_an_absolute_module_inside_the_checkout_is_mutated_in_the_copy():
    # the copy's target is copy_root / this relative path, not the checkout's file
    script = load_script()
    absolute = ROOT / "src" / "crashguard" / "markov.py"
    assert script.checkout_relative(str(absolute)) == Path("src/crashguard/markov.py")
