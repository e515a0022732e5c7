"""Every name that ``src/crashguard`` defines is read by the program, or its reader is named.

A standard-library check beside ``test_imports.py``, since no dead-code
linter is a dependency.  ``ast`` lists what each module under
``src/crashguard`` defines: module-level functions, classes and constants;
the methods and properties of each class (dunders left out), the fields in
its body (dataclass fields, enum members) and the ``self.x`` attributes its
methods set.  A module-level name counts as read where ``src/crashguard``
loads it as a name or as an attribute; a member, only where it is loaded as
an attribute, so a local variable that shares a field's name reads nothing.
An import and an ``__all__`` entry are not reads.

One rule exempts names: the attributes that a ``CrashguardError`` subclass
stores in ``__init__`` are fault data that callers read off the exception.

Any other name that nothing in ``src/`` reads is in READERS, with the file
outside ``src/`` that reads it and why it stays in the package.  An entry
goes when its name goes or when ``src/`` reads it.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "crashguard"
FAULT_BASE = "CrashguardError"

# qualified name -> (the file outside src/ that reads it, why it stays in the package)
READERS = {
    "markov.matrix_power_real": (
        "demos/01_markov_chain_basics.py",
        "the whole fractional power P^t, which propagate builds row by row; the demo and README show it",
    ),
    "prediction.flow3_select_actions": (
        "perfbench/workloads.py",
        "flow 3 on an encounter's current lanes; the benchmark's absorbing-lane probe calls it",
    ),
    "simulator.step": (
        "perfbench/tracing.py",
        "one tick of run's helpers; the benchmark's tracer wraps it, and it goes when the tick leaves the package",
    ),
    "synthetic.with_rows": (
        "scripts/generate_bundled_data.py",
        "overrides chain rows for the bundled scenarios, which the generator writes byte for byte",
    ),
    "synthetic.make_model": (
        "scripts/generate_bundled_data.py",
        "assembles the bundled scenarios' inline models",
    ),
}


def _fault_classes(trees: dict[str, ast.Module]) -> set[str]:
    """Names of the classes that derive from FAULT_BASE, through any chain
    of classes defined in ``trees``."""
    bases = {node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
             for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    faults = {FAULT_BASE}
    while grown := {name for name, parents in bases.items() if parents & faults} - faults:
        faults |= grown
    return faults


def _members(cls: ast.ClassDef, fault: bool) -> set[str]:
    """The non-dunder methods, properties and body fields of ``cls``, and
    the ``self.x`` attributes that its methods set, less those a fault
    class stores in ``__init__``."""
    members = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            members.add(node.name)
            if fault and node.name == "__init__":
                continue
            members.update(target.attr for target in ast.walk(node)
                           if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                           and isinstance(target.value, ast.Name) and target.value.id == "self")
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members.add(node.target.id)
        elif isinstance(node, ast.Assign):
            members.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return {name for name in members if not (name.startswith("__") and name.endswith("__"))}


def defined_names(sources: dict[str, str]) -> dict[str, tuple[str, bool]]:
    """Qualified name -> (its leaf name, whether it is a class member), for
    each name that the modules ``{module: source}`` define."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    faults = _fault_classes(trees)
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name != "__all__":
                    defined[f"{module}.{name}"] = (name, False)
            if isinstance(node, ast.ClassDef):
                for member in _members(node, node.name in faults):
                    defined[f"{module}.{node.name}.{member}"] = (member, True)
    return defined


def unread_names(sources: dict[str, str]) -> list[str]:
    """The qualified names that the modules ``{module: source}`` define and
    never read, as the module docstring states the rule."""
    names, attributes = set(), set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return sorted(qualified for qualified, (leaf, member) in defined_names(sources).items()
                  if leaf not in attributes and (member or leaf not in names))


@functools.cache
def package_scan() -> tuple[dict[str, tuple[str, bool]], list[str]]:
    """``defined_names`` and ``unread_names`` of the package, scanned once."""
    sources = {path.relative_to(SRC).with_suffix("").as_posix().replace("/", "."): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    return defined_names(sources), unread_names(sources)


PLANTED = '''
import dataclasses
from math import pi

__all__ = ["unread_function"]

LIMIT = 3


class CrashguardError(Exception):
    pass


class Fault(CrashguardError):
    def __init__(self, row):
        self.row = row
        super().__init__(f"row {row}")


@dataclasses.dataclass
class Record:
    row: int
    unread_field: int
    field: int

    def unread_method(self):
        return self.row

    def read_method(self):
        self.unread_attribute = LIMIT
        field = 1
        return field


def unread_function():
    return pi


def main(record: Record):
    raise Fault(record.read_method())
'''


def test_planted_unread_names_are_found():
    assert unread_names({"planted": PLANTED}) == [
        "planted.Record.field",  # read only through the same-named local
        "planted.Record.unread_attribute",
        "planted.Record.unread_field",
        "planted.Record.unread_method",
        "planted.main",
        "planted.unread_function",  # an __all__ entry is no read
    ]


def test_every_name_in_src_is_read_or_has_a_reader():
    assert [name for name in package_scan()[1] if name not in READERS] == []


@pytest.mark.parametrize("name", sorted(READERS))
def test_each_listed_name_is_defined_and_unread_in_src(name):
    defined, unread = package_scan()
    assert name in defined, "the name is gone: drop its entry"
    assert name in unread, "src/ reads the name now: drop its entry"


@pytest.mark.parametrize("name", sorted(READERS))
def test_each_listed_reader_exists_outside_src_and_names_it(name):
    reader = ROOT / READERS[name][0]
    assert reader.is_file() and SRC not in reader.parents, "the reader must be a file outside src/"
    leaf = name.rpartition(".")[2]
    assert re.search(rf"\b{re.escape(leaf)}\b", reader.read_text(encoding="utf-8")), f"the reader never names {leaf}"
