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

An attribute load reads the member of the receiver's class where the
source says that class: ``self`` (or ``cls``) in a method, a parameter or
local annotated with a class of the package (``X``, ``"X"`` or
``X | None``), a field so annotated in a class body, or the class's own
name.  It then reads that class's member, and the member of each class
above or below it, which a call may dispatch to.  A load through any other
receiver reads every member of that name, so the scan errs toward "read".

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
    "cli._non_closing_template": (
        "tests/test_simulator.py",
        "the timeline writer's one template cache under its former name, which the percent-escape test clears",
    ),
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


def _annotated_class(annotation: ast.expr | None, classes: dict) -> str | None:
    """The package class that an annotation names: ``X``, ``"X"`` or
    either with ``| None``; None for any other annotation."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        sides = [side for side in (annotation.left, annotation.right)
                 if not (isinstance(side, ast.Constant) and side.value is None)]
        annotation = sides[0] if len(sides) == 1 else None
    if isinstance(annotation, ast.Name) and annotation.id in classes:
        return annotation.id
    return None


class _Reads(ast.NodeVisitor):
    """The names that a module loads, and each attribute it loads as
    ``(class of the receiver or None, attribute)``."""

    def __init__(self, classes: dict[str, ast.ClassDef], fields: dict[str, dict[str, str]]):
        self.classes, self.fields = classes, fields
        self.scope: dict[str, str] = {}  # a name in scope -> the package class it holds
        self.names: set[str] = set()
        self.attributes: set[tuple[str | None, str]] = set()

    def receiver(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.scope.get(node.id, node.id if node.id in self.classes else None)
        if isinstance(node, ast.Attribute):
            owner = self.receiver(node.value)
            return owner and self.fields[owner].get(node.attr)
        return None

    def visit_Name(self, node: ast.Name):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)
        else:
            self.scope.pop(node.id, None)  # rebound: its class is no longer known

    def visit_Attribute(self, node: ast.Attribute):
        if isinstance(node.ctx, ast.Load):
            self.attributes.add((self.receiver(node.value), node.attr))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign):
        self.generic_visit(node)
        if isinstance(node.target, ast.Name) and (cls := _annotated_class(node.annotation, self.classes)):
            self.scope[node.target.id] = cls

    def visit_ClassDef(self, node: ast.ClassDef):
        for child in (*node.bases, *node.keywords, *node.decorator_list):
            self.visit(child)
        outer, body = self.scope, dict(self.scope)
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.scope = outer  # a method sees no name that the class body binds
                self.function(statement, node.name)
            else:
                self.scope = body
                self.visit(statement)
        self.scope = outer

    def visit_FunctionDef(self, node):
        self.function(node, None)

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def function(self, node, owner: str | None):
        """Visit a function, lambda or method of ``owner`` in a scope of its
        own: its parameters shadow the outer names, and an annotated one, or
        a method's first, holds a class."""
        outer = self.scope
        args = node.args
        params = [p for p in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg) if p]
        outside = [*args.defaults, *args.kw_defaults, *getattr(node, "decorator_list", ()),
                   *(p.annotation for p in params), getattr(node, "returns", None)]
        for child in outside:
            if child is not None:
                self.visit(child)
        self.scope = dict(outer)
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in getattr(node, "decorator_list", ()))
        for index, param in enumerate(params):
            cls = owner if index == 0 and owner and not static else _annotated_class(param.annotation, self.classes)
            if cls:
                self.scope[param.arg] = cls
            else:
                self.scope.pop(param.arg, None)
        for statement in node.body if isinstance(node.body, list) else [node.body]:
            self.visit(statement)
        self.scope = outer

    def comprehension_scope(self, node):
        outer, self.scope = self.scope, dict(self.scope)
        self.generic_visit(node)
        self.scope = outer

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = comprehension_scope


def _class_relations(trees: dict[str, ast.Module]) -> tuple[dict, dict, dict]:
    """The package's classes by name; each class's annotated fields, its
    bases' first, as ``{field: class}``; and each class's related classes,
    itself and every class above or below it."""
    classes = {node.name: node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    bases = {name: [base.id for base in node.bases if isinstance(base, ast.Name) and base.id in classes]
             for name, node in classes.items()}

    def ancestors(name: str) -> list[str]:
        return [name] + [above for base in bases[name] for above in ancestors(base)]

    fields = {}
    for name in classes:
        fields[name] = {}
        for cls in reversed(ancestors(name)):
            fields[name].update((statement.target.id, annotated) for statement in classes[cls].body
                                if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
                                and (annotated := _annotated_class(statement.annotation, classes)))
    related = {name: set() for name in classes}
    for name in classes:
        for above in ancestors(name):
            related[name].add(above)
            related[above].add(name)
    return classes, fields, related


def unread_names(sources: dict[str, str]) -> list[str]:
    """The qualified names that the modules ``{module: source}`` define and
    never read, as the module docstring states the rule."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    classes, fields, related = _class_relations(trees)
    names, attributes = set(), set()
    for tree in trees.values():
        reads = _Reads(classes, fields)
        reads.visit(tree)
        names |= reads.names
        attributes |= reads.attributes
    anywhere = {attribute for _, attribute in attributes}
    unresolved = {attribute for cls, attribute in attributes if cls is None}
    resolved = {(other, attribute) for cls, attribute in attributes if cls for other in related[cls]}

    def read(qualified: str, leaf: str, member: bool) -> bool:
        if not member:
            return leaf in names or leaf in anywhere
        return leaf in unresolved or (qualified.split(".")[-2], leaf) in resolved

    return sorted(qualified for qualified, (leaf, member) in defined_names(sources).items()
                  if not read(qualified, leaf, member))


def package_sources() -> dict[str, str]:
    """``{module: source}`` of each module of the package."""
    return {path.relative_to(SRC).with_suffix("").as_posix().replace("/", "."): path.read_text(encoding="utf-8")
            for path in sorted(SRC.rglob("*.py"))}


@functools.cache
def package_scan() -> tuple[dict[str, tuple[str, bool]], list[str]]:
    """``defined_names`` and ``unread_names`` of the package, scanned once."""
    sources = package_sources()
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


RECEIVERS = '''
import dataclasses


@dataclasses.dataclass
class Limits:
    duration: float
    margin: float


@dataclasses.dataclass
class Config:
    duration: float
    limits: Limits
    steps: int

    def total(self):
        return self.duration * self.steps


@dataclasses.dataclass
class Report:
    duration: float
    margin: float
    steps: int

    @classmethod
    def make(cls, config: "Config | None"):
        return cls(config.limits.duration, 0.0, 0)


class Base:
    def describe(self):
        return self.label()

    def label(self):
        return "base"


class Special(Base):
    def label(self):
        return "special"


class Other:
    def label(self):
        return "other"


def run(config: Config, rows) -> Report:
    limits: Limits = config.limits
    for row in rows:
        print(row.steps, (lambda config: config.margin)(row))
    return Report.make(config), limits.margin, config.total(), Special().describe(), Other
'''


def test_a_read_through_a_receiver_of_known_class_reads_only_its_classes_member():
    assert unread_names({"receivers": RECEIVERS}) == [
        "receivers.Other.label",  # only Base's and Special's label are read, through self
        "receivers.Report.duration",  # the durations read are Config's and Limits's
        "receivers.run",
    ]  # Report.margin is read through a lambda's own config, of no known class


def test_a_planted_unread_field_of_a_report_fails_the_package_scan():
    sources = package_sources()
    field = "    timeline: Sequence[dict]\n"
    assert sources["simulator"].count(field) == 1
    sources["simulator"] = sources["simulator"].replace(field, field + "    duration: float = 0.0\n")
    assert [name for name in unread_names(sources) if name not in READERS] == ["simulator.SimReport.duration"]


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
