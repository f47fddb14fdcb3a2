"""No code in the package is reachable only from the tests, and no setting
of it is set only by the tests.  Two rules, each checked against the
package itself and the non-test modules of the benchmark in ``perfbench/``:

- every module-level function, class and assigned name of ``src/slotfill``,
  every annotated field of its classes and every attribute its methods
  assign to ``self`` is read;
- every parameter with a default of a function, method or ``__init__`` of
  ``src/slotfill``, and every dataclass field with a default, is passed by
  some call.  A setting every caller leaves at one value is a constant.
  Calls match by bare callee name (the function, the attribute, or the
  class for ``__init__`` and dataclass fields).  A call passes a parameter
  by keyword, by position, through ``**NAME`` of a module-level dict
  literal or ``dict(...)``, through ``functools.partial(callee, ...)``, or,
  for a dataclass field, through ``dataclasses.replace(..., field=...)``.
  A call with ``*args`` or a ``**`` that the check cannot resolve passes
  every parameter.  ``self``, ``cls`` and ``field(init=False)`` fields are
  not settings.  ``ALLOWED_DEFAULTS`` lists the exceptions, each with its
  reason."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def defined_names(tree: ast.Module) -> set[str]:
    """The functions, classes and names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def read_names(path: Path, tree: ast.Module) -> set[str]:
    """The names a module reads: loaded names, attributes, and the names
    it imports unless it is a package's ``__init__.py``, whose re-exports
    read nothing."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            names.update(alias.name for alias in node.names)
    return names


def class_fields(tree: ast.Module) -> set[tuple[str, str]]:
    """The ``(class, field)`` pairs of every annotated name in a class body:
    the fields of a dataclass or a NamedTuple."""
    return {(node.name, stmt.target.id)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)}


def instance_attributes(tree: ast.Module) -> set[tuple[str, str]]:
    """The ``(class, attribute)`` pairs of every ``self.<name> = ...`` in a
    class body."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in ast.walk(node):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
            found.update((node.name, n.attr) for t in targets
                         for n in ast.walk(t)
                         if isinstance(n, ast.Attribute)
                         and isinstance(n.value, ast.Name)
                         and n.value.id == "self")
    return found


def read_attributes(tree: ast.Module) -> set[str]:
    """The attribute names a module loads; an assignment to an attribute
    does not read it."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _package_trees(root: Path) -> tuple[Path, dict[Path, ast.Module]]:
    """``root/src/slotfill`` and the parsed modules of the package and of
    ``root/perfbench``, test modules aside."""
    package = root / "src" / "slotfill"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*package.rglob("*.py"),
                          *(root / "perfbench").glob("*.py")]
             if not path.name.startswith("test_")}
    return package, trees


def unread_fields(root: Path) -> dict[str, set[str]]:
    """Per module of ``root/src/slotfill``, the ``Class.field`` names of the
    class fields and ``self`` attributes that no module of the package and
    no non-test module of ``root/perfbench`` reads as an attribute."""
    package, trees = _package_trees(root)
    read = set().union(*map(read_attributes, trees.values()))
    unread = {}
    for path, tree in trees.items():
        if path.is_relative_to(package):
            names = {f"{cls}.{field}" for cls, field
                     in class_fields(tree) | instance_attributes(tree)
                     if field not in read}
            if names:
                unread[str(path.relative_to(root))] = names
    return unread


def unread_names(root: Path) -> dict[str, set[str]]:
    """Per module of ``root/src/slotfill``, the top-level names that no
    module of the package and no non-test module of ``root/perfbench``
    reads."""
    package, trees = _package_trees(root)
    read = set().union(*(read_names(p, t) for p, t in trees.items()))
    unread = {}
    # dunders such as ``__all__`` and ``__version__`` are read by the
    # import system and packaging tools
    for path, tree in trees.items():
        if path.is_relative_to(package):
            names = {n for n in defined_names(tree) - read
                     if not (n.startswith("__") and n.endswith("__"))}
            if names:
                unread[str(path.relative_to(root))] = names
    return unread


# Defaults that no call in the package or the benchmark passes, kept on
# purpose: ``(module, name)`` to the reason.  Matching by bare name has one
# known blind spot: a default is counted as passed when any call of the same
# name passes it, so ``featurize``'s former nested ``add(name, value=1.0)``
# looked passed by ``Tracer.add(name, n)`` in ``perfbench/layers.py``.
ALLOWED_DEFAULTS = {
    ("src/slotfill/cli.py", "main(argv)"):
        "the console script ``slotfill = slotfill.cli:main`` calls it with "
        "no argument, and argparse then reads ``sys.argv``",
    ("src/slotfill/nnets/rnn.py",
     "RNNClassifier.loss_and_grads(frozen_choices)"):
        "only criterion 02's finite-difference gradient check fixes the "
        "multitask RNN's type choices",
}


def _callee(func: ast.expr) -> str | None:
    """The bare name a call goes by: a called name or attribute."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dict_keys(value: ast.expr) -> set[str] | None:
    """The keys of a dict literal with string keys or of ``dict(k=...)``;
    None for any other expression."""
    if isinstance(value, ast.Dict) and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str)
            for k in value.keys):
        return {k.value for k in value.keys}
    if isinstance(value, ast.Call) and _callee(value.func) == "dict" \
            and not value.args and all(kw.arg for kw in value.keywords):
        return {kw.arg for kw in value.keywords}
    return None


class _Calls:
    """What the calls of a set of modules pass, per bare callee name: the
    keywords, the largest number of positional arguments, and whether some
    call passes every parameter.  ``replaced`` holds the fields any
    ``replace(..., field=...)`` sets."""

    def __init__(self):
        self.keywords: dict[str, set[str]] = defaultdict(set)
        self.positions: dict[str, int] = defaultdict(int)
        self.everything: set[str] = set()
        self.replaced: set[str] = set()

    def add(self, callee: str, args: list[ast.expr],
            keywords: list[ast.keyword], dicts: dict[str, set[str]]) -> None:
        if any(isinstance(a, ast.Starred) for a in args):
            self.everything.add(callee)
        self.positions[callee] = max(self.positions[callee], len(args))
        for kw in keywords:
            if kw.arg:
                self.keywords[callee].add(kw.arg)
            elif isinstance(kw.value, ast.Name) and kw.value.id in dicts:
                self.keywords[callee] |= dicts[kw.value.id]
            else:
                self.everything.add(callee)

    def scan(self, tree: ast.Module) -> None:
        dicts = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                keys = _dict_keys(node.value)
                if keys is not None:
                    dicts[node.targets[0].id] = keys
        self._visit(tree, None, dicts)

    def _visit(self, node: ast.AST, cls: str | None, dicts) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            callee = _callee(node.func)
            if callee == "cls" and cls:
                callee = cls
            if callee == "partial" and node.args:
                target = _callee(node.args[0])
                if target:
                    self.add(target, node.args[1:], node.keywords, dicts)
            elif callee == "replace":
                self.replaced.update(kw.arg for kw in node.keywords if kw.arg)
            elif callee:
                self.add(callee, node.args, node.keywords, dicts)
        for child in ast.iter_child_nodes(node):
            self._visit(child, cls, dicts)

    def passes(self, callee: str, name: str, position: int | None) -> bool:
        return callee in self.everything \
            or name in self.keywords.get(callee, ()) \
            or (position is not None
                and self.positions.get(callee, 0) > position)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_callee(d.func if isinstance(d, ast.Call) else d)
               == "dataclass" for d in node.decorator_list)


def _field_call(value: ast.expr | None) -> dict[str, ast.expr] | None:
    """The keywords of a ``field(...)`` default; None for any other."""
    if isinstance(value, ast.Call) and _callee(value.func) == "field":
        return {kw.arg: kw.value for kw in value.keywords}
    return None


def _field_defaults(node: ast.ClassDef):
    """``(field, position)`` of each dataclass field with a default; a
    ``field(init=False)`` field is no setting and takes no position."""
    position = 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        options = _field_call(stmt.value)
        if options is not None:
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if {"default", "default_factory"} & options.keys():
                yield stmt.target.id, position
        elif stmt.value is not None:
            yield stmt.target.id, position
        position += 1


def _parameter_defaults(node: ast.FunctionDef, bound: bool):
    """``(parameter, position)`` of each parameter with a default; a bound
    method's first parameter (``self`` or ``cls``) takes no position, and a
    keyword-only parameter has none."""
    positional = [*node.args.posonlyargs, *node.args.args][bound:]
    start = len(positional) - len(node.args.defaults)
    for position, arg in enumerate(positional[start:], start):
        yield arg.arg, position
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _defaults(tree: ast.Module):
    """``(label, callee, name, position, is_field)`` of each setting with a
    default that a module defines, in functions, methods and dataclasses
    at any depth."""
    def visit(node, qualname: list[str], cls: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    for name, position in _field_defaults(child):
                        yield (f"{'.'.join([*qualname, child.name])}.{name}",
                               child.name, name, position, True)
                yield from visit(child, [*qualname, child.name], child.name)
            elif isinstance(child, ast.FunctionDef):
                callee = cls if child.name == "__init__" and cls \
                    else child.name
                label = ".".join([*qualname, child.name])
                for name, position in _parameter_defaults(child,
                                                          cls is not None):
                    yield (f"{label}({name})", callee, name, position, False)
                yield from visit(child, [*qualname, child.name], None)
            else:
                yield from visit(child, qualname, cls)
    yield from visit(tree, [], None)


def unpassed_defaults(root: Path, allowed=()) -> dict[str, set[str]]:
    """Per module of ``root/src/slotfill``, the parameters and dataclass
    fields with a default that no call in the package or in a non-test
    module of ``root/perfbench`` passes, the ``(module, name)`` pairs of
    ``allowed`` aside.  An entry of ``allowed`` that names no such setting
    is reported as ``stale: <name>``."""
    package, trees = _package_trees(root)
    calls = _Calls()
    for tree in trees.values():
        calls.scan(tree)
    found = set()
    for path, tree in trees.items():
        if path.is_relative_to(package):
            module = str(path.relative_to(root))
            found.update(
                (module, label)
                for label, callee, name, position, is_field in _defaults(tree)
                if not calls.passes(callee, name, position)
                and not (is_field and name in calls.replaced))
    unpassed = defaultdict(set)
    for module, label in found - set(allowed):
        unpassed[module].add(label)
    for module, label in set(allowed) - found:
        unpassed[module].add(f"stale: {label}")
    return dict(unpassed)

def test_every_package_name_is_read_outside_the_tests():
    assert unread_names(ROOT) == {}


def test_every_class_field_is_read_outside_the_tests():
    assert unread_fields(ROOT) == {}


def test_names_read_only_by_tests_are_reported(tmp_path):
    package = tmp_path / "src" / "slotfill"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "__init__.py").write_text("from .core import SHOWN\n"
                                          "__version__ = '1'\n")
    (package / "core.py").write_text(
        "USED = 1\nSHOWN = 2\nTESTED = 3\n\n\n"
        "def helper():\n    return USED\n\n\n"
        "class Unused:\n    pass\n")
    (tmp_path / "perfbench" / "run.py").write_text(
        "from slotfill.core import helper\n")
    (tmp_path / "perfbench" / "test_run.py").write_text(
        "from slotfill.core import TESTED\n")
    assert unread_names(tmp_path) == {
        "src/slotfill/core.py": {"SHOWN", "TESTED", "Unused"}}


def test_fields_read_only_by_tests_or_only_written_are_reported(tmp_path):
    package = tmp_path / "src" / "slotfill"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "core.py").write_text(
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n\n\n"
        "@dataclass\nclass Config:\n    used: int\n    written: int\n"
        "    tested: int = 0\n    LIMIT = 3\n\n\n"
        "class Hit(NamedTuple):\n    doc_id: str\n    score: float\n\n\n"
        "def run(cfg, hit):\n    cfg.written = cfg.used\n"
        "    return hit.doc_id\n")
    (tmp_path / "perfbench" / "run.py").write_text(
        "def report(hit):\n    return hit.score\n")
    (tmp_path / "perfbench" / "test_run.py").write_text(
        "def test_tested(cfg):\n    assert cfg.tested == 0\n")
    assert unread_fields(tmp_path) == {
        "src/slotfill/core.py": {"Config.written", "Config.tested"}}


def test_instance_attributes_read_only_by_tests_are_reported(tmp_path):
    package = tmp_path / "src" / "slotfill"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "core.py").write_text(
        "class Table:\n"
        "    def __init__(self, rows):\n"
        "        self.rows = rows\n"
        "        self.index, self.tested = {}, 0\n"
        "        self.written: int = len(rows)\n"
        "        self.written += 1\n\n"
        "    def lookup(self, key):\n"
        "        return self.index.get(key)\n")
    (tmp_path / "perfbench" / "run.py").write_text(
        "def report(table):\n    return len(table.rows)\n")
    (tmp_path / "perfbench" / "test_run.py").write_text(
        "def test_tested(table):\n    assert table.tested == 0\n")
    assert unread_fields(tmp_path) == {
        "src/slotfill/core.py": {"Table.tested", "Table.written"}}


def test_every_default_is_passed_outside_the_tests():
    assert unpassed_defaults(ROOT, ALLOWED_DEFAULTS) == {}


def test_defaults_passed_only_by_tests_are_reported(tmp_path):
    package = tmp_path / "src" / "slotfill"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "core.py").write_text(
        "from dataclasses import dataclass, field, replace\n"
        "from functools import partial\n\n"
        "SETTINGS = dict(depth=2)\n\n\n"
        "@dataclass\nclass Config:\n    size: int\n    rate: float = 0.1\n"
        "    seed: int = 13\n    memo: dict = field(init=False,\n"
        "                       default_factory=dict)\n"
        "    limit: int = field(default=3)\n"
        "    tested: int = 0\n\n\n"
        "class Tree:\n    def __init__(self, size, depth=1, width=4):\n"
        "        self.size = size\n\n"
        "    def grow(self, by=1, *, tested=False):\n"
        "        return by\n\n\n"
        "def build(size, bits=8, tested=None):\n"
        "    cfg = replace(Config(size, 0.2), limit=4)\n"
        "    grow = partial(Tree(size, **SETTINGS).grow, by=2)\n"
        "    return cfg, grow\n\n\n"
        "def main(argv=None):\n    return argv\n")
    (tmp_path / "perfbench" / "run.py").write_text(
        "from slotfill.core import Tree, build\n\n\n"
        "def run():\n    build(3, 10)\n    Tree(1, width=2)\n")
    (tmp_path / "perfbench" / "test_run.py").write_text(
        "from slotfill.core import Config, Tree, build\n\n\n"
        "def test_tested():\n    Config(1, tested=2)\n"
        "    Tree(1).grow(tested=True)\n    build(1, tested=3)\n")
    allowed = {("src/slotfill/core.py", "main(argv)"): "the console script",
               ("src/slotfill/core.py", "gone(x)"): "no longer defined"}
    assert unpassed_defaults(tmp_path, allowed) == {
        "src/slotfill/core.py": {
            "Config.seed", "Config.tested", "Tree.grow(tested)",
            "build(tested)", "stale: gone(x)"}}
