"""No code in the package is reachable only from the tests: every
module-level function, class and assigned name of ``src/slotfill``, every
annotated field of its classes and every attribute its methods assign to
``self``, is read by the package itself or by the benchmark in
``perfbench/``."""

import ast
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
