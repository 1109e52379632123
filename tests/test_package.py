"""The package surface: every export resolves, every top-level function
or class in the package has a caller outside its own body, and every
dataclass field has a reader."""

import ast
from importlib import import_module
from pathlib import Path

import pytest

import oulab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "oulab"


@pytest.mark.parametrize("name", oulab.__all__)
def test_every_export_resolves_through_the_lazy_getattr(name):
    if name == "__version__":
        assert isinstance(oulab.__version__, str)
        return
    module = import_module(f"oulab.{oulab._EXPORTS[name]}")
    assert oulab.__getattr__(name) is getattr(module, name)


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError):
        oulab.__getattr__("no_such_name")


def _used_names(nodes) -> set:
    """Names read anywhere below the nodes, as plain names or attributes;
    imports alone do not count."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def test_every_top_level_definition_has_a_caller():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    # names read by each top-level statement of each file
    reads = {path: [(node, _used_names([node]))
                    for node in ast.parse(path.read_text()).body]
             for path in files}
    unused = []
    for path, nodes in reads.items():
        if path.parent != SRC or path.name == "__init__.py":
            continue
        elsewhere = set().union(*(names for p, pairs in reads.items()
                                  if p != path for _, names in pairs))
        for node, _ in nodes:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            rest = set().union(*(names for other, names in nodes
                                 if other is not node))
            if node.name not in elsewhere | rest:
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


def _is_dataclass(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_has_a_reader():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}:{cls.name}.{stmt.target.id}"
              for path, tree in trees.items() if path.parent == SRC
              for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read]
    assert unread == []


def test_cli_builds_no_report():
    """cli.py hands each report on as the library returns it: it names no
    ProbeReport, passes no report field by keyword, and a verb handler
    writes into no dict but the report's inputs, so no statistics, table
    or flag is put together in the command line driver."""
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "ProbeReport" not in _used_names([tree]) | imported
    fields = {"statistics", "tables", "pass_flags", "ci"}
    assert [kw.arg for kw in ast.walk(tree)
            if isinstance(kw, ast.keyword) and kw.arg in fields] == []
    writes = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("_cmd_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            for t in targets:
                for sub in ast.walk(t):
                    if isinstance(sub, ast.Subscript) and not (
                            isinstance(sub.value, ast.Attribute)
                            and sub.value.attr == "inputs"):
                        writes.append(f"{fn.name}:{sub.lineno}")
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"update", "setdefault", "append",
                                           "extend", "insert"}):
                writes.append(f"{fn.name}:{node.lineno}")
    assert writes == []
