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


def test_no_export_shares_a_submodule_name():
    """Importing a submodule binds it as a package attribute, so an export
    of the same name would be shadowed by it."""
    submodules = {path.stem for path in SRC.glob("*.py")}
    assert submodules & set(oulab._EXPORTS) == set()


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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_top_level_definition_has_a_caller():
    """Every top-level function or class of the package, and every method
    of a package class, is read somewhere outside its own body in the
    package or the bench.  Dunders (dataclass hooks among them) and
    overrides of a base class's method, such as _Parser.error, are called
    through the language or the base class, so they are not checked."""
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
            if not isinstance(node, ast.ClassDef):
                continue
            bases = getattr(import_module(f"oulab.{path.stem}"),
                            node.name).__mro__[1:]
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) \
                        or _is_dunder(method.name) \
                        or any(hasattr(b, method.name) for b in bases):
                    continue
                siblings = _used_names([m for m in node.body
                                        if m is not method])
                if method.name not in elsewhere | rest | siblings:
                    unused.append(f"{path.name}:{node.name}.{method.name}")
    assert unused == []


def test_every_top_level_function_is_referenced_in_the_package():
    """No function without a caller, within the package alone: every
    top-level function of src/oulab is read, or named by a string such as
    a lazy export, somewhere in src/oulab outside its own definition.  A
    function that only the bench or the tests call is dead package code.
    The module hooks __getattr__ and __dir__ are called by the language."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    seen = []                   # (names, the top-level node they sit in)
    for tree in trees.values():
        for node in tree.body:
            names = _used_names([node]) | {
                sub.value for sub in ast.walk(node)
                if isinstance(sub, ast.Constant)
                and isinstance(sub.value, str)}
            seen.append((names, node))
    unreferenced = [
        f"{path.name}:{node.name}" for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in ("__getattr__", "__dir__")
        and not any(node.name in names for names, owner in seen
                    if owner is not node)]
    assert unreferenced == []


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


def test_importing_torus_loads_neither_kernel_nor_scipy():
    """A fresh `import oulab.torus` stays light: the kernel layer and scipy
    load only when a torus probe that needs them runs."""
    import os
    import subprocess
    import sys
    code = ("import sys, oulab.torus\n"
            "print(sorted(m for m in sys.modules if m == 'oulab.kernel'"
            " or m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_timed_cold_starts_load_no_scipy():
    """The cold starts that the benchmark times stay free of scipy: a
    fresh interpreter imports every module they import and builds every
    model they build, and no scipy module loads."""
    import os
    import subprocess
    import sys
    code = ("import sys\n"
            "import oulab.cli, oulab.semigroup, oulab.kernel, oulab.torus\n"
            "import oulab.variation, oulab.report\n"
            "from oulab import (CounterexampleConfig, build_model,\n"
            "                   standard_model)\n"
            "standard_model(1)\n"
            "build_model([[1.0, 0.3], [0.3, 0.5]], [[-1.0, 2.0], "
            "[0.0, -0.5]])\n"
            "CounterexampleConfig(N=12)\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
