"""Static checks on the package source."""

import ast
import importlib.util
import logging
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "current1d"
# the package module imports names to export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((SRC.parent.parent / "scripts").glob("*.py"))
# the code that may call a package definition: the package, tests, scripts, bench
READERS = MODULES + sorted(p for d in ("tests", "scripts", "bench")
                           for p in (SRC.parent.parent / d).rglob("*.py"))
# the code the package runs for its users: the package, scripts, bench
RUNNERS = [p for p in READERS if SRC.parent.parent / "tests" not in p.parents]
# the paper's lemmas, which only their tests run
LEMMAS = {"homotopy.conical_defect", "structure.rescale_interior"}


def imports(path: Path) -> list[tuple[str, int, bool]]:
    """(name, line, marked ``# noqa``) for each name a module imports."""
    text = path.read_text()
    lines = text.splitlines()
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            noqa = "# noqa" in lines[node.end_lineno - 1]
            out += [(alias.asname or alias.name.split(".")[0], node.lineno, noqa)
                    for alias in node.names]
    return out


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, except on lines marked ``# noqa``."""
    imported = {name: line for name, line, noqa in imports(path) if not noqa}
    used = {node.id for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path, monkeypatch):
    """Every script guards ``main``, so loading one runs only its imports: a
    package name that a script needs and the package no longer has fails here."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # scripts put src/ on the path
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_unused_import_is_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math\nimport os  # noqa\nfrom json import dumps, loads\n"
                   "print(loads)\n")
    assert unused_imports(mod) == ["dumps (line 3)", "math (line 1)"]
    assert [name for name, _, noqa in imports(mod) if noqa] == ["os"]


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class and its
    methods other than the dunder ones, as ``Class.method``, or the names a
    module-level assignment binds."""
    if isinstance(stmt, ast.ClassDef):
        return [stmt.name] + [f"{stmt.name}.{node.name}" for node in stmt.body
                              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                              and not node.name.startswith("__")]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]


def unreferenced_definitions(modules: list[Path], readers: list[Path]) -> list[str]:
    """Top-level functions, classes, their methods and assigned names of
    ``modules`` that no code in ``readers`` reads (as a name, an attribute or
    an import) outside their own top-level definition."""
    used = set()
    for path in readers:
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    return sorted(f"{path.stem}.{name}" for path in modules
                  for stmt in ast.parse(path.read_text()).body
                  for name in _defined(stmt) if name.rpartition(".")[2] not in used)


def test_every_definition_is_referenced():
    assert unreferenced_definitions(MODULES, READERS) == []


def test_unreferenced_method_is_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("class Box:\n    def __init__(self):\n        self.size()\n\n"
                   "    def size(self):\n        pass\n\n    def spare(self):\n        pass\n\n\n"
                   "Box()\n")
    assert unreferenced_definitions([mod], [mod]) == ["mod.Box.spare"]


def test_package_code_runs_outside_the_tests():
    """Every definition and method of the package is read by the package, a
    script or the bench, except the paper's lemmas: code that only the tests
    run belongs in the tests."""
    assert [name for name in unreferenced_definitions(MODULES, RUNNERS) if name not in LEMMAS] == []


def test_unreferenced_definition_is_found(tmp_path):
    mod, user = tmp_path / "mod.py", tmp_path / "user.py"
    mod.write_text("def lone(n):\n    return lone(n - 1)\n\n\ndef helper():\n    pass\n\n\n"
                   "class Used:\n    pass\n\n\ndef caller():\n    return helper()\n\n\n"
                   "_LEFTOVER = 50\n_READ: int = 2\nlimit = _READ * 3\n")
    user.write_text("from mod import Used\nlimit += 1\n")
    assert unreferenced_definitions([mod], [mod, user]) == [
        "mod._LEFTOVER", "mod.caller", "mod.limit", "mod.lone"]


def tracer_targets() -> tuple[set, bool]:
    """The (owner, attribute) pairs that the bench tracer's ``patched`` wraps,
    and whether every owner and the solver log were restored after it."""
    import current1d.approximation as approximation
    import current1d.currents as currents
    import current1d.flatnorm as flatnorm
    import current1d.homotopy as homotopy
    import current1d.transport as transport

    spec = importlib.util.spec_from_file_location(
        "bench_tracing", SRC.parent.parent / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = [approximation, currents, flatnorm, homotopy, transport, currents.ScalarField]
    before = [dict(vars(owner)) for owner in owners]
    log = logging.getLogger("current1d.solvers")
    log_state = (log.level, log.propagate, list(log.handlers))
    with tracing.patched(tracing.Tracer()):
        patched = {(owner.__name__, name) for owner, old in zip(owners, before)
                   for name, value in vars(owner).items() if old.get(name) is not value}
    restored = all(dict(vars(owner)) == old for owner, old in zip(owners, before))
    return patched, restored and (log.level, log.propagate, list(log.handlers)) == log_state


def test_bench_tracer_patches_and_restores_its_targets():
    """The traced bench run wraps engine attributes by name; each must exist here,
    be wrapped while the patch is active and be restored after it."""
    patched, restored = tracer_targets()
    assert patched == {
        ("current1d.transport", "min_cost_flow"), ("current1d.flatnorm", "simplex_lp"),
        ("current1d.approximation", "cluster"),
        ("current1d.approximation", "interpolate_geodesic"),
        ("current1d.approximation", "d_inf"), ("current1d.homotopy", "d_inf"),
        ("current1d.currents", "d_inf"), ("ScalarField", "value"), ("ScalarField", "grad")}
    assert restored


def test_noqa_imports_are_tracer_targets():
    """A package import marked ``# noqa`` is there only for the bench tracer to
    wrap, so each must name an attribute that the tracer wraps."""
    kept = {(f"current1d.{path.stem}", name)
            for path in MODULES for name, _, noqa in imports(path) if noqa}
    assert kept <= tracer_targets()[0]
