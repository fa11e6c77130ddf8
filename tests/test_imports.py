"""The package names no function of its own; its modules import each other one way, only at the top of a module."""

import ast
import inspect
from pathlib import Path

import robwit

SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in Path(robwit.__file__).parent.glob("*.py")}


def runtime_imports(tree: ast.Module) -> set[str]:
    """The package modules imported by a module's top-level statements, so not under ``if TYPE_CHECKING:``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {alias.name for alias in node.names}
    return names


def test_no_function_imports():
    found = [f"{name}.{fn.name}, line {node.lineno}"
             for name, tree in SOURCES.items()
             for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_the_package_names_no_function_but_hermitian_eig():
    # each function is reached through its module; bench/test_bench.py still reads robwit.hermitian_eig
    named = {name for name, obj in vars(robwit).items() if inspect.isfunction(obj) or inspect.isclass(obj)}
    assert named == {"hermitian_eig"}


def test_states_does_not_import_witnesses():
    assert "witnesses" not in runtime_imports(SOURCES["states"])
    assert "states" in runtime_imports(SOURCES["witnesses"])


def test_module_imports_have_no_cycle():
    graph = {name: runtime_imports(tree) - {"__init__"} for name, tree in SOURCES.items() if name != "__init__"}
    done: set[str] = set()
    while len(done) < len(graph):
        ready = {name for name, deps in graph.items() if name not in done and deps <= done}
        assert ready, f"import cycle among {sorted(set(graph) - done)}"
        done |= ready
