"""The package's modules import one another along a DAG rooted at graphs.

The triple scan, the twin-class recognizer and the greedy builder check one
another, so none may reach another through an import: ``classify`` and
``graphio`` import only ``graphs``, where the result types live, and
``partition`` takes from ``classify`` only the name ``canonical_partition``,
which none of its functions calls.  The imports are read with ``ast`` from
every position in each file, so a late or conditional import counts too.

Each module that ``raagv`` re-exports lists the public names it defines in
its own ``__all__``; ``raagv/__init__.py`` star-imports those modules and
joins their lists, so every public name is declared once, where it lives.
A child process checks that importing the CLI loads neither ``dataclasses``
nor ``inspect``, which made up a large share of its cold start.
"""

import ast
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import raagv
from raagv import classify, partition

REEXPORTED = ("graphs", "classify", "partition", "groups", "words", "harness", "graphio")


@cache
def modules() -> dict[str, ast.Module]:
    src = Path(raagv.__file__).parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}


def imported_names(tree: ast.Module) -> dict[str, set[str]]:
    """Package module -> the names taken from it, anywhere in the tree.

    ``from . import m`` takes module m itself, recorded as the name ``m``;
    ``from . import name`` of a name that is no module takes it from
    ``__init__``.
    """
    out: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, sub = alias.name.partition(".")
                if top == "raagv":
                    out.setdefault(sub.partition(".")[0] or "__init__", set()).add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").partition(".")[0] != "raagv":
                continue
            module = node.module.removeprefix("raagv").lstrip(".") if node.module else ""
            for alias in node.names:
                if module:
                    out.setdefault(module, set()).add(alias.name)
                elif alias.name in modules():
                    out.setdefault(alias.name, set()).add(alias.name)
                else:
                    out.setdefault("__init__", set()).add(alias.name)
    return out


@cache
def imports() -> dict[str, dict[str, set[str]]]:
    return {name: imported_names(tree) for name, tree in modules().items()}


def test_import_graph_is_acyclic():
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, "import cycle: " + " -> ".join((*path, module))
        if module in done:
            return
        for target in imports()[module]:
            visit(target, (*path, module))
        done.add(module)

    for module in modules():
        visit(module, ())


def test_imports_come_first_and_at_top_level():
    # rules out imports under TYPE_CHECKING, inside functions, and after the code
    for name, tree in modules().items():
        top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        nested = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in top
        ]
        assert not nested, f"{name}.py imports below module level at line {nested[0].lineno}"
        code = [node for node in tree.body if node not in top and not _is_docstring(node)]
        if top and code:
            assert top[-1].lineno < code[0].lineno, f"{name}.py imports after line {code[0].lineno}"


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


def test_classify_and_graphio_import_only_graphs():
    assert set(imports()["classify"]) == {"graphs"}
    assert set(imports()["graphio"]) == {"graphs"}


def test_partition_takes_only_canonical_partition_from_classify():
    assert imports()["partition"]["classify"] == {"canonical_partition"}
    for node in ast.walk(modules()["partition"]):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                assert getattr(inner, "id", None) != "canonical_partition", inner.lineno
                assert getattr(inner, "attr", None) != "canonical_partition", inner.lineno


def test_partition_binds_the_classify_function():
    assert partition.canonical_partition is classify.canonical_partition


def declared(name: str) -> list[str]:
    """The names in a module's top-level ``__all__``, read with ``ast``."""
    for node in modules()[name].body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"{name}.py declares no __all__")


def test_each_declared_name_is_defined_at_its_module_top_level():
    for name in REEXPORTED:
        defined = set()
        for node in modules()[name].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        missing = set(declared(name)) - defined
        assert not missing, f"{name}.__all__ names {sorted(missing)}, which it does not define"


def test_package_all_is_the_union_of_the_module_lists():
    union = [public for name in REEXPORTED for public in declared(name)]
    assert len(set(union)) == len(union), "a name is declared in two modules"
    assert len(set(raagv.__all__)) == len(raagv.__all__)
    assert set(raagv.__all__) == set(union)


def test_star_import_binds_each_name_from_its_home_module():
    namespace: dict = {}
    exec("from raagv import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(raagv.__all__)
    for name in REEXPORTED:
        home = getattr(raagv, name)
        for public in declared(name):
            assert namespace[public] is getattr(home, public), f"{public} is not {name}.{public}"


def test_init_imports_only_modules_and_star():
    for node in ast.walk(modules()["__init__"]):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            assert names == ["*"] or set(names) <= set(modules()), f"line {node.lineno}: {names}"
        else:
            assert not isinstance(node, ast.Import), f"line {node.lineno}"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the value types derive from graphs._Record, so a cold start of the CLI
    # pays for neither module; -S keeps site's own imports out of the count
    src = str(Path(raagv.__file__).parent.parent)
    probe = "import raagv.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
