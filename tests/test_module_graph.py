"""The package's modules import one another along a DAG rooted at graphs.

The triple scan, the twin-class recognizer and the greedy builder check one
another, so none may reach another through an import: ``classify`` and
``graphio`` import only ``graphs``, where the result types live, and
``partition`` takes from ``classify`` only the name ``canonical_partition``,
which none of its functions calls.  The imports are read with ``ast`` from
every position in each file, so a late or conditional import counts too.
"""

import ast
from functools import cache
from pathlib import Path

import raagv
from raagv import classify, partition


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
