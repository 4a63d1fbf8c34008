"""Source hygiene checks that read the package's modules as syntax trees."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "confinder"
# __init__ imports names to re-export them, so it is not scanned
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _names_used(tree: ast.AST):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "MixedGraph" names a type too
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def _names_imported(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"graphs", "latentize", "magspace", "vbem"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _names_used(tree)
    unused = [f"line {line}: {name}" for name, line in _names_imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
