"""Every name a package module imports is used in that module or re-exported."""

import ast
from pathlib import Path

import pytest

import tripletdist

MODULES = sorted(Path(tripletdist.__file__).parent.glob("*.py"))


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.append((alias.asname or alias.name, node.lineno))
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep = used | _exported(tree)
    return [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
            if name not in keep]


def test_package_modules_found():
    assert {"cli.py", "core.py", "cover.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    unused = unused_imports(path)
    assert not unused, "unused imports: " + ", ".join(unused)
