"""Static checks over the package source: every import is used, and
every module-level function body is written once."""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import foregone

PACKAGE = Path(foregone.__file__).resolve().parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_module_imports_a_name_it_does_not_use():
    unused = {
        str(path.relative_to(PACKAGE)): names
        for path in SOURCES
        if (names := _unused_imports(_tree(path)))
    }
    assert unused == {}


def test_no_two_module_level_functions_share_arguments_and_body():
    # A shared body belongs in one module that the others import.
    owners = defaultdict(list)
    for path in SOURCES:
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef):
                body = node.body[1:] if ast.get_docstring(node) else node.body
                key = ast.dump(node.args) + "".join(map(ast.dump, body))
                owners[key].append(f"{path.relative_to(PACKAGE)}:{node.name}")
    assert [names for names in owners.values() if len(names) > 1] == []
