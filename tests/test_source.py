"""Static checks over the package source: every import is used, every
module-level function body is written once, every function and method
has a caller, no record type is generated by ``dataclasses``, no module
calls ``id()``, one method of the cell table is the only loop over a
check's seeds, and one method of the cell table builds every check's
report.  Last, a check that the code-size counter,
``tools/code_tokens.py``, counts what it says it counts."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import foregone

PACKAGE = Path(foregone.__file__).resolve().parent
SOURCES = sorted(PACKAGE.rglob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


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


def _references(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a name or as an
    attribute."""
    return Counter(
        inner.id if isinstance(inner, ast.Name) else inner.attr
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Name, ast.Attribute))
    )


def test_every_function_and_method_has_a_caller():
    # A caller in the package or a demo, other than the function itself,
    # or a mention in the README, which is the package's API list.
    # Special methods are called by the language, so they are left out.
    trees = [_tree(path) for path in SOURCES + sorted((ROOT / "demos").glob("*.py"))]
    references = sum(map(_references, trees), Counter())
    readme = (ROOT / "README.md").read_text()
    uncalled = []
    for path, tree in zip(SOURCES, trees):
        for owner, node in _owners(tree):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                continue
            if references[node.name] == _references(node)[node.name] and node.name not in readme:
                uncalled.append(f"{path.relative_to(PACKAGE)}:{owner}")
    assert uncalled == []


def test_only_the_cell_table_and_the_check_runner_build_a_report():
    # ``_Cells.report`` adds the seed-free note, so a report built
    # anywhere else in a walk could leave it out; ``run_check`` builds
    # the one report that no walk made, a failed hypothesis gate's.
    builders = [
        f"{path.relative_to(PACKAGE)}:{owner}"
        for path in SOURCES
        for owner, node in _owners(_tree(path))
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Name)
        and inner.func.id == "CheckReport"
    ]
    assert builders == ["checkers.py:_Cells.report", "scenarios/base.py:run_check"]


def test_no_module_imports_dataclasses():
    # each generated method costs an ``exec`` at import time
    importers = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                importers.append(str(path.relative_to(PACKAGE)))
    assert importers == []


def test_no_module_calls_id():
    # A build defines no ``__eq__`` and so hashes by identity: a key
    # holds the object itself, where a kept id could come to name
    # another object once the first is freed.
    callers = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert callers == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = (
        "import sys, foregone.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def _refers_to_seeds(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "seeds") or (
        isinstance(node, ast.Attribute) and node.attr == "seeds"
    )


def _owners(tree: ast.Module):
    """``(name, node)`` for each module-level statement, with each method
    of a class as its own ``Class.method`` entry."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield f"{node.name}.{getattr(item, 'name', '<body>')}", item
        else:
            yield getattr(node, "name", "<module>"), node


def test_only_the_cell_walk_loops_over_the_seeds():
    # ``_Cells.walk`` decides alone when a tape-free cell may stop, so a
    # change to how seeds stand in for tapes has one loop to change.  The
    # one subscript left is the unknown-goal probe's first-seed compare.
    offenders = []
    for owner, node in _owners(_tree(PACKAGE / "checkers.py")):
        if owner == "_Cells.walk":
            continue
        for inner in ast.walk(node):
            if isinstance(inner, (ast.For, ast.comprehension)):
                if any(map(_refers_to_seeds, ast.walk(inner.iter))):
                    offenders.append((owner, "loop", inner.iter.lineno))
            elif isinstance(inner, ast.Subscript) and _refers_to_seeds(inner.value):
                first_seed = isinstance(inner.slice, ast.Constant) and inner.slice.value == 0
                if not (owner == "probe_unknown_goal" and first_seed):
                    offenders.append((owner, "subscript", inner.lineno))
    assert offenders == []


def test_the_cell_walk_is_given_nothing_but_its_table():
    # The walk learns from the table's runs which cells read a tape, so
    # no caller names the machines of a cell to it.
    tree = _tree(PACKAGE / "checkers.py")
    walk = dict(_owners(tree))["_Cells.walk"]
    assert [arg.arg for arg in walk.args.args] == ["self"]
    assert not (walk.args.vararg or walk.args.kwarg or walk.args.kwonlyargs)
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "walk"
    ]
    assert calls and all(not (call.args or call.keywords) for call in calls)


def test_the_code_size_counter_skips_docstrings_comments_and_layout(tmp_path):
    (tmp_path / "sample.py").write_text(
        '"""Module docstring."""\n\n# a comment\ndef f(x):\n'
        '    """Docstring."""\n    return "text" + x\n'
    )
    counter = Path(__file__).resolve().parent.parent / "tools" / "code_tokens.py"
    ran = subprocess.run(
        [sys.executable, str(counter), str(tmp_path)], capture_output=True, text=True, check=True
    )
    # def f ( x ) : return "text" + x
    assert ran.stdout == "10\n"
