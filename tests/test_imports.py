"""Static hygiene: every name a ribv module imports is used there, and
every import sits at module level."""

import ast
from pathlib import Path

import ribv

SRC = Path(ribv.__file__).resolve().parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used and name not in exported]


def test_no_unused_imports():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 for msg in _unused_imports(path)]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)


def _nested_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and id(node) not in top]


def test_imports_at_module_level():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 for msg in _nested_imports(path)]
    assert not offenders, "imports below module level:\n" \
        + "\n".join(offenders)
