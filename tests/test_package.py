"""The package's public names, and no unused imports in its modules."""

import ast
from pathlib import Path

import plattersim


def test_every_exported_name_resolves_once():
    names = plattersim.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(plattersim, name)]
    assert missing == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``__future__`` imports aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_scan_flags_a_leftover():
    assert _unused_imports("from .metrics import SchedulerRun, totals\nSchedulerRun\n") == [
        "totals (line 1)"
    ]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py is skipped: its imports are the package's re-exports.
    package = Path(plattersim.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
