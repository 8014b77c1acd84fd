"""The package's public names and the benchmark's reads of them, no unused
imports in its modules, and no stale names in its docs."""

import ast
import importlib.util
import re
from pathlib import Path

import plattersim
import plattersim.cli  # README names `plattersim.cli.main`: bind the submodule whatever ran first


def test_every_exported_name_resolves_once():
    names = plattersim.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(plattersim, name)]
    assert missing == []


BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_every_name_the_benchmark_loads_resolves():
    # bench/workloads.py's load_api binds plattersim and some of its modules
    # with import_module and reads names off them; its getattr(..., None)
    # probes are for names a version may lack, and are not reads.
    tree = ast.parse(BENCH_WORKLOADS.read_text())
    load_api = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "load_api")
    modules, missing = {}, []
    for node in ast.walk(load_api):
        call = node.value if isinstance(node, ast.Assign) else None
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "import_module":
            name = call.args[0].value
            if importlib.util.find_spec(name) is None:
                missing.append(name)
            else:
                modules[node.targets[0].id] = importlib.import_module(name)
    reads = [
        (node.value.id, node.attr)
        for node in ast.walk(load_api)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    ]
    missing += [f"{module}.{name}" for module, name in reads if not hasattr(modules[module], name)]
    assert missing == []
    assert {"ps", "modsbsm"} <= modules.keys() and len(reads) > len(modules)


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


# A backticked dotted name: ``metrics.replay``, :meth:`Scenario.sweeps`, or a
# README code span such as `SchedulerRun.priced`.
REFERENCE = re.compile(r"`~?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
README = Path(__file__).resolve().parents[1] / "README.md"


def _stale_references(text: str, scope: dict) -> list[str]:
    """Dotted names in ``text`` that do not resolve, attribute by attribute, from ``scope``."""
    stale = []
    for name in REFERENCE.findall(text):
        head, *attributes = name.removeprefix("plattersim.").split(".")
        found, obj = head in scope, scope.get(head)
        for attribute in attributes:
            found = found and (hasattr(obj, attribute) or attribute in getattr(obj, "__dataclass_fields__", ()))
            obj = getattr(obj, attribute, None)
        if not found:
            stale.append(name)
    return stale


def test_stale_reference_scan_flags_a_renamed_name():
    text = "See ``metrics.replay``, :meth:`Scenario.sweeps`, ``SchedulerRun.steps`` and ``metrics._leg_steps``."
    assert _stale_references(text, vars(plattersim)) == ["metrics._leg_steps"]
    assert _stale_references("`Scenario.down` and ``Plan.legs``", vars(plattersim)) == ["Scenario.down", "Plan.legs"]


def test_docstrings_and_readme_name_only_what_exists():
    package = Path(plattersim.__file__).parent
    stale = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
                stale[f"{path.name}:{getattr(node, 'name', '')}"] = _stale_references(ast.get_docstring(node), vars(plattersim))
    # README code spans may name the objects its Python examples bind, such as `run.steps`.
    readme = README.read_text()
    scope = dict(vars(plattersim))
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S):
        exec(compile(block, str(README), "exec"), scope)
    stale["README.md"] = _stale_references(readme, scope)
    assert {where: names for where, names in stale.items() if names} == {}
