import ast
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_console_scripts_resolve():
    """Every [project.scripts] target must import and name a callable."""
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr_path = target.partition(":")
        obj = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"console script {name!r} -> {target!r} is not callable"


SRC = PYPROJECT.parent / "src" / "trajforge"

# public numcore functions that nothing in src/ calls, each kept for a reason
UNCALLED_NUMCORE = {
    "sum_all": "the test harness: a scalar loss for gradient checks",
    "finite_diff_check": "the test harness: gradient checks of every differentiable op",
    "masked_kl_rows": "kept for phase-2 fine-tuning",
    "tensor": "the constructor alias that the tests use",
}


def numcore_references() -> set[str]:
    """Names of numcore reached from src/: `nc.f` attributes and names imported from numcore in the
    other modules, and names that numcore's own code loads."""
    refs = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "numcore.py":
            refs |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            continue
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numcore":
                refs |= {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                aliases |= {a.asname or a.name for a in node.names if a.name == "numcore"}
        refs |= {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases
        }
    return refs


def test_numcore_holds_only_called_functions():
    """Every public numcore function is called from src/, or is on the allowlist with its reason."""
    tree = ast.parse((SRC / "numcore.py").read_text(encoding="utf-8"))
    public = {n.name for n in tree.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
    assert set(UNCALLED_NUMCORE) <= public, "the allowlist names a function numcore no longer has"
    refs = numcore_references()
    assert sorted(public - refs - set(UNCALLED_NUMCORE)) == [], "public numcore functions that nothing in src/ calls"
    assert sorted(set(UNCALLED_NUMCORE) & refs) == [], "allowlisted numcore functions that src/ now calls"
