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
