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
PERFBENCH = PYPROJECT.parent / "perfbench"

# public numcore functions that nothing in src/ calls, each kept for a reason
UNCALLED_NUMCORE = {
    "masked_kl_rows": "kept for phase-2 fine-tuning",
}


def references(tree: ast.AST, name: str) -> list[ast.AST]:
    """The nodes of `tree` that name `name`: as a name, an attribute or an import."""
    return [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and name in (node.name, node.asname))
    ]


def test_only_tokenizer_names_encoding_error():
    """`tokenizer.check_columns` is the one vocabulary check: no other src module imports or names EncodingError."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tokenizer.py":
            continue
        found += [f"{path.name}:{node.lineno}" for node in references(ast.parse(path.read_text(encoding="utf-8")), "EncodingError")]
    assert found == [], "EncodingError outside tokenizer.py"


def test_only_roll_out_draws_a_move():
    """`synthgen.roll_out` is the one place a move is drawn: nothing else in src/ imports or names
    `inverse_cdf`, apart from numcore's own definition, which is no reference."""
    found, inside = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "synthgen.py":
            roll_out = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "roll_out")
            allowed = {id(node) for node in ast.walk(roll_out)}
        for node in references(tree, "inverse_cdf"):
            (inside if id(node) in allowed else found).append(f"{path.name}:{node.lineno}")
    assert inside, "roll_out no longer draws with inverse_cdf"
    assert found == [], "inverse_cdf referenced outside synthgen.roll_out"


def test_only_numcore_names_masked_logsumexp():
    """Every masked softmax is `numcore.masked_log_softmax`: no src module but numcore imports or names
    `masked_logsumexp`, so none can write the log-softmax out by hand."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "numcore.py":
            found += [f"{path.name}:{node.lineno}" for node in references(ast.parse(path.read_text(encoding="utf-8")), "masked_logsumexp")]
    assert found == [], "masked_logsumexp named outside numcore.py"


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


# The functions of src/ that may rebind a tensor's `data`. Every other write goes through the
# array: a parameter's `data` is a view of its model's `vector`, and a rebound one would drop out
# of copy, checkpoint, best snapshot and optimizer without an error.
DATA_BINDERS = {("numcore.py", "Tensor.__init__"), ("checkpoint.py", "ParamModel.bind_vector")}


def data_stores() -> list[tuple[str, str, int]]:
    """(file, enclosing class/function path, line) of each store to a `.data` attribute in src/."""
    found = []

    def visit(node, path_name, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path_name, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "data" and isinstance(child.ctx, ast.Store):
                found.append((path_name, scope, child.lineno))
            visit(child, path_name, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return found


def test_tensor_data_is_rebound_only_by_its_binders():
    stores = data_stores()
    assert DATA_BINDERS <= {(name, scope) for name, scope, _ in stores}, "a binder no longer assigns `.data`"
    assert [s for s in stores if s[:2] not in DATA_BINDERS] == [], "`.data` assigned outside the binders"


def perfbench_reads() -> set[tuple[str, str]]:
    """(module, name) of each trajforge name that perfbench/ reads: `module.name` attributes of the modules
    it imports by `from trajforge import ...`, and the names of each `from trajforge.module import ...`."""
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "trajforge":
                modules |= {a.asname or a.name: a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trajforge."):
                reads |= {(node.module.removeprefix("trajforge."), a.name) for a in node.names}
        reads |= {
            (modules[n.value.id], n.attr)
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules
        }
    return reads


def test_names_that_perfbench_reads_exist():
    """A refactor that deletes or renames a name the benchmark calls fails here, not in a benchmark run."""
    reads = perfbench_reads()
    assert {("rewardirl", "recover_reward"), ("rewardirl", "critic_policy"), ("numcore", "make_rng")} <= reads
    missing = [
        f"trajforge.{module}.{name}"
        for module, name in sorted(reads)
        if not hasattr(importlib.import_module(f"trajforge.{module}"), name)
    ]
    assert missing == [], "names that perfbench/ reads but trajforge no longer has"
