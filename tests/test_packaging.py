import ast
import dataclasses
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from trajforge import netgrid, pretrain, rewardirl, synthgen, tokenizer, trajmodel

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_console_scripts_resolve():
    """Every [project.scripts] target must import and name a callable."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11; only this test reads TOML
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr_path = target.partition(":")
        obj = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"console script {name!r} -> {target!r} is not callable"


SRC = PYPROJECT.parent / "src" / "trajforge"
PERFBENCH = PYPROJECT.parent / "perfbench"

# Public module-level functions and classes of src/ that nothing in src/ names and perfbench/ does not
# read, each kept for a reason: (module, name) -> reason.
UNREACHED_SRC = {
    **{
        ("synthgen", name): "a dataset file reader or writer, for the `trajforge` command (ROADMAP direction 13)"
        for name in ("save_dataset", "load_dataset", "save_preferences", "load_preferences", "ingest_csv")
    },
    ("netgrid", "load_link_graph"): "a network file reader, for the `trajforge` command (ROADMAP direction 13)",
    ("netgrid", "save_link_graph"): "a network file writer, for the `trajforge` command (ROADMAP direction 13)",
    ("checkpoint", "load"): "the one checkpoint reader, for the `trajforge` command (ROADMAP direction 13)",
    ("numcore", "masked_kl_rows"): "kept for phase-2 fine-tuning",
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


def test_only_fit_steps_a_learner():
    """`pretrain.fit` is the one epoch loop: nothing else in src/ imports or names `apply_step`, apart
    from its own definition, which is no reference."""
    found, inside = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "pretrain.py":
            fit = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "fit")
            allowed = {id(node) for node in ast.walk(fit)}
        for node in references(tree, "apply_step"):
            (inside if id(node) in allowed else found).append(f"{path.name}:{node.lineno}")
    assert inside, "fit no longer steps with apply_step"
    assert found == [], "apply_step referenced outside pretrain.fit"


def test_only_numcore_names_masked_logsumexp():
    """Every masked softmax is `numcore.masked_log_softmax`: no src module but numcore imports or names
    `masked_logsumexp`, so none can write the log-softmax out by hand."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "numcore.py":
            found += [f"{path.name}:{node.lineno}" for node in references(ast.parse(path.read_text(encoding="utf-8")), "masked_logsumexp")]
    assert found == [], "masked_logsumexp named outside numcore.py"


def test_only_numcore_names_uintp():
    """Every index column is judged by `numcore.index_faults`: no src module but numcore names `np.uintp`,
    so none can write the unsigned range compare out by hand."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "numcore.py":
            found += [f"{path.name}:{node.lineno}" for node in references(ast.parse(path.read_text(encoding="utf-8")), "uintp")]
    assert found == [], "np.uintp named outside numcore.py"


def trajforge_reads(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) of each trajforge name that `tree` reads: the names it imports from a trajforge module,
    and the `alias.name` attributes of the trajforge modules it imports, relatively, as src/ does, or by
    `from trajforge import ...`, as perfbench/ does."""
    reads, modules = set(), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.module if node.level == 0 else ".".join(filter(None, ["trajforge", node.module]))
        if package == "trajforge":
            modules |= {a.asname or a.name: a.name for a in node.names}
        elif package.startswith("trajforge."):
            reads |= {(package.removeprefix("trajforge."), a.name) for a in node.names}
    reads |= {
        (modules[n.value.id], n.attr)
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules
    }
    return reads


def src_references() -> set[tuple[str, str]]:
    """(module, name) of each name that src/ reaches: the names each module reads from another, and the
    names that each module's own code loads."""
    refs = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs |= trajforge_reads(tree)
        refs |= {(path.stem, n.id) for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return refs


def public_names(module: str) -> set[str]:
    """The public module-level functions and classes of src/'s `module`."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")}


def test_numcore_holds_only_called_functions():
    """Every public numcore function is called from src/, or is on the allowlist with its reason."""
    tree = ast.parse((SRC / "numcore.py").read_text(encoding="utf-8"))
    public = {n.name for n in tree.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
    uncalled = {name for module, name in UNREACHED_SRC if module == "numcore"}
    assert uncalled <= public, "the allowlist names a function numcore no longer has"
    refs = {name for module, name in src_references() if module == "numcore"}
    assert sorted(public - refs - uncalled) == [], "public numcore functions that nothing in src/ calls"
    assert sorted(uncalled & refs) == [], "allowlisted numcore functions that src/ now calls"


def test_src_holds_only_reached_names():
    """Every public module-level function and class of src/ is named by src/ apart from its definition, or read
    by perfbench/, or is on the allowlist with its reason."""
    public = {(path.stem, name) for path in SRC.glob("*.py") for name in public_names(path.stem)}
    reached = src_references() | perfbench_reads()
    assert set(UNREACHED_SRC) <= public, "the allowlist names a function or class that src/ no longer has"
    assert sorted(public - reached - set(UNREACHED_SRC)) == [], "public names that nothing in src/ or perfbench/ reaches"
    assert sorted(set(UNREACHED_SRC) & reached) == [], "allowlisted names that src/ or perfbench/ now reaches"


# Public methods and properties of public src/ classes that no attribute in src/ or perfbench/ names
# outside their own definition, each kept for a reason: (module, class, name) -> reason.
UNREACHED_METHODS: dict[tuple[str, str, str], str] = {}


def test_src_methods_are_reached():
    """Every public method and property of a public class of src/ is named as an attribute by src/ or
    perfbench/ outside its own definition, or is on the allowlist with its reason:
    `test_src_holds_only_reached_names` sees module-level names only."""
    paths = [*sorted(SRC.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    attributes = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    methods = {
        (path.stem, cls.name, fn.name): fn
        for path, tree in trees.items()
        if path.parent == SRC
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    }
    unreached = set()
    for key, fn in methods.items():
        own = {id(node) for node in ast.walk(fn)}
        if not any(node.attr == fn.name and id(node) not in own for node in attributes):
            unreached.add(key)
    assert set(UNREACHED_METHODS) <= set(methods), "the allowlist names a method that src/ no longer has"
    assert sorted(unreached - set(UNREACHED_METHODS)) == [], "public methods that nothing in src/ or perfbench/ names"
    assert sorted(set(UNREACHED_METHODS) - unreached) == [], "allowlisted methods that src/ or perfbench/ now names"


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


@pytest.mark.parametrize("net", [netgrid.GridNetwork(netgrid.GridSpec(3, 2)), netgrid.LinkGraph([[1, 2], [], [0]])], ids=["grid", "links"])
def test_network_arrays_are_read_only(net):
    """A network's tables are built once and shared by every reader, so no numpy array it holds may change in place."""
    net.hops  # built on first read
    arrays = {name: value for name, value in vars(net).items() if isinstance(value, np.ndarray)}
    assert {"succ", "feasible", "dead_end", "hops"} <= arrays.keys()
    assert sorted(name for name, value in arrays.items() if value.flags.writeable) == []


def perfbench_reads() -> set[tuple[str, str]]:
    """(module, name) of each trajforge name that perfbench/ reads (`trajforge_reads`)."""
    trees = (ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PERFBENCH.glob("*.py")))
    return set().union(*map(trajforge_reads, trees))


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


def config_cases():
    """Each dataclass of src/ that checks itself when made, a config or a record, with valid arguments
    for its fields without defaults."""
    vocab = tokenizer.VocabSpec(positions=9, depart_bins=3, speed_bins=3, users=2, max_timestep=5)
    return [
        (tokenizer.VocabSpec, dict(positions=9, depart_bins=3, speed_bins=3, users=2, max_timestep=5)),
        (netgrid.GridSpec, dict(width=3, height=3)),
        (synthgen.SynthConfig, {}),
        (trajmodel.ModelConfig, dict(vocab=vocab, d_model=8, n_heads=2)),
        (rewardirl.CriticConfig, dict(vocab=vocab)),
        (pretrain.TrainConfig, {}),
        (rewardirl.IRLConfig, {}),
        (trajmodel.GenerationContext, dict(origin=0, destination=8, depart_bin=0, speed_bin=0, user_id=0)),
        (synthgen.IngestConfig, dict(lon_min=116.0, lat_min=39.0, lon_max=116.5, lat_max=39.5)),
        (synthgen.Trajectory, dict(traj_id=0, user_id=0, depart_bin=0, speed_bin=0, positions=[0, 1], actions=[5])),
        (netgrid.EnvState, dict(position=0, origin=0, destination=8, depart_bin=0, speed_bin=0, user_id=0)),
    ]


@pytest.mark.parametrize("value", [True, 2.5, None, "1"])
def test_config_int_fields_reject_bools_and_fractions_by_name(value):
    """Every `int` field of every config rejects a bool, a non-integral number, None and a str when the
    config is made, with a ValueError that names the field: the `trajforge` command will map its
    arguments onto these fields."""
    for config, valid in config_cases():
        config(**valid)
        int_fields = [f.name for f in dataclasses.fields(config) if f.type in ("int", int)]
        assert int_fields, f"{config.__name__} has no int field"
        for name in int_fields:
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
                config(**{**valid, name: value})


@pytest.mark.parametrize("value", [None, "1", True, math.nan, math.inf])
def test_config_float_fields_reject_non_numbers_and_non_finite_by_name(value):
    """Every `float` field of every config rejects None, a str, a bool, NaN and inf when the config is made,
    with a ValueError that names the field, before any bound of the config can meet the value."""
    float_fields = {config: [f.name for f in dataclasses.fields(config) if f.type in ("float", float)] for config, _ in config_cases()}
    assert [config.__name__ for config, names in float_fields.items() if not names] == ["VocabSpec", "Trajectory", "EnvState"]
    for config, valid in config_cases():
        for name in float_fields[config]:
            with pytest.raises(ValueError, match=rf"^{name} must be a finite real number, got {re.escape(repr(value))}$"):
                config(**{**valid, name: value})


POST_INIT_BEYOND_REQUIRE = {"PreferenceParams": "converts `theta` to a float array before it checks it"}


def test_config_post_init_only_calls_require():
    """`numcore.require` is the one field check: the `__post_init__` of every dataclass of src/ that has
    one, a config or a record such as `Trajectory`, is `require` calls and raises nothing itself. After
    them, a frozen dataclass may store a checked field in a form that cannot change in place, by
    `object.__setattr__`. `POST_INIT_BEYOND_REQUIRE` names each exception and its reason."""
    configs = {config.__name__: config for config, _ in config_cases()}
    post_inits = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and is_dataclass_def(node):
                post_inits.update((node.name, n) for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__post_init__")
    assert POST_INIT_BEYOND_REQUIRE.keys() <= post_inits.keys(), "an exception that no longer has a __post_init__"
    assert sorted(post_inits.keys() - POST_INIT_BEYOND_REQUIRE.keys()) == sorted(configs)
    for name in configs:
        post_init = post_inits[name]
        for stmt in post_init.body:
            assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call), f"{name}.__post_init__ holds more than calls"
        funcs = [ast.unparse(stmt.value.func) for stmt in post_init.body]
        checks = funcs.count("require")
        assert checks and funcs == ["require"] * checks + ["object.__setattr__"] * (len(funcs) - checks), (
            f"{name}.__post_init__ calls another function, or stores a field before `require` has checked it"
        )
        assert not any(isinstance(n, ast.Raise) for n in ast.walk(post_init)), f"{name}.__post_init__ raises"


def is_dataclass_def(node: ast.ClassDef) -> bool:
    """True when `node` is decorated with `dataclass` or `dataclass(...)`."""
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass" for d in node.decorator_list)
