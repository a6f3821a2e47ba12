"""Source hygiene of src/fincat, checked with the standard library's ast:
no module imports a name it never uses, no top-level private function or
class goes unreferenced, no function binds a local it never reads, and no
None default stands for a value a call computes.  Dead aliases, duplicate
helpers, unused unpacked values and second paths left behind by a refactor
fail here, and so does a rename of a function the benchmark traces.  Imports
sit at the top of each module and point down one fixed order of layers, and
the package loads a module only when one of its names is read."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fincat"


def _modules():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _referenced(tree):
    """Every name a module reads: bare names, attribute names and the names
    it imports from sibling modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _imported(tree):
    """(bound name, line) for every import, skipping __future__ imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue    # re-exports the public names
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound}" for bound, line in _imported(tree)
                   if bound not in used]
    assert unused == []


def test_every_private_top_level_definition_is_referenced():
    modules = _modules()
    referenced = set().union(*map(_referenced, modules.values()))
    dead = [f"{name}: {node.name}"
            for name, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in referenced]
    assert dead == []


def test_no_function_binds_a_local_it_never_reads():
    """A name bound in a function (unpacking targets included) must be read
    somewhere in it; a value kept on purpose is bound to a name starting with
    an underscore."""
    unread = []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            stored, read = {}, set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Store):
                        stored.setdefault(node.id, node.lineno)
                    else:
                        read.add(node.id)
            unread += [f"{name}:{line} {fn.name}: {local}"
                       for local, line in stored.items()
                       if local not in read and not local.startswith("_")]
    assert unread == []


def test_no_top_level_function_binds_a_parameter_it_never_reads():
    """A parameter kept on purpose starts with an underscore.  The cli
    ``_cmd_*`` handlers are exempt: ``run_command`` calls them all with one
    signature."""
    unread = []
    for name, tree in _modules().items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or (
                    name == "cli.py" and fn.name.startswith("_cmd_")):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
                    and not isinstance(node.ctx, ast.Store)}
            unread += [f"{name}:{fn.lineno} {fn.name}: {p}" for p in params
                       if p not in read and not p.startswith("_")]
    assert unread == []


# (module, function, parameter) whose None default is still computed by a
# call: the product base of a module's presheaf, until the module calculus
# stops building product categories (ROADMAP item 4).
COMPUTED_DEFAULTS_PENDING = {("profunctor.py", "as_presheaf", "base"),
                             ("profunctor.py", "TwoCell.__init__", "base")}


def _functions(tree):
    """(qualified name, node) for every top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def _none_defaulted(fn):
    a = fn.args
    positional = a.posonlyargs + a.args
    pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
    pairs += [(p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return {p.arg for p, d in pairs
            if isinstance(d, ast.Constant) and d.value is None}


def _none_test(test, params):
    """(parameter, is_none) if test is ``p is None`` or ``p is not None``."""
    if (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id in params and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return test.left.id, isinstance(test.ops[0], ast.Is)
    return None, None


def _calls(node):
    return any(isinstance(n, ast.Call) for n in ast.walk(node))


def test_no_none_default_stands_for_a_computed_value():
    """A parameter defaulting to None must not be replaced by a value that a
    call computes, either by ``if p is None: p = f(...)`` or by a conditional
    expression on ``p is (not) None`` whose None branch is a call: that offers
    callers a second path to a value the function can compute itself.
    Constant stand-ins, such as ``core.DEFAULT_BUDGET``, are allowed."""
    found = []
    for name, tree in _modules().items():
        for qualname, fn in _functions(tree):
            params = _none_defaulted(fn)
            for node in ast.walk(fn):
                if isinstance(node, ast.If):
                    p, is_none = _none_test(node.test, params)
                    computed = is_none and any(
                        isinstance(st, ast.Assign) and _calls(st.value)
                        and any(isinstance(t, ast.Name) and t.id == p
                                for t in st.targets)
                        for st in node.body)
                elif isinstance(node, ast.IfExp):
                    p, is_none = _none_test(node.test, params)
                    computed = p is not None and _calls(
                        node.body if is_none else node.orelse)
                else:
                    continue
                if computed and (name, qualname, p) not in COMPUTED_DEFAULTS_PENDING:
                    found.append(f"{name}:{node.lineno} {qualname}: {p}")
    assert found == []


def test_every_traced_layer_of_the_benchmark_names_a_callable():
    """Each key under "layers" in perfbench/workloads.json is module.name of
    a callable in fincat.<module>, so renaming or removing a function the
    benchmark traces fails here, not only in a traced benchmark run."""
    layers = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["layers"]
    missing = []
    for key in layers:
        module, name = key.split(".", 1)
        if not callable(getattr(importlib.import_module(f"fincat.{module}"), name, None)):
            missing.append(key)
    assert layers and missing == []


# Each module imports only modules before it; __init__ re-exports the names of
# the modules before cli, each loaded when it is first read.
LAYERS = ("errors", "core", "limits", "equivalence", "kan", "profunctor",
          "cauchy", "classes", "workspace", "cli", "corpus")


def test_every_import_is_at_the_top_of_its_module():
    nested = [f"{name}:{node.lineno}" for name, tree in _modules().items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and node not in tree.body]
    assert nested == []


def _relative_imports(tree):
    """The sibling modules a module imports with ``from .x import ...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield from ([node.module] if node.module
                        else [alias.name for alias in node.names])


def test_relative_imports_point_down_the_layer_order():
    modules = {name[:-3]: tree for name, tree in _modules().items()
               if name != "__init__.py"}
    assert sorted(modules) == sorted(LAYERS)
    upward = [f"{name} imports {target}"
              for name, tree in modules.items()
              for target in _relative_imports(tree)
              if LAYERS.index(target) >= LAYERS.index(name)]
    assert upward == []
    assert set(_relative_imports(modules["workspace"])) == {"core", "errors"}


def test_package_reads_point_down_the_layer_order():
    """The cli reads most of the library as ``fincat.<module>.<name>``, which
    the relative-import check does not see; those modules, and the modules
    of the package's export table, must come before cli."""
    read = {node.attr for node in ast.walk(_modules()["cli.py"])
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "fincat"}
    exported = set(importlib.import_module("fincat")._EXPORTS)
    below = set(LAYERS[:LAYERS.index("cli")])
    assert read and read <= below and "corpus" not in read
    assert exported <= below and "corpus" not in exported


def _loaded_by(statement):
    """The fincat modules a fresh interpreter holds after ``statement``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    code = (f"{statement}; import sys; print(' '.join(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'fincat')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_importing_the_package_loads_no_submodule_but_errors():
    assert _loaded_by("import fincat") <= {"fincat", "fincat.errors"}


def test_importing_the_cli_loads_only_what_every_command_reads():
    assert _loaded_by("import fincat.cli") == {
        "fincat", "fincat.cli", "fincat.core", "fincat.errors", "fincat.workspace"}


def test_importing_the_cli_leaves_the_corpus_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    code = "import fincat.cli, sys; print('fincat.corpus' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_moved_weights_keep_their_old_import_paths():
    fincat = importlib.import_module("fincat")
    classes, core, corpus = (importlib.import_module(f"fincat.{m}")
                             for m in ("classes", "core", "corpus"))
    assert fincat.WeightClass is classes.WeightClass is core.WeightClass
    assert fincat.Caps is classes.Caps is core.Caps
    assert (corpus.delta0, corpus.delta1) == (core.delta0, core.delta1)


def test_every_exported_name_is_its_defining_modules_object():
    """Each name of ``fincat.__all__`` is the object of the module that defines
    it, is listed by ``dir`` and is bound by a star import."""
    fincat = importlib.import_module("fincat")
    star = {}
    exec("from fincat import *", star)
    listed = dir(fincat)
    wrong = []
    for name in fincat.__all__:
        value = getattr(fincat, name)
        home = importlib.import_module(value.__module__)
        if not (home.__name__.startswith("fincat.") and getattr(home, name) is value
                and name in listed and star.get(name) is value):
            wrong.append(name)
    assert fincat.__all__ and wrong == []
    with pytest.raises(AttributeError):
        fincat.no_such_name


def test_package_names_read_through_to_their_modules(monkeypatch):
    """The package keeps no copy of a name it exports, so a function rebound
    in its module, as the benchmark's tracer does, is seen through the package
    and restored with it."""
    fincat = importlib.import_module("fincat")
    limits = importlib.import_module("fincat.limits")
    original = limits.finset_limit
    monkeypatch.setattr(limits, "finset_limit", "patched")
    assert fincat.finset_limit == "patched"
    monkeypatch.undo()
    assert fincat.finset_limit is original
    assert "finset_limit" not in vars(fincat)
