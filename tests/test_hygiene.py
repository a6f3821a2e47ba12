"""Source hygiene of src/fincat, checked with the standard library's ast:
no module imports a name it never uses, no top-level private function or
class goes unreferenced, and no function binds a local it never reads.  Dead
aliases, duplicate helpers and unused unpacked values left behind by a
refactor fail here, and so does a rename of a function the benchmark traces."""
import ast
import importlib
import json
from pathlib import Path

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
