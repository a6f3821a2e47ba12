"""Source hygiene of src/fincat, checked with the standard library's ast:
no module imports a name it never uses, no top-level private function or
class goes unreferenced, no function binds a local it never reads, no
None default stands for a value a call computes (two listed exceptions), no
NatTrans is built only to be frozen, no class subclasses NatTrans, no table
of a presheaf or category is changed after construction, product
categories are built only by the listed functions that view a module as a
presheaf, every public function, class, method and property has a reader in
the library or the benchmark or a listed reason to ship without one, every
dataclass field is read somewhere in the library, the benchmark or the
tests, and no function takes a budget parameter, since every search reads
the one budget.  Dead aliases, duplicate helpers, unused unpacked values,
unread result fields and second paths left behind by a refactor fail here,
and so do a rename of a function the benchmark traces and a public
generator function, which its tracer cannot time.  Imports sit at the top
of each module and point down one fixed order of layers, and the package
loads a module only when one of its names is read."""
import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
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


def _budget_parameters(tree):
    """(name, line) of every function, method or lambda, at any depth, that
    takes a parameter named budget."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            a = fn.args
            if "budget" in [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                            + [a.vararg, a.kwarg] if p is not None]:
                found.add((getattr(fn, "name", "<lambda>"), fn.lineno))
    return found


def _default_budget_uses(tree):
    """(function, "read" or "write") of each use of DEFAULT_BUDGET, bare or
    as an attribute, by the top-level function or method it sits in; a use
    outside any function is listed under "<module>"."""
    def uses(node):
        for inner in ast.walk(node):
            if (getattr(inner, "id", None) == "DEFAULT_BUDGET"
                    or getattr(inner, "attr", None) == "DEFAULT_BUDGET"):
                yield "write" if isinstance(inner.ctx, ast.Store) else "read"
    found = {(qualname, use) for qualname, fn in _functions(tree) for use in uses(fn)}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            node = ast.Module(body=[n for n in node.body
                                    if not isinstance(n, ast.FunctionDef)], type_ignores=[])
        elif isinstance(node, ast.FunctionDef):
            continue
        found.update(("<module>", use) for use in uses(node))
    return found


def test_every_search_reads_the_one_budget():
    """No function of src/fincat takes a ``budget`` parameter: every search
    counts its nodes on a ``core.Meter``, which reads ``core.DEFAULT_BUDGET``
    when it is built, and only ``cli.main`` sets that, from --budget, for one
    command.  The samples show each form the two checks catch."""
    sample = ast.parse("def f(budget=None):\n    pass\n"
                       "class K:\n    def g(self, *, budget):\n        pass\n"
                       "    def h(self):\n        return lambda budget: budget\n"
                       "k = lambda budget: 0\n"
                       "def ok(nodes, **kw):\n    return kw.get('budget')\n")
    assert _budget_parameters(sample) == {("f", 1), ("g", 4), ("<lambda>", 7),
                                          ("<lambda>", 8)}
    sample = ast.parse("DEFAULT_BUDGET = 1\n"
                       "def f():\n    return DEFAULT_BUDGET\n"
                       "class K:\n    def g(self):\n        core.DEFAULT_BUDGET = 2\n")
    assert _default_budget_uses(sample) == {("<module>", "write"), ("f", "read"),
                                            ("K.g", "write")}
    modules = _modules()
    assert {f"{name}:{line} {fn}" for name, tree in modules.items()
            for fn, line in _budget_parameters(tree)} == set()
    uses = {(f"{name[:-3]}.{q}", use) for name, tree in modules.items()
            for q, use in _default_budget_uses(tree)}
    assert uses == {("core.<module>", "write"), ("core.Meter.__init__", "read"),
                    ("cli.main", "read"), ("cli.main", "write")}


def test_no_natural_family_is_built_only_to_be_frozen():
    """A frozen form is built with ``core._freeze``, not by constructing a
    NatTrans whose only use is ``.frozen()``."""
    throwaway = [f"{name}:{node.lineno}" for name, tree in _modules().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "frozen" and isinstance(node.func.value, ast.Call)
                 and isinstance(node.func.value.func, ast.Name)
                 and node.func.value.func.id == "NatTrans"]
    assert throwaway == []


def _nat_trans_subclasses(tree):
    """Every class whose bases name ``NatTrans``, bare or as an attribute."""
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for base in node.bases
            if "NatTrans" in (getattr(base, "id", None), getattr(base, "attr", None))}


def test_no_class_subclasses_nat_trans():
    """Families between presheaves and 2-cells between modules are one type,
    ``core.NatTrans``, keyed by its source's ``sets``: no class of
    src/fincat subclasses it.  The sample shows both base forms caught."""
    sample = ast.parse("class A(NatTrans):\n    pass\nclass B(core.NatTrans):\n    pass\n"
                       "class C(Presheaf):\n    pass\n")
    assert _nat_trans_subclasses(sample) == {"A", "B"}
    found = [f"{name}: {cls}" for name, tree in _modules().items()
             for cls in _nat_trans_subclasses(tree)]
    assert found == []


_SHARED = ("sets", "actions")
_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear"}


def _changed_tables(tree):
    """Line of each change to a shared table: an assignment into, a
    deletion from, or a mutating method call on ``.compose_table``,
    ``.sets``, ``.actions``, or an entry ``.sets[...]`` or ``.actions[...]``."""
    def shared(node):
        if isinstance(node, ast.Subscript):
            node = node.value
            return isinstance(node, ast.Attribute) and node.attr in _SHARED
        return isinstance(node, ast.Attribute) and node.attr in _SHARED + ("compose_table",)

    def containers(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from containers(element)
        elif isinstance(target, ast.Starred):
            yield from containers(target.value)
        elif isinstance(target, ast.Subscript):
            yield target.value

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            changed = [c for t in node.targets for c in containers(t)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            changed = list(containers(node.target))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS):
            changed = [node.func.value]
        else:
            continue
        if any(map(shared, changed)):
            yield node.lineno


def test_no_module_changes_a_shared_table():
    """A pullback shares the value tuples and action dicts of the presheaf
    it reads, and ``FinCategory.op`` reads its category's composition
    table, so the rule that no table changes after construction is one the
    code depends on.  The sample shows each form the check catches."""
    sample = ast.parse("p.sets[a] = v\n"
                       "p.actions[f][x] = y\n"
                       "c.compose_table[g, f] = h\n"
                       "del p.actions[f]\n"
                       "p.actions[f].update(t)\n"
                       "c.compose_table.pop(k)\n"
                       "q.sets[a], n = v, 0\n"
                       "p.sets = {}\n"
                       "local[a] = p.sets[a]\n"
                       "seen.update(p.actions[f])\n")
    assert sorted(_changed_tables(sample)) == [1, 2, 3, 4, 5, 6, 7]
    changed = [f"{name}:{line}" for name, tree in _modules().items()
               for line in _changed_tables(tree)]
    assert changed == []


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


def _computed_defaults(tree):
    """(function, parameter, line) of every None default that a call
    computes, by ``if p is None: p = f(...)``, by a conditional expression
    on ``p is (not) None`` whose None branch is a call, or by ``p or f(...)``."""
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
            elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                first = node.values[0]
                p = first.id if isinstance(first, ast.Name) and first.id in params else None
                computed = p is not None and any(map(_calls, node.values[1:]))
            else:
                continue
            if computed:
                yield qualname, p, node.lineno


# The None defaults that a call computes and that stay, each with its reason.
COMPUTED_DEFAULT_EXCEPTIONS = {
    "limits.py weighted_colimit: _el": (
        "classes.phi_closure_bounded builds el(phi) once for the many colimits "
        "weighted by one phi and hands it over.  The benchmark's closure "
        "workload ran about 15 % slower without the hand-off, and the closure "
        "keeps calling the public weighted_colimit, which that workload traces"),
    "cauchy.py isbell_left: _reps": (
        "cauchy._verify_completion builds the representables of its base once "
        "and hands them, through is_small_projective and "
        "small_projective_report, which only pass them along, to every "
        "isbell_left it calls.  The benchmark's ladder workload ran about 19 % "
        "slower without the hand-off, and the completion check keeps calling "
        "the public is_small_projective and isbell_left, which that workload "
        "traces"),
}


def test_no_none_default_stands_for_a_computed_value():
    """A parameter defaulting to None must not be replaced by a value that a
    call computes: that offers callers a second path to a value the function
    can compute itself.  Constant stand-ins, such as ``core.DEFAULT_BUDGET``,
    are allowed.  The two exceptions, ``weighted_colimit``'s ``_el`` and
    ``isbell_left``'s ``_reps``, are listed with their measured reasons in
    ``COMPUTED_DEFAULT_EXCEPTIONS`` and must still be found, so the list
    cannot go stale.  The sample shows each form the
    check catches."""
    sample = ast.parse("def f(p=None, q=None, r=None, s=None):\n"
                       "    if p is None:\n"
                       "        p = g()\n"
                       "    q = g() if q is None else q\n"
                       "    r = r if r is not None else g()\n"
                       "    return p, q, r, s or g(), s or 0\n")
    assert [p for _, p, _ in _computed_defaults(sample)] == ["p", "q", "r", "s"]
    found = {f"{name} {qualname}: {p}"
             for name, tree in _modules().items()
             for qualname, p, _ in _computed_defaults(tree)}
    assert found == set(COMPUTED_DEFAULT_EXCEPTIONS)


# The functions that build a product category, each with its reason.  Each
# walks the morphisms of B x A^op for a module f: A -|-> B; naturality
# checked per variable (ROADMAP item 4) will empty the list.
PRODUCT_VIEWS = {
    "core._validate_nat": (
        "checks the naturality of a 2-cell along each morphism of the product base, "
        "reading the modules' actions off their tables with no presheaf view; "
        "the only product builds of an adjoint pass, for each found counit and unit"),
}


def _product_builders(tree):
    """Every function or method that calls ``product_category``."""
    return {qualname for qualname, fn in _functions(tree) for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and "product_category" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))}


def test_product_categories_are_built_only_where_listed():
    """The functions of src/fincat that build a product category are exactly
    those of ``PRODUCT_VIEWS``, each with its reason, so a new product view
    has to be listed and a removed one unlisted.  The sample shows both call
    forms caught."""
    sample = ast.parse("def f(c):\n    return product_category(c, c)\n"
                       "class K:\n    def g(self, c):\n        return core.product_category(c, c)\n"
                       "def h(c):\n    return product_category\n")
    assert _product_builders(sample) == {"f", "K.g"}
    found = {f"{name[:-3]}.{qualname}" for name, tree in _modules().items()
             for qualname in _product_builders(tree)}
    assert found == set(PRODUCT_VIEWS)


# The public functions that neither library code nor the benchmark reads,
# each with its reason.  Any other public name whose only readers are tests
# belongs in the test module that reads it.
SHIPPED_WITHOUT_READER = {
    "cauchy.dual_pair_from_weight": (
        "acceptance criterion 08: the dual pair (phi, psi) of a small projective weight"),
    "cauchy.dual_limit_colimit": (
        "acceptance criterion 08: a phi-colimit is a psi-limit, in the Cauchy completion"),
    "kan.yoneda_bijection": (
        "acceptance criterion 05: Nat(Yb, p) = p(b), both ways, on every corpus presheaf"),
    "kan.restrict": (
        "acceptance criterion 09: the restriction side of the Lan -| restriction "
        "bijection that tests/util.py's kan_bijection checks"),
    "corpus.write_fixtures": (
        "the fixture regenerator that README documents; the shipped fixtures are its output"),
}


def _reads(node):
    """Each read of a name in node, with repeats, as ``_referenced`` counts
    them."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Attribute):
            yield inner.attr
        elif isinstance(inner, ast.ImportFrom):
            yield from (alias.name for alias in inner.names)


def _public_definitions(modules):
    """(``module.name``, node, False) of every public top-level function or
    class, and (``module.Class.name``, node, True) of every public method or
    property of a top-level class."""
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{name[:-3]}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                yield from ((f"{name[:-3]}.{node.name}.{fn.name}", fn, True)
                            for fn in node.body if isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("_"))


def _unread_public(modules, outside, outside_members):
    """The qualified name of every public definition of ``modules`` that no
    module reads outside the definition itself: a function or class whose
    name is not in ``outside``, or a method or property whose name is not in
    ``outside_members``."""
    total = Counter(name for tree in modules.values() for name in _reads(tree))
    return {qualname for qualname, node, member in _public_definitions(modules)
            if node.name not in (outside_members if member else outside)
            and total[node.name] == Counter(_reads(node))[node.name]}


def _fincat_reads(tree):
    """The names a script reads from fincat: each name it imports from
    fincat or a fincat module, and each attribute it reads on a name bound by
    such an import.  A local of the same name as a library function is no
    read of it."""
    bound, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or "fincat" for alias in node.names
                         if alias.name.split(".")[0] == "fincat")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fincat":
            names.update(alias.name for alias in node.names)
            bound.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                names.add(node.attr)
    return names


def _attributes_read(tree):
    """Every attribute name that tree reads."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _scripts(folder):
    return [ast.parse(path.read_text()) for path in sorted((ROOT / folder).glob("*.py"))]


def test_every_public_definition_has_a_reader_or_a_listed_reason():
    """A public function, class, method or property of src/fincat is read by
    library code outside its own definition (the cli's
    ``fincat.<module>.<name>`` reads included), or by a ``perfbench`` script:
    a function or class read from fincat, a method or property read as an
    attribute.  Else it is listed in ``SHIPPED_WITHOUT_READER`` with its
    reason; a name that only tests read goes into the tests.  The samples
    show an unread, a self-calling and an unread method caught, and a read,
    a private, a benchmarked and a read property passed, and which names of
    a script count as reads of fincat."""
    sample = {"m.py": ast.parse("def used():\n    pass\n"
                                "def unread():\n    return used()\n"
                                "def selfish():\n    return selfish()\n"
                                "class Shown:\n"
                                "    def idle(self):\n        return self.idle()\n"
                                "    @property\n    def size(self):\n        pass\n"
                                "    def timed(self):\n        pass\n"
                                "    def _own(self):\n        pass\n"
                                "def benched():\n    pass\n"
                                "def _private():\n    pass\n"),
              "n.py": ast.parse("x = m.Shown\ny = x().size\n")}
    assert _unread_public(sample, {"benched"}, {"timed"}) == {
        "m.unread", "m.selfish", "m.Shown.idle"}
    script = ast.parse("import fincat\nfrom fincat import corpus as c\n"
                       "from fincat.kan import nerve\nimport json\n"
                       "def f(end):\n    end = json.loads(end)\n"
                       "    return fincat.lan(c.CATEGORIES, fincat.cauchy.q_duality)\n")
    assert _fincat_reads(script) == {"corpus", "nerve", "lan", "CATEGORIES",
                                     "cauchy", "q_duality"}
    bench = _scripts("perfbench")
    names = set().union(*map(_fincat_reads, bench))
    assert "retract_oracle" in names and "end" not in names
    members = set().union(*map(_attributes_read, bench))
    assert _unread_public(_modules(), names, members) == set(SHIPPED_WITHOUT_READER)


def _dataclass_fields(tree):
    """(``Class.field``, field) for each annotated field of each class that
    tree decorates with ``dataclass``, bare, called or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in (getattr(d, "id", None), getattr(d, "attr", None))
                for d in (getattr(dec, "func", dec) for dec in node.decorator_list)):
            yield from ((f"{node.name}.{st.target.id}", st.target.id) for st in node.body
                        if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name))


def test_every_dataclass_field_is_read():
    """Each field of a dataclass of src/fincat is read as an attribute
    somewhere in src/fincat, perfbench or the tests: a result field that
    nothing reads is computed and kept for no one.  The sample shows the
    three decorator forms seen, a field that is only written caught, and a
    plain class's annotations passed over."""
    sample = ast.parse("@dataclass\nclass A:\n    x: int\n    y: int = 0\n"
                       "@dataclass(frozen=True)\nclass B:\n    z: int\n"
                       "@dataclasses.dataclass\nclass C:\n    w: int\n"
                       "class D:\n    v: int\n"
                       "a.x = 1\nprint(a.y, b.z)\n")
    assert list(_dataclass_fields(sample)) == [("A.x", "x"), ("A.y", "y"), ("B.z", "z"),
                                               ("C.w", "w")]
    assert {q for q, f in _dataclass_fields(sample)
            if f not in _attributes_read(sample)} == {"A.x", "C.w"}
    modules = _modules()
    read = set().union(*map(_attributes_read, [*modules.values(), *_scripts("perfbench"),
                                               *_scripts("tests")]))
    unread = [f"{name}: {qualname}" for name, tree in modules.items()
              for qualname, field in _dataclass_fields(tree) if field not in read]
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


def test_no_public_function_is_a_generator():
    """The benchmark's tracer times every public function of each fincat
    module, and refuses a generator function, whose body runs only after the
    call returns; so a generator must be private.  The private ones, such as
    ``profunctor._coend_pairs``, show that the check sees generators."""
    generators = [f"{path.stem}.{attr}" for path in sorted(SRC.glob("*.py"))
                  if path.stem != "__init__"
                  for mod in [importlib.import_module(f"fincat.{path.stem}")]
                  for attr, fn in vars(mod).items()
                  if inspect.isfunction(fn) and fn.__module__ == mod.__name__
                  and inspect.isgeneratorfunction(fn)]
    assert "profunctor._coend_pairs" in generators
    assert [name for name in generators if not name.split(".")[1].startswith("_")] == []


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
