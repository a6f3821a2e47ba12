import collections
import contextlib
import io
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from fincat import cli, corpus
from fincat.core import (FinCategory, FinFunctor, NatTrans, Presheaf,
                         Profunctor, WeightClass, identity_functor, nat_identity,
                         same_category, validate)
from fincat.corpus import GSet
from fincat.errors import (DuplicateName, FincatError, InternalMismatch,
                           MalformedTable, ParseError, UnresolvedReference)
from fincat.limits import nat_trans_set
from fincat.profunctor import id_module
from fincat.workspace import Workspace, load_workspace, serialize_workspace
from util import validate_category_oracle

FIXTURES = pathlib.Path(cli.default_fixture_paths()[0]).parent


def test_shipped_fixtures_are_byte_exact_serializations():
    for stem, ws in corpus.fixture_workspaces().items():
        path = FIXTURES / f"{stem}.json"
        assert path.read_text() == serialize_workspace(ws), stem


def test_load_serialize_fixpoint(tmp_path):
    ws1 = load_workspace(cli.default_fixture_paths())
    text = serialize_workspace(ws1)
    merged = tmp_path / "merged.json"
    merged.write_text(text)
    ws2 = load_workspace([merged])
    assert serialize_workspace(ws2) == text
    assert set(ws2.categories) == set(ws1.categories)
    assert set(ws2.presheaves) == set(ws1.presheaves)


def test_full_workspace_inventory():
    ws = load_workspace(cli.default_fixture_paths())
    assert len(ws.categories) == 15
    assert len(ws.presheaves) == 71
    assert set(ws.functors) == {"embedM", "orbit"}
    assert set(ws.profunctors) == {"example8.2"}
    assert len(ws.weight_classes) == 6


def test_monoid_fixture_stands_alone():
    ws = load_workspace([FIXTURES / "monoid_M.json"])
    assert set(ws.categories) == {"M", "QM"}
    assert "splitting" in ws.weight_classes
    assert cli.main(["-w", str(FIXTURES / "monoid_M.json"), "cauchy", "M"]) == 0


def test_covariant_fixtures_load_on_the_opposite():
    ws = load_workspace(cli.default_fixture_paths())
    p = ws.presheaves["cov.GSet.1"]
    assert same_category(p.base, GSet.op())
    assert ws.presheaf_meta["cov.GSet.1"] == ("GSet", "co")


def test_cauchy_command_output(capsys):
    assert cli.main(["cauchy", "M"]) == 0
    out = capsys.readouterr().out
    assert "2 objects" in out
    assert "hom sizes: 2/1/1/1" in out


def test_morita_command_output(capsys):
    assert cli.main(["morita", "M", "QM"]) == 0
    assert "morita equivalent: true" in capsys.readouterr().out
    assert cli.main(["morita", "Z2", "I"]) == 0
    assert "morita equivalent: false" in capsys.readouterr().out


def test_commute_command_output(capsys):
    assert cli.main(["commute", "example8.2"]) == 0
    assert "commutes: false (2 vs 1)" in capsys.readouterr().out


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        assert cli.main(["closure", "M", "splitting"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    for _ in range(2):
        assert cli.main(["--json", "cauchy", "QM"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[2] == runs[3]


def test_json_flag_emits_valid_json(capsys):
    assert cli.main(["--json", "smallproj", "E"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["colimit_size"] == payload["nat_size"]


def test_validate_command_lists_entities(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "ok category M" in out
    assert "ok profunctor example8.2" in out
    assert "INVALID" not in out


def test_validate_reports_invalid_entities():
    broken = FinCategory("K", ["a"], [("i", "a", "a"), ("f", "a", "a")],
                         {"a": "i"}, {("i", "i"): "i", ("i", "f"): "f",
                                      ("f", "i"): "f"})
    ws = Workspace()
    ws.categories["K"] = broken
    lines, payload, code = cli.run_command(ws, "validate", [], cli.Options())
    assert code == 3
    assert any(line.startswith("INVALID category K") for line in lines)
    assert payload["invalid"] == 1


def test_validate_a_weight_class_validates_its_members(capsys):
    assert cli.main(["validate", "splitting"]) == 0
    assert capsys.readouterr().out == "ok presheaf E\n"
    assert cli.main(["--json", "validate", "splitting"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"entities": [{"kind": "presheaf", "name": "E", "ok": True,
                                     "violations": []}], "invalid": 0}
    assert cli.main(["validate", "no-such-name"]) == 3
    assert "no entity named 'no-such-name'" in capsys.readouterr().err
    swapped = Presheaf("p", corpus.Two, {"0": ("a", "b"), "1": ()},
                       {"id0": {"a": "b", "b": "a"}, "id1": {}, "f": {}})
    members = [corpus.PRESHEAVES["one.Two"], swapped]
    ws = Workspace(categories={"Two": corpus.Two}, presheaves={"p": swapped},
                   weight_classes={"W": WeightClass("W", members)})
    lines, payload, code = cli.run_command(ws, "validate", ["W"], cli.Options())
    assert code == 3 and payload["invalid"] == 1
    assert lines[0] == "ok presheaf one.Two"
    assert lines[1] == "INVALID presheaf p"


def test_json_cell_keys_escape_the_separator(tmp_path, capsys):
    cat = corpus.discrete_category("D", ["a|b", "c", "a", "b|c"])
    path = tmp_path / "bars.json"
    path.write_text(serialize_workspace(Workspace(categories={"D": cat},
                                                  profunctors={"H": id_module(cat)})))
    assert cli.main(["--json", "-w", str(path), "lift", "H", "H"]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert len(cells) == 16
    assert cells["a\\|b|c"] == 0 and cells["a|b\\|c"] == 0
    assert cells["a\\|b|a\\|b"] == 1


def test_exit_2_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli.main(["-w", str(bad), "cauchy", "M"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert f"{bad}:1:" in err   # line and column of the parse failure
    bad.write_text('{"categories": ' + "[" * 100000 + "]" * 100000 + "}")
    assert cli.main(["-w", str(bad), "cauchy", "M"]) == 2
    assert "nesting too deep" in capsys.readouterr().err


def _missing(tmp_path):
    return tmp_path / "missing.json"


def _utf16(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    return path


@pytest.mark.parametrize("unreadable", [_missing, lambda tmp_path: tmp_path, _utf16],
                         ids=["missing", "directory", "not-utf8"])
def test_exit_2_on_unreadable_workspace_file(tmp_path, capsys, unreadable):
    path = unreadable(tmp_path)
    assert cli.main(["-w", str(path), "connected", "C"]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}:1:1:" in err and "Traceback" not in err


def test_exit_2_on_wrong_argument_count(capsys):
    assert cli.main(["cauchy"]) == 2
    assert "usage: cauchy CATEGORY" in capsys.readouterr().err
    assert cli.main(["morita", "M"]) == 2


def test_unknown_command_is_rejected_by_the_parser():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_exit_3_on_unresolved_name(capsys):
    assert cli.main(["cauchy", "nosuch"]) == 3
    assert "no category named 'nosuch'" in capsys.readouterr().err
    assert cli.main(["smallproj", "nosuch"]) == 3
    assert "no presheaf named" in capsys.readouterr().err


def test_exit_3_on_duplicate_definitions(tmp_path, capsys):
    src = (FIXTURES / "monoid_M.json").read_text()
    copy = tmp_path / "again.json"
    copy.write_text(src)
    code = cli.main(["-w", str(FIXTURES / "monoid_M.json"),
                     "-w", str(copy), "cauchy", "M"])
    assert code == 3
    assert "defined twice" in capsys.readouterr().err


@pytest.mark.parametrize("section, kind, name", [
    ("categories", "category", "T"), ("functors", "functor", "F"),
    ("presheaves", "presheaf", "P"), ("profunctors", "profunctor", "H"),
    ("weight_classes", "weight class", "W")])
def test_duplicate_definition_names_its_kind(tmp_path, capsys, section, kind, name):
    cat = corpus.discrete_category("T", ["a"])
    weight = corpus.delta1(cat, "P")
    ws = Workspace(categories={"T": cat}, presheaves={"P": weight},
                   functors={"F": identity_functor(cat)},
                   profunctors={"H": id_module(cat)},
                   weight_classes={"W": WeightClass("W", [weight])})
    doc = json.loads(serialize_workspace(ws))
    rest, twice = tmp_path / "rest.json", tmp_path / "a.json"
    rest.write_text(json.dumps({k: v for k, v in doc.items() if k != section}))
    twice.write_text(json.dumps({section: doc[section]}))
    code = cli.main(["-w", str(rest), "-w", str(twice), "-w", str(twice),
                     "connected", "T"])
    assert code == 3
    assert capsys.readouterr().err == f"error: {twice}: {kind} {name!r} defined twice\n"


def test_exit_3_on_invalid_workspace_entity(tmp_path, capsys):
    doc = {"categories": {"K": {
        "objects": ["a"],
        "morphisms": [{"id": "i", "src": "a", "tgt": "a"},
                      {"id": "f", "src": "a", "tgt": "a"}],
        "identities": {"a": "i"},
        "compose": [["i", "i", "i"], ["i", "f", "f"], ["f", "i", "f"]],
    }}}
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["-w", str(path), "validate"]) == 3
    assert capsys.readouterr() == (
        "INVALID category K\n  compose-missing fails at ('f', 'f')\n", "")
    assert cli.main(["-w", str(path), "cauchy", "K"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: category 'K': 1 violation(s)")


def _objects_5(doc):
    doc["categories"]["M"]["objects"] = 5


def _objects_nested(doc):
    doc["categories"]["M"]["objects"] = [["x"]]


def _categories_as_list(doc):
    doc["categories"] = [doc["categories"]["M"]]


def _sets_as_list(doc):
    doc["presheaves"] = {"E": dict(doc["presheaves"]["E"], sets=[["x"]])}


@pytest.mark.parametrize("break_shape", [_objects_5, _objects_nested,
                                         _categories_as_list, _sets_as_list])
def test_exit_2_on_misshapen_workspace(tmp_path, capsys, break_shape):
    fixture = json.loads((FIXTURES / "monoid_M.json").read_text())
    doc = {"categories": {"M": fixture["categories"]["M"]},
           "presheaves": {"E": fixture["presheaves"]["E"]}}
    break_shape(doc)
    path = tmp_path / "misshapen.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["-w", str(path), "validate"]) == 2
    assert "error:" in capsys.readouterr().err


def _workspace_with_every_section():
    doc = {}
    for stem in ("monoid_M", "group_Z2", "example82"):
        for section, entries in json.loads((FIXTURES / f"{stem}.json").read_text()).items():
            doc.setdefault(section, {}).update(entries)
    return doc


def _strings(value):
    if isinstance(value, str):
        return {value}
    if isinstance(value, dict):
        return set(value).union(*map(_strings, value.values()))
    if isinstance(value, list):
        return set().union(*map(_strings, value))
    return set()


# the ids and names of the workspace are drawn often, so that a changed field
# can still resolve and reach the table and law checks behind the shape check
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(sorted(_strings(_workspace_with_every_section()))),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_load_workspace_raises_only_fincat_errors(tmp_path_factory, data):
    """Arbitrary JSON put at random fields of a valid workspace either loads
    or raises a FincatError; never any other exception."""
    doc = _workspace_with_every_section()
    for _ in range(data.draw(st.integers(1, 3))):
        holder, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            holder, key = node, data.draw(st.sampled_from(keys))
            node = node[key]
        value = data.draw(_JSON)
        if holder is None:
            doc = value
        elif isinstance(holder, dict) and data.draw(st.booleans()):
            holder[data.draw(st.text(max_size=3))] = value
        else:
            holder[key] = value
    path = tmp_path_factory.mktemp("fuzz") / "workspace.json"
    path.write_text(json.dumps(doc))
    try:
        load_workspace([path])
    except FincatError:
        pass


def test_exit_3_on_duplicate_key_within_a_file(tmp_path):
    path = tmp_path / "dupkey.json"
    path.write_text('{"categories": {"K": {}, "K": {}}}')
    assert cli.main(["-w", str(path), "validate"]) == 3


def test_exit_4_on_budget(capsys):
    assert cli.main(["--budget", "1", "cocomplete", "N5",
                     "finite-colimits"]) == 4
    assert "budget" in capsys.readouterr().err.lower()
    assert cli.main(["--budget", "1", "morita", "GSet", "GSet"]) == 4


def test_exit_4_on_round_cap(capsys):
    assert cli.main(["--cap-rounds", "0", "recognize", "embedM",
                     "splitting"]) == 4
    assert "still growing" in capsys.readouterr().err


def _exit_code_and_stderr(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    return exc.value.code, capsys.readouterr().err


def test_negative_budget_is_a_usage_error(capsys):
    """--budget -3 used to reach all_functors and die in itertools.islice
    with a ValueError traceback; other commands took it as a budget."""
    for argv in (["absolute-sample", "one.Z2"], ["cocomplete", "Two", "initial"]):
        code, err = _exit_code_and_stderr(["--budget", "-3", *argv], capsys)
        assert code == 2 and "usage: fincat" in err, argv
        assert "--budget: must be >= 0" in err and "Traceback" not in err
    assert cli.main(["--budget", "0", "cocomplete", "Two", "initial"]) == 4


def test_negative_round_cap_is_a_usage_error(capsys):
    code, err = _exit_code_and_stderr(
        ["--cap-rounds", "-1", "closure", "Two", "initial"], capsys)
    assert code == 2 and "--cap-rounds: must be >= 0" in err
    assert cli.main(["--cap-rounds", "0", "closure", "Two", "initial"]) == 0
    assert "rounds 0" in capsys.readouterr().out


def test_negative_member_cap_is_a_usage_error(capsys):
    code, err = _exit_code_and_stderr(
        ["--cap-members", "-5", "saturation", "zero.Two", "initial"], capsys)
    assert code == 2 and "--cap-members: must be >= 0" in err
    assert cli.main(["--cap-members", "0", "saturation", "zero.Two",
                     "initial"]) == 0


def test_exit_5_on_internal_mismatch(monkeypatch, capsys):
    def boom(ws, args, opts):
        raise InternalMismatch("forced failure")
    monkeypatch.setitem(cli._HANDLERS, "cauchy", boom)
    assert cli.main(["cauchy", "M"]) == 5
    assert "forced failure" in capsys.readouterr().err


def test_exit_3_on_modules_with_different_targets(tmp_path, capsys):
    ws = Workspace(categories={"Two": corpus.Two, "M": corpus.M},
                   profunctors={"hom.Two": id_module(corpus.Two),
                                "hom.M": id_module(corpus.M)})
    path = tmp_path / "modules.json"
    path.write_text(serialize_workspace(ws))
    assert cli.main(["-w", str(path), "lift", "hom.Two", "hom.M"]) == 3
    assert "shared target" in capsys.readouterr().err


def test_wcolimit_requires_covariant_diagram(capsys):
    assert cli.main(["wcolimit", "one.Two", "collapse.Two"]) == 3
    assert "variance 'co'" in capsys.readouterr().err


def test_every_command_runs_on_the_bundled_fixtures(capsys):
    invocations = [
        ["validate", "M"], ["limit", "free.Z2"], ["colimit", "free.Z2"],
        ["wlimit", "one.Two", "collapse.Two"],
        ["wcolimit", "one.GSet", "cov.GSet.G"],
        ["kan", "orbit", "cov.GSet.G"], ["nerve", "embedM"],
        ["elements", "E"], ["filtered", "M"], ["connected", "Span"],
        ["lift", "example8.2", "example8.2"],
        ["extend", "example8.2", "example8.2"],
        ["adjoint", "example8.2"], ["smallproj", "one.Z2"],
        ["cauchy", "Z3"], ["isbell", "E"], ["duality", "I"],
        ["morita", "Two", "Two"], ["closure", "Two", "initial"],
        ["saturation", "zero.Two", "initial"],
        ["cocomplete", "Two", "initial"], ["atoms", "N5", "initial"],
        ["commute", "one.Z2", "one.Span", "example8.2"],
        ["flat", "one.Span"], ["continuous", "one.Z2", "pushouts"],
        ["recognize", "embedM", "splitting"],
        ["absolute-sample", "one.Z2", "orbit"],
    ]
    assert sorted(cli.COMMANDS) == sorted({v[0] for v in invocations})
    for argv in invocations:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out.strip(), argv


def test_absolute_sample_seed_reorders_but_keeps_content(capsys):
    assert cli.main(["--json", "absolute-sample", "one.Z2", "orbit"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert cli.main(["--json", "--seed", "7", "absolute-sample",
                     "one.Z2", "orbit"]) == 0
    seeded = json.loads(capsys.readouterr().out)
    assert base["violations"] and seeded["violations"]
    assert base["small_projective"] is False


@st.composite
def miscomposed_categories(draw):
    """A corpus category with one composite replaced by any morphism id."""
    cat = draw(st.sampled_from([c for c in corpus.CATEGORIES.values()
                                if c.compose_table]))
    compose = dict(cat.compose_table)
    pair = draw(st.sampled_from(list(compose)))
    compose[pair] = draw(st.sampled_from(cat.morphisms))
    morphisms = [(m, cat.src[m], cat.tgt[m]) for m in cat.morphisms]
    return FinCategory(cat.name, cat.objects, morphisms, cat.identity, compose), pair


@settings(max_examples=150, deadline=None, derandomize=True)
@given(miscomposed_categories())
def test_validate_reports_a_composite_with_wrong_endpoints(tmp_path_factory, case):
    """validate returns its report, never raises; a composite with the wrong
    endpoints makes it invalid, and the CLI exits 3 naming it.  A replacement
    with the right endpoints may still give a category (M with e.e = 1 is Z2)."""
    cat, (g, f) = case
    h = cat.compose_table[(g, f)]
    report = validate(cat)
    assert [(v.law, v.witness) for v in report.violations] == \
        validate_category_oracle(cat)
    if cat.src[h] == cat.src[f] and cat.tgt[h] == cat.tgt[g]:
        return
    assert not report.ok
    ws = Workspace()
    ws.categories[cat.name] = cat
    path = tmp_path_factory.mktemp("miscomposed") / "workspace.json"
    path.write_text(serialize_workspace(ws))
    witness = f"compose-endpoints fails at {(g, f, h)!r}"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["-w", str(path), "validate", cat.name]) == 3
        assert witness in out.getvalue() and err.getvalue() == ""
        assert cli.main(["-w", str(path), "connected", cat.name]) == 3
    assert witness in err.getvalue()


def _corruptible_entities():
    """Section -> entities: the corpus functors and presheaves, the identity
    functor and hom module of every corpus category, example 8.2, and for each
    corpus presheaf its identity and its transformation to the terminal
    presheaf."""
    cats = corpus.CATEGORIES.values()
    presheaves = corpus.PRESHEAVES.values()
    transforms = [nat_identity(p) for p in presheaves]
    for p in presheaves:
        one = corpus.PRESHEAVES.get(f"one.{p.base.name}")
        if one is not None:
            transforms += nat_trans_set(p, one)
    return {"functors": [*corpus.FUNCTORS.values(),
                         *(identity_functor(c) for c in cats)],
            "presheaves": list(presheaves),
            "transforms": transforms,
            "profunctors": [*corpus.PROFUNCTORS.values(),
                            *(id_module(c) for c in cats)]}


def _leaves(node, path=()):
    """(key path, value) of every non-dict value in nested dicts."""
    for k, v in node.items():
        if isinstance(v, dict):
            yield from _leaves(v, path + (k,))
        else:
            yield path + (k,), v


def _set(node, path, value):
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value


def _corrupt(rng, section, e):
    """Replace one table entry of e by a value of the same table or by a
    foreign value.  Returns a constructor of the changed entity, the entry's
    key path in the serialized workspace (None for a transform, which a
    workspace cannot hold) and the new value; None if e has no entries."""
    if section == "functors":
        tables = {"objects": dict(e.obj_map), "morphisms": dict(e.mor_map)}
        build = lambda: FinFunctor(e.name, e.source, e.target,
                                   tables["objects"], tables["morphisms"])
    elif section == "presheaves":
        tables = {"actions": {f: dict(t) for f, t in e.actions.items()}}
        build = lambda: Presheaf(e.name, e.base, e.sets, tables["actions"])
    elif section == "transforms":
        tables = {"components": {a: dict(t) for a, t in e.components.items()}}
        build = lambda: NatTrans(e.source, e.target, tables["components"], e.name)
    else:
        tables = {"left": {k: dict(t) for k, t in e.left.items()},
                  "right": {k: dict(t) for k, t in e.right.items()}}
        build = lambda: Profunctor(e.name, e.source, e.target, e.sets,
                                   tables["left"], tables["right"])
    keys = [key for key, _ in _leaves(tables)]
    if not keys:
        return None
    key = rng.choice(keys)
    pool = sorted({v for _, v in _leaves(tables[key[0]])})
    value = "foreign" if rng.random() < 0.25 else rng.choice(pool)
    _set(tables, key, value)
    if section == "transforms":
        return build, None, value
    # a profunctor's action tables are keyed by pairs, nested in its JSON
    flat = tuple(p for k in key for p in (k if isinstance(k, tuple) else (k,)))
    return build, (section, e.name) + flat, value


def test_validate_reports_a_corrupted_table_entry(tmp_path):
    """One table entry of a functor, presheaf, transformation or profunctor
    replaced: either the constructor raises MalformedTable or validate returns
    a report; a workspace holding the entry loads and validates with exit 0
    exactly when both accept it, and exits 3 otherwise."""
    entities = _corruptible_entities()
    sections = list(entities)
    outcomes = collections.Counter()
    for i in range(400):
        rng = random.Random(i)
        section = sections[i % len(sections)]
        e = rng.choice(entities[section])
        corrupted = _corrupt(rng, section, e)
        if corrupted is None:
            continue
        build, path, value = corrupted
        try:
            changed = build()
        except MalformedTable:
            ok = None
        else:
            ok = validate(changed).ok
        outcomes[section, ok] += 1
        if path is None:
            continue
        ws = Workspace()
        for c in (e.source, e.target) if section != "presheaves" else (e.base,):
            ws.categories[c.name] = c
        getattr(ws, section)[e.name] = e
        doc = json.loads(serialize_workspace(ws))
        _set(doc, path, value)
        file = tmp_path / f"case{i}.json"
        file.write_text(json.dumps(doc))
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["-w", str(file), "validate", e.name])
        assert code == (0 if ok else 3), (i, e.name, path, value)
    for section in sections:
        assert outcomes[section, None] and outcomes[section, False], section
