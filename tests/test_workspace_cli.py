import collections
import contextlib
import io
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from fincat import cli, core, corpus
from fincat.core import (Caps, FinCategory, FinFunctor, NatTrans, Presheaf,
                         Profunctor, WeightClass, identity_functor, nat_identity,
                         same_category, validate)
from fincat.corpus import GSet
from fincat.equivalence import all_functors
from fincat.errors import (DuplicateName, FincatError, InternalMismatch,
                           MalformedTable, ParseError, UnresolvedReference)
from fincat.limits import nat_trans_set
from fincat.profunctor import id_module
from fincat.workspace import Workspace, load_workspace, serialize_workspace
from util import (random_concrete_category, random_presheaf, random_profunctor,
                  validate_category_oracle)

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


def _reversed(table):
    return dict(reversed(list(table.items())))


def test_sets_listed_out_of_order_load_in_canonical_order(tmp_path):
    """A workspace file that lists each presheaf's sets and each module's
    cells in reverse loads them in base order, or target x source order,
    gives every identity family the frozen form of the in-order file's, and
    serializes to the same bytes."""
    stems = ("span", "group_Z2", "example82")
    paths = []
    for stem in stems:
        doc = json.loads((FIXTURES / f"{stem}.json").read_text())
        for spec in doc.get("presheaves", {}).values():
            spec["sets"] = _reversed(spec["sets"])
        for spec in doc.get("profunctors", {}).values():
            spec["cells"] = {b: _reversed(row) for b, row in _reversed(spec["cells"]).items()}
        paths.append(tmp_path / f"{stem}.json")
        paths[-1].write_text(json.dumps(doc))
    shuffled = load_workspace(paths)
    listed = load_workspace([FIXTURES / f"{stem}.json" for stem in stems])
    families = 0
    for name, p in [*shuffled.presheaves.items(), *shuffled.profunctors.items()]:
        if isinstance(p, Presheaf):
            order, q = list(p.base.objects), listed.presheaves[name]
        else:
            order = [(b, a) for b in p.target.objects for a in p.source.objects]
            q = listed.profunctors[name]
        assert list(p.sets) == order, name
        assert nat_identity(p).frozen() == nat_identity(q).frozen(), name
        families += 1
    assert families == 12
    assert serialize_workspace(shuffled) == serialize_workspace(listed)


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


def _object_ids_as_numbers(doc):
    doc["categories"]["M"]["objects"] = [0, 1]


@pytest.mark.parametrize("break_shape", [_objects_5, _objects_nested,
                                         _categories_as_list, _sets_as_list,
                                         _object_ids_as_numbers])
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


@pytest.mark.parametrize("entry, keys, value, field", [
    (("categories", "M"), ("objects", 0), 0, "category M objects"),
    (("categories", "M"), ("morphisms", 1, "src"), True, "category M morphisms src"),
    (("categories", "M"), ("morphisms", 1, "tgt"), None, "category M morphisms tgt"),
    (("presheaves", "E"), ("sets", "*", 0), 1.5, "presheaf E sets"),
    (("presheaves", "E"), ("actions", "e", "e"), 0, "presheaf E actions"),
    (("functors", "embedM"), ("objects", "*"), 0, "functor embedM objects"),
    (("profunctors", "example8.2"), ("cells", "0", "*", 0), False, "profunctor example8.2 cells"),
    (("profunctors", "example8.2"), ("left", "id0", "*", "p"), 0, "profunctor example8.2 left"),
    (("profunctors", "example8.2"), ("right", "0", "1", "p"), None,
     "profunctor example8.2 right"),
    (("categories", "M"), ("morphisms", 1, "id"), 1, "category M morphisms id"),
    (("categories", "M"), ("identities", "*"), 2.5, "category M identities"),
    (("categories", "M"), ("compose", 0, 2), False, "category M compose"),
    (("functors", "embedM"), ("morphisms", "e"), None, "functor embedM morphisms")])
def test_object_and_element_ids_must_be_strings(tmp_path, capsys, entry, keys, value, field):
    """Object, morphism and element ids key JSON objects, whose keys are
    strings, so a number, boolean or null in their place could never load: it
    exits 2 naming the field, not 3 with an unknown-id message."""
    doc = _workspace_with_every_section()
    table = doc[entry[0]][entry[1]]
    for key in keys[:-1]:
        table = table[key]
    table[keys[-1]] = value
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["-w", str(path), "validate"]) == 2
    assert capsys.readouterr() == ("", f"error: {field}: expected a string\n")


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


def _random_workspace(seed, max_nonid):
    """A lawful workspace drawn from seed: categories A and B, a functor
    F: A -> B, weights phi and t on A, a covariant diagram s on A, psi on B,
    a module P: A -|-> A (hom_A if none is sampled) and the weight class
    W = {phi}."""
    rng = random.Random(seed)
    a = random_concrete_category(rng, "A", max_nonid=max_nonid)
    b = random_concrete_category(rng, "B", max_nonid=max_nonid)
    f = rng.choice(all_functors(a, b, cap=8))
    try:
        module = random_profunctor(rng, a, a, "P")
    except AssertionError:      # rejection sampling found no module on A x A^op
        module = id_module(a)
    presheaves = {"phi": random_presheaf(rng, a, "phi", 2),
                  "t": random_presheaf(rng, a, "t", 2),
                  "s": random_presheaf(rng, a.op(), "s", 2),
                  "psi": random_presheaf(rng, b, "psi", 2)}
    return Workspace(categories={"A": a, "B": b}, functors={"F": f},
                     presheaves=presheaves,
                     profunctors={"P": module},
                     weight_classes={"W": WeightClass("W", [presheaves["phi"]])},
                     presheaf_meta={"s": ("A", "co")})


SWEEP_FLAGS = ["--budget", "2000", "--cap-rounds", "2", "--cap-members", "12"]
SWEEP = [
    ["validate"], ["limit", "phi"], ["colimit", "phi"], ["wlimit", "phi", "t"],
    ["wcolimit", "phi", "s"], ["kan", "F", "s"], ["nerve", "F"],
    ["elements", "phi"], ["filtered", "A"], ["connected", "A"],
    ["lift", "P", "P"], ["extend", "P", "P"], ["adjoint", "P"],
    ["smallproj", "phi"], ["cauchy", "A"], ["isbell", "phi"], ["duality", "A"],
    ["morita", "A", "B"], ["closure", "A", "W"], ["saturation", "phi", "W"],
    ["cocomplete", "A", "W"], ["atoms", "A", "W"], ["commute", "phi", "t", "P"],
    ["flat", "phi"], ["continuous", "psi", "W"], ["recognize", "F", "W"],
    ["absolute-sample", "phi", "F"],
]


def _run(argv):
    """(exit code, stdout, stderr) of one ``fincat`` invocation, a usage
    error's SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def sweep(seed, directory, max_nonid=5):
    """Run every command, plain and with --json, twice on the random
    workspace of seed, written to directory.  Each must exit 0, 3 or 4
    (an exception or exit 5 fails), print --json text that json.dumps
    gives back, and print the same bytes the second time."""
    path = pathlib.Path(directory) / f"random{seed}.json"
    path.write_text(serialize_workspace(_random_workspace(seed, max_nonid)))
    for argv in SWEEP:
        for json_flag in ([], ["--json"]):
            full = SWEEP_FLAGS + json_flag + ["-w", str(path)] + argv
            first = code, out, err = _run(full)
            assert code in (0, 3, 4), (seed, argv, code, err)
            if json_flag and code == 0:
                assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
            assert _run(full) == first, (seed, argv)


def test_every_command_on_random_lawful_workspaces(tmp_path):
    """Every command on five random lawful workspaces, the exit-code
    contract on input that no fixture covers.  A longer sweep over more and
    larger workspaces, from the repository root (it prints nothing and
    raises at the first failure)::

        PYTHONPATH=src:tests python -c "
        import tempfile, test_workspace_cli as t
        with tempfile.TemporaryDirectory() as d:
            for seed in range(400):
                t.sweep(seed, d, max_nonid=8)"
    """
    assert sorted(cli.COMMANDS) == sorted({argv[0] for argv in SWEEP})
    for seed in range(5):
        sweep(seed, tmp_path)


def test_absolute_sample_seed_reorders_but_keeps_content(capsys):
    assert cli.main(["--json", "absolute-sample", "one.Z2", "orbit"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert cli.main(["--json", "--seed", "7", "absolute-sample",
                     "one.Z2", "orbit"]) == 0
    seeded = json.loads(capsys.readouterr().out)
    assert base["violations"] and seeded["violations"]
    assert base["small_projective"] is False


def test_closure_caps_default_to_the_library_caps(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_command",
                        lambda ws, command, args, opts: seen.append(opts) or ([], {}, 0))
    assert cli.main(["closure", "Two", "initial"]) == 0
    assert seen[0].caps == Caps()


ABSOLUTE_SAMPLE_Z2_ORBIT = """\
small projective: false
instances: 18
violations: 5
  orbit colimit diagram GG: transported cocone not universal
  orbit colimit diagram GG: transported cocone not universal
  orbit colimit diagram GG: transported cocone not universal
  orbit limit diagram GG: transported cocone not universal
  orbit limit diagram GG: transported cocone not universal
"""


def test_absolute_sample_defaults_to_the_library_sample_size(capsys):
    for flags in ([], ["--budget", "25"]):
        assert cli.main(flags + ["absolute-sample", "one.Z2", "orbit"]) == 0
        assert capsys.readouterr().out == ABSOLUTE_SAMPLE_Z2_ORBIT, flags
    assert cli.main(["--budget", "1", "absolute-sample", "one.Z2", "orbit"]) == 0
    assert "instances: 2\n" in capsys.readouterr().out


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
    """Set the entry at path to value, or delete it for None."""
    for k in path[:-1]:
        node = node[k]
    if value is None:
        del node[path[-1]]
    else:
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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(miscomposed_categories(), st.data())
def test_validate_reports_on_entities_over_an_unlawful_base(case, data):
    """The corpus presheaves and modules moved onto a miscomposed copy of
    their base, which may also have one identity replaced by any morphism:
    validate returns a report for each, never raises, and the base's own
    report is the oracle's, identity-endpoints included."""
    cat, _ = case
    base = corpus.CATEGORIES[cat.name]
    identity = dict(cat.identity)
    if data.draw(st.booleans()):
        identity[data.draw(st.sampled_from(cat.objects))] = \
            data.draw(st.sampled_from(cat.morphisms))
    cat = FinCategory(cat.name, cat.objects,
                      [(m, cat.src[m], cat.tgt[m]) for m in cat.morphisms],
                      identity, cat.compose_table)
    assert [(v.law, v.witness) for v in validate(cat).violations] == \
        validate_category_oracle(cat)
    moved = [Presheaf(p.name, cat, p.sets, p.actions)
             for p in corpus.PRESHEAVES.values() if p.base is base]
    moved += [Profunctor(h.name, cat if h.source is base else h.source,
                         cat if h.target is base else h.target, h.sets, h.left, h.right)
              for h in [*corpus.PROFUNCTORS.values(), id_module(base)]
              if base in (h.source, h.target)]
    assert moved
    for entity in moved:
        assert validate(entity).name == entity.name


def _two_workspace(identity_0="id0", composite_of_id1_f="f", extra=()):
    """Two, with a presheaf P, a module H: Two -|-> Two whose every cell
    holds one element, the identity functor F and the weight class W = {P};
    the arguments change the category's identity at 0, its composite
    id1 . f and add compose entries."""
    objs, src, tgt = ["0", "1"], {"id0": "0", "id1": "1", "f": "0"}, \
        {"id0": "0", "id1": "1", "f": "1"}
    return {
        "categories": {"Two": {
            "objects": objs,
            "morphisms": [{"id": m, "src": src[m], "tgt": tgt[m]} for m in src],
            "identities": {"0": identity_0, "1": "id1"},
            "compose": [["f", "id0", "f"], ["id0", "id0", "id0"],
                        ["id1", "f", composite_of_id1_f], ["id1", "id1", "id1"],
                        *extra]}},
        "presheaves": {"P": {"on": "Two", "sets": {"0": ["a"], "1": ["b"]},
                             "actions": {"id0": {"a": "a"}, "id1": {"b": "b"},
                                         "f": {"b": "a"}}}},
        "functors": {"F": {"source": "Two", "target": "Two",
                           "objects": {"0": "0", "1": "1"},
                           "morphisms": {m: m for m in src}}},
        "profunctors": {"H": {
            "source": "Two", "target": "Two",
            "cells": {b: {a: [f"z{b}{a}"] for a in objs} for b in objs},
            "left": {m: {a: {f"z{tgt[m]}{a}": f"z{src[m]}{a}"} for a in objs}
                     for m in src},
            "right": {b: {m: {f"z{b}{src[m]}": f"z{b}{tgt[m]}"} for m in src}
                      for b in objs}}},
        "weight_classes": {"W": {"weights": ["P"]}}}


@pytest.mark.parametrize("change, violation", [
    ({"identity_0": "f"}, "identity-endpoints fails at ('0', 'f')"),
    ({"composite_of_id1_f": "id0"}, "compose-endpoints fails at ('id1', 'f', 'id0')"),
    ({"extra": [["f", "f", "f"]]}, "compose-defined-noncomposable fails at ('f', 'f')"),
], ids=["identity", "composite", "noncomposable"])
def test_validate_on_an_unlawful_category_exits_3_without_a_traceback(
        tmp_path, change, violation):
    """The laws of a presheaf or a module are read only along identities
    a -> a and composites of composable pairs with the right endpoints, so
    the category's report names what is wrong and nothing raises.  Along
    those, F, P and H are lawful, but the solvers need a lawful category, so
    each of their reports names the first violation of its category and
    exits 3.  (While their own laws were all they reported, ``validate P H``
    printed ok for both and exited 0.)"""
    path = tmp_path / "unlawful.json"
    path.write_text(json.dumps(_two_workspace(**change)))
    base = f"  base Two: {violation}\n"
    assert _run(["-w", str(path), "validate"]) == (
        3, f"INVALID category Two\n  {violation}\nINVALID functor F\n{base}"
           f"INVALID presheaf P\n{base}INVALID profunctor H\n{base}", "")
    assert _run(["-w", str(path), "validate", "P", "H"]) == (
        3, f"INVALID presheaf P\n{base}INVALID profunctor H\n{base}", "")
    code, out, _ = _run(["--json", "-w", str(path), "validate", "P"])
    law = json.loads(out)["entities"][0]["violations"][0]["law"]
    assert (code, law) == (3, "base Two: " + violation.split(" fails at ")[0])
    code, out, err = _run(["-w", str(path), "limit", "P"])
    assert (code, out) == (3, "") and violation in err


_TWO = ("categories", "Two")


@pytest.mark.parametrize("keys, value, argv, code, message", [
    (_TWO + ("objects",), ["0", "0", "1"], ["validate"], 3,
     "error: Two: duplicate object ids"),
    (_TWO + ("morphisms",), [{"id": "f", "src": "0", "tgt": "1"}] * 2, ["validate"], 3,
     "error: Two: duplicate morphism ids"),
    (_TWO + ("morphisms", 2, "src"), "9", ["validate"], 3,
     "error: Two: morphism 'f' has unknown endpoint"),
    (_TWO + ("identities", "0"), "zz", ["validate"], 3,
     "error: Two: identity table references unknown id"),
    (_TWO + ("identities", "1"), None, ["validate"], 3,
     "error: Two: identity table must cover every object"),
    (_TWO + ("compose", 0), ["f", "id0"], ["validate"], 2,
     "error: category Two: compose entries are [g, f, h]"),
    (("functors", "F", "objects", "1"), None, ["validate"], 3,
     "error: F: object map must cover the source"),
    (("functors", "F", "morphisms", "f"), None, ["validate"], 3,
     "error: F: morphism map must cover the source"),
    (("functors", "F", "source"), "Nope", ["validate"], 3,
     "error: functor F: no category 'Nope'"),
    (("presheaves", "P", "sets", "9"), ["c"], ["validate"], 3,
     "error: P: value set on unknown object '9'"),
    (("presheaves", "P", "sets", "0"), ["a", "a"], ["validate"], 3,
     "error: P: duplicate elements at '0'"),
    (("presheaves", "P", "sets", "1"), None, ["validate"], 3,
     "error: P: value sets must cover every object"),
    (("presheaves", "P", "actions", "f"), None, ["validate"], 3,
     "error: P: action table must cover every morphism"),
    (("presheaves", "P", "variance"), "sideways", ["validate"], 2,
     "error: presheaf P: variance must be 'contra' or 'co'"),
    (("profunctors", "H", "cells", "1", "0"), None, ["validate"], 3,
     "error: profunctor 'H': cells must cover target x source"),
    (("profunctors", "H", "cells", "0", "0"), ["z00", "z00"], ["validate"], 3,
     "error: profunctor 'H': duplicate elements in cell ('0', '0')"),
    (("profunctors", "H", "left", "f"), None, ["validate"], 3,
     "error: profunctor 'H': action tables incomplete"),
    (("weight_classes", "W", "weights"), ["P", "Nope"], ["validate"], 3,
     "error: weight class W: no presheaf 'Nope'"),
    (("presheaves", "Q"), {"on": "One", "sets": {"*": []}, "actions": {"1": {}}},
     ["wlimit", "P", "Q"], 3, "error: wlimit: weight and diagram must share a base"),
    ((), None, ["--budget", "abc", "validate"], 2,
     "fincat: error: argument --budget: invalid int value: 'abc'"),
    ((), None, ["absolute-sample"], 2,
     "error: usage: absolute-sample PRESHEAF [FUNCTOR ...]"),
])
def test_malformed_input_exits_with_its_code_and_message(tmp_path, keys, value,
                                                         argv, code, message):
    """Each input check that no other test runs: the first error line on
    stderr, the exit code and no traceback, on the workspace of
    ``_two_workspace`` with one entry changed, added or deleted."""
    doc = _two_workspace()
    doc["categories"]["One"] = {
        "objects": ["*"], "morphisms": [{"id": "1", "src": "*", "tgt": "*"}],
        "identities": {"*": "1"}, "compose": [["1", "1", "1"]]}
    if keys:
        _set(doc, keys, value)
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(doc))
    got, out, err = _run(["-w", str(path), *argv])
    assert (got, out) == (code, "") and "Traceback" not in err
    assert message in err.splitlines(), err


def test_absolute_sample_with_no_functor_samples_every_functor_in_name_order(capsys):
    assert cli.main(["absolute-sample", "one.Z2"]) == 0
    out = capsys.readouterr().out
    assert "instances: 20\n" in out
    ws = load_workspace(cli.default_fixture_paths())
    assert cli.main(["absolute-sample", "one.Z2", *sorted(ws.functors)]) == 0
    assert capsys.readouterr().out == out


def test_closure_and_saturation_exit_4_within_the_sweep_budget(tmp_path):
    """--budget caps each search that a closure starts: on the workspace of
    seed 148 both used to run about 8.5 s at SWEEP_FLAGS and exit 0."""
    path = tmp_path / "random148.json"
    path.write_text(serialize_workspace(_random_workspace(148, 5)))
    for argv in (["closure", "A", "W"], ["saturation", "phi", "W"]):
        code, out, err = _run(SWEEP_FLAGS + ["-w", str(path)] + argv)
        assert (code, out) == (4, ""), argv
        assert err == "error: search budget 2000 exceeded in nat_trans_set\n", argv


def test_main_restores_the_default_budget(capsys):
    """cli.main sets core.DEFAULT_BUDGET from --budget for one command and
    restores it, whatever the command's exit code."""
    for argv, code in ((["--budget", "50", "morita", "Two", "Two"], 0),
                       (["--budget", "1", "morita", "GSet", "GSet"], 4),
                       (["--budget", "7", "absolute-sample", "one.Z2", "orbit"], 0)):
        assert cli.main(argv) == code, argv
        assert core.DEFAULT_BUDGET == 10 ** 6, argv
    capsys.readouterr()
