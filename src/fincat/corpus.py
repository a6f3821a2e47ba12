"""Named example categories, weights and diagrams for the tests and fixtures.

Everything here uses plain string ids so the whole corpus serializes directly.
"""
from __future__ import annotations

import itertools
import pathlib

from .core import (FinCategory, FinFunctor, Presheaf, Profunctor, WeightClass,
                   _composable_pairs, delta0, delta1, unit_category)
from .errors import MalformedTable
from .kan import yoneda_embed
from .workspace import Workspace, serialize_workspace


def poset_category(name, elements, leq) -> FinCategory:
    """Poset as a category; morphism ids read like the relation they witness."""
    objects = list(elements)
    pairs = [(a, b) for a in objects for b in objects if leq(a, b)]
    morphisms = [(f"{a}<={b}", a, b) for a, b in pairs]
    identity = {a: f"{a}<={a}" for a in objects}
    compose = {}
    for (g, b, c), (f, a, _) in _composable_pairs(morphisms):
        if not leq(a, c):
            raise MalformedTable(f"{name}: order not transitive at {a},{b},{c}")
        compose[(g, f)] = f"{a}<={c}"
    return FinCategory(name, objects, morphisms, identity, compose)


def monoid_category(name, elements, mult, unit) -> FinCategory:
    """One-object category; compose(g, f) is g*f, written with f applied first."""
    morphisms = [(m, "*", "*") for m in elements]
    compose = {(g, f): mult[(g, f)] for g in elements for f in elements}
    return FinCategory(name, ["*"], morphisms, {"*": unit}, compose)


def discrete_category(name, objects) -> FinCategory:
    return FinCategory(name, list(objects),
                       [(f"id{a}", a, a) for a in objects],
                       {a: f"id{a}" for a in objects},
                       {(f"id{a}", f"id{a}"): f"id{a}" for a in objects})


def _map_name(src, tgt, carrier_src, table):
    return f"{src}>{tgt}:" + ",".join(table[x] for x in carrier_src)


def concrete_category(name, carriers, tables) -> FinCategory:
    """A category of finite sets and chosen function tables.

    carriers: object -> element tuple; tables: (src, tgt) -> list of dicts.
    The table list must be closed under composition and contain identities.
    """
    objects = list(carriers)
    morphisms = []
    by_name = {}
    for (s, t), fns in tables.items():
        for tbl in fns:
            mid = _map_name(s, t, carriers[s], tbl)
            morphisms.append((mid, s, t))
            by_name[mid] = tbl
    identity = {}
    for a in objects:
        mid = _map_name(a, a, carriers[a], {x: x for x in carriers[a]})
        if mid not in by_name:
            raise MalformedTable(f"{name}: identity on {a} missing")
        identity[a] = mid
    compose = {}
    for (g, _, gt), (f, fs, _) in _composable_pairs(morphisms):
        tbl = {x: by_name[g][by_name[f][x]] for x in carriers[fs]}
        mid = _map_name(fs, gt, carriers[fs], tbl)
        if mid not in by_name:
            raise MalformedTable(f"{name}: not closed under composition at {g} . {f}")
        compose[(g, f)] = mid
    return FinCategory(name, objects, morphisms, identity, compose)


def equivariant_tables(carrier_s, act_s, carrier_t, act_t):
    """All maps commuting with one generator action on each side."""
    out = []
    for images in itertools.product(carrier_t, repeat=len(carrier_s)):
        tbl = dict(zip(carrier_s, images))
        if all(tbl[act_s[x]] == act_t[tbl[x]] for x in carrier_s):
            out.append(tbl)
    return out


def all_function_tables(carrier_s, carrier_t):
    return [dict(zip(carrier_s, images))
            for images in itertools.product(carrier_t, repeat=len(carrier_s))]


# ---------------------------------------------------------------------------
# categories

I = unit_category()
Empty = FinCategory("Empty", [], [], {}, {})
Two = FinCategory("Two", ["0", "1"],
                  [("id0", "0", "0"), ("id1", "1", "1"), ("f", "0", "1")],
                  {"0": "id0", "1": "id1"},
                  {("id0", "id0"): "id0", ("id1", "id1"): "id1",
                   ("id1", "f"): "f", ("f", "id0"): "f"})
Disc2 = discrete_category("Disc2", ["0", "1"])
Span = FinCategory("Span", ["0", "1", "2"],
                   [("id0", "0", "0"), ("id1", "1", "1"), ("id2", "2", "2"),
                    ("l", "0", "1"), ("r", "0", "2")],
                   {"0": "id0", "1": "id1", "2": "id2"},
                   {("id0", "id0"): "id0", ("id1", "id1"): "id1",
                    ("id2", "id2"): "id2", ("id1", "l"): "l", ("l", "id0"): "l",
                    ("id2", "r"): "r", ("r", "id0"): "r"})
Cospan = FinCategory("Cospan", ["0", "1", "2"],
                     [("id0", "0", "0"), ("id1", "1", "1"), ("id2", "2", "2"),
                      ("l", "1", "0"), ("r", "2", "0")],
                     {"0": "id0", "1": "id1", "2": "id2"},
                     {("id0", "id0"): "id0", ("id1", "id1"): "id1",
                      ("id2", "id2"): "id2", ("id0", "l"): "l", ("l", "id1"): "l",
                      ("id0", "r"): "r", ("r", "id2"): "r"})
Par = FinCategory("Par", ["0", "1"],
                  [("id0", "0", "0"), ("id1", "1", "1"),
                   ("s", "0", "1"), ("t", "0", "1")],
                  {"0": "id0", "1": "id1"},
                  {("id0", "id0"): "id0", ("id1", "id1"): "id1",
                   ("id1", "s"): "s", ("s", "id0"): "s",
                   ("id1", "t"): "t", ("t", "id0"): "t"})
M = monoid_category("M", ["1", "e"],
                    {("1", "1"): "1", ("1", "e"): "e",
                     ("e", "1"): "e", ("e", "e"): "e"}, "1")
Z2 = monoid_category("Z2", ["1", "g"],
                     {("1", "1"): "1", ("1", "g"): "g",
                      ("g", "1"): "g", ("g", "g"): "1"}, "1")
Z3 = monoid_category("Z3", ["1", "g", "h"],
                     {("1", "1"): "1", ("1", "g"): "g", ("1", "h"): "h",
                      ("g", "1"): "g", ("g", "g"): "h", ("g", "h"): "1",
                      ("h", "1"): "h", ("h", "g"): "1", ("h", "h"): "g"}, "1")


def _split_m():
    """Both idempotents of M split: objects carry the idempotent they split.

    Hom(se1, se2) = {m in M : e2.m.e1 = m}, composed as in M.  Equivalent to
    what cauchy_completion(M) produces, but with plain string names so it can
    live in a fixture file.
    """
    mult = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}
    split = {"s1": "1", "se": "e"}
    mors = []
    for a in ("s1", "se"):
        for b in ("s1", "se"):
            for m in ("1", "e"):
                if mult[(split[b], mult[(m, split[a])])] == m:
                    mors.append((f"{a}>{b}:{m}", a, b))
    compose = {(g, f): f"{fa}>{gb}:{mult[(g.split(':')[1], f.split(':')[1])]}"
               for (g, _, gb), (f, fa, _) in _composable_pairs(mors)}
    return FinCategory("QM", ["s1", "se"], mors,
                       {"s1": "s1>s1:1", "se": "se>se:e"}, compose)


QM = _split_m()

_N5_UP = {"o": {"o", "a", "b", "c", "i"}, "a": {"a", "c", "i"},
          "b": {"b", "i"}, "c": {"c", "i"}, "i": {"i"}}
N5 = poset_category("N5", ["o", "a", "b", "c", "i"],
                    lambda x, y: y in _N5_UP[x])
Chain3 = poset_category("Chain3", ["0", "1", "2"],
                        lambda x, y: int(x) <= int(y))

_G_CARRIERS = {"1": ("p",), "G": ("a", "b"), "GG": ("aa", "ab", "ba", "bb")}
_G_ACTIONS = {"1": {"p": "p"},
              "G": {"a": "b", "b": "a"},
              "GG": {"aa": "bb", "ab": "ba", "ba": "ab", "bb": "aa"}}
GSet = concrete_category(
    "GSet", _G_CARRIERS,
    {(s, t): equivariant_tables(_G_CARRIERS[s], _G_ACTIONS[s],
                                _G_CARRIERS[t], _G_ACTIONS[t])
     for s in _G_CARRIERS for t in _G_CARRIERS})

_S_CARRIERS = {"1": ("x",), "2": ("x", "y")}
FinSet12 = concrete_category(
    "FinSet12", _S_CARRIERS,
    {(s, t): all_function_tables(_S_CARRIERS[s], _S_CARRIERS[t])
     for s in _S_CARRIERS for t in _S_CARRIERS})

CATEGORIES = {c.name: c for c in
              [I, Empty, Two, Disc2, Span, Cospan, Par, M, QM, Z2, Z3,
               N5, Chain3, GSet, FinSet12]}


# ---------------------------------------------------------------------------
# functors

_ORBIT_LABELS = {"1": {"p": "x"},
                 "G": {"a": "x", "b": "x"},
                 "GG": {"aa": "x", "bb": "x", "ab": "y", "ba": "y"}}
_ORBIT_OBJ = {"1": "1", "G": "1", "GG": "2"}


def _orbit_functor() -> FinFunctor:
    mor_map = {}
    for m in GSet.morphisms:
        s, t = GSet.src[m], GSet.tgt[m]
        tbl = dict(zip(_G_CARRIERS[s], m.split(":")[1].split(",")))
        out = {}
        for x in _G_CARRIERS[s]:
            out[_ORBIT_LABELS[s][x]] = _ORBIT_LABELS[t][tbl[x]]
        mor_map[m] = _map_name(_ORBIT_OBJ[s], _ORBIT_OBJ[t],
                               _S_CARRIERS[_ORBIT_OBJ[s]], out)
    return FinFunctor("orbit", GSet, FinSet12, dict(_ORBIT_OBJ), mor_map)


orbit = _orbit_functor()

# M sits inside its idempotent splitting as the object splitting the identity
embedM = FinFunctor("embedM", M, QM, {"*": "s1"},
                    {"1": "s1>s1:1", "e": "s1>s1:e"})

FUNCTORS = {"orbit": orbit, "embedM": embedM}


# ---------------------------------------------------------------------------
# weights and other presheaves

def sum_presheaf(name, p: Presheaf, q: Presheaf) -> Presheaf:
    """Objectwise disjoint union; elements are tagged with their side."""
    sets = {a: tuple(f"l:{x}" for x in p.sets[a]) + tuple(f"r:{x}" for x in q.sets[a])
            for a in p.base.objects}
    actions = {}
    for f in p.base.morphisms:
        table = {f"l:{x}": f"l:{p.act(f, x)}" for x in p.sets[p.base.tgt[f]]}
        table.update({f"r:{x}": f"r:{q.act(f, x)}" for x in q.sets[q.base.tgt[f]]})
        actions[f] = table
    return Presheaf(name, p.base, sets, actions)


def representable(cat: FinCategory, b, name=None) -> Presheaf:
    p = yoneda_embed(cat, b)
    if name:
        p.name = name
    return p


E = Presheaf("E", M, {"*": ("e",)}, {"1": {"e": "e"}, "e": {"e": "e"}})

initial_weight = delta0(Empty, "zero.Empty")
one_Z2 = delta1(Z2)
one_Span = delta1(Span)

# Two-element set with the swap action: the free orbit, as a presheaf on Z2.
free_Z2 = Presheaf("free.Z2", Z2, {"*": ("a", "b")},
                   {"1": {"a": "a", "b": "b"}, "g": {"a": "b", "b": "a"}})
# Two-element set with the trivial action: two fixed points.
triv2_Z2 = Presheaf("triv2.Z2", Z2, {"*": ("x", "y")},
                    {"1": {"x": "x", "y": "y"}, "g": {"x": "x", "y": "y"}})

# The cospan of sets G -> 1 <- G as a presheaf on Span; its one-point limit
# weight pullback is G x G.
group_cospan = Presheaf("groupCospan", Span,
                        {"0": ("p",), "1": ("a", "b"), "2": ("a", "b")},
                        {"id0": {"p": "p"},
                         "id1": {"a": "a", "b": "b"},
                         "id2": {"a": "a", "b": "b"},
                         "l": {"a": "p", "b": "p"},
                         "r": {"a": "p", "b": "p"}})

example82 = Profunctor(
    "example8.2", Z2, Span,
    sets={("0", "*"): ("p",), ("1", "*"): ("a", "b"), ("2", "*"): ("a", "b")},
    left={("id0", "*"): {"p": "p"},
          ("id1", "*"): {"a": "a", "b": "b"},
          ("id2", "*"): {"a": "a", "b": "b"},
          ("l", "*"): {"a": "p", "b": "p"},
          ("r", "*"): {"a": "p", "b": "p"}},
    right={("0", "1"): {"p": "p"}, ("0", "g"): {"p": "p"},
           ("1", "1"): {"a": "a", "b": "b"}, ("1", "g"): {"a": "b", "b": "a"},
           ("2", "1"): {"a": "a", "b": "b"}, ("2", "g"): {"a": "b", "b": "a"}})

PROFUNCTORS = {"example8.2": example82}

splitting_class = WeightClass("splitting", [E])
initial_class = WeightClass("initial", [initial_weight])
pushout_class = WeightClass("pushouts", [one_Span])
finite_colimit_class = WeightClass(
    "finite-colimits",
    [initial_weight, delta1(Disc2), delta1(Par), one_Span])
orbit_class = WeightClass("orbits", [one_Z2])
empty_class = WeightClass("empty", [])

WEIGHT_CLASSES = {c.name: c for c in
                  [splitting_class, initial_class, pushout_class,
                   finite_colimit_class, orbit_class, empty_class]}


def _two_collapse() -> Presheaf:
    # F(0) = {u, v}, F(1) = {w}, the arrow acting by w -> u.
    return Presheaf("collapse.Two", Two, {"0": ("u", "v"), "1": ("w",)},
                    {"id0": {"u": "u", "v": "v"}, "id1": {"w": "w"},
                     "f": {"w": "u"}})


def presheaf_corpus():
    """Every named presheaf, representables included; ids are all strings."""
    out = {}

    def put(p):
        out[p.name] = p

    for cat in CATEGORIES.values():
        for b in cat.objects:
            put(representable(cat, b))
        if cat.objects:
            put(delta1(cat))
        put(delta0(cat))
    put(E)
    put(free_Z2)
    put(triv2_Z2)
    put(group_cospan)
    put(_two_collapse())
    put(sum_presheaf("YplusY.Two", representable(Two, "0"), representable(Two, "1")))
    put(sum_presheaf("EplusE", E, E))
    put(sum_presheaf("YplusY.M", representable(M, "*"), representable(M, "*")))
    return out


PRESHEAVES = presheaf_corpus()


def covariant_hom(cat, b, name=None) -> Presheaf:
    """Hom(b, -) as a covariant diagram, for Kan extension and wcolimit runs."""
    return representable(cat.op(), b, name or f"cov.{cat.name}.{b}")


COVARIANT = {p.name: p for p in (covariant_hom(GSet, b) for b in GSet.objects)}


def fixture_workspaces():
    """The shipped fixture files, stem -> Workspace, exactly as serialized.

    Regenerate with:
        python3 -c "from fincat import corpus; corpus.write_fixtures()"
    """
    by_base = {}
    for p in PRESHEAVES.values():
        by_base.setdefault(p.base.name, {})[p.name] = p

    layout = {
        "unit_I": (["I"], {}, {}, {}),
        "empty": (["Empty"], {"initial": initial_class}, {}, {}),
        "two": (["Two"], {}, {}, {}),
        "disc2": (["Disc2"], {}, {}, {}),
        "span": (["Span"], {"pushouts": pushout_class}, {}, {}),
        "cospan": (["Cospan"], {}, {}, {}),
        "par": (["Par"], {}, {}, {}),
        "monoid_M": (["M", "QM"], {"splitting": splitting_class},
                     {"embedM": embedM}, {}),
        "group_Z2": (["Z2"], {"orbits": orbit_class}, {}, {}),
        "group_Z3": (["Z3"], {}, {}, {}),
        "lattice_N5": (["N5"], {}, {}, {}),
        "chain3": (["Chain3"], {}, {}, {}),
        "concrete": (["GSet", "FinSet12"], {}, {"orbit": orbit}, {}),
        "example82": ([], {}, {}, {"example8.2": example82}),
        "weight_classes": ([], {"finite-colimits": finite_colimit_class,
                                "empty": empty_class}, {}, {}),
    }
    out = {}
    for stem, (cats, classes, functors, profs) in layout.items():
        ws = Workspace()
        for c in cats:
            ws.categories[c] = CATEGORIES[c]
            for pname in sorted(by_base.get(c, ())):
                ws.presheaves[pname] = by_base[c][pname]
        if stem == "concrete":
            for pname in sorted(COVARIANT):
                ws.presheaves[pname] = COVARIANT[pname]
                ws.presheaf_meta[pname] = ("GSet", "co")
        ws.functors.update(functors)
        ws.profunctors.update(profs)
        ws.weight_classes.update(classes)
        out[stem] = ws
    return out


def write_fixtures(root=pathlib.Path(__file__).parent / "fixtures"):
    root = pathlib.Path(root)
    for stem, ws in fixture_workspaces().items():
        (root / f"{stem}.json").write_text(serialize_workspace(ws))

