"""Workspace files: JSON descriptions of categories, presheaves, functors,
profunctors, and weight classes.

The presheaf convention is contravariant and normative: the action of
f: a -> b is recorded as a map from sets[b] to sets[a].  Covariant data may be
declared with "variance": "co", in which case the action of f maps sets[a] to
sets[b] and the loaded presheaf lives on the opposite category.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import (FinCategory, FinFunctor, Presheaf, Profunctor, WeightClass,
                   covariant, validate)
from .errors import (DuplicateName, ParseError, UnresolvedReference,
                     ValidationFailed)

_SECTIONS = ("categories", "functors", "presheaves", "profunctors",
             "weight_classes")


@dataclass
class Workspace:
    categories: dict = field(default_factory=dict)
    functors: dict = field(default_factory=dict)
    presheaves: dict = field(default_factory=dict)
    profunctors: dict = field(default_factory=dict)
    weight_classes: dict = field(default_factory=dict)
    presheaf_meta: dict = field(default_factory=dict)  # name -> (cat name, variance)

    _SINGULAR = {"categories": "category", "functors": "functor",
                 "presheaves": "presheaf", "profunctors": "profunctor",
                 "weight_classes": "weight class"}

    def _lookup(self, section, name):
        table = getattr(self, section)
        if name not in table:
            raise UnresolvedReference(f"no {self._SINGULAR[section]} "
                                      f"named {name!r}")
        return table[name]

    def category(self, name):
        return self._lookup("categories", name)

    def functor(self, name):
        return self._lookup("functors", name)

    def presheaf(self, name):
        return self._lookup("presheaves", name)

    def profunctor(self, name):
        return self._lookup("profunctors", name)

    def weight_class(self, name):
        return self._lookup("weight_classes", name)

    def entities(self):
        """(kind, name, entity) for every entity but the weight classes, in
        section order; kind is singular, as in "category"."""
        for section in _SECTIONS[:-1]:
            for name, entity in getattr(self, section).items():
                yield self._SINGULAR[section], name, entity


def _no_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise DuplicateName(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _parse_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ParseError(f"{path}:1:1: cannot read: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}:1:1: not UTF-8: {err.reason}") from None
    try:
        doc = json.loads(text, object_pairs_hook=_no_duplicate_keys)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    except RecursionError:
        raise ParseError(f"{path}:1:1: nesting too deep") from None
    except DuplicateName as err:
        raise DuplicateName(f"{path}: {err}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}:1:1: workspace document must be an object")
    for key, entries in doc.items():
        if key not in _SECTIONS:
            raise ParseError(f"{path}:1:1: unknown section {key!r}")
        if not isinstance(entries, dict):
            raise ParseError(f"{path}:1:1: section {key!r} must be an object")
    return doc


_ID = (str, int, float, bool, type(None))  # the hashable JSON values
_NAME = (str,)
_TABLE = {...: _ID}
_CATEGORY = {"objects": [_ID], "morphisms": [{"id": _ID, "src": _ID, "tgt": _ID}],
             "identities": _TABLE, "compose": [[_ID]]}
_PRESHEAF = {"on": _NAME, "sets": {...: [_ID]}, "actions": {...: _TABLE}}
_FUNCTOR = {"source": _NAME, "target": _NAME, "objects": _TABLE,
            "morphisms": _TABLE}
_PROFUNCTOR = {"source": _NAME, "target": _NAME, "cells": {...: {...: [_ID]}},
               "left": {...: {...: _TABLE}}, "right": {...: {...: _TABLE}}}
_WEIGHT_CLASS = {"weights": [_NAME]}


def _shape(value, schema, what):
    """Check parsed JSON against a schema, raising ParseError at the first misfit.

    A schema is a tuple of scalar types, ``[s]`` for a list of ``s``,
    ``{key: s, ...}`` for an object holding at least those keys, or
    ``{...: s}`` for an object whose values all follow ``s``.
    """
    if isinstance(schema, tuple):
        if not isinstance(value, schema):
            kind = "a name" if schema is _NAME else "a string or number"
            raise ParseError(f"{what}: expected {kind}")
        return
    if isinstance(schema, list):
        if not isinstance(value, list):
            raise ParseError(f"{what}: expected a list")
        items, (item,) = value, schema
    else:
        if not isinstance(value, dict):
            raise ParseError(f"{what}: expected an object")
        if ... not in schema:
            for key, sub in schema.items():
                if key not in value:
                    raise ParseError(f"{what}: missing {key!r}")
                _shape(value[key], sub, f"{what} {key}")
            return
        items, item = value.values(), schema[...]
    for v in items:
        _shape(v, item, what)


def _build_category(name, spec):
    _shape(spec, _CATEGORY, f"category {name}")
    morphisms = [(m["id"], m["src"], m["tgt"]) for m in spec["morphisms"]]
    compose = {}
    for triple in spec["compose"]:
        if len(triple) != 3:
            raise ParseError(f"category {name}: compose entries are [g, f, h]")
        g, f, h = triple
        compose[(g, f)] = h
    return FinCategory(name, list(spec["objects"]), morphisms,
                       dict(spec["identities"]), compose)


def _build_presheaf(name, spec, categories):
    _shape(spec, _PRESHEAF, f"presheaf {name}")
    if spec["on"] not in categories:
        raise UnresolvedReference(f"presheaf {name}: no category {spec['on']!r}")
    cat = categories[spec["on"]]
    variance = spec.get("variance", "contra")
    if variance not in ("contra", "co"):
        raise ParseError(f"presheaf {name}: variance must be 'contra' or 'co'")
    sets = {a: list(v) for a, v in spec["sets"].items()}
    actions = {f: dict(t) for f, t in spec["actions"].items()}
    build = Presheaf if variance == "contra" else covariant
    return build(name, cat, sets, actions), variance


def _build_functor(name, spec, categories):
    _shape(spec, _FUNCTOR, f"functor {name}")
    for key in ("source", "target"):
        if spec[key] not in categories:
            raise UnresolvedReference(f"functor {name}: no category {spec[key]!r}")
    return FinFunctor(name, categories[spec["source"]], categories[spec["target"]],
                      dict(spec["objects"]), dict(spec["morphisms"]))


def _build_profunctor(name, spec, categories):
    _shape(spec, _PROFUNCTOR, f"profunctor {name}")
    for key in ("source", "target"):
        if spec[key] not in categories:
            raise UnresolvedReference(f"profunctor {name}: no category {spec[key]!r}")
    sets = {(b, a): list(v)
            for b, row in spec["cells"].items() for a, v in row.items()}
    left = {(m, a): dict(t)
            for m, row in spec["left"].items() for a, t in row.items()}
    right = {(b, m): dict(t)
             for b, row in spec["right"].items() for m, t in row.items()}
    return Profunctor(name, categories[spec["source"]], categories[spec["target"]],
                      sets, left, right)


def _build(paths, ws):
    """Parse and resolve workspace files into ws, validating nothing.  Each
    category, presheaf, functor and profunctor is yielded as soon as it is
    built, before anything after it is read."""
    docs = [(p, _parse_file(p)) for p in paths]
    merged = {section: {} for section in _SECTIONS}
    for path, doc in docs:
        for section, entries in doc.items():
            for name, spec in entries.items():
                if name in merged[section]:
                    raise DuplicateName(f"{path}: {Workspace._SINGULAR[section]} "
                                        f"{name!r} defined twice")
                merged[section][name] = spec
    for name, spec in merged["categories"].items():
        ws.categories[name] = _build_category(name, spec)
        yield ws.categories[name]
    for name, spec in merged["presheaves"].items():
        ws.presheaves[name], variance = _build_presheaf(name, spec, ws.categories)
        ws.presheaf_meta[name] = (spec["on"], variance)
        yield ws.presheaves[name]
    for name, spec in merged["functors"].items():
        ws.functors[name] = _build_functor(name, spec, ws.categories)
        yield ws.functors[name]
    for name, spec in merged["profunctors"].items():
        ws.profunctors[name] = _build_profunctor(name, spec, ws.categories)
        yield ws.profunctors[name]
    for name, spec in merged["weight_classes"].items():
        _shape(spec, _WEIGHT_CLASS, f"weight class {name}")
        weights = []
        for pname in spec["weights"]:
            if pname not in ws.presheaves:
                raise UnresolvedReference(f"weight class {name}: "
                                          f"no presheaf {pname!r}")
            weights.append(ws.presheaves[pname])
        ws.weight_classes[name] = WeightClass(name, weights)


def load_workspace(paths) -> Workspace:
    """Parse, resolve, and validate one or more workspace files.  The first
    invalid entity raises ValidationFailed before later ones are built."""
    ws = Workspace()
    for entity in _build(paths, ws):
        report = validate(entity)
        if not report.ok:
            raise ValidationFailed(report)
    return ws


def _unvalidated(paths) -> Workspace:
    """``load_workspace`` without its validation, for ``fincat validate``."""
    ws = Workspace()
    for _ in _build(paths, ws):
        pass
    return ws


def _category_json(c: FinCategory):
    return {"objects": list(c.objects),
            "morphisms": [{"id": m, "src": c.src[m], "tgt": c.tgt[m]}
                          for m in c.morphisms],
            "identities": {a: c.id_of(a) for a in c.objects},
            "compose": sorted([g, f, h] for (g, f), h in c.compose_table.items())}


def _presheaf_json(p: Presheaf, meta):
    on, variance = meta
    objects = p.base.objects
    morphisms = p.base.morphisms
    return {"on": on, "variance": variance,
            "sets": {a: list(p.sets[a]) for a in objects},
            "actions": {f: dict(p.actions[f]) for f in morphisms}}


def _functor_json(fn: FinFunctor):
    return {"source": fn.source.name, "target": fn.target.name,
            "objects": dict(fn.obj_map), "morphisms": dict(fn.mor_map)}


def _profunctor_json(p: Profunctor):
    cells = {b: {a: list(p.cell(b, a)) for a in p.source.objects}
             for b in p.target.objects}
    left = {m: {a: dict(p.left[(m, a)]) for a in p.source.objects}
            for m in p.target.morphisms}
    right = {b: {m: dict(p.right[(b, m)]) for m in p.source.morphisms}
             for b in p.target.objects}
    return {"source": p.source.name, "target": p.target.name,
            "cells": cells, "left": left, "right": right}


def serialize_workspace(ws: Workspace) -> str:
    """Canonical JSON text; loading it back and serializing is a fixpoint."""
    doc = {}
    if ws.categories:
        doc["categories"] = {n: _category_json(c) for n, c in ws.categories.items()}
    if ws.presheaves:
        doc["presheaves"] = {
            n: _presheaf_json(p, ws.presheaf_meta.get(n, (p.base.name, "contra")))
            for n, p in ws.presheaves.items()}
    if ws.functors:
        doc["functors"] = {n: _functor_json(f) for n, f in ws.functors.items()}
    if ws.profunctors:
        doc["profunctors"] = {n: _profunctor_json(p)
                              for n, p in ws.profunctors.items()}
    if ws.weight_classes:
        doc["weight_classes"] = {n: {"weights": [w.name for w in c.weights]}
                                 for n, c in ws.weight_classes.items()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
