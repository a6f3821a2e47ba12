"""Finite categories, functors, presheaves, and the table conventions used everywhere.

Conventions, fixed once and relied on by every other module:

* ``compose(g, f)`` means "first f, then g" and is defined iff tgt(f) = src(g).
* A ``Presheaf`` on A is contravariant: the action of f: a -> b maps sets[b] -> sets[a].
  A covariant set-valued functor on A is stored as a Presheaf on ``A.op()``; its action
  table then sends sets[a] -> sets[b] for f: a -> b, which is what callers supply.
* A ``Profunctor`` from A to B is a functor B^op (x) A -> Set: cells ``sets[(b, a)]``,
  the left action of beta: b' -> b maps cell (b, a) to cell (b', a), the right action
  of alpha: a -> a' maps cell (b, a) to cell (b, a').
* The category of elements of a presheaf phi on K has objects (k, x) with x in phi(k);
  a morphism (k, x) -> (k', x') is u: k' -> k in K with phi(u)(x) = x', so the evident
  projection is a functor el(phi) -> K^op.
* A natural family, between presheaves or modules, is compared in frozen form: one
  tuple per key of its source's ``sets`` (base objects in base order, cells (b, a) in
  target x source order), of the images in element order.  ``_freeze`` builds it from
  a function of (key, element); ``_entry`` reads one image of a presheaf family back.

Every backtracking search counts nodes on a ``Meter``, against one budget,
``DEFAULT_BUDGET``; natural families, cones, wedges and presheaf isomorphisms
share one solver, ``_families``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import BudgetExceeded, InternalMismatch, MalformedTable


class FinCategory:
    """A finite category given by explicit tables.

    objects: ordered list of hashable object ids.
    morphisms: ordered list of (mor_id, src, tgt) triples.
    identity: dict object -> morphism id.
    compose: dict (g, f) -> g after f, or an iterable of ((g, f), g after f)
    pairs, keyed on exactly the composable pairs; it is read once, into a new
    dict, unless the category is a ``_LazyCategory``, which reads it on the
    first read of ``compose_table``.
    into: dict object -> morphisms with that target, in morphism order; the
    composable pairs are exactly the (g, f) with f in into[src g].
    """

    def __init__(self, name, objects, morphisms, identity, compose):
        self.name = name
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise MalformedTable(f"{name}: duplicate object ids")
        self.obj_index = {a: i for i, a in enumerate(self.objects)}
        self.morphisms = tuple(m for m, _, _ in morphisms)
        if len(set(self.morphisms)) != len(self.morphisms):
            raise MalformedTable(f"{name}: duplicate morphism ids")
        self.mor_index = {m: i for i, m in enumerate(self.morphisms)}
        self.src = {}
        self.tgt = {}
        for m, s, t in morphisms:
            if s not in self.obj_index or t not in self.obj_index:
                raise MalformedTable(f"{name}: morphism {m!r} has unknown endpoint")
            self.src[m] = s
            self.tgt[m] = t
        self.identity = dict(identity)
        for a, m in self.identity.items():
            if a not in self.obj_index or m not in self.mor_index:
                raise MalformedTable(f"{name}: identity table references unknown id")
        if set(self.identity) != set(self.objects):
            raise MalformedTable(f"{name}: identity table must cover every object")
        self._hom = {}
        self.into = {a: [] for a in self.objects}
        for m in self.morphisms:
            self._hom.setdefault((self.src[m], self.tgt[m]), []).append(m)
            self.into[self.tgt[m]].append(m)
        self._op = None
        self._generating = None     # the tuple of ``_gens``, once read
        self._naturality = None     # the tuple of ``_nat_gens``, once read
        self._symmetries = None     # the tuple of ``equivalence._symmetries``, once read
        self._take_compose(compose)

    def _take_compose(self, compose):
        """Store the composition table; ``_LazyCategory`` defers it instead."""
        self.compose_table = self._checked_compose(dict(compose))

    def _checked_compose(self, table):
        """table, once every key and value in it is a morphism id; the first
        unknown id, in table order, raises MalformedTable."""
        known = self.mor_index.keys()
        if not (set(itertools.chain.from_iterable(table)) <= known
                and set(table.values()) <= known):
            for (g, f), h in table.items():
                for m in (g, f, h):
                    if m not in known:
                        raise MalformedTable(
                            f"{self.name}: compose table references unknown morphism {m!r}")
        return table

    def hom(self, a, b):
        return tuple(self._hom.get((a, b), ()))

    def id_of(self, a):
        return self.identity[a]

    def compose(self, g, f):
        """g after f; raises MalformedTable if the pair is not in the table."""
        try:
            return self.compose_table[(g, f)]
        except KeyError:
            raise MalformedTable(
                f"{self.name}: compose({g!r}, {f!r}) undefined") from None

    def is_identity(self, m):
        return self.identity.get(self.src[m]) == m and self.src[m] == self.tgt[m]

    def op(self):
        """Opposite category; shares object and morphism ids, caches the involution."""
        if self._op is None:
            morphisms = [(m, self.tgt[m], self.src[m]) for m in self.morphisms]
            compose = {(f, g): h for (g, f), h in self.compose_table.items()}
            other = FinCategory(self.name + "^op", self.objects, morphisms,
                                self.identity, compose)
            other._op = self
            other._generating = self._generating
            self._op = other
        return self._op

    def __repr__(self):
        return f"FinCategory({self.name!r}, {len(self.objects)} objects, {len(self.morphisms)} morphisms)"


def same_category(a: FinCategory, b: FinCategory) -> bool:
    """Structural identity of tables (not isomorphism)."""
    return (a is b) or (
        a.objects == b.objects
        and a.morphisms == b.morphisms
        and a.src == b.src
        and a.tgt == b.tgt
        and a.identity == b.identity
        and a.compose_table == b.compose_table
    )


class FinFunctor:
    def __init__(self, name, source, target, obj_map, mor_map):
        self.name = name
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)
        for a, b in self.obj_map.items():
            if a not in source.obj_index or b not in target.obj_index:
                raise MalformedTable(f"{name}: object map references unknown id")
        if set(self.obj_map) != set(source.objects):
            raise MalformedTable(f"{name}: object map must cover the source")
        for f, g in self.mor_map.items():
            if f not in source.mor_index or g not in target.mor_index:
                raise MalformedTable(f"{name}: morphism map references unknown id")
        if set(self.mor_map) != set(source.morphisms):
            raise MalformedTable(f"{name}: morphism map must cover the source")

    def obj(self, a):
        return self.obj_map[a]

    def mor(self, f):
        return self.mor_map[f]

    def op(self):
        """The same tables read as a functor source^op -> target^op."""
        return FinFunctor(self.name + "^op", self.source.op(), self.target.op(),
                          self.obj_map, self.mor_map)

    def __repr__(self):
        return f"FinFunctor({self.name!r}: {self.source.name} -> {self.target.name})"


def identity_functor(c: FinCategory) -> FinFunctor:
    return FinFunctor(f"id_{c.name}", c, c,
                      {a: a for a in c.objects}, {m: m for m in c.morphisms})


def compose_functors(g: FinFunctor, f: FinFunctor) -> FinFunctor:
    if not same_category(f.target, g.source):
        raise MalformedTable(f"cannot compose {g.name} after {f.name}: middle categories differ")
    return FinFunctor(f"{g.name}*{f.name}", f.source, g.target,
                      {a: g.obj(f.obj(a)) for a in f.source.objects},
                      {m: g.mor(f.mor(m)) for m in f.source.morphisms})


class Presheaf:
    """Contravariant set-valued functor on ``base``.

    sets: dict object -> ordered tuple of distinct hashable elements, in base order.
    actions: dict morphism -> dict; for f: a -> b the dict maps sets[b] into sets[a].

    Neither table is changed after construction: a pullback (``_pullback``)
    shares the value tuples and action dicts of the presheaf it reads, and
    ``_profiles`` memoises ``_elem_profiles`` per object for the life of the
    presheaf.  The profiles do not read ``name``, which callers may reset.
    """

    def __init__(self, name, base, sets, actions):
        self.name = name
        self.base = base
        self.sets = {a: tuple(v) for a, v in sets.items()}
        values = {}
        for a, v in self.sets.items():
            if a not in base.obj_index:
                raise MalformedTable(f"{name}: value set on unknown object {a!r}")
            values[a] = set(v)
            if len(values[a]) != len(v):
                raise MalformedTable(f"{name}: duplicate elements at {a!r}")
        if values.keys() != base.obj_index.keys():
            raise MalformedTable(f"{name}: value sets must cover every object")
        self.actions = {f: dict(v) for f, v in actions.items()}
        if self.actions.keys() != base.mor_index.keys():
            raise MalformedTable(f"{name}: action table must cover every morphism")
        for f, table in self.actions.items():
            if (table.keys() != values[base.tgt[f]]
                    or not values[base.src[f]].issuperset(table.values())):
                raise MalformedTable(f"{name}: action of {f!r} is not a map "
                                     f"sets[{base.tgt[f]!r}] -> sets[{base.src[f]!r}]")
        self.sets = {a: self.sets[a] for a in base.objects}
        self._profiles = {}

    @classmethod
    def _checked(cls, name, base, sets, actions):
        """A presheaf on tables that already pass every check of ``__init__``,
        kept as they are: the sets as tuples in base-object order, the action
        dicts shared."""
        p = cls.__new__(cls)
        p.name, p.base, p.sets, p.actions = name, base, sets, actions
        p._profiles = {}
        return p

    def act(self, f, x):
        return self.actions[f][x]

    def __repr__(self):
        sizes = ",".join(str(len(self.sets[a])) for a in self.base.objects)
        return f"Presheaf({self.name!r} on {self.base.name}, sizes [{sizes}])"


def _elem_profiles(p: Presheaf, a):
    """Iso-invariant signature per element of p(a): which endomorphisms of a fix
    it, and how many elements each morphism out of a sends onto it.

    Computed once per presheaf and object (``Presheaf._profiles``), in one
    pass over each action table involved.
    """
    profs = p._profiles.get(a)
    if profs is not None:
        return profs
    c = p.base
    endos = [p.actions[f] for f in c.hom(a, a)]
    preimages = []
    for f in c.morphisms:
        if c.src[f] == a:
            counts = dict.fromkeys(p.sets[a], 0)
            for y in p.actions[f].values():
                counts[y] += 1
            preimages.append(counts)
    profs = p._profiles[a] = {
        x: (tuple(act[x] == x for act in endos),
            tuple(counts[x] for counts in preimages))
        for x in p.sets[a]}
    return profs


def covariant(name, base, sets, actions) -> Presheaf:
    """Package a covariant diagram on ``base`` as a presheaf on ``base.op()``.

    The action of f: a -> b must map sets[a] -> sets[b]; the table is stored as-is
    because src and tgt swap in the opposite category.
    """
    return Presheaf(name, base.op(), sets, actions)


@dataclass(frozen=True)
class Caps:
    """Bounds of a closure: its rounds, its members, and the sets of a member."""
    rounds: int = 4
    members: int = 200
    value_size: int = 64


class WeightClass:
    """A finite, named collection of weights; each weight carries its own domain."""

    def __init__(self, name, weights):
        self.name = name
        self.weights = tuple(weights)
        for w in self.weights:
            if not isinstance(w, Presheaf):
                raise MalformedTable(f"weight class {name}: members must be presheaves")

    def __repr__(self):
        return f"WeightClass({self.name!r}, {len(self.weights)} weights)"


def _pullback(fn: FinFunctor, p: Presheaf, name=None) -> Presheaf:
    """p . fn^op, a presheaf on fn.source: a has value p(fn a) and u acts as
    fn(u); p must be a presheaf on fn.target.

    The result shares p's value tuples and action dicts.  p is checked, so
    once fn sends each u: a -> b to some fn a -> fn b, every check of
    ``Presheaf.__init__`` holds; a morphism sent elsewhere raises
    MalformedTable."""
    source, target = fn.source, fn.target
    if not same_category(p.base, target):
        raise MalformedTable(f"cannot pull {p.name} back along {fn.name}: "
                             f"presheaf base is not {target.name}")
    actions = {}
    for u in source.morphisms:
        v = fn.mor(u)
        if (target.src[v] != fn.obj(source.src[u])
                or target.tgt[v] != fn.obj(source.tgt[u])):
            raise MalformedTable(f"cannot pull {p.name} back along {fn.name}: "
                                 f"it sends {u!r} to {v!r}, whose endpoints differ")
        actions[u] = p.actions[v]
    return Presheaf._checked(name or f"{p.name}|{fn.name}", source,
                             {a: p.sets[fn.obj(a)] for a in source.objects}, actions)


class NatTrans:
    """Natural family between presheaves on one base, or 2-cell between
    modules with the same endpoints.

    components: dict key -> dict mapping source.sets[key] -> target.sets[key]
    for each key of source.sets (= target.sets keys), a base object or a module
    cell (b, a).  Only keys, domains and images are checked here; ``validate``
    checks naturality."""

    def __init__(self, source, target, components, name=""):
        self.name = name
        self.source = source
        self.target = target
        self.components = {a: dict(v) for a, v in components.items()}
        if target.sets.keys() != source.sets.keys():
            raise MalformedTable(f"nat trans {name!r}: source and target have different keys")
        if self.components.keys() != source.sets.keys():
            raise MalformedTable(f"nat trans {name!r}: components must cover every object")
        for a, table in self.components.items():
            if table.keys() != set(source.sets[a]) or not set(table.values()) <= set(target.sets[a]):
                raise MalformedTable(f"nat trans {name!r}: component at {a!r} has wrong domain or image")

    def at(self, a, x):
        return self.components[a][x]

    def frozen(self):
        """Hashable canonical form: per key of source.sets, images in element order."""
        return tuple(tuple(self.components[a][x] for x in xs)
                     for a, xs in self.source.sets.items())

    def invert(self) -> "NatTrans":
        failure = self.bijection_failure()
        if failure is not None:
            raise InternalMismatch(f"2-cell {self.name!r} not invertible at {failure[0]!r}")
        comps = {a: {y: x for x, y in table.items()} for a, table in self.components.items()}
        return NatTrans(self.target, self.source, comps, name=f"inv({self.name})")

    @cached_property
    def _failure(self):
        for a, table in self.components.items():
            injective, surjective = _bijectivity(table.values(), set(self.target.sets[a]),
                                                 "2-cell left its target cell")
            if not (injective and surjective):
                return a, "surjective" if injective else "injective"
        return None

    def bijection_failure(self):
        """The first key, in component order, whose component is not a
        bijection onto the target's set there, with "injective" or
        "surjective" for what fails (injectivity is tested first); None if
        there is none.  Decided once per family, whose components never change."""
        return self._failure

    def __repr__(self):
        return f"NatTrans({self.name or self.frozen()!r})"


def _freeze(source, image):
    """The frozen form of the family sending x in source.sets[a] to image(a, x)."""
    return tuple(tuple(image(a, x) for x in xs) for a, xs in source.sets.items())


def _entry(key, source: Presheaf, a, x):
    """The image of x in source(a) under the family whose frozen form is key."""
    return key[source.base.obj_index[a]][source.sets[a].index(x)]


def _bijectivity(images, onto, message):
    """(injective, surjective) for the map listed by its images into the finite
    set onto; an image outside onto raises InternalMismatch(message)."""
    images = list(images)
    hit = set(images)
    if not hit <= onto:
        raise InternalMismatch(message)
    return len(hit) == len(images), len(hit) == len(onto)


def nat_compose(beta: NatTrans, alpha: NatTrans) -> NatTrans:
    """beta after alpha, componentwise."""
    comps = {a: {x: beta.components[a][alpha.components[a][x]] for x in xs}
             for a, xs in alpha.source.sets.items()}
    return NatTrans(alpha.source, beta.target, comps)


def nat_identity(p) -> NatTrans:
    """The identity family of a presheaf or a module."""
    return NatTrans(p, p, {a: {x: x for x in xs} for a, xs in p.sets.items()})


class FunctorTransform:
    """Natural transformation between parallel functors; components are morphism ids."""

    def __init__(self, source: FinFunctor, target: FinFunctor, components, name=""):
        self.name = name
        self.source = source
        self.target = target
        self.components = dict(components)
        cat = target.target
        if set(self.components) != set(source.source.objects):
            raise MalformedTable(f"transform {name!r}: components must cover every object")
        for a, m in self.components.items():
            if m not in cat.mor_index:
                raise MalformedTable(f"transform {name!r}: unknown morphism {m!r}")
            if cat.src[m] != source.obj(a) or cat.tgt[m] != target.obj(a):
                raise MalformedTable(f"transform {name!r}: component at {a!r} has wrong endpoints")


class Profunctor:
    """Functor target^op (x) source -> Set, with sets in target x source order;
    see the module docstring for actions."""

    def __init__(self, name, source, target, sets, left, right):
        self.name = name
        self.source = source
        self.target = target
        self.sets = {cell: tuple(v) for cell, v in sets.items()}
        cells = [(b, a) for b in target.objects for a in source.objects]
        if self.sets.keys() != set(cells):
            raise MalformedTable(f"profunctor {name!r}: cells must cover target x source")
        values = {}
        for cell, v in self.sets.items():
            values[cell] = set(v)
            if len(values[cell]) != len(v):
                raise MalformedTable(f"profunctor {name!r}: duplicate elements in cell {cell!r}")
        self.left = {k: dict(v) for k, v in left.items()}
        self.right = {k: dict(v) for k, v in right.items()}
        want_left = {(m, a) for m in target.morphisms for a in source.objects}
        want_right = {(b, m) for b in target.objects for m in source.morphisms}
        if self.left.keys() != want_left or self.right.keys() != want_right:
            raise MalformedTable(f"profunctor {name!r}: action tables incomplete")
        for (m, a), table in self.left.items():
            if (table.keys() != values[(target.tgt[m], a)]
                    or not values[(target.src[m], a)].issuperset(table.values())):
                raise MalformedTable(f"profunctor {name!r}: left action of {m!r} at {a!r} malformed")
        for (b, m), table in self.right.items():
            if (table.keys() != values[(b, source.src[m])]
                    or not values[(b, source.tgt[m])].issuperset(table.values())):
                raise MalformedTable(f"profunctor {name!r}: right action of {m!r} at {b!r} malformed")
        self.sets = {cell: self.sets[cell] for cell in cells}

    def cell(self, b, a):
        return self.sets[(b, a)]

    def left_act(self, beta, a, x):
        return self.left[(beta, a)][x]

    def right_act(self, b, alpha, x):
        return self.right[(b, alpha)][x]

    def __repr__(self):
        return f"Profunctor({self.name!r}: {self.source.name} -|-> {self.target.name})"


# ---------------------------------------------------------------------------
# law validation


@dataclass
class Violation:
    law: str
    witness: tuple

    def __str__(self):
        return f"{self.law} fails at {self.witness!r}"


@dataclass
class ValidationReport:
    kind: str
    name: str
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        if self.ok:
            return f"{self.kind} {self.name!r}: ok"
        lines = [f"{self.kind} {self.name!r}: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def _generators(c: FinCategory, row):
    """Generators of c, where row[g][f] = g . f and the endpoints and identity
    laws hold: the non-identities that are no composite of two non-identities,
    then each morphism, in order, that no composite of earlier ones gives."""
    ids = set(c.identity.values())
    reducible = ids | {h for g in c.morphisms if g not in ids
                       for f, h in row[g].items() if f not in ids}
    gens, reach, out = [], set(ids), {a: [] for a in c.objects}
    for m in [m for m in c.morphisms if m not in reducible] + list(c.morphisms):
        if m not in reach:
            gens.append(m)
            out[c.src[m]].append(m)
            todo = [h for f, h in row[m].items() if f in reach]
            while todo:
                h = todo.pop()
                if h not in reach:
                    reach.add(h)
                    todo += [row[k][h] for k in out[c.tgt[h]]]
    return gens


def _gens(c: FinCategory):
    """``_generators`` of c in morphism order, composites read through
    ``c.compose`` (a missing one raises MalformedTable), computed once and
    kept on c and on ``c.op()``, which has the same morphism ids.
    ``_validate_category`` keeps the set it computes, and el(phi) keeps the
    morphisms over its base's set."""
    if c._generating is None:
        _keep_gens(c, _generators(c, {g: {f: c.compose(g, f) for f in c.into[c.src[g]]}
                                      for g in c.morphisms}))
    return c._generating


def _keep_gens(c: FinCategory, gens):
    """Keep gens, in morphism order, on c and on its opposite if built."""
    keep = set(gens)
    c._generating = tuple(m for m in c.morphisms if m in keep)
    if c._op is not None:
        c._op._generating = c._generating


def _nat_gens(c: FinCategory):
    """The morphisms whose naturality equations ``limits.nat_trans_set``
    reads: ``_gens(c)``, and each non-identity outside the least set that
    holds ``_gens(c)`` and each composite g . f of two of its members whose
    middle object comes before an end of g . f in object order; computed
    once, in morphism order, and kept on c.  ``c.op()`` has the same set:
    the opposite swaps the ends and keeps the middle."""
    if c._naturality is None:
        gens, idx = _gens(c), c.obj_index
        reach = set()
        into, out = {a: [] for a in c.objects}, {a: [] for a in c.objects}
        todo = list(gens)
        while todo:
            h = todo.pop()
            if h in reach:
                continue
            reach.add(h)
            s, t = c.src[h], c.tgt[h]
            into[t].append(h)
            out[s].append(h)
            todo += [c.compose(h, f) for f in into[s] if idx[s] < max(idx[c.src[f]], idx[t])]
            todo += [c.compose(g, h) for g in out[t] if idx[t] < max(idx[s], idx[c.tgt[g]])]
        keep = set(gens)
        c._naturality = tuple(m for m in c.morphisms
                              if m in keep or not (m in reach or c.is_identity(m)))
    return c._naturality


def _validate_category(c: FinCategory) -> ValidationReport:
    """Associativity, once the endpoints and identity laws hold, is decided on
    the middles g of a generating set (Light's test): the middles b with
    (h.b).f = h.(b.f) for all h and f hold every identity, by the identity
    laws, and are closed under composition, since for two of them, b and c,
    (h.(b.c)).f = ((h.b).c).f = (h.b).(c.f) = h.(b.(c.f)) = h.((b.c).f); so
    they hold every morphism.  The loop over every middle runs only to list
    the failures, in (h, g, f) order."""
    rep = ValidationReport("category", c.name)
    for a in c.objects:
        i = c.id_of(a)
        if c.src[i] != a or c.tgt[i] != a:
            rep.violations.append(Violation("identity-endpoints", (a, i)))
    table = c.compose_table
    foreign = sorted(((g, f) for g, f in table if c.tgt[f] != c.src[g]), key=repr)
    for pair in foreign:
        rep.violations.append(Violation("compose-defined-noncomposable", pair))
    # a composable pair is keyed at most once, so a shortfall means one is missing
    if len(table) - len(foreign) != sum(len(c.into[c.src[g]]) for g in c.morphisms):
        missing = [(g, f) for g in c.morphisms for f in c.into[c.src[g]]
                   if (g, f) not in table]
        for pair in sorted(missing, key=repr):
            rep.violations.append(Violation("compose-missing", pair))
    if not rep.ok:
        return rep
    bad = set()
    for (g, f), h in table.items():
        if c.src[h] != c.src[f] or c.tgt[h] != c.tgt[g]:
            rep.violations.append(Violation("compose-endpoints", (g, f, h)))
            bad.add((g, f))
    # the laws below read the table by rows, row[g][f] = g . f, and only
    # composites whose endpoints passed; a composite of a wrong-endpoint
    # value need not be in the table
    row = {g: {f: table[(g, f)] for f in c.into[c.src[g]]} for g in c.morphisms}
    typed = {g: c.into[c.src[g]] for g in c.morphisms}
    for g, _ in bad:
        typed[g] = [f for f in c.into[c.src[g]] if (g, f) not in bad]
    for f in c.morphisms:
        i, j = c.id_of(c.tgt[f]), c.id_of(c.src[f])
        if (i, f) not in bad and row[i][f] != f:
            rep.violations.append(Violation("identity-left", (f,)))
        if (f, j) not in bad and row[f][j] != f:
            rep.violations.append(Violation("identity-right", (f,)))
    # associativity row by row: (h.g).f and h.(g.f) for g in middles[h], f in typed[g]
    after = {g: list(map(row[g].__getitem__, typed[g])) for g in c.morphisms}

    def failures(middles):
        for h in c.morphisms:
            row_h = row[h]
            for g in middles[h]:
                hg = row_h[g]
                # the same typed list means (h.g).f over it is already after[h.g]
                left = (after[hg] if typed[hg] is typed[g]
                        else list(map(row[hg].__getitem__, typed[g])))
                right = list(map(row_h.__getitem__, after[g]))
                if left != right:
                    yield from (Violation("associativity", (h, g, f))
                                for f, x, y in zip(typed[g], left, right) if x != y)
    if rep.ok:
        if c._generating is None:
            _keep_gens(c, _generators(c, row))
        gens = set(c._generating)
        into = {a: [g for g in c.into[a] if g in gens] for a in c.objects}
        if next(failures({h: into[c.src[h]] for h in c.morphisms}), None) is None:
            return rep
    rep.violations.extend(failures(typed))
    return rep


def _validate_functor(fn: FinFunctor) -> ValidationReport:
    rep = ValidationReport("functor", fn.name)
    a, b = fn.source, fn.target
    for f in a.morphisms:
        g = fn.mor(f)
        if b.src[g] != fn.obj(a.src[f]) or b.tgt[g] != fn.obj(a.tgt[f]):
            rep.violations.append(Violation("endpoint-preservation", (f,)))
    for x in a.objects:
        if fn.mor(a.id_of(x)) != b.id_of(fn.obj(x)):
            rep.violations.append(Violation("identity-preservation", (x,)))
    for (g, f), h in a.compose_table.items():
        try:
            preserved = b.compose(fn.mor(g), fn.mor(f)) == fn.mor(h)
        except MalformedTable:
            preserved = False    # images not even composable
        if not preserved:
            rep.violations.append(Violation("composition-preservation", (g, f)))
    return rep


def _typed(c: FinCategory):
    """The identities {a: i} with i: a -> a and the composites (g, f, h) of
    composable pairs with h: src f -> tgt g; the laws of an action are read
    only along these, and the category's own report names the rest."""
    s, t = c.src, c.tgt
    return ({a: c.id_of(a) for a in c.objects if s[c.id_of(a)] == a == t[c.id_of(a)]},
            [(g, f, h) for (g, f), h in c.compose_table.items()
             if t[f] == s[g] and s[h] == s[f] and t[h] == t[g]])


def _validate_presheaf(p: Presheaf) -> ValidationReport:
    rep = ValidationReport("presheaf", p.name)
    c = p.base
    identities, composites = _typed(c)
    for a, i in identities.items():
        for x in p.sets[a]:
            if p.act(i, x) != x:
                rep.violations.append(Violation("identity-action", (a, x)))
    # contravariance: act(g . f) = act(f) . act(g)
    for g, f, h in composites:
        for x in p.sets[c.tgt[g]]:
            if p.act(h, x) != p.act(f, p.act(g, x)):
                rep.violations.append(Violation("composition-action", (g, f, x)))
    return rep


def _validate_nat(n: NatTrans) -> ValidationReport:
    """Naturality per base morphism.  A family between modules f: A -|-> B is
    checked along each morphism (beta, alpha) of B x A^op, in order, whose
    action on a module is read straight off its tables: the right action of
    alpha at src beta after the left action of beta at src alpha.  No
    presheaf view of a module is built."""
    rep = ValidationReport("nat-trans", n.name or "")
    source, target, comps = n.source, n.target, n.components
    modules = isinstance(source, Profunctor)
    bases = ([(source.source, target.source), (source.target, target.target)]
             if modules else [(source.base, target.base)])
    if not all(same_category(a, b) for a, b in bases):
        rep.violations.append(Violation("base-mismatch", ()))
        return rep
    if modules:
        B, A = source.target, source.source
        for f in product_category(B, A.op()).morphisms:
            beta, alpha = f
            b, a = B.src[beta], A.src[alpha]
            s_left, s_right = source.left[(beta, a)], source.right[(b, alpha)]
            t_left, t_right = target.left[(beta, a)], target.right[(b, alpha)]
            at_src, at_tgt = comps[(b, A.tgt[alpha])], comps[(B.tgt[beta], a)]
            for x in source.sets[(B.tgt[beta], a)]:
                if at_src[s_right[s_left[x]]] != t_right[t_left[at_tgt[x]]]:
                    rep.violations.append(Violation("naturality", (f, x)))
        return rep
    c = source.base
    for f in c.morphisms:
        a, b = c.src[f], c.tgt[f]
        for x in source.sets[b]:
            if comps[a][source.act(f, x)] != target.act(f, comps[b][x]):
                rep.violations.append(Violation("naturality", (f, x)))
    return rep


def _validate_functor_transform(t: FunctorTransform) -> ValidationReport:
    rep = ValidationReport("functor-transform", t.name or "")
    a = t.source.source
    b = t.target.target
    for f in a.morphisms:
        x, y = a.src[f], a.tgt[f]
        try:
            natural = (b.compose(t.components[y], t.source.mor(f))
                       == b.compose(t.target.mor(f), t.components[x]))
        except MalformedTable:
            natural = False      # a component functor does not preserve endpoints
        if not natural:
            rep.violations.append(Violation("naturality", (f,)))
    return rep


def _validate_profunctor(p: Profunctor) -> ValidationReport:
    rep = ValidationReport("profunctor", p.name)
    A, B = p.source, p.target
    (ids_b, composites_b), (ids_a, composites_a) = _typed(B), _typed(A)
    for b in B.objects:
        for a in A.objects:
            for x in p.cell(b, a):
                if b in ids_b and p.left_act(ids_b[b], a, x) != x:
                    rep.violations.append(Violation("left-identity", (b, a, x)))
                if a in ids_a and p.right_act(b, ids_a[a], x) != x:
                    rep.violations.append(Violation("right-identity", (b, a, x)))
    for g, f, h in composites_b:
        for a in A.objects:
            for x in p.cell(B.tgt[g], a):
                if p.left_act(h, a, x) != p.left_act(f, a, p.left_act(g, a, x)):
                    rep.violations.append(Violation("left-composition", (g, f, a, x)))
    for g, f, h in composites_a:
        for b in B.objects:
            for x in p.cell(b, A.src[f]):
                if p.right_act(b, h, x) != p.right_act(b, g, p.right_act(b, f, x)):
                    rep.violations.append(Violation("right-composition", (g, f, b, x)))
    for beta in B.morphisms:
        for alpha in A.morphisms:
            for x in p.cell(B.tgt[beta], A.src[alpha]):
                one = p.right_act(B.src[beta], alpha, p.left_act(beta, A.src[alpha], x))
                two = p.left_act(beta, A.tgt[alpha], p.right_act(B.tgt[beta], alpha, x))
                if one != two:
                    rep.violations.append(Violation("action-commutation", (beta, alpha, x)))
    return rep


_VALIDATORS = [
    (FinCategory, _validate_category),
    (FinFunctor, _validate_functor),
    (Presheaf, _validate_presheaf),
    (NatTrans, _validate_nat),
    (FunctorTransform, _validate_functor_transform),
    (Profunctor, _validate_profunctor),
]


def validate(entity) -> ValidationReport:
    """Check every law of the entity's kind; returns a report with witnesses."""
    for klass, fn in _VALIDATORS:
        if isinstance(entity, klass):
            return fn(entity)
    raise TypeError(f"cannot validate {type(entity).__name__}")


def _require_valid(entity, message):
    """Raise InternalMismatch(f"{message}: {report}") unless entity validates."""
    report = validate(entity)
    if not report.ok:
        raise InternalMismatch(f"{message}: {report}")


# ---------------------------------------------------------------------------
# derived categories


def _composable_pairs(morphisms):
    """Every (g, f) of (id, src, tgt) triples with tgt f == src g, g outer and
    f inner, both in list order: the order of an all-pairs loop."""
    into = {}
    for f in morphisms:
        into.setdefault(f[2], []).append(f)
    for g in morphisms:
        for f in into.get(g[1], ()):
            yield g, f


class _LazyCategory(FinCategory):
    """A category whose ``compose`` is a function of the category yielding
    its ((g, f), g after f) items; they are read into a dict and checked
    like an eager table on the first read of ``compose_table``.  The
    function takes the category as an argument, so it holds no reference
    back to it."""

    def _take_compose(self, composites):
        self._composites = composites

    @cached_property
    def compose_table(self):
        return self._checked_compose(dict(self._composites(self)))


def product_category(c: FinCategory, d: FinCategory) -> FinCategory:
    """Objects and morphisms are pairs; composition is componentwise.

    Each morphism id (f, g) is built once, in ``ids[f][g]``, and that one
    object is shared by the morphism list, the identity table and every
    compose key and value.  Only composable pairs are visited, keyed in
    all-pairs order: (f2, g2) outer, then f1, then g1, each in morphism order.
    The rows of each factor's composites are built here, so a factor missing
    a composite raises MalformedTable at once; the composition table itself
    is built from them on first read, at most once.  ``_validate_nat`` reads
    only the morphism list and takes each module's action along (beta, alpha)
    from the module's own tables, so a 2-cell's naturality check builds
    neither this table nor a presheaf on the product.
    """
    ids = {f: {g: (f, g) for g in d.morphisms} for f in c.morphisms}
    objects = [(a, b) for a in c.objects for b in d.objects]
    morphisms = [(ids[f][g], (c.src[f], d.src[g]), (c.tgt[f], d.tgt[g]))
                 for f in c.morphisms for g in d.morphisms]
    identity = {(a, b): ids[c.id_of(a)][d.id_of(b)] for a in c.objects for b in d.objects}
    d_rows = [(g2, [(g1, d.compose(g2, g1)) for g1 in d.into[d.src[g2]]])
              for g2 in d.morphisms]
    c_rows = [(f2, [(ids[f1], ids[c.compose(f2, f1)]) for f1 in c.into[c.src[f2]]])
              for f2 in c.morphisms]

    def composites(_p):
        for f2, c_row in c_rows:
            for g2, d_row in d_rows:
                m2 = ids[f2][g2]
                for row1, row_h in c_row:
                    for g1, k in d_row:
                        yield (m2, row1[g1]), row_h[k]
    return _LazyCategory(f"{c.name}x{d.name}", objects, morphisms, identity, composites)


def unit_category() -> FinCategory:
    return FinCategory("I", ["*"], [("id", "*", "*")], {"*": "id"}, {("id", "id"): "id"})


def delta1(cat: FinCategory, name=None) -> Presheaf:
    """The constantly one-point presheaf; weights the conical (co)limit."""
    return Presheaf(name or f"one.{cat.name}", cat,
                    {a: ("*",) for a in cat.objects},
                    {f: {"*": "*"} for f in cat.morphisms})


def delta0(cat: FinCategory, name=None) -> Presheaf:
    return Presheaf(name or f"zero.{cat.name}", cat,
                    {a: () for a in cat.objects},
                    {f: {} for f in cat.morphisms})


def full_subcategory(cat: FinCategory, objects, name: str):
    """The full subcategory, named name, on the given objects, with its inclusion functor."""
    keep = set(objects)
    objs = [a for a in cat.objects if a in keep]
    mors = [(m, cat.src[m], cat.tgt[m]) for m in cat.morphisms
            if cat.src[m] in keep and cat.tgt[m] in keep]
    identity = {a: cat.id_of(a) for a in objs}
    compose = {(g, f): cat.compose(g, f)
               for (g, _, _), (f, _, _) in _composable_pairs(mors)}
    sub = FinCategory(name, objs, mors, identity, compose)
    incl = FinFunctor(f"include[{sub.name}]", sub, cat,
                      {a: a for a in objs}, {m: m for m in sub.morphisms})
    return sub, incl


def category_of_elements(phi: Presheaf):
    """el(phi) together with the projection functor into base^op.

    Morphism (k, x) -> (k', x') is u: k' -> k with phi(u)(x) = x'; the id scheme is
    (u, x) where x lives over tgt(u).

    The composition table is built on first read, at most once.  A route
    that reads only objects, morphisms and endpoints, as the elements route
    of ``limits.weighted_colimit`` does, never builds it.  el(phi) is a
    discrete fibration over its base, so the morphisms (u, x) with u in
    ``_gens(base)`` generate it; they are kept as its ``_gens``, and a base
    missing a composite raises MalformedTable here, as its set is read.
    """
    k = phi.base
    base_gens = set(_gens(k))
    objects = [(a, x) for a in k.objects for x in phi.sets[a]]
    morphisms = []
    identity = {}
    gens = []
    for u in k.morphisms:
        for x in phi.sets[k.tgt[u]]:
            mid = (u, x)
            src = (k.tgt[u], x)
            tgt = (k.src[u], phi.act(u, x))
            morphisms.append((mid, src, tgt))
            if k.is_identity(u):
                identity[src] = mid
            if u in base_gens:
                gens.append(mid)
    # f = (u1, x1) runs (k, x1) -> (k', x2); then g = (u2, x2) continues from (k', x2)
    el = _LazyCategory(f"el({phi.name})", objects, morphisms, identity,
                       lambda e: (((g, f), (k.compose(f[0], g[0]), f[1]))
                                  for g in e.morphisms for f in e.into[e.src[g]]))
    el._generating = tuple(gens)
    proj = FinFunctor(f"el({phi.name})->{k.name}^op", el, k.op(),
                      {o: o[0] for o in objects},
                      {m: m[0] for m in el.morphisms})
    return el, proj


# ---------------------------------------------------------------------------
# search budgets, quotients and elementary shape predicates

DEFAULT_BUDGET = 10 ** 6


class Meter:
    """Node count of the search named ``search``.  It may visit DEFAULT_BUDGET
    nodes, as read when it is built; the next raises BudgetExceeded."""

    def __init__(self, search):
        self.budget = self.left = DEFAULT_BUDGET
        self.search = search

    def tick(self, nodes=1):
        self.left -= nodes
        if self.left < 0:
            raise BudgetExceeded(self.budget, self.search)


def _families(domains, equations, search, distinct=None, first=False):
    """Every v with v[i] in domains[i] and v[q] == table[v[p]] for each
    equation (p, q, table), in lexicographic order; with ``first``, only the
    first (a list of at most one).  Slots with equal ``distinct`` labels take
    different values.  A domain lists distinct values.

    Slot q is forced when an equation (p, q, table) with p < q exists: only
    table[v[p]] can pass there, so q tries that one value, and none when it
    lies outside q's domain (forward checking with singleton domains,
    Haralick & Elliott 1980), tested against one set per distinct domain.
    The first such equation forces q; every other equation is checked once
    its later slot is assigned, so only dead prefixes are pruned, and a
    forced slot skips only values that cannot pass, which keeps the
    lexicographic order.

    Every backtracking search over slots of fixed domains runs here.  An
    enumeration counts the values a slot will try as nodes when it opens
    the slot: its whole domain, or its forced value; a ``first`` search
    counts one node per value it tries.  A value held by another slot of
    the same label is skipped, not tried.  So forced slots never add a node
    to the count of the same search without them."""
    meter = Meter(search)
    checks = [[] for _ in domains]
    forced = [None] * len(domains)
    members = {}                # one set per distinct domain, for forced slots
    for p, q, table in equations:
        if p < q and forced[q] is None:
            key = id(domains[q])
            if key not in members:
                members[key] = set(domains[q])
            forced[q] = (p, table, members[key])
        else:
            checks[max(p, q)].append((p, q, table))
    unique = distinct is not None
    if unique:                  # held[k]: the values that slot k's label holds
        labels = {label: set() for label in distinct}
        held = [labels[label] for label in distinct]
    val = [None] * len(domains)
    out = []
    tries = []                  # tries[k]: the values slot k has yet to try
    k = 0                       # a loop, not recursion: slots may be many
    while k >= 0:
        if k == len(domains):
            out.append(tuple(val))
            if first:
                break
            k -= 1
            continue
        if len(tries) == k:
            if forced[k] is None:
                values = domains[k]
            else:
                p, table, member = forced[k]
                v = table[val[p]]
                values = (v,) if v in member else ()
            if not first:
                meter.tick(len(values))
            tries.append(iter(values))
        elif unique:            # back at slot k: it holds its value no more
            held[k].discard(val[k])
        for v in tries[k]:
            if unique and v in held[k]:
                continue
            if first:
                meter.tick()
            val[k] = v
            if not checks[k] or all(val[q] == table[val[p]] for p, q, table in checks[k]):
                if unique:
                    held[k].add(v)
                k += 1
                break
        else:
            tries.pop()
            k -= 1
    return out


def quotient(tags, pairs):
    """Classes of the sequence ``tags`` under the equivalence generated by ``pairs``.

    Returns (classes, lookup): lookup maps each tag to the least-index tag of
    its class; classes lists those representatives in tag order.  ``pairs``
    is consumed once, never stored.  Union-find on tag indices (Tarjan
    1975): the larger root is linked under the smaller, finds halve their
    paths, and one pass in increasing index order settles every entry.
    """
    index = {tag: i for i, tag in enumerate(tags)}
    rep = list(range(len(tags)))
    for a, b in pairs:
        a, b = index[a], index[b]
        # find with path halving, inlined because it is most of the work
        while rep[a] != a:
            rep[a] = a = rep[rep[a]]
        while rep[b] != b:
            rep[b] = b = rep[rep[b]]
        if a < b:
            rep[b] = a
        elif b < a:
            rep[a] = b
    for i in range(len(tags)):      # rep[i] <= i, so rep[rep[i]] is settled
        rep[i] = rep[rep[i]]
    return (tuple(tag for i, tag in enumerate(tags) if rep[i] == i),
            {tag: tags[r] for tag, r in zip(tags, rep)})


def is_connected(c: FinCategory) -> bool:
    """Nonempty and connected in the zigzag sense (morphisms taken undirected)."""
    if not c.objects:
        return False
    classes, _ = quotient(c.objects, ((c.src[m], c.tgt[m]) for m in c.morphisms))
    return len(classes) == 1


def is_filtered(c: FinCategory) -> bool:
    """Nonempty; every object pair has a cospan; every parallel pair is coequalized."""
    if not c.objects:
        return False
    for a in c.objects:
        for b in c.objects:
            if not any(c.hom(a, z) and c.hom(b, z) for z in c.objects):
                return False
            for f, g in itertools.combinations(c.hom(a, b), 2):
                if not any(c.compose(h, f) == c.compose(h, g)
                           for z in c.objects for h in c.hom(b, z)):
                    return False
    return True
