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

Every backtracking search counts nodes on a ``Meter``; natural families, cones,
wedges and presheaf isomorphisms share one solver, ``_families``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import BudgetExceeded, MalformedTable


def _dedup_ok(seq):
    return len(seq) == len(set(seq))


class FinCategory:
    """A finite category given by explicit tables.

    objects: ordered list of hashable object ids.
    morphisms: ordered list of (mor_id, src, tgt) triples.
    identity: dict object -> morphism id.
    compose: dict (g, f) -> g after f, keyed on exactly the composable pairs.
    into: dict object -> morphisms with that target, in morphism order; the
    composable pairs are exactly the (g, f) with f in into[src g].
    """

    def __init__(self, name, objects, morphisms, identity, compose):
        self.name = name
        self.objects = tuple(objects)
        if not _dedup_ok(self.objects):
            raise MalformedTable(f"{name}: duplicate object ids")
        self.obj_index = {a: i for i, a in enumerate(self.objects)}
        self.morphisms = tuple(m for m, _, _ in morphisms)
        if not _dedup_ok(self.morphisms):
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
        self.compose_table = dict(compose)
        for (g, f), h in self.compose_table.items():
            for m in (g, f, h):
                if m not in self.mor_index:
                    raise MalformedTable(f"{name}: compose table references unknown morphism {m!r}")
        self._hom = {}
        self.into = {a: [] for a in self.objects}
        for m in self.morphisms:
            self._hom.setdefault((self.src[m], self.tgt[m]), []).append(m)
            self.into[self.tgt[m]].append(m)
        self._op = None

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

    sets: dict object -> ordered tuple of distinct hashable elements.
    actions: dict morphism -> dict; for f: a -> b the dict maps sets[b] into sets[a].

    Neither table is changed after construction, so ``_profiles`` memoises
    ``equivalence._elem_profiles`` per object for the life of the presheaf.
    The profiles do not read ``name``, which callers may reset.
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
        self._profiles = {}

    def at(self, a):
        return self.sets[a]

    def act(self, f, x):
        return self.actions[f][x]

    def __repr__(self):
        sizes = ",".join(str(len(self.sets[a])) for a in self.base.objects)
        return f"Presheaf({self.name!r} on {self.base.name}, sizes [{sizes}])"


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
    fn(u); p must be a presheaf on fn.target."""
    if not same_category(p.base, fn.target):
        raise MalformedTable(f"cannot pull {p.name} back along {fn.name}: "
                             f"presheaf base is not {fn.target.name}")
    return Presheaf(name or f"{p.name}|{fn.name}", fn.source,
                    {a: p.sets[fn.obj(a)] for a in fn.source.objects},
                    {u: p.actions[fn.mor(u)] for u in fn.source.morphisms})


class NatTrans:
    """Natural transformation between presheaves on the same base.

    components: dict object -> dict mapping source.sets[a] -> target.sets[a].
    """

    def __init__(self, source, target, components, name=""):
        self.name = name
        self.source = source
        self.target = target
        self.components = {a: dict(v) for a, v in components.items()}
        base = source.base
        if set(self.components) != set(base.objects):
            raise MalformedTable(f"nat trans {name!r}: components must cover every object")
        for a, table in self.components.items():
            if set(table) != set(source.sets[a]) or not set(table.values()) <= set(target.sets[a]):
                raise MalformedTable(f"nat trans {name!r}: component at {a!r} has wrong domain or image")

    def at(self, a, x):
        return self.components[a][x]

    def frozen(self):
        """Hashable canonical form: per object (in base order), images in element order."""
        return tuple(
            tuple(self.components[a][x] for x in self.source.sets[a])
            for a in self.source.base.objects
        )

    def __repr__(self):
        return f"NatTrans({self.name or self.frozen()!r})"


def nat_compose(beta: NatTrans, alpha: NatTrans) -> NatTrans:
    """beta after alpha, componentwise."""
    comps = {
        a: {x: beta.components[a][alpha.components[a][x]] for x in alpha.source.sets[a]}
        for a in alpha.source.base.objects
    }
    return NatTrans(alpha.source, beta.target, comps)


def nat_identity(p: Presheaf) -> NatTrans:
    return NatTrans(p, p, {a: {x: x for x in p.sets[a]} for a in p.base.objects})


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
    """Functor target^op (x) source -> Set; see the module docstring for actions."""

    def __init__(self, name, source, target, sets, left, right):
        self.name = name
        self.source = source
        self.target = target
        self.sets = {cell: tuple(v) for cell, v in sets.items()}
        cells = {(b, a) for b in target.objects for a in source.objects}
        if self.sets.keys() != cells:
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


def _validate_category(c: FinCategory) -> ValidationReport:
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
    # associativity row by row: (h.g).f and h.(g.f) for every f in typed[g]
    after = {g: list(map(row[g].__getitem__, typed[g])) for g in c.morphisms}
    for h in c.morphisms:
        row_h = row[h]
        for g in typed[h]:
            hg = row_h[g]
            # the same typed list means (h.g).f over it is already after[h.g]
            left = (after[hg] if typed[hg] is typed[g]
                    else list(map(row[hg].__getitem__, typed[g])))
            right = list(map(row_h.__getitem__, after[g]))
            if left != right:
                rep.violations.extend(
                    Violation("associativity", (h, g, f))
                    for f, x, y in zip(typed[g], left, right) if x != y)
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


def _validate_presheaf(p: Presheaf) -> ValidationReport:
    rep = ValidationReport("presheaf", p.name)
    c = p.base
    for a in c.objects:
        i = c.id_of(a)
        for x in p.sets[a]:
            if p.act(i, x) != x:
                rep.violations.append(Violation("identity-action", (a, x)))
    # contravariance: act(g . f) = act(f) . act(g)
    for (g, f), h in c.compose_table.items():
        for x in p.sets[c.tgt[g]]:
            if p.act(h, x) != p.act(f, p.act(g, x)):
                rep.violations.append(Violation("composition-action", (g, f, x)))
    return rep


def _validate_nat(n: NatTrans) -> ValidationReport:
    rep = ValidationReport("nat-trans", n.name or "")
    c = n.source.base
    if not same_category(c, n.target.base):
        rep.violations.append(Violation("base-mismatch", ()))
        return rep
    for f in c.morphisms:
        a, b = c.src[f], c.tgt[f]
        for x in n.source.sets[b]:
            if n.components[a][n.source.act(f, x)] != n.target.act(f, n.components[b][x]):
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
    for b in B.objects:
        for a in A.objects:
            ib, ia = B.id_of(b), A.id_of(a)
            for x in p.cell(b, a):
                if p.left_act(ib, a, x) != x:
                    rep.violations.append(Violation("left-identity", (b, a, x)))
                if p.right_act(b, ia, x) != x:
                    rep.violations.append(Violation("right-identity", (b, a, x)))
    for (g, f), h in B.compose_table.items():
        for a in A.objects:
            for x in p.cell(B.tgt[g], a):
                if p.left_act(h, a, x) != p.left_act(f, a, p.left_act(g, a, x)):
                    rep.violations.append(Violation("left-composition", (g, f, a, x)))
    for (g, f), h in A.compose_table.items():
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


def product_category(c: FinCategory, d: FinCategory) -> FinCategory:
    """Objects and morphisms are pairs; composition is componentwise.

    Only composable pairs are visited, keyed in all-pairs order: (f2, g2)
    outer, then f1, then g1, each in morphism order.
    """
    objects = [(a, b) for a in c.objects for b in d.objects]
    morphisms = [((f, g), (c.src[f], d.src[g]), (c.tgt[f], d.tgt[g]))
                 for f in c.morphisms for g in d.morphisms]
    identity = {(a, b): (c.id_of(a), d.id_of(b)) for a in c.objects for b in d.objects}
    d_rows = [(g2, [(g1, d.compose(g2, g1)) for g1 in d.into[d.src[g2]]])
              for g2 in d.morphisms]
    compose = {}
    for f2 in c.morphisms:
        c_row = [(f1, c.compose(f2, f1)) for f1 in c.into[c.src[f2]]]
        for g2, d_row in d_rows:
            m2 = (f2, g2)
            for f1, h in c_row:
                for g1, k in d_row:
                    compose[(m2, (f1, g1))] = (h, k)
    return FinCategory(f"{c.name}x{d.name}", objects, morphisms, identity, compose)


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


def full_subcategory(cat: FinCategory, objects, name=None):
    """The full subcategory on the given objects, with its inclusion functor."""
    keep = set(objects)
    objs = [a for a in cat.objects if a in keep]
    mors = [(m, cat.src[m], cat.tgt[m]) for m in cat.morphisms
            if cat.src[m] in keep and cat.tgt[m] in keep]
    identity = {a: cat.id_of(a) for a in objs}
    compose = {(g, f): cat.compose(g, f)
               for (g, _, _), (f, _, _) in _composable_pairs(mors)}
    sub = FinCategory(name or f"{cat.name}[{len(objs)}]", objs, mors, identity, compose)
    incl = FinFunctor(f"include[{sub.name}]", sub, cat,
                      {a: a for a in objs}, {m: m for m in sub.morphisms})
    return sub, incl


def category_of_elements(phi: Presheaf):
    """el(phi) together with the projection functor into base^op.

    Morphism (k, x) -> (k', x') is u: k' -> k with phi(u)(x) = x'; the id scheme is
    (u, x) where x lives over tgt(u).
    """
    k = phi.base
    objects = [(a, x) for a in k.objects for x in phi.sets[a]]
    morphisms = []
    identity = {}
    for u in k.morphisms:
        for x in phi.sets[k.tgt[u]]:
            mid = (u, x)
            src = (k.tgt[u], x)
            tgt = (k.src[u], phi.act(u, x))
            morphisms.append((mid, src, tgt))
            if k.is_identity(u):
                identity[src] = mid
    # u1 runs (k, x1) -> (k', x2); then u2 continues from (k', x2)
    compose = {((u2, x2), (u1, x1)): (k.compose(u1, u2), x1)
               for ((u2, x2), _, _), ((u1, x1), _, _) in _composable_pairs(morphisms)}
    el = FinCategory(f"el({phi.name})", objects, morphisms, identity, compose)
    proj = FinFunctor(f"el({phi.name})->{k.name}^op", el, k.op(),
                      {o: o[0] for o in objects},
                      {m: m[0] for m in el.morphisms})
    return el, proj


# ---------------------------------------------------------------------------
# search budgets, quotients and elementary shape predicates

DEFAULT_BUDGET = 10 ** 6


class Meter:
    """Node count of one backtracking search.  It may visit ``budget`` nodes
    (None: DEFAULT_BUDGET); the next raises BudgetExceeded naming ``search``."""

    def __init__(self, budget, search):
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self.left = self.budget
        self.search = search

    def tick(self, nodes=1):
        self.left -= nodes
        if self.left < 0:
            raise BudgetExceeded(self.budget, self.search)


def _families(domains, equations, budget, search, distinct=None, first=False):
    """Every v with v[i] in domains[i] and v[q] == table[v[p]] for each
    equation (p, q, table), in lexicographic order; with ``first``, only the
    first (a list of at most one).  Slots with equal ``distinct`` labels take
    different values.  Each equation is checked once its later slot is
    assigned (forward checking), so only dead prefixes are pruned.

    Every backtracking search over slots of fixed domains runs here.  The
    enumerations give no labels and try every value of a domain, so they
    count the whole domain as nodes when they open a slot; a ``first`` search
    counts one node per value it tries, and a value held by another slot of
    the same label is skipped, not tried."""
    meter = Meter(budget, search)
    checks = [[] for _ in domains]
    for p, q, table in equations:
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
            if not first:
                meter.tick(len(domains[k]))
            tries.append(iter(domains[k]))
        elif unique:            # back at slot k: it holds its value no more
            held[k].discard(val[k])
        for v in tries[k]:
            if unique and v in held[k]:
                continue
            if first:
                meter.tick()
            val[k] = v
            if all(val[q] == table[val[p]] for p, q, table in checks[k]):
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
    its class; classes lists those representatives in tag order.  Union by size
    with path halving (Tarjan 1975); ``pairs`` is consumed once, never stored.
    """
    index = {tag: i for i, tag in enumerate(tags)}
    parent = list(range(len(tags)))
    size = [1] * len(tags)
    for a, b in pairs:
        ra, rb = index[a], index[b]
        # find with path halving, inlined because it is most of the work
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra != rb:
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
    classes = []
    lookup = {}
    reps = {}  # root -> first tag of its class in tag order, the least index
    for i, tag in enumerate(tags):
        root = i
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        rep = reps.setdefault(root, tag)
        if rep is tag:
            classes.append(tag)
        lookup[tag] = rep
    return tuple(classes), lookup


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
    for a in c.objects:
        for b in c.objects:
            parallel = c.hom(a, b)
            for f, g in itertools.combinations(parallel, 2):
                if not any(c.compose(h, f) == c.compose(h, g)
                           for z in c.objects for h in c.hom(b, z)):
                    return False
    return True
