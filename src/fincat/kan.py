"""Yoneda embedding, pointwise left Kan extension, nerve, and presheaf collections."""
from __future__ import annotations

from dataclasses import dataclass

from .core import (FinCategory, FinFunctor, NatTrans, Presheaf, _bijectivity,
                   _composable_pairs, _elem_profiles, _LazyCategory, _pullback,
                   identity_functor, nat_identity, same_category)
from .equivalence import presheaf_isomorphic
from .errors import InternalMismatch, MalformedTable
from .limits import (_colimits_presheaf, hom_diagram, nat_trans_set,
                     weighted_colimit)


def yoneda_embed(cat: FinCategory, b) -> Presheaf:
    """The representable at b: a -> Hom(a, b), acting by precomposition."""
    yb = hom_diagram(identity_functor(cat), b)
    yb.name = f"Y.{cat.name}.{b}"
    return yb


def yoneda_bijection(p: Presheaf, b):
    """The mutually inverse maps Nat(Yb, p) <-> p(b); raises on any failure.

    forward: alpha -> alpha_b(id_b); backward: x -> (h -> p(h)(x)).
    """
    cat = p.base
    yb = yoneda_embed(cat, b)
    nats = nat_trans_set(yb, p)
    images = [alpha.components[b][cat.id_of(b)] for alpha in nats]
    message = f"Yoneda bijection fails at {b!r} for {p.name}"
    if not all(_bijectivity(images, set(p.sets[b]), message)):
        raise InternalMismatch(message)
    forward = {alpha.frozen(): x for alpha, x in zip(nats, images)}
    backward = {}
    for x in p.sets[b]:
        comps = {a: {h: p.act(h, x) for h in yb.sets[a]} for a in cat.objects}
        backward[x] = NatTrans(yb, p, comps)
        if forward[backward[x].frozen()] != x:
            raise InternalMismatch(f"Yoneda maps not mutually inverse at {b!r}")
    return forward, backward


def restrict(k: FinFunctor, s: Presheaf) -> Presheaf:
    """Precompose the covariant diagram s on k.target with k."""
    return _pullback(k.op(), s, f"{s.name}|{k.name}")


@dataclass
class LanResult:
    extension: Presheaf          # covariant on the target, as a presheaf on target.op()
    unit: dict                   # a -> {t in T(a) -> element of extension at K(a)}


def lan(k: FinFunctor, t: Presheaf) -> LanResult:
    """Left Kan extension of the covariant diagram t along k, computed pointwise.

    t is covariant on k.source (a presheaf on k.source.op()); the value at c is the
    colimit of t weighted by Hom(k-, c).
    """
    if not same_category(t.base, k.source.op()):
        raise MalformedTable("lan: diagram must be covariant on the functor source")
    c_cat = k.target
    per = {c: weighted_colimit(hom_diagram(k, c), t) for c in c_cat.objects}
    extension = _colimits_presheaf(f"lan[{k.name}]({t.name})", c_cat.op(), per,
                                   lambda g, a, h, x: (c_cat.compose(g, h), x))
    unit = {a: {x: per[k.obj(a)].inject(a, c_cat.id_of(k.obj(a)), x)
                for x in t.sets[a]}
            for a in k.source.objects}
    return LanResult(extension, unit)


def nerve(g: FinFunctor) -> dict:
    """b -> Hom(g-, b), a presheaf on g's source, for each object b of g's
    target; the post-composition maps between them are left to the caller."""
    return {b: hom_diagram(g, b) for b in g.target.objects}


# ---------------------------------------------------------------------------
# deduplicated presheaf collections with replayable provenance


@dataclass
class Provenance:
    kind: str                    # "representable" | "colimit"
    data: tuple

    def __str__(self):
        if self.kind == "representable":
            return f"representable at {self.data[0]!r}"
        weight_name, obj_assign, _mor_assign = self.data
        return f"colimit weighted by {weight_name} of members {obj_assign}"


class PresheafCollection:
    """Members deduplicated up to isomorphism, each with replayable provenance."""

    def __init__(self, base: FinCategory):
        self.base = base
        self.members = []
        self.provenance = []
        self._buckets = {}
        self._nats = {}              # (i, j) -> Nat(member i, member j)

    def _signature(self, p: Presheaf):
        return tuple(
            (len(p.sets[a]), tuple(sorted(_elem_profiles(p, a).values())))
            for a in self.base.objects
        )

    def find_isomorphic(self, p: Presheaf):
        for i in self._buckets.get(self._signature(p), ()):
            if presheaf_isomorphic(self.members[i], p) is not None:
                return i
        return None

    def add(self, p: Presheaf, prov: Provenance):
        """Returns (index, added); an isomorphic existing member wins."""
        i = self.find_isomorphic(p)
        if i is not None:
            return i, False
        return self._insert(p, prov), True

    def _insert(self, p: Presheaf, prov: Provenance):
        """Append p, which find_isomorphic has just reported new; its index."""
        self.members.append(p)
        self.provenance.append(prov)
        i = len(self.members) - 1
        self._buckets.setdefault(self._signature(p), []).append(i)
        return i

    @classmethod
    def representables(cls, base: FinCategory):
        coll = cls(base)
        for a in base.objects:
            coll.add(yoneda_embed(base, a), Provenance("representable", (a,)))
        return coll


def pointwise_colimit(phi: Presheaf, diagram_objs: dict, diagram_mors: dict,
                      base: FinCategory, name: str, _el=None) -> Presheaf:
    """Colimit weighted by phi of a diagram of presheaves on base, value by value.

    diagram_objs: K-object -> Presheaf; diagram_mors: K-morphism -> NatTrans along it.
    _el, when given, is ``category_of_elements(phi)``, passed to every
    ``weighted_colimit`` call.
    """
    k = phi.base
    per = {a: weighted_colimit(phi, Presheaf(
               f"{name}@{a!r}", k.op(),
               {j: diagram_objs[j].sets[a] for j in k.objects},
               {u: diagram_mors[u].components[a] for u in k.morphisms}), _el=_el)
           for a in base.objects}
    return _colimits_presheaf(name, base, per, lambda f, j, x, s:
                              (x, diagram_objs[j].act(f, s)))


class _Members(_LazyCategory):
    """The category of ``member_category``.  ``compose(g, f)`` computes g
    after f by ``composite(g, f)`` when first asked and memoises it; a pair
    that does not compose raises MalformedTable.  The first read of
    ``compose_table`` asks for every composable pair, in all-pairs order.
    Both are in place before ``FinCategory.__init__`` runs, so a wrapper of
    it, as the benchmark's tracer is, may read ``compose_table``."""

    def __init__(self, name, objects, morphisms, identity, composite):
        self._composite = composite
        self._memo = {}
        super().__init__(name, objects, morphisms, identity, lambda cat: (
            ((g, f), cat.compose(g, f))
            for (g, _, _), (f, _, _) in _composable_pairs(morphisms)))

    def compose(self, g, f):
        try:
            return self._memo[(g, f)]
        except KeyError:
            if g not in self.src or f not in self.tgt or self.src[g] != self.tgt[f]:
                raise MalformedTable(
                    f"{self.name}: compose({g!r}, {f!r}) undefined") from None
            h = self._memo[(g, f)] = self._composite(g, f)
            return h


def member_category(coll: PresheafCollection):
    """The full hom category on the members; morphism ids are (i, j, n).

    Returns (category, decode) where decode maps morphism id -> NatTrans.  Hom
    sets are memoised in ``coll._nats``, which stays valid because members are
    only ever appended.  The identities are looked up here, and a missing one
    raises InternalMismatch at once.  A composite is computed when it is first
    asked for, on frozen forms, with no NatTrans built for it: row a of beta
    after alpha is beta's component at a applied to row a of alpha.  A
    composite missing from its hom set raises InternalMismatch then, in
    whichever caller asked for it; reading ``compose_table`` asks for all of
    them.  The composites are memoised on the category, never carried over
    to the category of a later call.
    """
    cache = coll._nats

    def nats(i, j):
        if (i, j) not in cache:
            cache[(i, j)] = nat_trans_set(coll.members[i], coll.members[j])
        return cache[(i, j)]

    objects = list(range(len(coll.members)))
    morphisms = []
    decode = {}
    frozen = {}
    index_of = {}
    for i in objects:
        for j in objects:
            for n, alpha in enumerate(nats(i, j)):
                mid = (i, j, n)
                morphisms.append((mid, i, j))
                decode[mid] = alpha
                frozen[mid] = alpha.frozen()
                index_of[(i, j, frozen[mid])] = mid
    identity = {i: index_of.get((i, i, nat_identity(coll.members[i]).frozen())) for i in objects}
    for i, mid in identity.items():
        if mid is None:
            raise InternalMismatch(f"member_category: the identity of {i} is not "
                                   f"among the transformations {i} -> {i}")
    base_objects = coll.base.objects

    def composite(g, f):
        beta = decode[g].components
        comp = tuple(tuple(map(beta[a].__getitem__, row))
                     for a, row in zip(base_objects, frozen[f]))
        mid = index_of.get((f[0], g[1], comp))
        if mid is None:
            raise InternalMismatch(f"member_category: {g!r} after {f!r} is not "
                                   f"among the transformations {f[0]} -> {g[1]}")
        return mid
    cat = _Members(f"members({coll.base.name})", objects, morphisms, identity, composite)
    return cat, decode
