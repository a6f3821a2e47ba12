"""Limits and colimits in finite sets: conical, weighted, coends.

A covariant diagram on C is passed as a Presheaf on C.op(); in presheaf terms both
conical constructions read uniformly:

* ``finset_limit(p)``: families (x_a) with p.act(f, x_tgt) = x_src for every f.
* ``finset_colimit(p)``: quotient of the tagged union by x ~ p.act(f, x).

Both, and ``coend``, return one ``ColimitResult``: the class representatives
and ``core.quotient``'s lookup from each tag (obj, elem) to its class.  They
read the pairs of ``core._gens(base)`` only, a generating set of the base's
morphisms (Mac Lane, CWM II.8): on a lawful base the pair of g.h follows from
those of g and h, and ``quotient`` picks least-index representatives, so the
classes and lookups are those of every morphism, in order.

Weighted limits and colimits always run two routes, the end/coend formula and
the category-of-elements route, with no option to skip either, and raise
InternalMismatch if they ever disagree.  On every corpus pair both colimit
routes give ``quotient`` the same input, up to the nesting of tags, and both
limit routes give ``_families`` the same domains; the end route reads the
naturality equations of ``core._nat_gens(base)`` and the elements route those
of every morphism of el(phi), so on 63 of the 340 corpus pairs they give it
different equations.  Either way the comparison checks two constructions of
one presentation; only the test oracles check the solvers.  A weighted colimit's
coend reads phi (x) S on demand, cell by cell and action by action, and builds
no profunctor.  A bounded closure builds el(phi) once per weight in each round
and shares it with that weight's colimits; each colimit still runs both routes.
The elements route of a weighted colimit reads el(phi)'s objects, morphisms
and endpoints only, so it never builds el(phi)'s composition table, and the
diagram it pulls back along the projection shares the diagram's tables.

``finset_limit`` and ``nat_trans_set`` enumerate natural families with one
solver, ``core._families``, which also finds the first presheaf isomorphism
for ``equivalence.presheaf_isomorphic``.  A slot that an equation from an
earlier slot forces tries only its one possible value.  ``nat_trans_set``
reads the equations of a generating set of morphisms, ``finset_limit`` those
of every morphism.  Like every backtracking search in the library, the solver
counts nodes against one budget, ``core.DEFAULT_BUDGET`` = 10^6, which
``--budget`` sets for one command; a search for a first solution counts only
the values it tries.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (FinFunctor, NatTrans, Presheaf, Profunctor, _bijectivity,
                   _families, _freeze, _gens, _nat_gens, _pullback,
                   category_of_elements, compose_functors, quotient, same_category)
from .errors import InternalMismatch, MalformedTable


@dataclass
class LimitResult:
    apex: tuple                 # matching families, as tuples in base object order


@dataclass
class ColimitResult:
    classes: tuple              # representatives, least (object index, element index)
    lookup: dict                # (object, element) -> representative, in tag order

    def find(self, obj, elem):
        return self.lookup[(obj, elem)]


def finset_limit(diagram: Presheaf) -> LimitResult:
    base = diagram.base
    idx = base.obj_index
    equations = [(idx[base.tgt[f]], idx[base.src[f]], diagram.actions[f])
                 for f in base.morphisms if not base.is_identity(f)]
    families = _families([diagram.sets[a] for a in base.objects], equations,
                         "finset_limit")
    return LimitResult(tuple(families))


def finset_colimit(diagram: Presheaf) -> ColimitResult:
    """The tagged union of the diagram's sets modulo x ~ diagram.act(f, x)
    for f in ``_gens(base)``.  Precondition: a lawful base.  A base missing a
    composite raises MalformedTable; on one whose laws fail otherwise, the
    answer is the quotient along its ``_gens``."""
    base = diagram.base
    tags = [(a, x) for a in base.objects for x in diagram.sets[a]]
    pairs = (((base.tgt[f], x), (base.src[f], diagram.act(f, x)))
             for f in _gens(base) for x in diagram.sets[base.tgt[f]])
    return ColimitResult(*quotient(tags, pairs))


# ---------------------------------------------------------------------------
# coends of bifunctors C^op (x) C -> Set, given as Profunctor C -|-> C


def coend(h: Profunctor) -> ColimitResult:
    """Quotient of the diagonal cells (a, a) by left(u, s)(y) ~ right(t, u)(y)
    for each u: s -> t in ``_gens(c)`` and y in cell (t, s).  Precondition:
    a lawful c and actions that compose and commute; a c missing a composite
    raises MalformedTable.

    It reads only ``h.source``, ``h.target``, the cells (a, a) and
    (tgt u, src u), ``h.left_act`` and ``h.right_act``, so any object with
    those (not only a Profunctor) can be passed."""
    if not same_category(h.source, h.target):
        raise MalformedTable("coend requires a bifunctor over a single category")
    c = h.source
    tags = [(a, x) for a in c.objects for x in h.cell(a, a)]
    pairs = (((c.src[u], h.left_act(u, c.src[u], y)),
              (c.tgt[u], h.right_act(c.tgt[u], u, y)))
             for u in _gens(c) for y in h.cell(c.tgt[u], c.src[u]))
    return ColimitResult(*quotient(tags, pairs))


# ---------------------------------------------------------------------------
# natural transformation sets (the end formula for presheaf homs)


def nat_trans_set(source: Presheaf, target: Presheaf):
    """All natural transformations source -> target, in deterministic order.

    Backtracks one element image at a time, in ``core._families``: the slot
    of each x in source(a), objects in base order.  Naturality at f: s -> t
    is one equation per x in source(t), comp[s][x.f] == target.act(f,
    comp[t][x]), for f in ``core._nat_gens(base)`` only, not for every
    non-identity.  Precondition: a lawful base and functorial presheaves.
    Then, for f = g.h, comp[x.f] = comp[(x.g).h] = comp[x.g].h =
    (comp[x].g).h = comp[x].f, so a generating set's equations give every
    morphism's.  ``_nat_gens`` also keeps each composite that it cannot
    reach through a middle object before one of its ends, so at every prefix
    of slots the equations read give those of every morphism: the search
    prunes the same prefixes, and the forced slots make it visit no more
    nodes than a search over every morphism.  A base missing a composite
    raises MalformedTable; on presheaves that are not functorial the answer
    is the families natural at each morphism of ``_nat_gens(base)``.
    """
    if not same_category(source.base, target.base):
        raise MalformedTable("nat_trans_set requires presheaves on one base")
    c = source.base
    slots = [(a, x) for a in c.objects for x in source.sets[a]]
    pos = {s: i for i, s in enumerate(slots)}
    # f: s -> t forces comp[s][x.f] == target.act(f, comp[t][x])
    equations = [(pos[(c.tgt[f], x)], pos[(c.src[f], source.act(f, x))],
                  target.actions[f])
                 for f in _nat_gens(c) for x in source.sets[c.tgt[f]]]
    out = []
    for values in _families([target.sets[a] for a, _ in slots], equations,
                            "nat_trans_set"):
        comp = {a: {} for a in c.objects}
        for (a, x), v in zip(slots, values):
            comp[a][x] = v
        out.append(NatTrans(source, target, comp))
    return out


# ---------------------------------------------------------------------------
# weighted limits and colimits, each along two independent routes


@dataclass
class WeightedLimitResult:
    transforms: tuple           # Nat(phi, t), the end route
    conical: LimitResult        # over el(phi), the elements route
    pairing: dict               # frozen transform -> conical family

    @property
    def size(self):
        return len(self.transforms)


def weighted_limit(phi: Presheaf, t: Presheaf) -> WeightedLimitResult:
    """{phi, t} for a weight phi and diagram t, both presheaves on the same base."""
    if not same_category(phi.base, t.base):
        raise MalformedTable("weighted_limit: weight and diagram bases differ")
    transforms = nat_trans_set(phi, t)
    el, proj = category_of_elements(phi)
    conical = finset_limit(_pullback(proj.op(), t))
    keys = [tuple(alpha.components[k][x] for (k, x) in el.objects) for alpha in transforms]
    message = f"weighted_limit routes disagree: {len(keys)} vs {len(conical.apex)}"
    injective, surjective = _bijectivity(keys, set(conical.apex), message)
    if not injective:
        raise InternalMismatch("weighted_limit: end route not jointly injective")
    if not surjective:
        raise InternalMismatch(message)
    pairing = {alpha.frozen(): key for alpha, key in zip(transforms, keys)}
    return WeightedLimitResult(tuple(transforms), conical, pairing)


@dataclass
class WeightedColimitResult:
    classes: tuple              # coend route representatives (k, (x, y))
    coend: ColimitResult
    conical: ColimitResult      # over el(phi)^op, the elements route

    @property
    def size(self):
        return len(self.classes)

    def inject(self, k, x, y):
        return self.coend.find(k, (x, y))

    def descend(self, value, message):
        """The map out of phi * s induced by ``value(k, x, y)`` on the triples,
        as {class: value}.  Triples are read in (k, x, y) order, and the first
        class that gets two different values raises InternalMismatch(message)."""
        images = {}
        for (k, (x, y)), cls in self.coend.lookup.items():
            v = value(k, x, y)
            if images.setdefault(cls, v) != v:
                raise InternalMismatch(message)
        return images


class _Pairing:
    """phi (x) s read on demand: cell (k1, k2) = phi(k1) x s(k2), as a
    bifunctor over phi's base for ``coend``.  Its coend over K is phi * s."""

    def __init__(self, phi: Presheaf, s: Presheaf):
        self.phi, self.s = phi, s
        self.source = self.target = phi.base

    def cell(self, k1, k2):
        return tuple((x, y) for x in self.phi.sets[k1] for y in self.s.sets[k2])

    def left_act(self, u, k2, xy):
        return self.phi.actions[u][xy[0]], xy[1]

    def right_act(self, k1, u, xy):
        return xy[0], self.s.actions[u][xy[1]]


def weighted_colimit(phi: Presheaf, s: Presheaf, _el=None) -> WeightedColimitResult:
    """phi * s for a weight phi on K and covariant diagram s (a presheaf on K.op()).

    Precondition: a lawful K and functorial phi and s, as both routes read
    the pairs of ``_gens(K)`` only; a K missing a composite raises
    MalformedTable.

    The coend route and the conical colimit over el(phi) must partition the
    triples (k, x, y) alike.  One pass over the triples maps each coend class
    to a conical class and each conical class to a coend class; the partitions
    are equal iff neither map sends a class to two and both reach every class.

    _el, when given, is ``category_of_elements(phi)`` built once by a caller
    that takes many colimits weighted by the same phi.  An el over another
    base, or whose objects are not phi's elements in el order, raises
    InternalMismatch.
    """
    if not same_category(s.base, phi.base.op()):
        raise MalformedTable("weighted_colimit: diagram must be a presheaf on weight base op")
    co = coend(_Pairing(phi, s))
    el, proj = _el or category_of_elements(phi)
    if not same_category(proj.target, phi.base.op()) or el.objects != tuple(
            (k, x) for k in phi.base.objects for x in phi.sets[k]):
        raise InternalMismatch(f"weighted_colimit: {el.name} is not el({phi.name})")
    conical = finset_colimit(_pullback(proj, s))
    to_conical = {}
    to_coend = {}
    for (k, x) in el.objects:
        for y in s.sets[k]:
            a, b = co.find(k, (x, y)), conical.find((k, x), y)
            if to_conical.setdefault(a, b) != b or to_coend.setdefault(b, a) != a:
                raise InternalMismatch("weighted_colimit routes disagree on the quotient")
    if len(to_conical) != len(co.classes) or len(to_coend) != len(conical.classes):
        raise InternalMismatch("weighted_colimit cross-check missed a class")
    return WeightedColimitResult(co.classes, co, conical)


def _colimits_presheaf(name, base, per, move) -> Presheaf:
    """The presheaf b -> per[b].classes on base, for weighted colimits per[b]
    of diagrams that vary with b: f sends the class of (k, x, y) to
    per[src f].inject(k, *move(f, k, x, y))."""
    sets = {b: per[b].classes for b in base.objects}
    actions = {}
    for f in base.morphisms:
        inject = per[base.src[f]].inject
        actions[f] = {rep: inject(rep[0], *move(f, rep[0], *rep[1]))
                      for rep in sets[base.tgt[f]]}
    return Presheaf(name, base, sets, actions)


# ---------------------------------------------------------------------------
# colimits weighted by phi inside an arbitrary finite category


@dataclass
class ColimitInCategory:
    apex: object
    cocone: dict                # k -> {x in phi(k) -> morphism S(k) -> apex}


def hom_diagram(s: FinFunctor, a) -> Presheaf:
    """k -> Hom_A(S k, a) as a presheaf on K, acting by precomposition."""
    k, cat, mor = s.source, s.target, s.mor_map
    sets = {j: cat.hom(s.obj(j), a) for j in k.objects}
    actions = {u: {h: cat.compose(h, mor[u]) for h in sets[k.tgt[u]]}
               for u in k.morphisms}
    return Presheaf(f"hom({s.name}-,{a!r})", k, sets, actions)


def colimit_in_category(phi: Presheaf, s: FinFunctor):
    """Corepresentation search for Nat(phi, Hom(S-, ?)); lowest object index wins."""
    if not same_category(phi.base, s.source):
        raise MalformedTable("colimit_in_category: weight base must be the diagram source")
    return _first_universal(phi, s, _cocones(phi, s))


def _cocones(phi, s):
    """a -> {frozen form: transformation} of Nat(phi, Hom(S-, a)), in enumeration order."""
    return {a: {n.frozen(): n for n in nat_trans_set(phi, hom_diagram(s, a))}
            for a in s.target.objects}


def _first_universal(phi, s, cocones):
    """The first universal cocone among ``_cocones(phi, s)``, or None."""
    return next((ColimitInCategory(c, eta.components) for c in s.target.objects
                 for eta in cocones[c].values()
                 if _is_universal_cocone(phi, s, c, eta.components, cocones)), None)


def _is_universal_cocone(phi, s, c, cocone, cocones):
    """Is the cocone (k -> {x -> morphism S(k) -> c}) universal: does composing
    with it biject each Hom(c, a) onto the transformations of cocones[a]?"""
    cat = s.target
    if any(len(cat.hom(c, a)) != len(cocones[a]) for a in cat.objects):
        return False
    for a in cat.objects:
        images = (_freeze(phi, lambda j, x: cat.compose(g, cocone[j][x]))
                  for g in cat.hom(c, a))
        if not all(_bijectivity(images, cocones[a].keys(), "composite left Nat(phi, Hom(S-, a))")):
            return False
    return True


@dataclass
class PreservationResult:
    preserved: bool
    reason: str = ""

    def __bool__(self):
        return self.preserved


def preserves_weighted_colimit(f: FinFunctor, phi: Presheaf, s: FinFunctor,
                               colim: ColimitInCategory) -> PreservationResult:
    """Does f send the given colimit cocone to a colimit cocone in its target."""
    if not same_category(f.source, s.target):
        raise MalformedTable("preserves_weighted_colimit: functor source mismatch")
    fs = compose_functors(f, s)
    cocones = _cocones(phi, fs)
    cocone2 = {k: {x: f.mor(m) for x, m in legs.items()} for k, legs in colim.cocone.items()}
    if _is_universal_cocone(phi, fs, f.obj(colim.apex), cocone2, cocones):
        return PreservationResult(True)
    if _first_universal(phi, fs, cocones) is None:
        return PreservationResult(False, "colimit missing in target")
    return PreservationResult(False, "transported cocone not universal")
