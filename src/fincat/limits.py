"""Limits and colimits in finite sets: conical, weighted, ends, coends.

A covariant diagram on C is passed as a Presheaf on C.op(); in presheaf terms both
conical constructions read uniformly:

* ``finset_limit(p)``: families (x_a) with p.act(f, x_tgt) = x_src for every f.
* ``finset_colimit(p)``: quotient of the tagged union by x ~ p.act(f, x).

Weighted limits and colimits always run two independent routes, the end/coend formula
and the category-of-elements route, and raise InternalMismatch if they ever disagree.

``finset_limit``, ``end`` and ``nat_trans_set`` enumerate natural families with
one solver, ``core._families``, which also finds the first presheaf isomorphism
for ``equivalence.presheaf_isomorphic``.  Like every backtracking search in the
library, it counts nodes against one budget, ``core.DEFAULT_BUDGET`` = 10^6
unless a caller passes one; a search for a first solution counts only the
values it tries.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .core import (FinFunctor, NatTrans, Presheaf, Profunctor, _families,
                   category_of_elements, compose_functors, quotient,
                   same_category)
from .errors import InternalMismatch, MalformedTable


@dataclass
class LimitResult:
    apex: tuple                 # matching families, as tuples in base object order
    cone: dict                  # object -> {family -> component}


@dataclass
class ColimitResult:
    classes: tuple              # representatives, least (object index, element index)
    injections: dict            # object -> {element -> representative}

    def find(self, obj, elem):
        return self.injections[obj][elem]


def finset_limit(diagram: Presheaf) -> LimitResult:
    base = diagram.base
    idx = base.obj_index
    equations = [(idx[base.tgt[f]], idx[base.src[f]], diagram.actions[f])
                 for f in base.morphisms if not base.is_identity(f)]
    families = _families([diagram.sets[a] for a in base.objects], equations,
                         None, "finset_limit")
    cone = {a: {fam: fam[i] for fam in families}
            for i, a in enumerate(base.objects)}
    return LimitResult(tuple(families), cone)


def finset_colimit(diagram: Presheaf) -> ColimitResult:
    base = diagram.base
    tags = [(a, x) for a in base.objects for x in diagram.sets[a]]
    pairs = (((base.tgt[f], x), (base.src[f], diagram.act(f, x)))
             for f in base.morphisms for x in diagram.sets[base.tgt[f]])
    classes, lookup = quotient(tags, pairs)
    injections = {a: {} for a in base.objects}
    for a, x in tags:
        injections[a][x] = lookup[(a, x)]
    return ColimitResult(classes, injections)


# ---------------------------------------------------------------------------
# ends and coends of bifunctors C^op (x) C -> Set, given as Profunctor C -|-> C


@dataclass
class EndResult:
    families: tuple             # tuples of diagonal picks, base object order


@dataclass
class CoendResult:
    classes: tuple
    _lookup: dict = field(repr=False)

    def find(self, obj, elem):
        return self._lookup[(obj, elem)]


def end(h: Profunctor) -> EndResult:
    """Families x_a in cell (a, a) with right(s, u)(x_s) = left(u, t)(x_t) for
    every u: s -> t.  Both sides must equal the value of a slot of u's own in
    cell (s, t), placed right after the later of s and t."""
    if not same_category(h.source, h.target):
        raise MalformedTable("end requires a bifunctor over a single category")
    c = h.source
    domains, slot, equations = [], {}, []
    for a in c.objects:
        slot[a] = len(domains)
        domains.append(h.cell(a, a))
        for u in c.morphisms:
            s, t = c.src[u], c.tgt[u]
            if a not in (s, t) or s not in slot or t not in slot:
                continue     # a is not the later endpoint of u
            equations += [(slot[s], len(domains), h.right[(s, u)]),
                          (slot[t], len(domains), h.left[(u, t)])]
            domains.append(h.cell(s, t))
    families = _families(domains, equations, None, "end")
    return EndResult(tuple(tuple(fam[slot[a]] for a in c.objects)
                           for fam in families))


def coend(h: Profunctor) -> CoendResult:
    if not same_category(h.source, h.target):
        raise MalformedTable("coend requires a bifunctor over a single category")
    c = h.source
    tags = [(a, x) for a in c.objects for x in h.cell(a, a)]
    pairs = (((c.src[u], h.left_act(u, c.src[u], y)),
              (c.tgt[u], h.right_act(c.tgt[u], u, y)))
             for u in c.morphisms for y in h.cell(c.tgt[u], c.src[u]))
    return CoendResult(*quotient(tags, pairs))


# ---------------------------------------------------------------------------
# natural transformation sets (the end formula for presheaf homs)


def nat_trans_set(source: Presheaf, target: Presheaf, budget=None):
    """All natural transformations source -> target, in deterministic order.

    Backtracks one element image at a time; each naturality equation is
    checked as soon as both of its slots are assigned.  That keeps hom sets
    of concrete categories from exploding the search the way whole-component
    enumeration would.
    """
    if not same_category(source.base, target.base):
        raise MalformedTable("nat_trans_set requires presheaves on one base")
    c = source.base
    slots = [(a, x) for a in c.objects for x in source.sets[a]]
    pos = {s: i for i, s in enumerate(slots)}
    # f: s -> t forces comp[s][x.f] == target.act(f, comp[t][x])
    equations = [(pos[(c.tgt[f], x)], pos[(c.src[f], source.act(f, x))],
                  target.actions[f])
                 for f in c.morphisms if not c.is_identity(f)
                 for x in source.sets[c.tgt[f]]]
    out = []
    for values in _families([target.sets[a] for a, _ in slots], equations,
                            budget, "nat_trans_set"):
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


def weighted_limit(phi: Presheaf, t: Presheaf, cross_check=True) -> WeightedLimitResult:
    """{phi, t} for a weight phi and diagram t, both presheaves on the same base."""
    if not same_category(phi.base, t.base):
        raise MalformedTable("weighted_limit: weight and diagram bases differ")
    transforms = nat_trans_set(phi, t)
    conical = None
    pairing = {}
    if cross_check:
        el, _proj = category_of_elements(phi)
        diagram = Presheaf(f"{t.name}|el", el.op(),
                           {(k, x): t.sets[k] for (k, x) in el.objects},
                           {(u, x): t.actions[u] for (u, x) in el.morphisms})
        conical = finset_limit(diagram)
        by_tuple = {}
        for alpha in transforms:
            key = tuple(alpha.components[k][x] for (k, x) in el.objects)
            if key in by_tuple:
                raise InternalMismatch("weighted_limit: end route not jointly injective")
            by_tuple[key] = alpha
        if set(by_tuple) != set(conical.apex):
            raise InternalMismatch(
                f"weighted_limit routes disagree: {len(by_tuple)} vs {len(conical.apex)}")
        pairing = {alpha.frozen(): key for key, alpha in by_tuple.items()}
    return WeightedLimitResult(tuple(transforms), conical, pairing)


@dataclass
class WeightedColimitResult:
    classes: tuple              # coend route representatives (k, (x, y))
    coend: CoendResult
    conical: ColimitResult      # over el(phi)^op, the elements route

    @property
    def size(self):
        return len(self.classes)

    def inject(self, k, x, y):
        return self.coend.find(k, (x, y))


def pairing_profunctor(phi: Presheaf, s: Presheaf) -> Profunctor:
    """Cells (k1, k2) = phi(k1) x s(k2); the coend of this over K is phi * s."""
    k = phi.base
    sets = {(k1, k2): tuple((x, y) for x in phi.sets[k1] for y in s.sets[k2])
            for k1 in k.objects for k2 in k.objects}
    left = {}
    right = {}
    for u in k.morphisms:
        phi_u, s_u = phi.actions[u], s.actions[u]
        for k2 in k.objects:
            left[(u, k2)] = {(x, y): (phi_u[x], y)
                             for (x, y) in sets[(k.tgt[u], k2)]}
        for k1 in k.objects:
            right[(k1, u)] = {(x, y): (x, s_u[y])
                              for (x, y) in sets[(k1, k.src[u])]}
    return Profunctor(f"{phi.name}(x){s.name}", k, k, sets, left, right)


def weighted_colimit(phi: Presheaf, s: Presheaf, cross_check=True) -> WeightedColimitResult:
    """phi * s for a weight phi on K and covariant diagram s (a presheaf on K.op()).

    With cross_check, the coend route and the conical colimit over el(phi)
    must partition the triples (k, x, y) alike.  One pass over the triples maps
    each coend class to a conical class and each conical class to a coend
    class; the partitions are equal iff neither map sends a class to two.
    """
    if not same_category(s.base, phi.base.op()):
        raise MalformedTable("weighted_colimit: diagram must be a presheaf on weight base op")
    co = coend(pairing_profunctor(phi, s))
    conical = None
    if cross_check:
        el, _proj = category_of_elements(phi)
        diagram = Presheaf(f"{s.name}|el", el,
                           {(k, x): s.sets[k] for (k, x) in el.objects},
                           {(u, x): s.actions[u] for (u, x) in el.morphisms})
        conical = finset_colimit(diagram)
        to_conical = {}
        to_coend = {}
        for (k, x) in el.objects:
            for y in s.sets[k]:
                a, b = co.find(k, (x, y)), conical.find((k, x), y)
                if to_conical.setdefault(a, b) != b or to_coend.setdefault(b, a) != a:
                    raise InternalMismatch("weighted_colimit routes disagree on the quotient")
    return WeightedColimitResult(co.classes, co, conical)


# ---------------------------------------------------------------------------
# colimits weighted by phi inside an arbitrary finite category


@dataclass
class ColimitInCategory:
    apex: object
    cocone: dict                # k -> {x in phi(k) -> morphism S(k) -> apex}


@dataclass
class LimitInCategory:
    apex: object
    cone: dict                  # k -> {y in psi(k) -> morphism apex -> t(k)}


def hom_diagram(s: FinFunctor, a) -> Presheaf:
    """k -> Hom_A(S k, a) as a presheaf on K, acting by precomposition."""
    k = s.source
    cat = s.target
    sets = {j: cat.hom(s.obj(j), a) for j in k.objects}
    actions = {u: {h: cat.compose(h, s.mor(u)) for h in sets[k.tgt[u]]}
               for u in k.morphisms}
    return Presheaf(f"hom({s.name}-,{a!r})", k, sets, actions)


def colimit_in_category(phi: Presheaf, s: FinFunctor):
    """Corepresentation search for Nat(phi, Hom(S-, ?)); lowest object index wins."""
    if not same_category(phi.base, s.source):
        raise MalformedTable("colimit_in_category: weight base must be the diagram source")
    cat = s.target
    nats = {a: nat_trans_set(phi, hom_diagram(s, a)) for a in cat.objects}
    frozen = {a: {n.frozen() for n in nats[a]} for a in cat.objects}
    for c in cat.objects:
        if any(len(cat.hom(c, a)) != len(nats[a]) for a in cat.objects):
            continue
        for eta in nats[c]:
            if _is_universal_cocone(phi, s, c, eta.components, frozen):
                cocone = {k: {x: eta.components[k][x] for x in phi.sets[k]}
                          for k in phi.base.objects}
                return ColimitInCategory(c, cocone)
    return None


def _is_universal_cocone(phi, s, c, cocone, frozen):
    """Is the cocone (k -> {x -> morphism S(k) -> c}) universal: does composing
    with it biject each Hom(c, a) onto the transformations frozen[a]?"""
    cat = s.target
    k = phi.base
    for a in cat.objects:
        seen = set()
        for g in cat.hom(c, a):
            image = tuple(
                tuple(cat.compose(g, cocone[j][x]) for x in phi.sets[j])
                for j in k.objects
            )
            if image in seen:
                return False
            seen.add(image)
        if seen != frozen[a]:
            return False
    return True


def limit_in_category(psi: Presheaf, t: FinFunctor):
    """{psi, t} for psi on L and t: L^op -> A, via the colimit search in A^op."""
    got = colimit_in_category(psi, t.op())
    if got is None:
        return None
    return LimitInCategory(got.apex, got.cocone)


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
    cat = fs.target
    nats = {a: nat_trans_set(phi, hom_diagram(fs, a)) for a in cat.objects}
    frozen = {a: {n.frozen() for n in nats[a]} for a in cat.objects}
    apex2 = f.obj(colim.apex)
    cocone2 = {k: {x: f.mor(m) for x, m in colim.cocone[k].items()}
               for k in phi.base.objects}
    if all(len(cat.hom(apex2, a)) == len(nats[a]) for a in cat.objects) and \
            _is_universal_cocone(phi, fs, apex2, cocone2, frozen):
        return PreservationResult(True)
    if colimit_in_category(phi, fs) is None:
        return PreservationResult(False, "colimit missing in target")
    return PreservationResult(False, "transported cocone not universal")
