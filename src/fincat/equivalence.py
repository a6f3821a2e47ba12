"""Isomorphism and equivalence search for finite categories and presheaves.

Equivalence of finite categories reduces to isomorphism of skeletons.  Functor
enumeration and category isomorphism share one exact search, ``_functors``,
which checks each composite as soon as its three morphisms have images; the
isomorphism search feeds it object bijections with equal hom-degree profiles
and keeps morphism images distinct.  Presheaf isomorphism is a first-solution
call to ``core._families``.  Every search counts its nodes on a ``core.Meter``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (FinCategory, FinFunctor, FunctorTransform, Meter, Presheaf,
                   _elem_profiles, _families, _require_valid, compose_functors,
                   full_subcategory, identity_functor, quotient)
from .errors import BudgetExceeded, InternalMismatch


def _inverse(c: FinCategory, f):
    """The inverse of the morphism f of c, or None."""
    a, b = c.src[f], c.tgt[f]
    return next((g for g in c.hom(b, a) if c.compose(g, f) == c.id_of(a)
                 and c.compose(f, g) == c.id_of(b)), None)


def object_iso(c: FinCategory, a, b):
    """First isomorphism a -> b in morphism order, with inverse, or None."""
    for f in c.hom(a, b):
        if (g := _inverse(c, f)) is not None:
            return f, g
    return None


def objects_isomorphic(c: FinCategory, a, b) -> bool:
    return object_iso(c, a, b) is not None


def iso_classes(c: FinCategory):
    """Isomorphism classes of objects, each with its members in object order."""
    reps, rep_of = quotient(c.objects, (
        (a, b) for a, b in itertools.combinations(c.objects, 2)
        if objects_isomorphic(c, a, b)))
    return [tuple(b for b in c.objects if rep_of[b] == a) for a in reps]


@dataclass
class Skeleton:
    category: FinCategory
    inclusion: FinFunctor          # skeleton -> original
    retraction: FinFunctor         # original -> skeleton
    to_rep: dict                   # object -> chosen iso a -> rep(a)
    from_rep: dict                 # object -> inverse iso rep(a) -> a


def skeleton(c: FinCategory) -> Skeleton:
    """Full subcategory on one representative per isomorphism class, with its
    inclusion from ``core.full_subcategory``.

    The retraction conjugates by the chosen isos: f: a -> a' goes to
    u_{a'} . f . u_a^{-1}; with u_rep = id this is a functor and a quasi-inverse
    to the inclusion.
    """
    classes = iso_classes(c)
    rep_of = {}
    to_rep = {}
    from_rep = {}
    reps = []
    for cls in classes:
        r = cls[0]
        reps.append(r)
        for a in cls:
            rep_of[a] = r
            if a == r:
                to_rep[a] = c.id_of(a)
                from_rep[a] = c.id_of(a)
            else:
                f, g = object_iso(c, a, r)
                to_rep[a] = f
                from_rep[a] = g
    sk, inclusion = full_subcategory(c, reps, f"sk({c.name})")
    inclusion.name = f"sk({c.name})->{c.name}"
    retraction = FinFunctor(f"{c.name}->sk({c.name})", c, sk,
                            {a: rep_of[a] for a in c.objects},
                            {m: c.compose(to_rep[c.tgt[m]],
                                          c.compose(m, from_rep[c.src[m]]))
                             for m in c.morphisms})
    return Skeleton(sk, inclusion, retraction, to_rep, from_rep)


def _object_profile(c: FinCategory):
    prof = {}
    for a in c.objects:
        row = sorted((len(c.hom(a, x)), len(c.hom(x, a))) for x in c.objects)
        prof[a] = (len(c.hom(a, a)), tuple(row))
    return prof


def _depth_first(depth, level, meter):
    """Yield at each leaf of the search tree whose nodes at depth i + 1 are the
    steps of the generator ``level(i)``: each step assigns a value and yields,
    and the generator undoes or overwrites it when resumed.  One node per root
    and per step; a loop, not recursion, so the depth is not bounded by the
    recursion limit."""
    meter.tick()
    if depth == 0:
        yield
        return
    stack = [level(0)]
    while stack:
        for _ in stack[-1]:
            meter.tick()
            if len(stack) == depth:
                yield
            else:
                stack.append(level(len(stack)))
            break
        else:
            stack.pop()


def find_isomorphism(a: FinCategory, b: FinCategory):
    """Isomorphism of categories a -> b as a FinFunctor, or None: the first
    of ``_isomorphisms(a, b)``."""
    found = next(_isomorphisms(a, b), None)
    if found is None:
        return None
    return FinFunctor(f"{a.name}~{b.name}", a, b, *found)


def _isomorphisms(a: FinCategory, b: FinCategory):
    """Yield (obj_map, mor_map) of every isomorphism of categories a -> b.

    They are the injective functors a -> b whose object map is a bijection
    compatible with hom-degree profiles, in ``_functors`` order.  With equal
    morphism counts an injective functor is bijective, and a bijective functor
    is an isomorphism.
    """
    if len(a.objects) != len(b.objects) or len(a.morphisms) != len(b.morphisms):
        return
    meter = Meter("category isomorphism")
    prof_a, prof_b = _object_profile(a), _object_profile(b)
    if sorted(prof_a.values()) != sorted(prof_b.values()):
        return
    omap, used = {}, set()          # objects, and the objects of b they use

    def place_object(i):
        x = a.objects[i]
        for y in b.objects:
            if y in used or prof_a[x] != prof_b[y]:
                continue
            if any(len(a.hom(x, p)) != len(b.hom(y, omap[p])) or
                   len(a.hom(p, x)) != len(b.hom(omap[p], y)) for p in omap):
                continue
            omap[x] = y
            used.add(y)
            yield
            del omap[x]
            used.remove(y)

    bijections = (omap for _ in _depth_first(len(a.objects), place_object, meter))
    yield from _functors(a, b, bijections, meter, injective=True)


def _symmetries(c: FinCategory):
    """The automorphisms of c, each as (object images, morphism positions):
    the tuple of sigma(a) for a in c.objects and the tuple of
    c.mor_index[sigma(u)] for u in c.morphisms, in ``_isomorphisms`` order,
    which lists the identity first.  Computed once and kept on c as plain
    tuples: a functor kept on its own source would be a reference cycle.  A
    search that exceeds its budget keeps the identity alone."""
    if c._symmetries is None:
        try:
            found = tuple((tuple(omap[a] for a in c.objects),
                           tuple(c.mor_index[mmap[u]] for u in c.morphisms))
                          for omap, mmap in _isomorphisms(c, c))
        except BudgetExceeded:
            found = ((c.objects, tuple(range(len(c.morphisms)))),)
        c._symmetries = found
    return c._symmetries


@dataclass
class Equivalence:
    forward: FinFunctor
    backward: FinFunctor
    unit: FunctorTransform      # id_A -> backward . forward, invertible
    counit: FunctorTransform    # forward . backward -> id_B, invertible


def find_equivalence(a: FinCategory, b: FinCategory):
    """An equivalence a ~ b with invertible unit and counit, or None.

    Equivalent iff the skeletons are isomorphic; the witness functors are
    inclusion . iso . retraction in both directions.
    """
    sa, sb = skeleton(a), skeleton(b)
    j = find_isomorphism(sa.category, sb.category)
    if j is None:
        return None
    j_inv = FinFunctor(j.name + "^-1", sb.category, sa.category,
                       {v: k for k, v in j.obj_map.items()},
                       {v: k for k, v in j.mor_map.items()})
    forward = compose_functors(sb.inclusion, compose_functors(j, sa.retraction))
    backward = compose_functors(sa.inclusion, compose_functors(j_inv, sb.retraction))
    # backward . forward is inclusion_a . retraction_a; unit components are the chosen isos
    unit = FunctorTransform(identity_functor(a), compose_functors(backward, forward),
                            dict(sa.to_rep), name=f"unit({a.name}~{b.name})")
    counit = FunctorTransform(compose_functors(forward, backward), identity_functor(b),
                              dict(sb.from_rep), name=f"counit({a.name}~{b.name})")
    for t in (unit, counit):
        _require_valid(t, "equivalence witness not natural")
        if any(_inverse(t.target.target, m) is None for m in t.components.values()):
            raise InternalMismatch("equivalence witness not invertible")
    for fn in (forward, backward):
        _require_valid(fn, "equivalence functor invalid")
    return Equivalence(forward, backward, unit, counit)


def presheaf_isomorphic(p: Presheaf, q: Presheaf):
    """Natural bijection p -> q as a dict object -> elementwise map, or None.

    The first solution of ``core._families`` with one slot per element x of
    p(a), objects by descending set size, whose domain is the elements of q(a)
    with x's profile.  Slots of one object take distinct values, and
    naturality at f: s -> t is one equation per x in p(t).
    """
    c = p.base
    if any(len(p.sets[a]) != len(q.sets[a]) for a in c.objects):
        return None
    prof_p = {a: _elem_profiles(p, a) for a in c.objects}
    prof_q = {a: _elem_profiles(q, a) for a in c.objects}
    for a in c.objects:
        if sorted(prof_p[a].values()) != sorted(prof_q[a].values()):
            return None
    slot, domains, objects = {}, [], []
    for a in sorted(c.objects, key=lambda a: -len(p.sets[a])):
        alike = {}
        for y in q.sets[a]:
            alike.setdefault(prof_q[a][y], []).append(y)
        for x in p.sets[a]:
            slot[(a, x)] = len(domains)
            domains.append(alike[prof_p[a][x]])
            objects.append(a)
    equations = [(slot[(c.tgt[f], x)], slot[(c.src[f], y)], q.actions[f])
                 for f in c.morphisms for x, y in p.actions[f].items()]
    found = _families(domains, equations, "presheaf isomorphism",
                      distinct=objects, first=True)
    if not found:
        return None
    return {a: {x: found[0][slot[(a, x)]] for x in p.sets[a]} for a in c.objects}


def is_fully_faithful(fn: FinFunctor) -> bool:
    a, b = fn.source, fn.target
    for x in a.objects:
        for y in a.objects:
            image = [fn.mor(f) for f in a.hom(x, y)]
            if len(set(image)) != len(image):
                return False
            if set(image) != set(b.hom(fn.obj(x), fn.obj(y))):
                return False
    return True


def _functors(source, target, object_maps, meter, injective=False):
    """Yield (obj_map, mor_map) of every functor source -> target whose object
    map is one of object_maps, in order; with injective, no two morphisms of
    source share an image.

    Non-identity morphisms are assigned in source order, each over its target
    hom set in order; a composition constraint is checked as soon as all three
    morphisms of a composable pair have images, which prunes early enough to
    cope with concrete categories whose hom sets are large.
    """
    nonid = [f for f in source.morphisms if not source.is_identity(f)]
    pos = {f: i for i, f in enumerate(nonid)}
    by_last = [[] for _ in nonid]
    immediate = []
    for (g, f), h in source.compose_table.items():
        last = max(pos.get(g, -1), pos.get(f, -1), pos.get(h, -1))
        (by_last[last] if last >= 0 else immediate).append((g, f, h))

    def place(i):
        # images past i may be stale; by_last[i] reads none of them
        f = nonid[i]
        for g in target.hom(omap[source.src[f]], omap[source.tgt[f]]):
            if injective and g in taken:
                continue
            image[f] = g
            if all(target.compose(image[p], image[q]) == image[r]
                   for (p, q, r) in by_last[i]):
                taken.add(g)
                yield
                taken.discard(g)

    for omap in object_maps:
        image = {f: target.id_of(omap[source.src[f]])
                 for f in source.morphisms if source.is_identity(f)}
        if not all(target.compose(image[p], image[q]) == image[r]
                   for (p, q, r) in immediate):
            continue
        # images placed so far; exact only under injective, the one reader
        taken = set(image.values())
        for _ in _depth_first(len(nonid), place, meter):
            yield dict(omap), dict(image)


def all_functors(source: FinCategory, target: FinCategory, cap=None):
    """Every functor source -> target, in deterministic order; first cap if given.

    Object maps run lexicographically, and ``_functors`` assigns the
    morphisms of each.
    """
    object_maps = (dict(zip(source.objects, combo)) for combo in
                   itertools.product(target.objects, repeat=len(source.objects)))
    found = _functors(source, target, object_maps,
                      Meter("functor enumeration"))
    return [FinFunctor(f"F{i}", source, target, obj_map, mor_map)
            for i, (obj_map, mor_map) in enumerate(itertools.islice(found, cap))]
