"""Isomorphism and equivalence search for finite categories and presheaves.

Equivalence of finite categories reduces to isomorphism of skeletons, so the search
here is: merge isomorphic objects, then backtrack over object and morphism bijections
with degree-profile pruning and a node budget.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (FinCategory, FinFunctor, FunctorTransform, Meter, Presheaf,
                   _families, compose_functors, identity_functor, validate)
from .errors import InternalMismatch


def object_iso(c: FinCategory, a, b):
    """First isomorphism a -> b in morphism order, with inverse, or None."""
    for f in c.hom(a, b):
        for g in c.hom(b, a):
            if c.compose(g, f) == c.id_of(a) and c.compose(f, g) == c.id_of(b):
                return f, g
    return None


def objects_isomorphic(c: FinCategory, a, b) -> bool:
    return object_iso(c, a, b) is not None


def iso_classes(c: FinCategory):
    """Partition of objects into isomorphism classes, least-index representative first."""
    classes = []
    seen = set()
    for a in c.objects:
        if a in seen:
            continue
        cls = [a]
        seen.add(a)
        for b in c.objects:
            if b not in seen and objects_isomorphic(c, a, b):
                cls.append(b)
                seen.add(b)
        classes.append(tuple(cls))
    return classes


@dataclass
class Skeleton:
    category: FinCategory
    inclusion: FinFunctor          # skeleton -> original
    retraction: FinFunctor         # original -> skeleton
    to_rep: dict                   # object -> chosen iso a -> rep(a)
    from_rep: dict                 # object -> inverse iso rep(a) -> a


def skeleton(c: FinCategory) -> Skeleton:
    """Full subcategory on one representative per isomorphism class.

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
    keep = set(reps)
    morphisms = [(m, c.src[m], c.tgt[m]) for m in c.morphisms
                 if c.src[m] in keep and c.tgt[m] in keep]
    identity = {a: c.id_of(a) for a in reps}
    kept_ids = {m for m, _, _ in morphisms}
    compose = {pair: h for pair, h in c.compose_table.items()
               if pair[0] in kept_ids and pair[1] in kept_ids}
    sk = FinCategory(f"sk({c.name})", reps, morphisms, identity, compose)
    inclusion = FinFunctor(f"sk({c.name})->{c.name}", sk, c,
                           {a: a for a in reps}, {m: m for m in sk.morphisms})
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


def find_isomorphism(a: FinCategory, b: FinCategory, budget=None):
    """Isomorphism of categories a -> b as a FinFunctor, or None.

    Backtracks over an object bijection compatible with hom-degree profiles, then
    over per-hom-set morphism bijections checking identities and all composites
    among assigned morphisms.
    """
    if len(a.objects) != len(b.objects) or len(a.morphisms) != len(b.morphisms):
        return None
    meter = Meter(budget, "category isomorphism")
    prof_a, prof_b = _object_profile(a), _object_profile(b)
    if sorted(prof_a.values()) != sorted(prof_b.values()):
        return None
    nonid = [f for f in a.morphisms if not a.is_identity(f)]
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

    def consistent(f, g):
        gf_a = a.compose_table.get((g, f))
        if gf_a is None:
            return True
        img = b.compose_table.get((mmap[g], mmap[f]))
        if gf_a in mmap:
            return img == mmap[gf_a]
        return img not in taken

    def place_morphism(j):
        f = nonid[j]
        for g in b.hom(omap[a.src[f]], omap[a.tgt[f]]):
            if g in taken or b.is_identity(g):
                continue
            mmap[f] = g
            taken.add(g)
            if all(consistent(f, p) and consistent(p, f) for p in mmap) \
                    and consistent(f, f):
                yield
            del mmap[f]
            taken.remove(g)

    for _ in _depth_first(len(a.objects), place_object, meter):
        # morphisms, and the morphisms of b they use
        mmap = {a.id_of(x): b.id_of(omap[x]) for x in a.objects}
        taken = set(mmap.values())
        # only the first morphism bijection is tried for each object bijection
        for _ in _depth_first(len(nonid), place_morphism, meter):
            fn = FinFunctor(f"{a.name}~{b.name}", a, b, dict(omap), dict(mmap))
            if validate(fn).ok:
                return fn
            break
    return None


@dataclass
class Equivalence:
    forward: FinFunctor
    backward: FinFunctor
    unit: FunctorTransform      # id_A -> backward . forward, invertible
    counit: FunctorTransform    # forward . backward -> id_B, invertible


def _invertible(t: FunctorTransform) -> bool:
    cat = t.target.target
    for a, m in t.components.items():
        src, tgt = cat.src[m], cat.tgt[m]
        if not any(cat.compose(g, m) == cat.id_of(src) and cat.compose(m, g) == cat.id_of(tgt)
                   for g in cat.hom(tgt, src)):
            return False
    return True


def find_equivalence(a: FinCategory, b: FinCategory, budget=None):
    """An equivalence a ~ b with invertible unit and counit, or None.

    Equivalent iff the skeletons are isomorphic; the witness functors are
    inclusion . iso . retraction in both directions.
    """
    sa, sb = skeleton(a), skeleton(b)
    j = find_isomorphism(sa.category, sb.category, budget)
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
        rep = validate(t)
        if not rep.ok:
            raise InternalMismatch(f"equivalence witness not natural: {rep}")
    if not (_invertible(unit) and _invertible(counit)):
        raise InternalMismatch("equivalence witness not invertible")
    for fn in (forward, backward):
        rep = validate(fn)
        if not rep.ok:
            raise InternalMismatch(f"equivalence functor invalid: {rep}")
    return Equivalence(forward, backward, unit, counit)


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


def presheaf_isomorphic(p: Presheaf, q: Presheaf, budget=None):
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
    found = _families(domains, equations, budget, "presheaf isomorphism",
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


def all_functors(source: FinCategory, target: FinCategory, cap=None, budget=None):
    """Every functor source -> target, in deterministic order; first cap if given.

    Candidates assign objects lexicographically, then non-identity morphisms
    hom-by-hom; a composition constraint is checked as soon as all three
    morphisms of a composable pair have images, which prunes early enough to
    cope with concrete categories whose hom sets are large.
    """
    meter = Meter(budget, "functor enumeration")
    nonid = [f for f in source.morphisms if not source.is_identity(f)]
    pos = {f: i for i, f in enumerate(nonid)}
    by_last = [[] for _ in nonid]
    immediate = []
    for (g, f), h in source.compose_table.items():
        last = max(pos.get(g, -1), pos.get(f, -1), pos.get(h, -1))
        (by_last[last] if last >= 0 else immediate).append((g, f, h))
    found = []

    def place(i):
        # images past i may be stale; by_last[i] reads none of them
        f = nonid[i]
        for g in target.hom(omap[source.src[f]], omap[source.tgt[f]]):
            image[f] = g
            if all(target.compose(image[p], image[q]) == image[r]
                   for (p, q, r) in by_last[i]):
                yield

    for combo in itertools.product(target.objects, repeat=len(source.objects)):
        if cap is not None and len(found) >= cap:
            break
        omap = dict(zip(source.objects, combo))
        image = {f: target.id_of(omap[source.src[f]])
                 for f in source.morphisms if source.is_identity(f)}
        if not all(target.compose(image[p], image[q]) == image[r]
                   for (p, q, r) in immediate):
            continue
        for _ in _depth_first(len(nonid), place, meter):
            found.append(FinFunctor(f"F{len(found)}", source, target,
                                    dict(omap), dict(image)))
            if cap is not None and len(found) >= cap:
                break
    return found
