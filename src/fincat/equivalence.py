"""Isomorphism and equivalence search for finite categories and presheaves.

Equivalence of finite categories reduces to isomorphism of skeletons, so the search
here is: merge isomorphic objects, then backtrack over object and morphism bijections
with degree-profile pruning and a node budget.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (FinCategory, FinFunctor, FunctorTransform, Meter, Presheaf,
                   compose_functors, identity_functor, validate)
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

    def extend_objects(i, omap, used):
        meter.tick()
        if i == len(a.objects):
            got = assign_morphisms(omap)
            if got is not None:
                return got
            return None
        x = a.objects[i]
        for y in b.objects:
            if y in used or prof_a[x] != prof_b[y]:
                continue
            if any(len(a.hom(x, p)) != len(b.hom(y, omap[p])) or
                   len(a.hom(p, x)) != len(b.hom(omap[p], y)) for p in omap):
                continue
            omap[x] = y
            used.add(y)
            got = extend_objects(i + 1, omap, used)
            if got is not None:
                return got
            del omap[x]
            used.remove(y)
        return None

    def assign_morphisms(omap):
        order = list(a.morphisms)
        mmap = {}
        used = set()
        for x in a.objects:
            im = b.id_of(omap[x])
            mmap[a.id_of(x)] = im
            used.add(im)

        def consistent(f, g):
            gf_a = a.compose_table.get((g, f))
            if gf_a is None:
                return True
            img = b.compose_table.get((mmap[g], mmap[f]))
            if gf_a in mmap:
                return img == mmap[gf_a]
            return img not in used

        def step(j):
            meter.tick()
            while j < len(order) and order[j] in mmap:
                j += 1
            if j == len(order):
                return dict(mmap)
            f = order[j]
            for g in b.hom(omap[a.src[f]], omap[a.tgt[f]]):
                if g in used or b.is_identity(g):
                    continue
                mmap[f] = g
                used.add(g)
                ok = all(consistent(f, p) and consistent(p, f) for p in mmap)
                ok = ok and consistent(f, f)
                if ok:
                    got = step(j + 1)
                    if got is not None:
                        return got
                del mmap[f]
                used.remove(g)
            return None

        got = step(0)
        if got is None:
            return None
        fn = FinFunctor(f"{a.name}~{b.name}", a, b, dict(omap), got)
        if not validate(fn).ok:
            return None
        return fn

    return extend_objects(0, {}, set())


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
    """Natural bijection p -> q as a dict object -> elementwise map, or None."""
    c = p.base
    if any(len(p.sets[a]) != len(q.sets[a]) for a in c.objects):
        return None
    prof_p = {a: _elem_profiles(p, a) for a in c.objects}
    prof_q = {a: _elem_profiles(q, a) for a in c.objects}
    for a in c.objects:
        if sorted(prof_p[a].values()) != sorted(prof_q[a].values()):
            return None
    meter = Meter(budget, "presheaf isomorphism")
    objs = sorted(c.objects, key=lambda a: -len(p.sets[a]))
    assign = {a: {} for a in c.objects}
    done = set()

    def natural_ok(a):
        # check every morphism both of whose endpoint objects are fully assigned
        for f in c.morphisms:
            s, t = c.src[f], c.tgt[f]
            if s not in done or t not in done:
                continue
            for x in p.sets[t]:
                if assign[s][p.act(f, x)] != q.act(f, assign[t][x]):
                    return False
        return True

    def extend(i):
        meter.tick()
        if i == len(objs):
            return True
        a = objs[i]
        targets = list(q.sets[a])

        def place(j, used):
            meter.tick()
            if j == len(p.sets[a]):
                done.add(a)
                if natural_ok(a) and extend(i + 1):
                    return True
                done.remove(a)
                return False
            x = p.sets[a][j]
            for y in targets:
                if y in used or prof_p[a][x] != prof_q[a][y]:
                    continue
                assign[a][x] = y
                used.add(y)
                if place(j + 1, used):
                    return True
                del assign[a][x]
                used.remove(y)
            return False

        return place(0, set())

    if extend(0):
        return {a: dict(v) for a, v in assign.items()}
    return None


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

    def place(i, omap, image):
        if cap is not None and len(found) >= cap:
            return
        meter.tick()
        if i == len(nonid):
            found.append(FinFunctor(f"F{len(found)}", source, target,
                                    dict(omap), dict(image)))
            return
        f = nonid[i]
        for g in target.hom(omap[source.src[f]], omap[source.tgt[f]]):
            image[f] = g
            if all(target.compose(image[p], image[q]) == image[r]
                   for (p, q, r) in by_last[i]):
                place(i + 1, omap, image)
            del image[f]

    for combo in itertools.product(target.objects, repeat=len(source.objects)):
        if cap is not None and len(found) >= cap:
            break
        omap = dict(zip(source.objects, combo))
        image = {f: target.id_of(omap[source.src[f]])
                 for f in source.morphisms if source.is_identity(f)}
        if all(target.compose(image[p], image[q]) == image[r]
               for (p, q, r) in immediate):
            place(0, omap, image)
    return found
