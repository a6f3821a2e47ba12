"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library code paths they are checking:
the Karoubi enumeration works straight off the composition table, the functor
counter filters the raw product space, and the second commutation pipeline is
built from public pieces only.  The product-category oracle filters all pairs
of pairs; the composable-pair, compose-table and category-validation oracles
filter all pairs of morphisms; the quotient oracle closes classes breadth
first; and the module-composition oracle builds a validated pair module per
cell and takes its coend with a plain union-find.  The right-extension and Isbell R/counit
oracles are the direct end formulas, written without duality.  The element
profile oracle counts preimages by scanning each domain, and the constructor
oracles decide acceptance with a fresh set per action table.  The family
oracles (natural transformations, limit cones, wedges) filter the whole
product of their slot domains by the law, in ``itertools.product`` order.  The
presheaf isomorphism oracle is the earlier recursive backtracker, which
permutes each object's whole element set before it checks naturality.
"""
import itertools
from collections import deque

from fincat import corpus, validate
from fincat.cauchy import isbell_left
from fincat.core import (FinCategory, FinFunctor, NatTrans, Presheaf,
                         Profunctor, covariant, product_category)
from fincat.kan import yoneda_embed
from fincat.limits import nat_trans_set, weighted_colimit, weighted_limit

# pool for randomized instances; every member has at most three objects
SMALL_CATEGORIES = [corpus.I, corpus.Two, corpus.Disc2, corpus.Span,
                    corpus.Cospan, corpus.Par, corpus.M, corpus.Z2,
                    corpus.Chain3]


def random_presheaf(rng, cat, name, max_size=3, attempts=2000):
    """Rejection-sample a valid presheaf with value sets of size <= max_size."""
    for _ in range(attempts):
        sets = {a: tuple(f"{a}x{i}" for i in range(rng.randint(0, max_size)))
                for a in cat.objects}
        actions = {}
        ok = True
        for f in cat.morphisms:
            dom, cod = sets[cat.tgt[f]], sets[cat.src[f]]
            if cat.is_identity(f):
                actions[f] = {x: x for x in dom}
                continue
            if dom and not cod:
                ok = False
                break
            actions[f] = {x: rng.choice(cod) for x in dom}
        if not ok:
            continue
        p = Presheaf(name, cat, sets, actions)
        if validate(p).ok:
            return p
    raise AssertionError(f"could not sample a presheaf on {cat.name}")


def random_nonempty_presheaf(rng, cat, name, max_size=3):
    for i in range(200):
        p = random_presheaf(rng, cat, name, max_size)
        if any(p.sets[a] for a in cat.objects):
            return p
    raise AssertionError(f"only empty presheaves sampled on {cat.name}")


def naive_functor_count(source, target):
    """Filter the full product space; only usable for tiny categories."""
    count = 0
    for objs in itertools.product(target.objects, repeat=len(source.objects)):
        omap = dict(zip(source.objects, objs))
        pools = [target.hom(omap[source.src[m]], omap[source.tgt[m]])
                 for m in source.morphisms]
        for images in itertools.product(*pools):
            mmap = dict(zip(source.morphisms, images))
            if any(mmap[source.id_of(a)] != target.id_of(omap[a])
                   for a in source.objects):
                continue
            if all(target.compose(mmap[g], mmap[f]) == mmap[h]
                   for (g, f), h in source.compose_table.items()):
                count += 1
    return count


def karoubi_oracle(cat):
    """Idempotent splitting sizes straight off the composition table.

    Returns (object count, hom-size tuple in row-major object order).
    """
    idem = [(a, e) for a in cat.objects for e in cat.hom(a, a)
            if cat.compose(e, e) == e]
    sizes = tuple(len([m for m in cat.hom(a1, a2)
                       if cat.compose(e2, cat.compose(m, e1)) == m])
                  for (a1, e1) in idem for (a2, e2) in idem)
    return len(idem), sizes


def poset_reflection(cat, sub_objects, x):
    """Least element of sub_objects above x, or None; cat must be a poset."""
    above = [b for b in sub_objects if cat.hom(x, b)]
    for b in above:
        if all(cat.hom(b, c) for c in above):
            return b
    return None


def profunctor_from_product(name, k_cat, l_cat, p):
    """Split a presheaf on k_cat x l_cat.op() into a profunctor l_cat -|-> k_cat."""
    sets = {(b, a): p.sets[(b, a)] for b in k_cat.objects for a in l_cat.objects}
    left = {(m, a): {x: p.act((m, l_cat.id_of(a)), x)
                     for x in sets[(k_cat.tgt[m], a)]}
            for m in k_cat.morphisms for a in l_cat.objects}
    right = {(b, alpha): {x: p.act((k_cat.id_of(b), alpha), x)
                          for x in sets[(b, l_cat.src[alpha])]}
             for b in k_cat.objects for alpha in l_cat.morphisms}
    return Profunctor(name, l_cat, k_cat, sets, left, right)


def random_profunctor(rng, l_cat, k_cat, name):
    base = product_category(k_cat, l_cat.op())
    return profunctor_from_product(name, k_cat, l_cat,
                                   random_presheaf(rng, base, f"{name}~", 2))


def product_category_oracle(c, d):
    """The composition table of c x d, filtered from all pairs of pairs."""
    pairs = [(f, g) for f in c.morphisms for g in d.morphisms]
    return {((f2, g2), (f1, g1)): (c.compose(f2, f1), d.compose(g2, g1))
            for (f2, g2) in pairs for (f1, g1) in pairs
            if c.tgt[f1] == c.src[f2] and d.tgt[g1] == d.src[g2]}


def composable_pairs_oracle(morphisms):
    """Every (g, f) of (id, src, tgt) triples with tgt f == src g, from all pairs."""
    return [(g, f) for g in morphisms for f in morphisms if f[2] == g[1]]


def all_pairs_compose(cat, value):
    """cat's composable pairs filtered from all pairs, each mapped to value(g, f)."""
    return {(g, f): value(g, f) for g in cat.morphisms for f in cat.morphisms
            if cat.tgt[f] == cat.src[g]}


def validate_category_oracle(c):
    """(law, witness) of every category violation, by the all-pairs triple loop."""
    out = []
    for a in c.objects:
        i = c.identity[a]
        if c.src[i] != a or c.tgt[i] != a:
            out.append(("identity-endpoints", (a, i)))
    defined = set(c.compose_table)
    composable = {(g, f) for g in c.morphisms for f in c.morphisms
                  if c.tgt[f] == c.src[g]}
    for pair in sorted(defined - composable, key=repr):
        out.append(("compose-defined-noncomposable", pair))
    for pair in sorted(composable - defined, key=repr):
        out.append(("compose-missing", pair))
    if out:
        return out
    table = c.compose_table
    typed = {}  # composites whose endpoints are right
    for (g, f), h in table.items():
        if c.src[h] != c.src[f] or c.tgt[h] != c.tgt[g]:
            out.append(("compose-endpoints", (g, f, h)))
        else:
            typed[(g, f)] = h
    for f in c.morphisms:
        if typed.get((c.identity[c.tgt[f]], f), f) != f:
            out.append(("identity-left", (f,)))
        if typed.get((f, c.identity[c.src[f]]), f) != f:
            out.append(("identity-right", (f,)))
    for h in c.morphisms:
        for g in c.morphisms:
            if c.tgt[g] != c.src[h]:
                continue
            for f in c.morphisms:
                if c.tgt[f] != c.src[g]:
                    continue
                if (h, g) in typed and (g, f) in typed and \
                        table[(typed[(h, g)], f)] != table[(h, typed[(g, f)])]:
                    out.append(("associativity", (h, g, f)))
    return out


def quotient_oracle(tags, pairs):
    """Classes by breadth-first closure over the undirected pair graph."""
    tags = list(tags)
    adjacent = {tag: [] for tag in tags}
    for a, b in pairs:
        adjacent[a].append(b)
        adjacent[b].append(a)
    lookup = {}
    classes = []
    for tag in tags:
        if tag in lookup:
            continue
        classes.append(tag)
        lookup[tag] = tag
        queue = deque([tag])
        while queue:
            for n in adjacent[queue.popleft()]:
                if n not in lookup:
                    lookup[n] = tag
                    queue.append(n)
    return tuple(classes), lookup


def _coend_by_union_find(h):
    """Coend of h: C -|-> C by a plain union-find over the diagonal cells."""
    c = h.source
    tags = [(a, x) for a in c.objects for x in h.cell(a, a)]
    parent = {tag: tag for tag in tags}

    def find(tag):
        while parent[tag] != tag:
            tag = parent[tag]
        return tag

    for u in c.morphisms:
        s, t = c.src[u], c.tgt[u]
        for y in h.cell(t, s):
            ra = find((s, h.left_act(u, s, y)))
            rb = find((t, h.right_act(t, u, y)))
            if ra != rb:
                parent[ra] = rb
    order = {tag: i for i, tag in enumerate(tags)}
    blocks = {}
    for tag in tags:
        blocks.setdefault(find(tag), []).append(tag)
    lookup = {}
    for block in blocks.values():
        rep = min(block, key=order.__getitem__)
        for tag in block:
            lookup[tag] = rep
    classes = tuple(sorted(set(lookup.values()), key=order.__getitem__))
    return classes, lookup


def compose_modules_oracle(g, f):
    """g . f through a validated pair module per cell and its coend.

    Returns (composite, lookups) with lookups[(c, a)][(b, (y, x))] the class
    of the raw pair (y, x) over b.
    """
    mid = g.source
    source, target = f.source, g.target
    lookups = {}
    sets = {}
    for c in target.objects:
        for a in source.objects:
            pair_sets = {(b1, b2): tuple((y, x)
                                         for y in g.cell(c, b2)
                                         for x in f.cell(b1, a))
                         for b1 in mid.objects for b2 in mid.objects}
            pair_left = {(beta, b2): {(y, x): (y, f.left_act(beta, a, x))
                                      for (y, x) in pair_sets[(mid.tgt[beta], b2)]}
                         for beta in mid.morphisms for b2 in mid.objects}
            pair_right = {(b1, beta): {(y, x): (g.right_act(c, beta, y), x)
                                       for (y, x) in pair_sets[(b1, mid.src[beta])]}
                          for b1 in mid.objects for beta in mid.morphisms}
            h = Profunctor(f"pair@{(c, a)!r}", mid, mid,
                           pair_sets, pair_left, pair_right)
            sets[(c, a)], lookups[(c, a)] = _coend_by_union_find(h)
    left = {}
    for gamma in target.morphisms:
        c, c2 = target.src[gamma], target.tgt[gamma]
        for a in source.objects:
            left[(gamma, a)] = {
                rep: lookups[(c, a)][(b, (g.left_act(gamma, b, y), x))]
                for rep in sets[(c2, a)] for b, (y, x) in [rep]}
    right = {}
    for c in target.objects:
        for alpha in source.morphisms:
            a, a2 = source.src[alpha], source.tgt[alpha]
            right[(c, alpha)] = {
                rep: lookups[(c, a2)][(b, (y, f.right_act(b, alpha, x)))]
                for rep in sets[(c, a)] for b, (y, x) in [rep]}
    composite = Profunctor(f"({g.name}.{f.name})", source, target, sets, left, right)
    return composite, lookups


def commutation_verdict_reading2(phi, psi, s):
    """Does Nat(psi, -) send the phi-colimit of columns to a limit?

    An independent rebuild of the commutation comparison: form the pointwise
    phi-colimit of the column presheaves of s, then push colimit classes of
    transformation families through the coend injections and compare with the
    transformation set into the colimit presheaf.
    """
    l_cat, k_cat = s.source, s.target
    columns = {}
    for l in l_cat.objects:
        sets = {k: s.cell(k, l) for k in k_cat.objects}
        actions = {m: {x: s.left_act(m, l, x) for x in sets[k_cat.tgt[m]]}
                   for m in k_cat.morphisms}
        columns[l] = Presheaf(f"col@{l!r}", k_cat, sets, actions)
    # phi-colimit of the columns, one weighted colimit per k with handles kept
    per = {}
    for k in k_cat.objects:
        diag = covariant(f"row@{k!r}", l_cat,
                         {l: columns[l].sets[k] for l in l_cat.objects},
                         {u: {x: s.right_act(k, u, x)
                              for x in columns[l_cat.src[u]].sets[k]}
                          for u in l_cat.morphisms})
        per[k] = weighted_colimit(phi, diag)
    colim_sets = {k: per[k].classes for k in k_cat.objects}
    colim_actions = {}
    for m in k_cat.morphisms:
        k1, k2 = k_cat.src[m], k_cat.tgt[m]
        colim_actions[m] = {rep: per[k1].inject(l, x, s.left_act(m, l, y))
                            for rep in colim_sets[k2] for l, (x, y) in [rep]}
    colim_p = Presheaf("colim", k_cat, colim_sets, colim_actions)
    # left side: phi-colimit of the transformation sets into the columns
    gsets = {l: tuple(n.frozen() for n in nat_trans_set(psi, columns[l]))
             for l in l_cat.objects}

    def transport(u, frozen):
        l2 = l_cat.tgt[u]
        comps = {k: {w: s.right_act(k, u, v)
                     for w, v in zip(psi.sets[k], row)}
                 for k, row in zip(k_cat.objects, frozen)}
        return NatTrans(psi, columns[l2], comps).frozen()

    g = covariant("G2", l_cat, gsets,
                  {u: {fr: transport(u, fr) for fr in gsets[l_cat.src[u]]}
                   for u in l_cat.morphisms})
    left = weighted_colimit(phi, g)
    # canonical comparison into Nat(psi, colim_p)
    target_frozen = {n.frozen() for n in nat_trans_set(psi, colim_p)}
    images = set()
    for l, (x, frozen) in left.classes:
        comps = {k: {w: per[k].inject(l, x, v)
                     for w, v in zip(psi.sets[k], row)}
                 for k, row in zip(k_cat.objects, frozen)}
        images.add(NatTrans(psi, colim_p, comps).frozen())
    injective = len(images) == len(left.classes)
    surjective = images == target_frozen
    assert images <= target_frozen, "comparison image escapes the target"
    return injective and surjective


def kan_bijection(k, t, s):
    """The unit-induced map Nat(Lan_k t, s) -> Nat(t, s restricted along k).

    Returns (left size, right size, bijective).
    """
    from fincat.kan import lan, restrict
    res = lan(k, t)
    restricted = restrict(k, s)
    left = nat_trans_set(res.extension, s)
    right = {n.frozen() for n in nat_trans_set(t, restricted)}
    images = set()
    for alpha in left:
        comps = {a: {x: alpha.components[k.obj(a)][res.unit[a][x]]
                     for x in t.sets[a]}
                 for a in k.source.objects}
        images.add(NatTrans(t, restricted, comps).frozen())
    assert images <= right, "unit transpose is not natural"
    bijective = len(images) == len(left) and images == right
    return len(left), len(right), bijective


def right_extend_oracle(g, h):
    """[[g,h]]: A -|-> B straight from the end formula, a cell at (b, a) being
    the natural families g(a,-) -> h(b,-) in frozen form."""
    a_cat, b_cat, c_cat = g.target, h.target, g.source

    def row(f, b):
        return covariant(f"{f.name}({b!r},-)", c_cat,
                         {c: f.cell(b, c) for c in c_cat.objects},
                         {u: {x: f.right_act(b, u, x)
                              for x in f.cell(b, c_cat.src[u])}
                          for u in c_cat.morphisms})

    g_row = {a: row(g, a) for a in a_cat.objects}
    h_row = {b: row(h, b) for b in b_cat.objects}
    decode = {}
    sets = {}
    for b in b_cat.objects:
        for a in a_cat.objects:
            nats = nat_trans_set(g_row[a], h_row[b])
            decode[(b, a)] = {n.frozen(): n for n in nats}
            sets[(b, a)] = tuple(n.frozen() for n in nats)

    def encode(b, a, comps):
        return NatTrans(g_row[a], h_row[b], comps).frozen()

    left = {}
    for beta in b_cat.morphisms:
        b_src, b_tgt = b_cat.src[beta], b_cat.tgt[beta]
        for a in a_cat.objects:
            left[(beta, a)] = {
                key: encode(b_src, a, {
                    c: {w: h.left_act(beta, c, decode[(b_tgt, a)][key].components[c][w])
                        for w in g.cell(a, c)}
                    for c in c_cat.objects})
                for key in sets[(b_tgt, a)]}
    right = {}
    for b in b_cat.objects:
        for alpha in a_cat.morphisms:
            a_src, a_tgt = a_cat.src[alpha], a_cat.tgt[alpha]
            right[(b, alpha)] = {
                key: encode(b, a_tgt, {
                    c: {w: decode[(b, a_src)][key].components[c][g.left_act(alpha, c, w)]
                        for w in g.cell(a_tgt, c)}
                    for c in c_cat.objects})
                for key in sets[(b, a_src)]}
    return Profunctor(f"ext({g.name},{h.name})", a_cat, b_cat, sets, left, right)


def isbell_right_oracle(psi):
    """R(psi)(b) = Nat(psi, B(b,-)) for psi a presheaf on B^op, acting on a
    family by precomposition in B."""
    b_cat = psi.base.op()
    sets = {b: tuple(n.frozen() for n in
                     nat_trans_set(psi, yoneda_embed(psi.base, b)))
            for b in b_cat.objects}
    actions = {f: {key: tuple(tuple(b_cat.compose(h, f) for h in row)
                              for row in key)
                   for key in sets[b_cat.tgt[f]]}
               for f in b_cat.morphisms}
    return Presheaf(f"R({psi.name})", b_cat, sets, actions)


def isbell_counit_oracle(psi):
    """psi -> L(R(psi)): z at b maps to the family d |-> d_b(z)."""
    rpsi = isbell_right_oracle(psi)
    lr = isbell_left(rpsi)
    b_cat = psi.base.op()
    comps = {}
    for b in b_cat.objects:
        comps[b] = {}
        for z in psi.sets[b]:
            at = psi.sets[b].index(z)
            gamma = {a: {d: d[psi.base.obj_index[b]][at] for d in rpsi.sets[a]}
                     for a in b_cat.objects}
            comps[b][z] = NatTrans(rpsi, yoneda_embed(b_cat, b), gamma).frozen()
    return NatTrans(psi, lr, comps, name=f"isbell-counit({psi.name})")


def elem_profiles_oracle(p, a):
    """Element profiles of p at a, each preimage counted by a scan of the domain."""
    c = p.base
    endos = [f for f in c.morphisms if c.src[f] == a and c.tgt[f] == a]
    outs = [f for f in c.morphisms if c.src[f] == a]
    return {x: (tuple(p.act(f, x) == x for f in endos),
                tuple(sum(1 for y in p.sets[c.tgt[f]] if p.act(f, y) == x)
                      for f in outs))
            for x in p.sets[a]}


def _is_map(table, dom, cod):
    return set(table) == set(dom) and set(table.values()) <= set(cod)


def presheaf_tables_ok(base, sets, actions):
    """Would the Presheaf constructor accept these tables?  Its checks, with
    fresh sets for every table."""
    sets = {a: tuple(v) for a, v in sets.items()}
    if any(a not in base.obj_index or len(set(v)) != len(v)
           for a, v in sets.items()):
        return False
    if set(sets) != set(base.objects) or set(actions) != set(base.morphisms):
        return False
    return all(_is_map(t, sets[base.tgt[f]], sets[base.src[f]])
               for f, t in actions.items())


def profunctor_tables_ok(source, target, sets, left, right):
    """Would the Profunctor constructor accept these tables?  Its checks, with
    fresh sets for every table."""
    sets = {cell: tuple(v) for cell, v in sets.items()}
    if set(sets) != {(b, a) for b in target.objects for a in source.objects}:
        return False
    if any(len(set(v)) != len(v) for v in sets.values()):
        return False
    if set(left) != {(m, a) for m in target.morphisms for a in source.objects} \
            or set(right) != {(b, m) for b in target.objects
                              for m in source.morphisms}:
        return False
    return all(_is_map(t, sets[(target.tgt[m], a)], sets[(target.src[m], a)])
               for (m, a), t in left.items()) and \
        all(_is_map(t, sets[(b, source.src[m])], sets[(b, source.tgt[m])])
            for (b, m), t in right.items())


def nat_trans_oracle(source, target):
    """Frozen forms of Nat(source, target): every choice of images, slots in
    (object, element) order, kept if natural at every morphism."""
    c = source.base
    slots = [(a, x) for a in c.objects for x in source.sets[a]]
    out = []
    for values in itertools.product(*(target.sets[a] for a, _ in slots)):
        comp = dict(zip(slots, values))
        if all(comp[(c.src[f], source.act(f, x))] == target.act(f, comp[(c.tgt[f], x)])
               for f in c.morphisms for x in source.sets[c.tgt[f]]):
            out.append(tuple(tuple(comp[(a, x)] for x in source.sets[a])
                             for a in c.objects))
    return out


def cone_oracle(diagram):
    """Apex of finset_limit: families over the objects, kept if
    diagram.act(f, x_tgt) == x_src for every morphism f."""
    c = diagram.base
    pos = c.obj_index
    return [fam for fam in itertools.product(*(diagram.sets[a] for a in c.objects))
            if all(diagram.act(f, fam[pos[c.tgt[f]]]) == fam[pos[c.src[f]]]
                   for f in c.morphisms)]


def wedge_oracle(h):
    """Families of end(h): picks x_a in cell (a, a), kept if
    right(s, u)(x_s) == left(u, t)(x_t) for every u: s -> t."""
    c = h.source
    pos = c.obj_index
    return [fam for fam in itertools.product(*(h.cell(a, a) for a in c.objects))
            if all(h.right_act(c.src[u], u, fam[pos[c.src[u]]])
                   == h.left_act(u, c.tgt[u], fam[pos[c.tgt[u]]])
                   for u in c.morphisms)]


def presheaf_isomorphic_oracle(p, q):
    """(natural bijection p -> q or None, nodes visited), by the recursive
    backtracker that assigns each object's whole element set, objects by
    descending set size, and checks naturality only at object boundaries."""
    c = p.base
    if any(len(p.sets[a]) != len(q.sets[a]) for a in c.objects):
        return None, 0
    prof_p = {a: elem_profiles_oracle(p, a) for a in c.objects}
    prof_q = {a: elem_profiles_oracle(q, a) for a in c.objects}
    for a in c.objects:
        if sorted(prof_p[a].values()) != sorted(prof_q[a].values()):
            return None, 0
    nodes = [0]
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
        nodes[0] += 1
        if i == len(objs):
            return True
        a = objs[i]
        targets = list(q.sets[a])

        def place(j, used):
            nodes[0] += 1
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
        return {a: dict(v) for a, v in assign.items()}, nodes[0]
    return None, nodes[0]
