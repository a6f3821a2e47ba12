import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fincat import core, corpus
from fincat.cauchy import (cauchy_completion, isbell_left, isbell_right,
                           morita_equivalent)
from fincat.core import (FinCategory, FinFunctor, FunctorTransform, Presheaf,
                         _elem_profiles, full_subcategory, same_category, validate)
from fincat.corpus import (Chain3, Disc2, I, M, N5, Par, QM, Span, Two, Z2, Z3,
                           PRESHEAVES)
from fincat.equivalence import (_inverse, _isomorphisms, _symmetries, all_functors, find_equivalence,
                                find_isomorphism, is_fully_faithful,
                                iso_classes, object_iso, objects_isomorphic,
                                presheaf_isomorphic, skeleton)
from fincat.errors import BudgetExceeded
from util import (SMALL_CATEGORIES, category_isomorphism_oracle,
                  elem_profiles_oracle, naive_functor_count,
                  presheaf_isomorphic_oracle, random_concrete_category,
                  random_presheaf, shuffled_category)


def test_all_functors_counts_match_naive_filter():
    pairs = [(Two, Two), (Two, Par), (Par, Two), (Z2, Z2), (M, M),
             (Disc2, Z3), (Span, Chain3), (Two, M), (Z2, M), (M, Z2)]
    for a, b in pairs:
        got = all_functors(a, b)
        assert len(got) == naive_functor_count(a, b), (a.name, b.name)
        for fn in got:
            assert validate(fn).ok
        # deterministic order
        again = all_functors(a, b)
        assert [(f.obj_map, f.mor_map) for f in got] == \
               [(f.obj_map, f.mor_map) for f in again]


def test_all_functors_known_counts():
    assert len(all_functors(Two, Two)) == 3
    assert len(all_functors(Z2, Z2)) == 2      # monoid maps g -> 1 or g -> g
    assert len(all_functors(M, M)) == 2        # e -> 1 or e -> e
    assert len(all_functors(Par, Two)) == 3
    assert len(all_functors(Disc2, Z3)) == 1


def test_all_functors_cap_and_budget(monkeypatch):
    capped = all_functors(Two, Two, cap=2)
    assert len(capped) == 2
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 5)
    with pytest.raises(BudgetExceeded):
        all_functors(corpus.GSet, corpus.GSet)


def test_find_isomorphism_and_skeleton():
    sub, _ = full_subcategory(QM, ["s1"], "QM[s1]")
    iso = find_isomorphism(sub, M)
    assert iso is not None
    assert find_isomorphism(M, Z2) is None
    sk = skeleton(QM)
    assert len(sk.category.objects) == 2       # s1 and se are not isomorphic
    sk2 = skeleton(Two)
    assert len(sk2.category.objects) == 2


def _skeleton_oracle(c):
    """The skeleton's category and inclusion, filtered out of c's tables."""
    reps = [cls[0] for cls in iso_classes(c)]
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
    return sk, inclusion


@pytest.mark.parametrize("cat", list(corpus.CATEGORIES.values()) + [
    cauchy_completion(M).completion, cauchy_completion(corpus.GSet).completion],
    ids=lambda c: c.name)
def test_skeleton_is_the_full_subcategory_on_representatives(cat):
    """Same tables and names as the filtered copy; only the insertion order
    of the composition table may differ."""
    got, (sk, inclusion) = skeleton(cat), _skeleton_oracle(cat)
    assert got.category.name == sk.name
    assert same_category(got.category, sk)
    assert (got.inclusion.name, got.inclusion.source, got.inclusion.target,
            got.inclusion.obj_map, got.inclusion.mor_map) == (
        inclusion.name, got.category, cat, inclusion.obj_map, inclusion.mor_map)
    assert got.retraction.target is got.category and validate(got.retraction).ok


def test_equivalence_vs_isomorphism():
    # M embeds in QM fully faithfully but not essentially surjectively
    assert find_equivalence(M, QM) is None
    assert find_equivalence(QM, QM) is not None
    assert find_equivalence(I, Z2) is None


def test_is_fully_faithful():
    assert is_fully_faithful(corpus.embedM)
    assert not is_fully_faithful(corpus.orbit)     # two maps G -> G collapse
    from fincat.core import FinFunctor
    collapse = FinFunctor("collapse", Two, I, {"0": "*", "1": "*"},
                          {m: "id" for m in Two.morphisms})
    assert not is_fully_faithful(collapse)


def test_presheaf_isomorphic_positive_and_negative():
    assert presheaf_isomorphic(PRESHEAVES["E"], PRESHEAVES["one.M"]) is not None
    assert presheaf_isomorphic(PRESHEAVES["free.Z2"], PRESHEAVES["Y.Z2.*"]) is not None
    assert presheaf_isomorphic(PRESHEAVES["free.Z2"], PRESHEAVES["triv2.Z2"]) is None
    assert presheaf_isomorphic(PRESHEAVES["E"], PRESHEAVES["Y.M.*"]) is None
    assert presheaf_isomorphic(PRESHEAVES["YplusY.Two"], PRESHEAVES["YplusY.Two"]) is not None


def test_presheaf_isomorphic_is_an_actual_isomorphism():
    iso = presheaf_isomorphic(PRESHEAVES["E"], PRESHEAVES["one.M"])
    p, q = PRESHEAVES["E"], PRESHEAVES["one.M"]
    for a in p.base.objects:
        assert sorted(iso[a].keys()) == sorted(p.sets[a])
        assert sorted(iso[a].values()) == sorted(q.sets[a])
    for f in p.base.morphisms:
        for x in p.sets[p.base.tgt[f]]:
            assert iso[p.base.src[f]][p.act(f, x)] == q.act(f, iso[p.base.tgt[f]][x])


def _cold(p):
    """The same presheaf with nothing memoised."""
    return Presheaf(p.name, p.base, p.sets, p.actions)


def _relabelled(rng, p):
    """An isomorphic copy of p, its elements renamed and reordered."""
    rename = {}
    for a in p.base.objects:
        xs = list(p.sets[a])
        rng.shuffle(xs)
        rename[a] = {x: ("r", a, i) for i, x in enumerate(xs)}
    c = p.base
    return Presheaf("relabelled", c,
                    {a: sorted(rename[a].values()) for a in c.objects},
                    {f: {rename[c.tgt[f]][x]: rename[c.src[f]][y]
                         for x, y in p.actions[f].items()}
                     for f in c.morphisms})


_CORPUS = sorted(PRESHEAVES.values(), key=lambda p: p.name)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_CATEGORIES), st.integers(0, 10 ** 6),
       st.sampled_from(_CORPUS))
def test_elem_profiles_match_preimage_scan(cat, seed, corpus_presheaf):
    for p in (random_presheaf(random.Random(seed), cat, "p", 4),
              _cold(corpus_presheaf)):
        for a in p.base.objects:
            assert _elem_profiles(p, a) == elem_profiles_oracle(p, a)
            assert _elem_profiles(p, a) is p._profiles[a]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_CATEGORIES), st.integers(0, 10 ** 6), st.booleans())
def test_presheaf_isomorphic_same_with_profiles_warm_or_cold(cat, seed, iso):
    rng = random.Random(seed)
    p = random_presheaf(rng, cat, "p")
    q = _relabelled(rng, p) if iso else random_presheaf(rng, cat, "q")
    cold = presheaf_isomorphic(p, q)
    assert presheaf_isomorphic(p, q) == cold
    assert presheaf_isomorphic(_cold(p), q) == cold
    assert presheaf_isomorphic(p, _cold(q)) == cold
    if iso:
        assert cold is not None


def test_functor_enumeration_is_lexicographic_in_objects():
    got = all_functors(Two, Two)
    omaps = [tuple(f.obj_map[a] for a in Two.objects) for f in got]
    assert omaps == sorted(omaps)


def _shuffled(rng, p):
    """p with each element set listed in a random order."""
    return Presheaf("shuffled", p.base,
                    {a: rng.sample(p.sets[a], len(p.sets[a])) for a in p.base.objects},
                    p.actions)


def _check_against_oracle(p, q):
    """The same dict as the backtracking oracle, in the same order, and found
    within the oracle's node count."""
    want, nodes = presheaf_isomorphic_oracle(p, q)
    got = presheaf_isomorphic(p, q)
    assert got == want and repr(got) == repr(want), (p.name, q.name)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(core, "DEFAULT_BUDGET", nodes)
        assert presheaf_isomorphic(p, q) == want, (p.name, q.name)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_CATEGORIES), st.integers(0, 10 ** 6))
def test_presheaf_isomorphic_matches_the_backtracking_oracle(cat, seed):
    rng = random.Random(seed)
    p = random_presheaf(rng, cat, "p", 4)
    for q in (_relabelled(rng, p), _shuffled(rng, p), random_presheaf(rng, cat, "q", 4)):
        _check_against_oracle(p, q)
        _check_against_oracle(q, p)


def test_presheaf_isomorphic_matches_the_oracle_on_corpus_pairs():
    pairs = [(p, q) for p in _CORPUS for q in _CORPUS if p.base is q.base]
    assert len(pairs) == 340
    for p, q in pairs:
        _check_against_oracle(p, q)


def test_presheaf_isomorphic_node_count_is_pinned(monkeypatch):
    """R(L(phi)) ~ phi for phi = Y.GSet.GG, as `fincat isbell` decides it.  The
    whole-object backtracker visits 411,832 nodes here.  The count was 22
    before forced slots: a slot that a naturality equation forces now tries
    its one possible value, where it tried each value of its domain up to
    that one."""
    phi = PRESHEAVES["Y.GSet.GG"]
    back = isbell_right(isbell_left(phi))
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 19)
    with pytest.raises(BudgetExceeded, match="presheaf isomorphism"):
        presheaf_isomorphic(back, phi)
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 20)
    assert presheaf_isomorphic(back, phi) is not None


def test_all_functors_node_count_is_pinned(monkeypatch):
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 444)
    with pytest.raises(BudgetExceeded, match="functor enumeration"):
        all_functors(N5, Z3)
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 445)
    assert len(all_functors(N5, Z3)) == 81
    # Z3 has one object, so the cap is met inside one object assignment
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 29)
    with pytest.raises(BudgetExceeded, match="functor enumeration"):
        all_functors(N5, Z3, cap=5)
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 30)
    assert len(all_functors(N5, Z3, cap=5)) == 5


def _cyclic_monoid(index):
    """a^0, ..., a^9 with a^10 = a^index."""
    def power(n):
        return n if n < 10 else index + (n - index) % (10 - index)
    elements = [f"a{i}" for i in range(10)]
    return corpus.monoid_category(
        f"C10/{index}", elements,
        {(f"a{i}", f"a{j}"): f"a{power(i + j)}" for i in range(10) for j in range(10)},
        "a0")


def test_find_isomorphism_node_count_is_pinned(monkeypatch):
    # the object bijection and then every morphism of GSet count, as before
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 30)
    with pytest.raises(BudgetExceeded, match="category isomorphism"):
        find_isomorphism(corpus.GSet, corpus.GSet)
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 31)
    assert find_isomorphism(corpus.GSet, corpus.GSet) is not None
    # the group Z10 against the monoid with a^10 = a^9: one object, equal
    # sizes and profiles, not isomorphic
    z10, tail = _cyclic_monoid(0), _cyclic_monoid(9)
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 25)
    with pytest.raises(BudgetExceeded, match="category isomorphism"):
        find_isomorphism(z10, tail)
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 26)
    assert find_isomorphism(z10, tail) is None


def _two_paths(composite_first):
    """a: 0 -> 1, b: 1 -> 2 with b . a = c1, and c2: 0 -> 2 besides; the
    hom set (0, 2) lists c1 first if composite_first, else c2."""
    ends = [("c1", "0", "2"), ("c2", "0", "2")]
    morphisms = ([(f"id{x}", x, x) for x in "012"] + [("a", "0", "1"), ("b", "1", "2")]
                 + (ends if composite_first else ends[::-1]))
    compose = {("b", "a"): "c1"}
    for m, s, t in morphisms:
        compose[(f"id{t}", m)] = compose[(m, f"id{s}")] = m
    return FinCategory("paths" if composite_first else "paths'", "012",
                       morphisms, {x: f"id{x}" for x in "012"}, compose)


def test_isomorphism_found_when_a_composite_is_listed_after_its_rival():
    x, y = _two_paths(True), _two_paths(False)
    iso = find_isomorphism(x, y)
    assert iso is not None and validate(iso).ok
    eq = find_equivalence(x, y)
    assert eq is not None
    assert validate(eq.forward).ok and validate(eq.backward).ok
    assert morita_equivalent(x, y)


# every member has at most 8 non-identity morphisms
_ISO_POOL = [c for c in SMALL_CATEGORIES +
             [cauchy_completion(c).completion for c in SMALL_CATEGORIES]
             if len(c.morphisms) - len(c.objects) <= 8] + \
    [random_concrete_category(random.Random(i), f"R{i}") for i in range(40)]


def _check_isomorphism_against_oracle(x, y):
    want = category_isomorphism_oracle(x, y)
    got = find_isomorphism(x, y)
    assert (None if got is None else (got.obj_map, got.mor_map)) == want, (x.name, y.name)
    assert got is None or validate(got).ok


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_find_isomorphism_matches_the_oracle(seed):
    """Against a shuffled copy and against other categories of the same size."""
    rng = random.Random(seed)
    x = rng.choice(_ISO_POOL) if seed % 2 else random_concrete_category(rng, "x")
    same_size = [c for c in _ISO_POOL
                 if len(c.objects) == len(x.objects) and len(c.morphisms) == len(x.morphisms)]
    for y in [shuffled_category(rng, x)] + rng.sample(same_size, min(3, len(same_size))):
        _check_isomorphism_against_oracle(x, y)


def _isomorphisms_oracle(a, b):
    """(obj_map, mor_map) of every isomorphism a -> b: for each object
    bijection in itertools.permutations(b.objects) order, every injective
    choice of images of the non-identity morphisms of a, in product order
    over b's morphisms with the right ends, that keeps every composite of
    a's raw table; a choice is dropped at the first composite that fails."""
    if len(a.objects) != len(b.objects) or len(a.morphisms) != len(b.morphisms):
        return []
    nonid = [f for f in a.morphisms if not a.is_identity(f)]
    found = []
    for objects in itertools.permutations(b.objects):
        omap = dict(zip(a.objects, objects))
        mmap = {a.identity[x]: b.identity[omap[x]] for x in a.objects}

        def extend(i):
            if any({g, f, h} <= mmap.keys()
                   and b.compose_table.get((mmap[g], mmap[f])) != mmap[h]
                   for (g, f), h in a.compose_table.items()):
                return
            if i == len(nonid):
                found.append((dict(omap), dict(mmap)))
                return
            f = nonid[i]
            for g in b.morphisms:
                if (b.src[g], b.tgt[g]) == (omap[a.src[f]], omap[a.tgt[f]]) \
                        and g not in mmap.values():
                    mmap[f] = g
                    extend(i + 1)
                    del mmap[f]
        extend(0)
    return found


def _check_isomorphisms(x, y):
    got = list(_isomorphisms(x, y))
    assert got == _isomorphisms_oracle(x, y), (x.name, y.name)
    first = find_isomorphism(x, y)
    assert (None if first is None else (first.obj_map, first.mor_map)) == \
        next(iter(got), None)
    return got


def _check_automorphisms(c):
    """_isomorphisms(c, c) against the oracle, the identity first, and
    _symmetries(c) their encoding by object images and morphism positions."""
    got = _check_isomorphisms(c, c)
    assert got[0] == ({a: a for a in c.objects}, {m: m for m in c.morphisms})
    assert _symmetries(c) == tuple(
        (tuple(omap[a] for a in c.objects),
         tuple(c.mor_index[mmap[u]] for u in c.morphisms)) for omap, mmap in got)
    return len(got)


def test_isomorphisms_list_the_oracle_automorphisms_on_the_corpus():
    counts = {name: _check_automorphisms(c) for name, c in corpus.CATEGORIES.items()}
    assert counts["Span"] == counts["Disc2"] == counts["Par"] == 2
    assert counts["M"] == counts["Z2"] == 1
    assert sum(counts.values()) > len(counts)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_isomorphisms_list_the_oracle_automorphisms_on_random_categories(seed):
    """Also every isomorphism onto a shuffled copy."""
    rng = random.Random(seed)
    c = random_concrete_category(rng, f"R{seed}")
    _check_automorphisms(c)
    _check_isomorphisms(c, shuffled_category(rng, c))


def _discrete(n):
    return corpus.concrete_category(f"Disc{n}", {str(i): ("p",) for i in range(n)},
                                    {(str(i), str(i)): [{"p": "p"}] for i in range(n)})


def test_symmetries_keep_the_identity_alone_past_the_budget(monkeypatch):
    """A symmetry search that exceeds its budget keeps the identity alone,
    and a later read returns the kept tuple, whatever the budget."""
    disc = _discrete(5)
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 50)
    assert find_isomorphism(disc, disc) is not None
    with pytest.raises(BudgetExceeded, match="category isomorphism"):
        list(_isomorphisms(disc, disc))
    kept = _symmetries(disc)
    assert kept == ((disc.objects, tuple(range(5))),)
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 10 ** 6)
    assert _symmetries(disc) is kept
    assert len(list(_isomorphisms(disc, disc))) == 120 == len(_symmetries(_discrete(5)))


def _parallel_arrows(n):
    """Two objects and n parallel arrows 0 -> 1; only identities compose."""
    arrows = [(f"f{i}", "0", "1") for i in range(n)]
    morphisms = [("id0", "0", "0"), ("id1", "1", "1")] + arrows
    compose = {("id1", f): f for f, _, _ in arrows}
    compose.update({(f, "id0"): f for f, _, _ in arrows})
    compose.update({("id0", "id0"): "id0", ("id1", "id1"): "id1"})
    return FinCategory(f"Par{n}", ["0", "1"], morphisms,
                       {"0": "id0", "1": "id1"}, compose)


def test_searches_are_not_bounded_by_the_recursion_limit():
    n = 3000
    p = Presheaf("many", I, {"*": tuple(range(n))}, {"id": {x: x for x in range(n)}})
    q = _shuffled(random.Random(0), p)
    # on I every bijection is natural: the first pairs the two orders
    assert presheaf_isomorphic(p, q) == {"*": dict(zip(p.sets["*"], q.sets["*"]))}
    wide = _parallel_arrows(1001)
    assert len(all_functors(wide, I)) == 1
    auto = find_isomorphism(wide, wide)
    assert auto is not None and validate(auto).ok


def _iso_classes_oracle(c):
    """Each object not yet placed collects the unplaced objects isomorphic to it."""
    classes, seen = [], set()
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


def test_iso_classes_match_the_scan_from_each_unplaced_object():
    """On the corpus categories, their Cauchy completions, and 100 random
    concrete categories with a shuffled copy of each."""
    cases = list(corpus.CATEGORIES.values())
    cases += [cauchy_completion(c).completion for c in corpus.CATEGORIES.values()]
    for seed in range(100):
        rng = random.Random(seed)
        c = random_concrete_category(rng, f"R{seed}")
        cases += [c, shuffled_category(rng, c)]
    assert len(cases) == 230
    for c in cases:
        assert iso_classes(c) == _iso_classes_oracle(c), c.name
    assert any(len(cls) > 1 for c in cases for cls in iso_classes(c))


def _object_iso_oracle(c, a, b):
    """The former body of object_iso: every pair (f, g) of opposite arrows
    tested for both composites."""
    for f in c.hom(a, b):
        for g in c.hom(b, a):
            if c.compose(g, f) == c.id_of(a) and c.compose(f, g) == c.id_of(b):
                return f, g
    return None


def _invertible_oracle(t):
    """The former test of find_equivalence that each component of t has an
    inverse."""
    cat = t.target.target
    for m in t.components.values():
        src, tgt = cat.src[m], cat.tgt[m]
        if not any(cat.compose(g, m) == cat.id_of(src) and cat.compose(m, g) == cat.id_of(tgt)
                   for g in cat.hom(tgt, src)):
            return False
    return True


def _point(c, a):
    return FinFunctor(f"pick {a}", I, c, {"*": a}, {"id": c.id_of(a)})


def _inverse_verdicts(c):
    """Compare object_iso and _inverse with the oracles on c; return the
    verdict of _inverse on each morphism."""
    for a in c.objects:
        for b in c.objects:
            assert object_iso(c, a, b) == _object_iso_oracle(c, a, b), (c.name, a, b)
    verdicts = []
    for m in c.morphisms:
        a, b = c.src[m], c.tgt[m]
        g = _inverse(c, m)
        t = FunctorTransform(_point(c, a), _point(c, b), {"*": m})
        assert (g is not None) == _invertible_oracle(t), (c.name, m)
        assert g is None or (c.compose(g, m), c.compose(m, g)) == (c.id_of(a), c.id_of(b))
        verdicts.append(g is not None)
    return verdicts


def test_inverse_search_matches_the_oracles_on_the_corpus():
    """On the corpus categories and their Cauchy completions; and the unit
    and counit of every equivalence find_equivalence returns between them."""
    cats = list(corpus.CATEGORIES.values())
    cats += [cauchy_completion(c).completion for c in corpus.CATEGORIES.values()]
    verdicts = [v for c in cats for v in _inverse_verdicts(c)]
    assert True in verdicts and False in verdicts
    found = 0
    for c in corpus.CATEGORIES.values():
        e = find_equivalence(c, cauchy_completion(c).completion)
        if e is not None:
            found += 1
            assert _invertible_oracle(e.unit) and _invertible_oracle(e.counit)
    assert found == 14


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_inverse_search_matches_the_oracles_on_random_categories(seed):
    rng = random.Random(seed)
    c = random_concrete_category(rng, f"R{seed}")
    for x in (c, shuffled_category(rng, c), cauchy_completion(c).completion):
        _inverse_verdicts(x)
