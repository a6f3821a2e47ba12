import random

import pytest
from hypothesis import given, settings, strategies as st

from fincat import corpus
from fincat.core import Presheaf, full_subcategory, validate
from fincat.corpus import (Chain3, Disc2, I, M, Par, QM, Span, Two, Z2, Z3,
                           PRESHEAVES)
from fincat.equivalence import (_elem_profiles, all_functors, find_equivalence,
                                find_isomorphism, is_fully_faithful,
                                presheaf_isomorphic, skeleton)
from fincat.errors import BudgetExceeded
from util import (SMALL_CATEGORIES, elem_profiles_oracle, naive_functor_count,
                  random_presheaf)


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


def test_all_functors_cap_and_budget():
    capped = all_functors(Two, Two, cap=2)
    assert len(capped) == 2
    with pytest.raises(BudgetExceeded):
        all_functors(corpus.GSet, corpus.GSet, budget=5)


def test_find_isomorphism_and_skeleton():
    sub, _ = full_subcategory(QM, ["s1"])
    iso = find_isomorphism(sub, M)
    assert iso is not None
    assert find_isomorphism(M, Z2) is None
    sk = skeleton(QM)
    assert len(sk.category.objects) == 2       # s1 and se are not isomorphic
    sk2 = skeleton(Two)
    assert len(sk2.category.objects) == 2


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
