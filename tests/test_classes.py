import collections
import gc
import importlib
import itertools
import pkgutil
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import fincat
from fincat import classes, core, corpus, equivalence, kan, limits
from fincat.cauchy import cauchy_completion
from fincat.classes import (Caps, WeightClass, atoms, check_commutation,
                            flat_for_finite_limits, flat_for_terminal,
                            in_saturation_bounded, is_phi_cocomplete,
                            is_phi_continuous, phi_closure_bounded,
                            recognize_free_cocompletion)
from fincat.core import (FinCategory, FinFunctor, NatTrans, Presheaf,
                         covariant, full_subcategory, identity_functor,
                         is_connected, nat_compose, nat_identity,
                         same_category, validate)
from fincat.corpus import (Chain3, Disc2, M, N5, QM, Span, Two, Z2,
                           PRESHEAVES, WEIGHT_CLASSES, delta0, delta1, embedM,
                           example82, orbit)
from fincat.equivalence import all_functors, presheaf_isomorphic
from fincat.errors import CapExceeded, MalformedTable
from fincat.kan import (PresheafCollection, member_category, pointwise_colimit,
                        yoneda_embed)
from fincat.limits import colimit_in_category, nat_trans_set, weighted_colimit
from fincat.profunctor import _column, _transpose, id_module

from test_kan import yoneda_transform
from util import (SMALL_CATEGORIES, closure_answer,
                  commutation_verdict_reading2, phi_closure_oracle,
                  poset_reflection, random_concrete_category,
                  random_nonempty_presheaf, random_profunctor)

SPLIT = WEIGHT_CLASSES["splitting"]
INITIAL = WEIGHT_CLASSES["initial"]
PUSHOUTS = WEIGHT_CLASSES["pushouts"]
FINITE = WEIGHT_CLASSES["finite-colimits"]
EMPTY = WEIGHT_CLASSES["empty"]


def test_weight_class_guards():
    with pytest.raises(MalformedTable):
        WeightClass("bad", ["not a presheaf"])


def test_closure_of_empty_class_is_the_representables():
    res = phi_closure_bounded(EMPTY, M)
    assert len(res.collection.members) == 1
    assert res.rounds == 1 and res.saturated_at_bound
    res = phi_closure_bounded(EMPTY, Two)
    assert len(res.collection.members) == 2


def test_closure_under_initial_weight_adds_the_empty_presheaf():
    res = phi_closure_bounded(INITIAL, Two)
    assert len(res.collection.members) == 3
    assert res.rounds == 2 and res.saturated_at_bound
    assert res.collection.find_isomorphic(PRESHEAVES["zero.Two"]) is not None
    kinds = [p.kind for p in res.collection.provenance]
    assert kinds.count("representable") == 2 and kinds.count("colimit") == 1


def test_closure_under_splitting_weight_on_the_monoid():
    res = phi_closure_bounded(SPLIT, M)
    assert len(res.collection.members) == 2
    assert res.rounds == 2 and res.saturated_at_bound
    assert res.collection.find_isomorphic(PRESHEAVES["E"]) is not None
    # exact membership up to isomorphism: nothing but Y and the split part
    anchors = [yoneda_embed(M, "*"), PRESHEAVES["E"]]
    for m in res.collection.members:
        assert any(presheaf_isomorphic(m, a) for a in anchors)


def _wrap_everywhere(monkeypatch, module, name, wrapper):
    """Rebind module.name, and every alias of it in a fincat module, to
    wrapper(original)."""
    original = getattr(module, name)
    wrapped = wrapper(original)
    for info in pkgutil.iter_modules(fincat.__path__):
        mod = importlib.import_module(f"fincat.{info.name}")
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapped)


def test_closure_counts_are_pinned(monkeypatch):
    """Span under pushouts, two rounds: one pointwise colimit per class of
    diagrams under the member automorphisms and the swap of the legs of
    the span whose first diagram has no leg an isomorphism, for which the
    span rule names the pushout (36 of the 152 diagrams), one coend and
    one weighted colimit per value of each, one el(phi) per round for the
    one weight, and each (presheaf, object) profile built once.  Traced
    benchmark runs rely on these calls.  The coends read phi (x) S on
    demand, so no profunctor is built."""
    calls = collections.Counter()
    inits = collections.Counter()
    profunctor_init = core.Profunctor.__init__

    def counting_init(self, *args, **kwargs):
        inits["Profunctor"] += 1
        profunctor_init(self, *args, **kwargs)

    monkeypatch.setattr(core.Profunctor, "__init__", counting_init)
    for module, name in [(limits, "coend"), (core, "category_of_elements"),
                         (limits, "weighted_colimit"), (kan, "pointwise_colimit")]:
        def counting(fn, name=name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        _wrap_everywhere(monkeypatch, module, name, counting)
    built = collections.Counter()

    def counting_builds(fn):
        def wrapper(p, a):
            if a not in p._profiles:
                built[(p, a)] += 1
            return fn(p, a)
        return wrapper

    _wrap_everywhere(monkeypatch, core, "_elem_profiles", counting_builds)
    res = phi_closure_bounded(PUSHOUTS, Span, Caps(rounds=2, members=30))
    assert len(res.collection.members) == 15
    assert calls == {"coend": 108, "category_of_elements": 2,
                     "weighted_colimit": 108, "pointwise_colimit": 36}
    assert inits["Profunctor"] == 0
    assert built and max(built.values()) == 1


@pytest.mark.parametrize("cat_name, class_name, caps", [
    pytest.param(c, w, Caps(rounds=2, members=30), id=f"{c}-{w}") for c, w in [
        ("Two", "initial"), ("M", "splitting"), ("QM", "splitting"),
        ("Span", "pushouts"), ("Cospan", "pushouts"), ("Chain3", "pushouts"),
        ("Disc2", "finite-colimits"), ("Par", "finite-colimits"),
        ("M", "finite-colimits"), ("Z2", "finite-colimits"), ("GSet", "orbits")]
] + [pytest.param(c, w, Caps(rounds=2, members=30, value_size=v),
                  id=f"{c}-{w}-value{v}") for c, w, v in [
        ("M", "pushouts", 3), ("QM", "pushouts", 3), ("M", "finite-colimits", 1),
        ("GSet", "orbits", 2)]])
def test_closure_matches_the_eager_oracle(monkeypatch, cat_name, class_name, caps):
    """The closure that shares el(phi) per weight, composes members on
    frozen forms and computes one colimit per isomorphism class of diagrams
    gives the eager closure's members, provenance, rounds, saturation and
    notes.  With a value cap, every diagram of a capped class repeats its
    note, in the eager order.  Caps below the size of a representable reach
    diagrams whose colimit a rule names: they read the cap off the named
    member.  Every el(phi) it shares is el of that
    colimit's own weight, so no cross-check runs over the elements of
    another weight."""
    shared = collections.Counter()

    def checking(fn):
        def wrapper(phi, s, _el=None):
            if _el is not None:
                shared[phi.name] += 1
                assert same_category(_el[0], core.category_of_elements(phi)[0])
            return fn(phi, s, _el=_el)
        return wrapper

    cat, wc = corpus.CATEGORIES[cat_name], WEIGHT_CLASSES[class_name]
    expected = closure_answer(phi_closure_oracle(wc, cat, caps))
    notes = expected[-1]
    assert caps.value_size == Caps.value_size or len(set(notes)) < len(notes)
    _wrap_everywhere(monkeypatch, limits, "weighted_colimit", checking)
    assert closure_answer(phi_closure_bounded(wc, cat, caps)) == expected
    assert shared


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_closure_matches_the_eager_oracle_on_random_categories(seed):
    """The same on random concrete categories, under three classes."""
    cat = random_concrete_category(random.Random(seed), f"R{seed}", max_nonid=6)
    caps = Caps(rounds=2, members=12)
    for wc in (PUSHOUTS, SPLIT, FINITE):
        assert (closure_answer(phi_closure_bounded(wc, cat, caps))
                == closure_answer(phi_closure_oracle(wc, cat, caps))), wc.name


def _shape_symmetries_oracle(phi):
    """The automorphisms sigma of phi's shape with phi . sigma ~ phi, as
    morphism maps: every object and morphism permutation that is a functor,
    filtered by presheaf isomorphism."""
    k = phi.base
    found = []
    for objects in itertools.permutations(k.objects):
        omap = dict(zip(k.objects, objects))
        for images in itertools.permutations(k.morphisms):
            mmap = dict(zip(k.morphisms, images))
            if (all(k.src[mmap[u]] == omap[k.src[u]] and k.tgt[mmap[u]] == omap[k.tgt[u]]
                    for u in k.morphisms)
                    and all(mmap[k.identity[a]] == k.identity[omap[a]] for a in k.objects)
                    and all(k.compose_table[(mmap[g], mmap[f])] == mmap[h]
                            for (g, f), h in k.compose_table.items())):
                sigma = FinFunctor("sigma", k, k, omap, mmap)
                if presheaf_isomorphic(phi, core._pullback(sigma, phi)) is not None:
                    found.append(mmap)
    return found


def _orbit_oracle(s, symmetries):
    """The morphism images of the diagrams naturally isomorphic to s . sigma
    for a symmetry sigma of the weight, one per element of the group
    prod_k Aut(S k) x symmetries; s.target's objects are pairwise
    non-isomorphic."""
    cat, shape = s.target, s.source

    def auts(a):
        ends = cat.hom(a, a)
        return [(f, g) for f in ends for g in ends
                if cat.compose(g, f) == cat.id_of(a) == cat.compose(f, g)]
    keys = set()
    for sigmas in itertools.product(*(auts(s.obj(k)) for k in shape.objects)):
        at = dict(zip(shape.objects, sigmas))
        image = {u: cat.compose(at[shape.tgt[u]][0],
                                cat.compose(s.mor(u), at[shape.src[u]][1]))
                 for u in shape.morphisms}
        keys.update(tuple(image[sigma[u]] for u in shape.morphisms)
                    for sigma in symmetries)
    return frozenset(keys)


def _automorphisms_oracle(cat):
    """The former body of classes._automorphisms: every pair of
    endomorphisms tested for both composites."""
    table = cat.compose_table
    return {a: [(f, g) for f in cat.hom(a, a) for g in cat.hom(a, a) if f != cat.id_of(a)
                and table[(g, f)] == cat.id_of(a) == table[(f, g)]]
            for a in cat.objects}


def _assert_automorphisms_match(cat):
    got = classes._automorphisms(cat)
    assert list(got.items()) == list(_automorphisms_oracle(cat).items()), cat.name
    return sum(map(len, got.values()))


def test_automorphisms_match_the_pairwise_oracle_on_the_corpus():
    """On the corpus categories, their Cauchy completions, and the member
    categories of closures, which is where the closure reads them."""
    cats = list(corpus.CATEGORIES.values())
    cats += [cauchy_completion(c).completion for c in corpus.CATEGORIES.values()]
    for cat_name, class_name in (("GSet", "orbits"), ("M", "splitting"),
                                 ("Span", "pushouts")):
        res = phi_closure_bounded(WEIGHT_CLASSES[class_name],
                                  corpus.CATEGORIES[cat_name], Caps(rounds=2, members=30))
        cats.append(member_category(res.collection)[0])
    assert sum(map(_assert_automorphisms_match, cats)) > 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_automorphisms_match_the_pairwise_oracle_on_random_categories(seed):
    c = random_concrete_category(random.Random(seed), f"R{seed}")
    for cat in (c, cauchy_completion(c).completion,
                member_category(PresheafCollection.representables(c))[0]):
        _assert_automorphisms_match(cat)


@pytest.mark.parametrize("cat_name, class_name, listed, skipped, named", [
    pytest.param(c, w, listed, skipped, named, id=f"{c}-{w}-{listed}-{skipped}")
    for c, w, listed, skipped, named in [
        ("M", "splitting", 5, 0, 3), ("Z2", "finite-colimits", 833, 760, 30),
        ("Span", "pushouts", 152, 90, 26), ("GSet", "orbits", 27, 4, 10)]])
def test_closure_skips_only_diagrams_isomorphic_to_a_computed_one(
        monkeypatch, cat_name, class_name, listed, skipped, named):
    """In each weight's list of diagrams, the closure computes or names the
    colimit of the first diagram of each class and of no other, where S and
    T are in one class when S . sigma ~ T for a symmetry sigma of the weight;
    it names the colimit exactly when a rule names a member, and then
    computes nothing.  The colimit of every skipped or named diagram,
    recomputed, is isomorphic to that of its class's first diagram, or to
    its named member.  The members of M have no automorphism but the
    identity, and E no symmetry, so nothing is skipped there."""
    members, listings = [], []
    rule_of = classes._rule

    def recording_members(coll):
        members.append(member_category(coll))
        return members[-1]

    def recording_functors(source, target):
        listings.append([])
        for s in all_functors(source, target):
            listings[-1].append([s, None])
            yield s

    def recording_colimit(phi, *args, **kwargs):
        assert listings[-1][-1][1] is None
        listings[-1][-1][1] = pointwise_colimit(phi, *args, **kwargs)
        return listings[-1][-1][1]

    def recording_rule(phi, el):
        rule = rule_of(phi, el)

        def naming(*args):
            m = rule(*args)
            if m is not None:
                listings[-1][-1][1] = m
            return m
        return naming
    monkeypatch.setattr(classes, "member_category", recording_members)
    monkeypatch.setattr(classes, "all_functors", recording_functors)
    monkeypatch.setattr(classes, "pointwise_colimit", recording_colimit)
    monkeypatch.setattr(classes, "_rule", recording_rule)
    cat, wc = corpus.CATEGORIES[cat_name], WEIGHT_CLASSES[class_name]
    res = phi_closure_bounded(wc, cat, Caps(rounds=2, members=30))
    assert not res.capped
    # each round lists the diagrams of every weight, in the class's order
    for listing, phi in zip(listings, itertools.cycle(wc.weights)):
        symmetries = _shape_symmetries_oracle(phi)
        decode = next(d for m, d in members if m is listing[0][0].target)
        orbits = []          # (orbit, colimit or named member) of each first diagram
        for s, first in listing:
            key = tuple(s.mor(u) for u in phi.base.morphisms)
            owners = [p for orbit, p in orbits if key in orbit]
            if first is None or isinstance(first, int):
                p = pointwise_colimit(
                    phi, {k: res.collection.members[s.obj(k)] for k in phi.base.objects},
                    {u: decode[s.mor(u)] for u in phi.base.morphisms}, cat, "recomputed")
            if first is None:
                assert len(owners) == 1, (phi.name, key)
                skipped -= 1
                assert presheaf_isomorphic(p, owners[0]) is not None
                continue
            assert not owners
            if isinstance(first, int):
                named -= 1
                first = res.collection.members[first]
                assert presheaf_isomorphic(p, first) is not None
            orbits.append((_orbit_oracle(s, symmetries), first))
    assert (sum(map(len, listings)), skipped, named) == (listed, 0, 0)


# Non-conical weights on symmetric shapes: the swap of Disc2 does not
# preserve sets of sizes 1 and 2; the swaps of Par and Span preserve these
# two only up to the isomorphism that swaps p and q (and x and y).
ASYMMETRIC = Presheaf("one+two.Disc2", Disc2, {"0": ("a",), "1": ("b", "c")},
                      {"id0": {"a": "a"}, "id1": {"b": "b", "c": "c"}})
SWAPPED_PAR = Presheaf("pqr.Par", corpus.Par, {"0": ("p", "q", "r"), "1": ("x",)},
                       {"id0": {"p": "p", "q": "q", "r": "r"}, "id1": {"x": "x"},
                        "s": {"x": "p"}, "t": {"x": "q"}})
SWAPPED_SPAN = Presheaf("pq.Span", Span, {"0": ("p", "q"), "1": ("x",), "2": ("y",)},
                        {"id0": {"p": "p", "q": "q"}, "id1": {"x": "x"},
                         "id2": {"y": "y"}, "l": {"x": "p"}, "r": {"y": "q"}})
SYMMETRIC = WeightClass("symmetric", [ASYMMETRIC, SWAPPED_PAR, SWAPPED_SPAN])
# each weight alone, whose closure gets further under the caps, then all three
SYMMETRIC_CLOSURES = [(WeightClass(phi.name, [phi]), Caps(rounds=2, members=10))
                      for phi in SYMMETRIC.weights] + [(SYMMETRIC, Caps(rounds=2, members=8))]


def test_preserving_finds_the_oracle_symmetries():
    """classes._preserving finds the oracle's symmetries, other than the
    identity, as morphism positions: by search for the non-conical weights,
    and off the tables for the weights of the corpus classes."""
    found = {}
    weights = list(SYMMETRIC.weights) + [phi for wc in WEIGHT_CLASSES.values()
                                         for phi in wc.weights]
    for phi in weights:
        k = phi.base
        want = [tuple(k.mor_index[sigma[u]] for u in k.morphisms)
                for sigma in _shape_symmetries_oracle(phi)]
        assert want[0] == tuple(range(len(k.morphisms)))
        found[phi.name] = classes._preserving(phi)
        assert found[phi.name] == want[1:], phi.name
    assert {name: len(perms) for name, perms in found.items()} == {
        "one+two.Disc2": 0, "pqr.Par": 1, "pq.Span": 1, "E": 0, "zero.Empty": 0,
        "one.Span": 1, "one.Disc2": 1, "one.Par": 1, "one.Z2": 0}


def _assert_symmetric_closures_match(cat, members=0):
    for wc, caps in SYMMETRIC_CLOSURES:
        caps = Caps(rounds=2, members=members or caps.members)
        assert (closure_answer(phi_closure_bounded(wc, cat, caps))
                == closure_answer(phi_closure_oracle(wc, cat, caps))), (cat.name, wc.name)


@pytest.mark.parametrize("cat", SMALL_CATEGORIES, ids=lambda c: c.name)
def test_closure_under_non_conical_symmetric_weights_matches_the_eager_oracle(cat):
    _assert_symmetric_closures_match(cat)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_closure_under_non_conical_symmetric_weights_on_random_categories(seed):
    """Endomorphism monoids of at most two elements: on one of three, the
    member a + 2a of one+two.Disc2 alone has 729 endomorphisms."""
    cat = random_concrete_category(random.Random(seed), f"R{seed}", max_nonid=6)
    assume(all(len(cat.hom(a, a)) <= 2 for a in cat.objects))
    _assert_symmetric_closures_match(cat, members=6)


def test_closure_falls_back_to_the_identity_past_the_symmetry_budget(monkeypatch):
    """On a discrete shape of five objects the symmetry search needs 446
    nodes; under a budget of 100, which every other search of this closure
    fits, the closure keeps the identity alone, computes every colimit, and
    gives the oracle's answer."""
    disc = corpus.concrete_category("Disc5", {str(i): ("p",) for i in range(5)},
                                    {(str(i), str(i)): [{"p": "p"}] for i in range(5)})
    sets = {"0": ("a",), "1": ("b",), "2": (), "3": (), "4": ()}
    phi = Presheaf("two.Disc5", disc, sets,
                   {disc.identity[k]: {x: x for x in v} for k, v in sets.items()})
    wc = WeightClass("two-of-five", [phi])
    caps = Caps(rounds=2, members=30)
    expected = closure_answer(phi_closure_oracle(wc, corpus.I, caps))
    calls = collections.Counter()

    def counting(*args, **kwargs):
        calls["pointwise_colimit"] += 1
        return pointwise_colimit(*args, **kwargs)
    monkeypatch.setattr(classes, "pointwise_colimit", counting)
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 100)
    assert closure_answer(phi_closure_bounded(wc, corpus.I, caps)) == expected
    assert equivalence._symmetries(disc) == ((disc.objects, tuple(range(5))),)
    assert calls["pointwise_colimit"] == 1 + 2 ** 5


# Weights for the naming rules of the closure: conical weights on a span, a
# parallel pair and discrete shapes of two and three objects; weights with a
# connected el(phi), conical or not, for the constant rule; and weights that
# no rule serves: el(phi) of two or three components, or empty.
DISC3 = delta1(corpus.discrete_category("Disc3", ["0", "1", "2"]))
NAMING = [corpus.one_Span, delta1(corpus.Par), delta1(Disc2), DISC3, corpus.E,
          corpus.one_Z2, corpus.free_Z2, corpus.group_cospan]
UNNAMED = [corpus.triv2_Z2, ASYMMETRIC, SWAPPED_SPAN, corpus.initial_weight]


def _invertible_oracle(cat):
    """The morphisms of cat with a two-sided inverse, by a scan of each
    reverse hom set."""
    return {f for f in cat.morphisms
            if any(cat.compose(g, f) == cat.id_of(cat.src[f])
                   and cat.compose(f, g) == cat.id_of(cat.tgt[f])
                   for g in cat.hom(cat.tgt[f], cat.src[f]))}


def _assert_rules_name_the_colimit(coll):
    """For every diagram of a NAMING or UNNAMED weight into the members of
    coll, the member that classes._rule names, if any, is the one that
    find_isomorphic finds for the computed colimit.  Each constant diagram
    of a weight with a connected el(phi), and each diagram of a discrete
    shape constant at the empty member, is named; no UNNAMED diagram is."""
    mem_cat, decode = member_category(coll)
    isos = _invertible_oracle(mem_cat)
    empty = [i for i, p in enumerate(coll.members) if not any(p.sets.values())]
    for phi in NAMING + UNNAMED:
        el = core.category_of_elements(phi)[0]
        rule = classes._rule(phi, el)
        constant, named = set(), 0
        for s in all_functors(phi.base, mem_cat):
            key = tuple(s.mor(u) for u in phi.base.morphisms)
            m = rule(key, mem_cat, isos, coll.members)
            if m is None:
                continue
            p = pointwise_colimit(
                phi, {k: coll.members[s.obj(k)] for k in phi.base.objects},
                {u: decode[s.mor(u)] for u in phi.base.morphisms}, coll.base, "named")
            assert coll.find_isomorphic(p) == m, (phi.name, key)
            named += 1
            if len(set(key)) == 1:
                constant.add(m)
        if phi in UNNAMED:
            assert not named, phi.name
        else:
            assert constant == set(mem_cat.objects if is_connected(el) else empty), phi.name


@pytest.mark.parametrize("cat", SMALL_CATEGORIES, ids=lambda c: c.name)
def test_rules_name_the_member_that_find_isomorphic_finds(cat):
    """On the members of a one-round finite-colimit closure, which holds the
    empty presheaf, its coproducts and coequalizers."""
    _assert_rules_name_the_colimit(
        phi_closure_bounded(FINITE, cat, Caps(rounds=1, members=8)).collection)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_rules_name_the_member_that_find_isomorphic_finds_on_random_categories(seed):
    cat = random_concrete_category(random.Random(seed), f"R{seed}", max_nonid=5)
    assume(all(len(cat.hom(a, a)) <= 3 for a in cat.objects))
    _assert_rules_name_the_colimit(
        phi_closure_bounded(FINITE, cat, Caps(rounds=1, members=6)).collection)


NAMED = WeightClass("named", [corpus.free_Z2, corpus.triv2_Z2, DISC3])


@pytest.mark.parametrize("cat", SMALL_CATEGORIES, ids=lambda c: c.name)
def test_closure_under_the_naming_rules_matches_the_eager_oracle(cat):
    """Weights that the corpus classes lack, for the rules: the constant
    rule under a non-conical weight, a weight whose el(phi) has two
    components, and a conical coproduct of three."""
    caps = Caps(rounds=2, members=6)
    assert (closure_answer(phi_closure_bounded(NAMED, cat, caps))
            == closure_answer(phi_closure_oracle(NAMED, cat, caps)))


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_closure_under_the_naming_rules_on_random_categories(seed):
    cat = random_concrete_category(random.Random(seed), f"R{seed}", max_nonid=6)
    assume(all(len(cat.hom(a, a)) <= 2 for a in cat.objects))
    caps = Caps(rounds=2, members=6)
    assert (closure_answer(phi_closure_bounded(NAMED, cat, caps))
            == closure_answer(phi_closure_oracle(NAMED, cat, caps)))


def test_closure_leaves_no_cyclic_garbage():
    """Every search returns without reference cycles, so a closure's
    intermediate results are freed when they go out of use."""
    gc.collect()
    gc.disable()
    try:
        phi_closure_bounded(PUSHOUTS, Span, Caps(rounds=2, members=30))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _replay(coll, index, weights_by_name):
    """Recompute member index of coll from its provenance, which must land
    isomorphic to the member."""
    prov = coll.provenance[index]
    if prov.kind == "representable":
        p = yoneda_embed(coll.base, prov.data[0])
    else:
        weight_name, obj_assign, mor_assign = prov.data
        phi = weights_by_name[weight_name]
        objs = {k: coll.members[i] for k, i in obj_assign}
        mors = {u: NatTrans(objs[phi.base.src[u]], objs[phi.base.tgt[u]],
                            {a: dict(v) for a, v in comps})
                for u, comps in mor_assign}
        p = pointwise_colimit(phi, objs, mors, coll.base, f"replay[{index}]")
    assert presheaf_isomorphic(p, coll.members[index]) is not None, index


def test_closure_provenance_replays():
    for weight_class, base in ((SPLIT, M), (INITIAL, Two)):
        res = phi_closure_bounded(weight_class, base)
        weights = {w.name: w for w in weight_class.weights}
        for i in range(len(res.collection.members)):
            _replay(res.collection, i, weights)


def test_closure_caps_are_flagged_not_raised():
    res = phi_closure_bounded(INITIAL, Two, Caps(rounds=1))
    assert res.rounds == 1 and not res.saturated_at_bound
    res = phi_closure_bounded(INITIAL, Two, Caps(members=1))
    assert not res.saturated_at_bound
    assert any("member cap" in note for note in res.capped)
    res = phi_closure_bounded(SPLIT, M, Caps(value_size=0))
    assert any("value cap" in note for note in res.capped)


def test_saturation_verdicts():
    assert in_saturation_bounded(PRESHEAVES["Y.Two.0"], INITIAL).verdict == "yes"
    v = in_saturation_bounded(PRESHEAVES["zero.Two"], INITIAL)
    assert v.verdict == "yes" and v.found and v.member_index is not None
    v = in_saturation_bounded(PRESHEAVES["E"], INITIAL)
    assert v.verdict == "no-at-fixpoint" and not v.found
    v = in_saturation_bounded(PRESHEAVES["E"], INITIAL, Caps(rounds=1))
    assert v.verdict == "unknown-at-cap"


def test_cocompleteness_verdicts():
    assert is_phi_cocomplete(Two, INITIAL)
    res = is_phi_cocomplete(M, INITIAL)
    assert not res and res.witness == ("zero.Empty", ())
    assert not is_phi_cocomplete(M, SPLIT)
    assert is_phi_cocomplete(QM, SPLIT)
    fin = WeightClass("fin", [INITIAL.weights[0], delta1(Disc2)])
    assert is_phi_cocomplete(N5, fin)


def test_atoms_on_fixtures():
    assert atoms(Two, EMPTY) == ("0", "1")
    assert atoms(corpus.Empty, EMPTY) == ()
    assert atoms(N5, INITIAL) == ("a", "b", "c", "i")
    binary = WeightClass("binary-coproducts", [delta1(Disc2)])
    assert atoms(N5, binary) == ()
    assert atoms(QM, SPLIT) == ("s1", "se")


def test_atoms_closed_under_flat_colimit_instances():
    # the split part se arises as the E-colimit of a diagram landing in s1;
    # with s1 an atom the apex must be one too
    colim = colimit_in_category(PRESHEAVES["E"], embedM)
    assert colim.apex == "se"
    atom_set = atoms(QM, SPLIT)
    assert "s1" in atom_set and colim.apex in atom_set


def test_saturating_the_class_preserves_atoms():
    clos = phi_closure_bounded(INITIAL, Two)
    extra = WeightClass("sat", list(INITIAL.weights) +
                        list(clos.collection.members))
    assert atoms(N5, extra) == atoms(N5, INITIAL)
    clos = phi_closure_bounded(SPLIT, M)
    extra = WeightClass("sat", list(SPLIT.weights) +
                        list(clos.collection.members))
    assert atoms(QM, extra) == atoms(QM, SPLIT)


def test_reflective_subposet_keeps_the_colimits():
    fin = WeightClass("fin", [INITIAL.weights[0], delta1(Disc2)])
    good = ["o", "a", "c", "i"]
    assert all(poset_reflection(N5, good, x) is not None for x in N5.objects)
    sub, _ = full_subcategory(N5, good, "N5[good]")
    assert is_phi_cocomplete(sub, fin)
    bad = ["o", "a", "b"]
    assert poset_reflection(N5, bad, "c") is None
    sub2, _ = full_subcategory(N5, bad, "N5[bad]")
    assert not is_phi_cocomplete(sub2, fin)


def test_commutation_failure_on_the_group_average():
    res = check_commutation(delta1(Z2), delta1(Span), example82)
    assert not res.commutes
    assert (res.colimit_of_limits, res.limit_of_colimits) == (2, 1)
    assert res.surjective and not res.injective


def test_commutation_takes_each_inner_limit_along_both_routes(monkeypatch):
    """Each {psi, S(-, l)} goes through weighted_limit, whose two routes are
    always on, in the order of l, before the outer limit of the colimits."""
    limits_taken = []
    weighted = classes.weighted_limit
    monkeypatch.setattr(classes, "weighted_limit",
                        lambda psi, t: limits_taken.append(t.name) or weighted(psi, t))
    res = check_commutation(delta1(Z2), delta1(Span), example82)
    assert (res.colimit_of_limits, res.limit_of_colimits) == (2, 1)
    assert limits_taken == [f"{example82.name}(-,'*')",
                            f"colim[one.Z2,{example82.name}]"]


def test_commutation_with_representable_limit_weight():
    for k in Span.objects:
        res = check_commutation(delta1(Z2), yoneda_embed(Span, k), example82)
        assert res.commutes
        assert res.colimit_of_limits == res.limit_of_colimits == 1


def test_commutation_weight_base_guards():
    with pytest.raises(MalformedTable):
        check_commutation(delta1(Span), delta1(Span), example82)
    with pytest.raises(MalformedTable):
        check_commutation(delta1(Z2), delta1(Z2), example82)


def test_both_commutation_readings_agree_on_fixed_instances():
    s = example82
    assert commutation_verdict_reading2(delta1(Z2), delta1(Span), s) is False
    for k in Span.objects:
        assert commutation_verdict_reading2(delta1(Z2),
                                            yoneda_embed(Span, k), s) is True


def _random_commutation_instance(seed):
    rng = random.Random(seed)
    l_cat, k_cat = rng.choice([(Two, corpus.Par), (corpus.I, Span),
                               (Two, Two), (Z2, Two)])
    s = random_profunctor(rng, l_cat, k_cat, f"rand{seed}")
    phi = delta1(s.source)
    psi = rng.choice([delta1(s.target)] +
                     [yoneda_embed(s.target, k) for k in s.target.objects])
    return phi, psi, s


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_both_commutation_readings_agree_on_random_instances(seed):
    phi, psi, s = _random_commutation_instance(seed)
    first = bool(check_commutation(phi, psi, s))
    second = commutation_verdict_reading2(phi, psi, s)
    assert first == second


def _colimit_then_limit_oracle(phi, s):
    """classes._colimit_then_limit assembled by hand from its per-object
    colimits."""
    k_cat = s.target
    rows = _transpose(s)
    per = {k: weighted_colimit(phi, _column(rows, k)) for k in k_cat.objects}
    sets = {k: per[k].classes for k in k_cat.objects}
    actions = {}
    for beta in k_cat.morphisms:
        k, k2 = k_cat.src[beta], k_cat.tgt[beta]
        table = {}
        for rep in sets[k2]:
            l, (x, y) = rep
            table[rep] = per[k].inject(l, x, s.left_act(beta, l, y))
        actions[beta] = table
    return Presheaf(f"colim[{phi.name},{s.name}]", k_cat, sets, actions), per


def _tables(p):
    return (p.name, p.base, list(p.sets.items()),
            [(f, list(table.items())) for f, table in p.actions.items()])


def _check_colimit_then_limit(phi, s):
    h, per = classes._colimit_then_limit(phi, s)
    want, want_per = _colimit_then_limit_oracle(phi, s)
    assert _tables(h) == _tables(want), (phi.name, s.name)
    assert per == want_per


def test_colimit_then_limit_matches_the_assembly_by_hand_on_the_corpus():
    """On example 8.2 and the hom module of every corpus category with at
    most 3 objects, weighted by every corpus presheaf on its source."""
    modules = [example82] + [id_module(c) for c in corpus.CATEGORIES.values()
                             if len(c.objects) <= 3]
    checked = 0
    for s in modules:
        for phi in PRESHEAVES.values():
            if same_category(phi.base, s.source):
                _check_colimit_then_limit(phi, s)
                checked += 1
    assert checked > 40


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_colimit_then_limit_matches_the_assembly_by_hand_on_random_instances(seed):
    """On the instances of the random commutation test."""
    phi, _psi, s = _random_commutation_instance(seed)
    _check_colimit_then_limit(phi, s)


def test_flat_examples():
    assert flat_for_finite_limits(PRESHEAVES["Y.M.*"])
    assert flat_for_finite_limits(PRESHEAVES["one.Two"])
    assert flat_for_finite_limits(PRESHEAVES["E"])
    assert not flat_for_finite_limits(PRESHEAVES["one.Z2"])
    assert not flat_for_finite_limits(PRESHEAVES["one.Span"])
    assert flat_for_terminal(PRESHEAVES["one.Two"])
    assert not flat_for_terminal(PRESHEAVES["zero.Two"])
    assert not flat_for_terminal(PRESHEAVES["one.Disc2"])


def test_continuity_without_flatness_on_the_group():
    psi = PRESHEAVES["one.Z2"]
    assert is_phi_continuous(psi, PUSHOUTS)
    assert not flat_for_finite_limits(psi)


def test_flat_weights_are_continuous():
    for name in ("E", "one.M", "one.Two", "Y.Two.1", "Y.M.*", "one.Chain3"):
        phi = PRESHEAVES[name]
        assert flat_for_finite_limits(phi), name
        assert is_phi_continuous(phi, FINITE), name


def test_flat_colimits_of_representables_stay_flat():
    flats = [PRESHEAVES["E"], PRESHEAVES["one.Two"], delta1(Chain3)]
    targets = [Two, M, QM]
    for phi in flats:
        for a_cat in targets:
            for s in all_functors(phi.base, a_cat, cap=4):
                objs = {k: yoneda_embed(a_cat, s.obj(k))
                        for k in phi.base.objects}
                mors = {u: yoneda_transform(a_cat, s.mor(u))
                        for u in phi.base.morphisms}
                p = pointwise_colimit(phi, objs, mors, a_cat,
                                      f"cl.{phi.name}.{a_cat.name}")
                assert flat_for_finite_limits(p), (phi.name, a_cat.name)


def test_recognize_the_idempotent_splitting():
    rep = recognize_free_cocompletion(embedM, SPLIT)
    assert rep.ok
    assert (rep.fully_faithful and rep.cocomplete
            and rep.closure_reaches_all and rep.image_in_atoms)
    assert not rep.unreached


def test_recognize_flags_missing_full_faithfulness():
    rep = recognize_free_cocompletion(orbit, SPLIT)
    assert not rep.ok
    assert not rep.fully_faithful
    assert rep.cocomplete and rep.closure_reaches_all and rep.image_in_atoms


def test_recognize_identity_with_no_weights():
    rep = recognize_free_cocompletion(identity_functor(M), EMPTY)
    assert rep.ok


def test_recognize_raises_when_round_cap_cuts_the_closure():
    with pytest.raises(CapExceeded):
        recognize_free_cocompletion(embedM, SPLIT, Caps(rounds=0))


def _recognize_oracle(g, weight_class, caps=Caps()):
    """recognize_free_cocompletion as it was before it enumerated the class's
    diagrams once: cocompleteness, each closure round over the full
    subcategory of the reached objects, and the atoms each enumerate them."""
    b_cat = g.target
    ff = equivalence.is_fully_faithful(g)
    cocomplete = bool(is_phi_cocomplete(b_cat, weight_class))
    reached = []
    for a in g.source.objects:
        if g.obj(a) not in reached:
            reached.append(g.obj(a))
    rounds = 0
    fixpoint = False
    while rounds < caps.rounds and not fixpoint:
        rounds += 1
        sub, incl = full_subcategory(b_cat, reached, f"{b_cat.name}{reached}")
        new = []
        for phi in weight_class.weights:
            for s in all_functors(phi.base, sub):
                colim = colimit_in_category(phi, core.compose_functors(incl, s))
                if colim is None:
                    continue
                if colim.apex not in reached and colim.apex not in new:
                    new.append(colim.apex)
        if new:
            reached.extend(new)
        else:
            fixpoint = True
    unreached = tuple(b for b in b_cat.objects if not any(
        equivalence.objects_isomorphic(b_cat, b, c) for c in reached))
    if unreached and not fixpoint:
        raise CapExceeded(f"object closure still growing after {rounds} rounds "
                          f"with {len(unreached)} objects unreached")
    atom_set = set(atoms(b_cat, weight_class))
    in_atoms = all(g.obj(a) in atom_set for a in g.source.objects)
    return classes.RecognitionReport(ff, cocomplete, not unreached, in_atoms,
                                     rounds, unreached)


def _outcome(recognize, *args):
    try:
        return recognize(*args)
    except CapExceeded as err:
        return type(err), str(err)


@pytest.mark.parametrize("g", [embedM, orbit] + [
    identity_functor(c) for c in corpus.CATEGORIES.values()
    if len(c.objects) <= 3], ids=lambda g: g.name)
def test_recognize_matches_the_three_enumeration_oracle(g):
    """One list of the class's diagrams in g's target serves cocompleteness,
    every closure round and the atoms, with the same report or cap error."""
    for weight_class in WEIGHT_CLASSES.values():
        for caps in (Caps(), Caps(rounds=0)):
            assert (_outcome(recognize_free_cocompletion, g, weight_class, caps)
                    == _outcome(_recognize_oracle, g, weight_class, caps)), \
                (weight_class.name, caps)


def test_comma_witness_fixed_targets():
    comma = _comma(PRESHEAVES["collapse.Two"])
    assert is_connected(comma) and (len(comma.objects), len(comma.morphisms)) == (4, 8)
    assert validate(comma).ok
    comma = _comma(PRESHEAVES["zero.M"])
    assert is_connected(comma) and (len(comma.objects), len(comma.morphisms)) == (1, 1)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_comma_witness_connected_for_random_targets(seed):
    rng = random.Random(seed)
    cat = rng.choice([Two, Span, M])
    target = random_nonempty_presheaf(rng, cat, f"t{seed}", max_size=2)
    comma = _comma(target)
    assert is_connected(comma) and comma.objects


def _comma(target):
    """The comma category of (representables + empty presheaf) over target,
    the probes' maps enumerated and composed pair by pair.  The empty
    presheaf maps uniquely into everything, so the comma is never empty and
    always connected, which the comma tests check."""
    cat = target.base
    probes = [yoneda_embed(cat, a) for a in cat.objects] + [delta0(cat)]
    into = {i: nat_trans_set(p, target) for i, p in enumerate(probes)}
    between = {}
    index_of = {}
    for i, p in enumerate(probes):
        for j, q in enumerate(probes):
            between[(i, j)] = nat_trans_set(p, q)
            for n, m in enumerate(between[(i, j)]):
                index_of[(i, j, m.frozen())] = n
    objects = [(i, w.frozen()) for i in range(len(probes)) for w in into[i]]
    arrow = {(i, w.frozen()): w for i in range(len(probes)) for w in into[i]}
    morphisms = []
    identity = {}
    for src in objects:
        i = src[0]
        for tgt in objects:
            for n, m in enumerate(between[(i, tgt[0])]):
                if nat_compose(arrow[tgt], m).frozen() == src[1]:
                    morphisms.append(((src, tgt, n), src, tgt))
        identity[src] = (src, src, index_of[(i, i, nat_identity(probes[i]).frozen())])
    compose = {}
    for (m2, s2, t2), (m1, s1, _) in core._composable_pairs(morphisms):
        i, j, k = s1[0], s2[0], t2[0]
        comp = nat_compose(between[(j, k)][m2[2]], between[(i, j)][m1[2]])
        compose[(m2, m1)] = (s1, t2, index_of[(i, k, comp.frozen())])
    return FinCategory(f"comma(W/{target.name})", objects, morphisms,
                       identity, compose)


# two isomorphic objects: one morphism "xy": x -> y for every pair
ISO = FinCategory("Iso", ["a", "b"], [(x + y, x, y) for x in "ab" for y in "ab"],
                  {"a": "aa", "b": "bb"},
                  {(y + z, x + y): x + z for x in "ab" for y in "ab" for z in "ab"})


def _comma_targets():
    """Every corpus presheaf, then 30 random targets; those on ISO have
    isomorphic representables among their probes."""
    yield from sorted(PRESHEAVES.items())
    for seed in range(30):
        rng = random.Random(seed)
        cat = rng.choice(SMALL_CATEGORIES + [ISO])
        yield f"random{seed}", random_nonempty_presheaf(rng, cat, f"t{seed}")


def test_comma_is_connected_for_every_target():
    """Every corpus presheaf and the random targets, among them those whose
    probes include isomorphic representables."""
    for name, target in _comma_targets():
        assert is_connected(_comma(target)), name
    assert validate(ISO).ok


def test_empty_weight_shape():
    p = delta0(M)
    assert validate(p).ok
    assert p.sets["*"] == ()


def _hom_preserves_colimit_oracle(cat, a, phi, s, colim):
    """Hom(a, S-) written out as a covariant presheaf, then compared with
    Hom(a, apex) along the cocone."""
    k_cat = phi.base
    diagram = covariant(f"hom({a!r},S-)", k_cat,
                        {k: list(cat.hom(a, s.obj(k))) for k in k_cat.objects},
                        {u: {h: cat.compose(s.mor(u), h)
                             for h in cat.hom(a, s.obj(k_cat.src[u]))}
                         for u in k_cat.morphisms})
    vals = list(weighted_colimit(phi, diagram).descend(
        lambda k, x, h: cat.compose(colim.cocone[k][x], h), "").values())
    return len(set(vals)) == len(vals) and set(vals) == set(cat.hom(a, colim.apex))


def _sends_colimit_to_limit_oracle(psi, phi, s, colim):
    """psi . S written out as a presheaf on phi's base."""
    k_cat = phi.base
    comp = Presheaf(f"{psi.name}.{s.name}", k_cat,
                    {k: list(psi.sets[s.obj(k)]) for k in k_cat.objects},
                    {u: {z: psi.act(s.mor(u), z)
                         for z in psi.sets[s.obj(k_cat.tgt[u])]}
                     for u in k_cat.morphisms})
    families = {n.frozen() for n in nat_trans_set(phi, comp)}
    seen = [tuple(tuple(psi.act(colim.cocone[k][x], z) for x in phi.sets[k])
                  for k in k_cat.objects)
            for z in psi.sets[colim.apex]]
    assert set(seen) <= families
    return len(set(seen)) == len(seen) and len(seen) == len(families)



def _cocomplete_oracle(cat, weight_class, colimit):
    for phi in weight_class.weights:
        for s in all_functors(phi.base, cat):
            if colimit(phi, s) is None:
                return False, (phi.name, tuple((k, s.obj(k)) for k in phi.base.objects))
    return True, None


def _atoms_oracle(cat, weight_class, colimit):
    good = set(cat.objects)
    for phi in weight_class.weights:
        for s in all_functors(phi.base, cat):
            colim = colimit(phi, s)
            if colim is None:
                continue
            for a in list(good):
                if not _hom_preserves_colimit_oracle(cat, a, phi, s, colim):
                    good.discard(a)
            if not good:
                return ()
    return tuple(a for a in cat.objects if a in good)


def _continuous_oracle(psi, cat, weight_class, colimit):
    for phi in weight_class.weights:
        for s in all_functors(phi.base, cat):
            colim = colimit(phi, s)
            if colim is None:
                continue
            if not _sends_colimit_to_limit_oracle(psi, phi, s, colim):
                return False
    return True


@pytest.mark.parametrize("cat", [c for c in corpus.CATEGORIES.values()
                                 if len(c.objects) <= 3], ids=lambda c: c.name)
def test_instance_loops_match_the_nested_loops(cat, monkeypatch):
    """is_phi_cocomplete, atoms and is_phi_continuous, which read their
    instances from one generator and build Hom(a, S-) and psi . S from
    existing code, agree with nested loops over tables written out, for every
    weight class and every corpus presheaf on cat.  Both sides read each
    instance's colimit, which this change leaves alone, from one memo."""
    memo = {}

    def colimit(phi, s):
        key = (phi.base.name, phi.name, tuple(s.obj_map.items()),
               tuple(s.mor_map.items()))
        if key not in memo:
            memo[key] = colimit_in_category(phi, s)
        return memo[key]
    monkeypatch.setattr(classes, "colimit_in_category", colimit)
    presheaves = [p for p in PRESHEAVES.values() if same_category(p.base, cat)]
    for weight_class in WEIGHT_CLASSES.values():
        got = is_phi_cocomplete(cat, weight_class)
        assert ((got.cocomplete, got.witness)
                == _cocomplete_oracle(cat, weight_class, colimit))
        assert atoms(cat, weight_class) == _atoms_oracle(cat, weight_class, colimit)
        for psi in presheaves:
            assert (is_phi_continuous(psi, weight_class)
                    == _continuous_oracle(psi, cat, weight_class, colimit)), psi.name
