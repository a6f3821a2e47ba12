import contextlib
import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from fincat import core, corpus, limits, profunctor
from fincat.classes import phi_closure_bounded
from fincat.core import (FinCategory, FinFunctor, Presheaf, Profunctor, _families,
                         _freeze, compose_functors, covariant, same_category, validate)
from fincat.corpus import (Chain3, Disc2, Empty, I, M, Par, Span, Two, Z2, Z3,
                           PRESHEAVES, delta0, delta1)
from fincat.equivalence import all_functors, find_isomorphism, presheaf_isomorphic
from fincat.errors import BudgetExceeded, InternalMismatch, MalformedTable
from fincat.kan import yoneda_embed
from fincat.limits import (ColimitResult, coend, colimit_in_category,
                           finset_colimit, finset_limit, nat_trans_set,
                           preserves_weighted_colimit, weighted_colimit,
                           weighted_limit)
from fincat.profunctor import (_transpose, compose_modules, has_right_adjoint, id_module,
                               module_of_weight, right_lift)
from util import (SMALL_CATEGORIES, _coend_by_union_find, cone_oracle,
                  nat_trans_oracle, pairing_profunctor, random_concrete_category,
                  random_nonempty_presheaf, random_presheaf, random_profunctor,
                  wedge_oracle)


# The end of a bifunctor, which only these tests read: the library reaches
# ends through nat_trans_set, the end formula for presheaf homs.

@dataclass
class EndResult:
    families: tuple             # tuples of diagonal picks, base object order


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
    families = _families(domains, equations, "end")
    return EndResult(tuple(tuple(fam[slot[a]] for a in c.objects)
                           for fam in families))


def test_finset_limit_oracles():
    assert len(finset_limit(PRESHEAVES["collapse.Two"]).apex) == 1
    assert len(finset_limit(PRESHEAVES["groupCospan"]).apex) == 4  # pullback 2x2
    assert len(finset_limit(PRESHEAVES["free.Z2"]).apex) == 0      # no fixed point
    assert len(finset_limit(PRESHEAVES["triv2.Z2"]).apex) == 2
    assert len(finset_limit(PRESHEAVES["zero.Two"]).apex) == 0
    assert len(finset_limit(PRESHEAVES["zero.Empty"]).apex) == 1   # empty product


def test_finset_colimit_oracles():
    assert len(finset_colimit(PRESHEAVES["collapse.Two"]).classes) == 2
    assert len(finset_colimit(PRESHEAVES["groupCospan"]).classes) == 1
    assert len(finset_colimit(PRESHEAVES["free.Z2"]).classes) == 1  # one orbit
    assert len(finset_colimit(PRESHEAVES["triv2.Z2"]).classes) == 2
    assert len(finset_colimit(PRESHEAVES["zero.Empty"]).classes) == 0


def test_limit_cone_is_pointwise_projection():
    res = finset_limit(PRESHEAVES["groupCospan"])
    base = PRESHEAVES["groupCospan"].base
    for fam in res.apex:
        assert len(fam) == len(base.objects)


def test_end_of_hom_module_is_center():
    assert len(end(id_module(M)).families) == 2
    assert len(end(id_module(Z2)).families) == 2
    assert len(end(id_module(Z3)).families) == 3
    assert len(end(id_module(Two)).families) == 1
    assert len(end(id_module(Span)).families) == 1


def test_coend_of_hom_module():
    assert len(coend(id_module(Two)).classes) == 2
    assert len(coend(id_module(Z2)).classes) == 2   # conjugacy classes
    assert len(coend(id_module(M)).classes) == 2
    got = coend(id_module(Two))
    assert got.find("0", "id0") in got.classes


def test_end_requires_matching_endpoints():
    with pytest.raises(MalformedTable):
        end(corpus.example82)


def test_nat_trans_set_counts():
    y0, y1 = PRESHEAVES["Y.Two.0"], PRESHEAVES["Y.Two.1"]
    assert len(nat_trans_set(y0, y1)) == 1
    assert len(nat_trans_set(y1, y0)) == 0
    free, triv = PRESHEAVES["free.Z2"], PRESHEAVES["triv2.Z2"]
    assert len(nat_trans_set(free, free)) == 2
    assert len(nat_trans_set(triv, free)) == 0
    assert len(nat_trans_set(free, triv)) == 2
    assert len(nat_trans_set(PRESHEAVES["zero.Two"], y0)) == 1


def test_nat_trans_set_budget(monkeypatch):
    big = PRESHEAVES["Y.GSet.GG"]
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 3)
    with pytest.raises(BudgetExceeded):
        nat_trans_set(big, big)


def test_family_searches_match_brute_force_in_order():
    rng = random.Random(23)
    for i in range(150):
        cat = rng.choice(SMALL_CATEGORIES)
        p = random_presheaf(rng, cat, f"p{i}")
        q = random_presheaf(rng, cat, f"q{i}")
        assert [n.frozen() for n in nat_trans_set(p, q)] == nat_trans_oracle(p, q)
        lim = finset_limit(q)
        assert list(lim.apex) == cone_oracle(q)
        h = random_profunctor(rng, cat, cat, f"h{i}")
        assert list(end(h).families) == wedge_oracle(h)
    for cat in corpus.CATEGORIES.values():
        assert list(end(id_module(cat)).families) == wedge_oracle(id_module(cat))


def f3():
    """All functions between sets of size 1, 2 and 3."""
    carriers = {str(n): tuple(f"x{i}" for i in range(n)) for n in (1, 2, 3)}
    return corpus.concrete_category(
        "F3", carriers, {(s, t): corpus.all_function_tables(carriers[s], carriers[t])
                         for s in carriers for t in carriers})


def test_nat_trans_set_node_count_is_pinned(monkeypatch):
    """Nat(y3, y3) on F3, its 27 endomorphisms of 3.  The search visited
    21,909 nodes when every non-identity morphism gave equations and every
    slot opened its whole domain; the equations of ``_nat_gens(F3)`` alone,
    each forcing its later slot to one value, visit 2,361."""
    y3 = yoneda_embed(f3(), "3")
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 2360)
    with pytest.raises(BudgetExceeded, match="nat_trans_set"):
        nat_trans_set(y3, y3)
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 2361)
    assert len(nat_trans_set(y3, y3)) == 27


def test_family_search_is_not_bounded_by_the_recursion_limit():
    n = 3000
    many = Presheaf("many", I, {"*": tuple(range(n))}, {"id": {x: x for x in range(n)}})
    one = Presheaf("one", I, {"*": (0,)}, {"id": {0: 0}})
    assert [t.frozen() for t in nat_trans_set(many, one)] == [((0,) * n,)]


def test_every_search_counts_against_the_one_default_budget(monkeypatch):
    big = PRESHEAVES["Y.GSet.GG"]
    searches = [
        ("nat_trans_set", lambda: nat_trans_set(big, big)),
        ("finset_limit", lambda: finset_limit(yoneda_embed(corpus.FinSet12, "2"))),
        ("end", lambda: end(id_module(corpus.GSet))),
        ("functor enumeration", lambda: all_functors(corpus.GSet, corpus.GSet)),
        ("presheaf isomorphism", lambda: presheaf_isomorphic(big, big)),
        ("category isomorphism", lambda: find_isomorphism(corpus.GSet, corpus.GSet)),
        ("functor enumeration",
         lambda: phi_closure_bounded(corpus.WEIGHT_CLASSES["splitting"], Two)),
        ("nat_trans_set", lambda: right_lift(id_module(M), id_module(M))),
    ]
    for _, run in searches:
        run()
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 3)
    for name, run in searches:
        with pytest.raises(BudgetExceeded, match=name):
            run()


def test_weighted_limit_by_representable_is_evaluation():
    for name, p in sorted(PRESHEAVES.items()):
        cat = p.base
        if len(cat.objects) > 3 or not cat.objects:
            continue
        for b in cat.objects:
            res = weighted_limit(yoneda_embed(cat, b), p)
            assert res.size == len(p.sets[b]), (name, b)


def test_weighted_colimit_by_representable_is_evaluation():
    for cat in (Two, Span, M, Z2, Chain3):
        for b in cat.objects:
            s = corpus.covariant_hom(cat, b)
            for c in cat.objects:
                # Y_c * Hom(b, -) should be Hom(b, c) by coYoneda
                res = weighted_colimit(yoneda_embed(cat, c), s)
                assert res.size == len(cat.hom(b, c)), (cat.name, b, c)


def test_weighted_colimit_matches_pairing_coend():
    """The coend read off phi (x) S on demand equals the coend of the validated
    pairing profunctor (same classes, same class of every tag) and a plain
    union-find over that profunctor, on 270 derandomized cases: 30 per small
    category, value sets of size 0 to 3.  An el(phi) passed in by the caller
    gives the same classes and lookups as one built inside."""
    with_empty = 0
    for i in range(270):
        rng = random.Random(i)
        cat = SMALL_CATEGORIES[i % len(SMALL_CATEGORIES)]
        phi = random_presheaf(rng, cat, f"w{i}")
        s = random_presheaf(rng, cat.op(), f"d{i}")
        with_empty += not all(phi.sets.values()) or not all(s.sets.values())
        res = weighted_colimit(phi, s)
        shared = weighted_colimit(phi, s, _el=core.category_of_elements(phi))
        assert shared.classes == res.classes
        assert shared.coend == res.coend and shared.conical == res.conical
        h = pairing_profunctor(phi, s)
        ref = coend(h)
        assert res.classes == ref.classes
        assert res.coend == ref     # the same classes and class of every tag
        classes, lookup = _coend_by_union_find(h)
        assert res.classes == classes
        for k in cat.objects:
            for x in phi.sets[k]:
                for y in s.sets[k]:
                    assert res.inject(k, x, y) == lookup[(k, (x, y))]
    assert with_empty >= 50


def test_weighted_colimit_refuses_a_foreign_el():
    """An el(phi) of another weight that misses elements of phi leaves classes
    of both routes unvisited; the cross-check must raise rather than compare
    nothing.  The weight's own el gives the usual answer."""
    checked = 0
    for i in range(40):
        rng = random.Random(i)
        cat = SMALL_CATEGORIES[i % len(SMALL_CATEGORIES)]
        phi = random_nonempty_presheaf(rng, cat, f"w{i}")
        s = random_nonempty_presheaf(rng, cat.op(), f"d{i}")
        res = weighted_colimit(phi, s)
        if not res.classes:
            continue
        own = weighted_colimit(phi, s, _el=core.category_of_elements(phi))
        assert own.coend == res.coend and own.conical == res.conical
        for foreign in (delta0(cat), PRESHEAVES["zero.Empty"]):
            with pytest.raises(InternalMismatch):
                weighted_colimit(phi, s, _el=core.category_of_elements(foreign))
        checked += 1
    assert checked >= 30
    # an el holding elements that phi lacks, and an el over another base
    # whose objects are phi's elements, are refused before the elements route
    with pytest.raises(InternalMismatch):
        weighted_colimit(delta0(Two), delta1(Two.op()),
                         _el=core.category_of_elements(delta1(Two)))
    with pytest.raises(InternalMismatch):
        weighted_colimit(delta1(Two), delta1(Two.op()),
                         _el=core.category_of_elements(delta1(Par)))


def _merge_two_classes(res):
    if len(res.classes) < 2:
        return None
    keep, gone = res.classes[:2]
    lookup = {tag: keep if r == gone else r for tag, r in res.lookup.items()}
    return ColimitResult(tuple(c for c in res.classes if c != gone), lookup)


def _split_one_class(res):
    for tag, r in res.lookup.items():
        if r != tag:
            return ColimitResult(res.classes + (tag,), {**res.lookup, tag: tag})
    return None


@pytest.mark.parametrize("change", [_merge_two_classes, _split_one_class])
def test_weighted_colimit_rejects_a_conical_route_that_disagrees(monkeypatch, change):
    rng = random.Random(3)
    checked = 0
    for i in range(40):
        cat = rng.choice(SMALL_CATEGORIES)
        phi = random_presheaf(rng, cat, f"w{i}")
        s = random_presheaf(rng, cat.op(), f"d{i}")
        if change(weighted_colimit(phi, s).conical) is None:
            continue
        with monkeypatch.context() as m:
            m.setattr(limits, "finset_colimit",
                      lambda diagram: change(finset_colimit(diagram)))
            with pytest.raises(InternalMismatch):
                weighted_colimit(phi, s)
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("route, change, message", [
    ("finset_limit", lambda res: limits.LimitResult(res.apex[1:]),
     "weighted_limit routes disagree: 2 vs 1"),
    ("finset_limit", lambda res: limits.LimitResult(res.apex + (("extra",),)),
     "weighted_limit routes disagree: 2 vs 3"),
    ("nat_trans_set", lambda nats: nats + nats[:1],
     "weighted_limit: end route not jointly injective")])
def test_weighted_limit_names_the_route_that_fails(monkeypatch, route, change, message):
    """A family one route lacks, or a family the end route lists twice, is
    named in the message of the old per-family loop."""
    phi, t = PRESHEAVES["Y.Two.0"], PRESHEAVES["YplusY.Two"]
    assert weighted_limit(phi, t).size == 2
    real = getattr(limits, route)
    monkeypatch.setattr(limits, route, lambda *args: change(real(*args)))
    with pytest.raises(InternalMismatch, match=f"^{message}$"):
        weighted_limit(phi, t)


def test_weighted_limit_both_routes_sampled():
    rng = random.Random(11)
    ran = 0
    for i in range(20):
        cat = rng.choice(SMALL_CATEGORIES)
        if not cat.objects:
            continue
        phi = random_presheaf(rng, cat, f"w{i}", 2)
        t = random_presheaf(rng, cat, f"t{i}", 2)
        res = weighted_limit(phi, t)   # cross-checks end vs elements internally
        assert res.size == len(res.transforms)
        assert len(res.pairing) == res.size
        ran += 1
    assert ran >= 15


def test_colimit_in_category_pushouts_in_group():
    phi = corpus.one_Span
    for s in all_functors(Span, Z2):
        got = colimit_in_category(phi, s)
        assert got is not None
        assert got.apex == "*"


def test_preservation_needs_a_universal_cocone_not_just_hom_sizes():
    # the coproduct 1 + 2 = 0 in Cospan sent to FinSet12 with 0 -> 2 and
    # 1, 2 -> 1: hom sizes out of the image apex always match, and only the
    # functor separating the legs l and r keeps the cocone universal
    phi = corpus.PRESHEAVES["one.Disc2"]
    s = next(t for t in all_functors(Disc2, corpus.Cospan)
             if t.obj_map == {"0": "1", "1": "2"})
    colim = colimit_in_category(phi, s)
    assert colim.apex == "0"
    verdicts = {}
    for f in all_functors(corpus.Cospan, corpus.FinSet12):
        if f.obj_map == {"0": "2", "1": "1", "2": "1"}:
            res = preserves_weighted_colimit(f, phi, s, colim)
            verdicts[(f.mor("l"), f.mor("r"))] = (res.preserved, res.reason)
    bad = (False, "transported cocone not universal")
    assert verdicts == {("1>2:x", "1>2:x"): bad, ("1>2:x", "1>2:y"): (True, ""),
                        ("1>2:y", "1>2:x"): (True, ""), ("1>2:y", "1>2:y"): bad}


def _is_universal_cocone_oracle(phi, s, c, cocone, frozen):
    """The former body of limits._is_universal_cocone: frozen[a] is the set of
    frozen transformations phi -> Hom(S-, a)."""
    cat = s.target
    for a in cat.objects:
        seen = set()
        for g in cat.hom(c, a):
            image = _freeze(phi, lambda j, x: cat.compose(g, cocone[j][x]))
            if image in seen:
                return False
            seen.add(image)
        if seen != frozen[a]:
            return False
    return True


def _corepresentation_oracle(phi, s):
    """Nat(phi, Hom(S-, a)) and its frozen forms, as colimit_in_category and
    preserves_weighted_colimit each computed them."""
    nats = {a: nat_trans_set(phi, limits.hom_diagram(s, a)) for a in s.target.objects}
    return nats, {a: {n.frozen() for n in nats[a]} for a in nats}


def _colimit_in_category_oracle(phi, s):
    cat = s.target
    nats, frozen = _corepresentation_oracle(phi, s)
    for c in cat.objects:
        if any(len(cat.hom(c, a)) != len(nats[a]) for a in cat.objects):
            continue
        for eta in nats[c]:
            if _is_universal_cocone_oracle(phi, s, c, eta.components, frozen):
                return c, {k: {x: eta.components[k][x] for x in phi.sets[k]}
                           for k in phi.base.objects}
    return None


def _preserves_oracle(f, phi, s, colim):
    fs = compose_functors(f, s)
    cat = fs.target
    nats, frozen = _corepresentation_oracle(phi, fs)
    apex2 = f.obj(colim.apex)
    cocone2 = {k: {x: f.mor(m) for x, m in colim.cocone[k].items()}
               for k in phi.base.objects}
    if all(len(cat.hom(apex2, a)) == len(nats[a]) for a in cat.objects) and \
            _is_universal_cocone_oracle(phi, fs, apex2, cocone2, frozen):
        return True, ""
    if _colimit_in_category_oracle(phi, fs) is None:
        return False, "colimit missing in target"
    return False, "transported cocone not universal"


def _universality_verdicts(phi, s, functors):
    """Compare the corepresentation search with the oracles on the diagram s:
    every candidate cocone, the colimit found, and its preservation by each
    functor.  Returns the verdicts on the candidates and on preservation."""
    cocones = limits._cocones(phi, s)
    nats, frozen = _corepresentation_oracle(phi, s)
    assert list(cocones) == list(nats)
    assert all([n.frozen() for n in cocones[a].values()] == [n.frozen() for n in nats[a]]
               for a in nats)
    verdicts = []
    for c in s.target.objects:
        for eta in nats[c]:
            got = limits._is_universal_cocone(phi, s, c, eta.components, cocones)
            assert got == _is_universal_cocone_oracle(phi, s, c, eta.components, frozen)
            verdicts.append(got)
    colim = colimit_in_category(phi, s)
    want = _colimit_in_category_oracle(phi, s)
    assert (None if colim is None else (colim.apex, colim.cocone)) == want
    for f in functors if colim is not None else ():
        res = preserves_weighted_colimit(f, phi, s, colim)
        verdict = (res.preserved, res.reason)
        assert verdict == _preserves_oracle(f, phi, s, colim), (phi.name, f.name)
        verdicts.append(verdict)
    return verdicts


# two isomorphic objects, so that the lowest object index decides the apex
_ISO2 = FinCategory("Iso2", ["0", "1"],
                    [("1_0", "0", "0"), ("1_1", "1", "1"), ("f", "0", "1"), ("g", "1", "0")],
                    {"0": "1_0", "1": "1_1"},
                    {("1_0", "1_0"): "1_0", ("1_1", "1_1"): "1_1", ("f", "1_0"): "f",
                     ("1_1", "f"): "f", ("g", "1_1"): "g", ("1_0", "g"): "g",
                     ("g", "f"): "1_0", ("f", "g"): "1_1"})
_TARGETS = [Two, Disc2, Span, corpus.Cospan, Par, M, Z2, Chain3, corpus.QM, _ISO2]


def test_universal_cocones_match_the_oracles_on_the_corpus():
    """Every weight of the corpus weight classes, every diagram of its shape
    in small corpus categories, and the first functors out of each."""
    weights = {p.name: p for wc in corpus.WEIGHT_CLASSES.values() for p in wc.weights}
    verdicts = []
    for phi in weights.values():
        for cat in _TARGETS:
            functors = [f for d in _TARGETS for f in all_functors(cat, d, cap=2)]
            for s in all_functors(phi.base, cat, cap=12):
                verdicts += _universality_verdicts(phi, s, functors)
    for want in (True, False, (True, ""), (False, "colimit missing in target"),
                 (False, "transported cocone not universal")):
        assert want in verdicts
    assert validate(_ISO2).ok
    assert colimit_in_category(corpus.PRESHEAVES["zero.Empty"],
                               all_functors(Empty, _ISO2)[0]).apex == "0"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.sampled_from(SMALL_CATEGORIES[:6]))
def test_universal_cocones_match_the_oracles_on_random_categories(seed, shape):
    rng = random.Random(seed)
    cat = random_concrete_category(rng, "A", max_nonid=6)
    other = random_concrete_category(rng, "X", max_nonid=6)
    phi = random_presheaf(rng, shape, "w", max_size=2)
    functors = all_functors(cat, other, cap=3)
    for s in all_functors(shape, cat, cap=6):
        _universality_verdicts(phi, s, functors)


def test_a_cocone_that_is_not_natural_is_an_internal_fault():
    """Composing with a cocone that breaks naturality leaves the natural
    families, which only a category or functor breaking its laws can cause;
    it raises instead of reading as "not universal"."""
    phi = corpus.one_Span
    s = next(t for t in all_functors(Span, Z2) if t.mor("l") == t.mor("r") == "1")
    cocone = {"0": {"*": "g"}, "1": {"*": "1"}, "2": {"*": "1"}}
    with pytest.raises(InternalMismatch, match=r"^composite left Nat\(phi, Hom\(S-, a\)\)$"):
        limits._is_universal_cocone(phi, s, "*", cocone, limits._cocones(phi, s))
    assert _is_universal_cocone_oracle(phi, s, "*", cocone, {
        a: set(cocones) for a, cocones in limits._cocones(phi, s).items()}) is False


def test_colimit_in_category_absent():
    # M has no initial object
    t = all_functors(Empty, M)[0]
    assert colimit_in_category(delta0(Empty), t) is None
    # Two has one: the source
    t2 = all_functors(Empty, Two)[0]
    got = colimit_in_category(delta0(Empty), t2)
    assert got is not None and got.apex == "0"


def test_colimit_in_category_skips_a_candidate_with_matching_hom_sizes():
    # c and p both have two maps into each object, and p -> c exists, but c is
    # not isomorphic to p: every non-identity composite is a constant (u, v,
    # f0 or s0), so precomposing with either f sends both s0 and s1 to v
    homs = {("c", "c"): ["1c", "u"], ("p", "c"): ["f0", "f1"],
            ("c", "p"): ["s0", "s1"], ("p", "p"): ["1p", "v"]}
    constant = {"c": {"c": "u", "p": "s0"}, "p": {"c": "f0", "p": "v"}}
    morphisms = [(m, a, b) for (a, b), ms in homs.items() for m in ms]
    ids = ("1c", "1p")
    compose = {(g, f): g if f in ids else f if g in ids else constant[fs][gt]
               for g, gs, gt in morphisms for f, fs, ft in morphisms if ft == gs}
    t = FinCategory("C2", ["c", "p"], morphisms, {"c": "1c", "p": "1p"}, compose)
    assert validate(t).ok
    pick_p = FinFunctor("pick p", I, t, {"*": "p"}, {"id": "1p"})
    got = colimit_in_category(delta1(I), pick_p)
    assert got is not None
    assert (got.apex, got.cocone) == ("p", {"*": {"*": "1p"}})


def test_limit_in_category_terminal_objects():
    """A limit in a category is the colimit of the opposite diagram, in the
    opposite category."""
    t = all_functors(Empty, Two)[0]
    got = colimit_in_category(delta0(Empty), t.op())
    assert got is not None and got.apex == "1"
    tm = all_functors(Empty, M)[0]
    assert colimit_in_category(delta0(Empty), tm.op()) is None


def test_limit_in_category_no_binary_products_in_M():
    t = all_functors(Disc2, M)[0]
    assert colimit_in_category(delta1(Disc2), t.op()) is None
    # but the 3-chain has them: meets
    for t2 in all_functors(Disc2, Chain3):
        got = colimit_in_category(delta1(Disc2), t2.op())
        assert got is not None
        assert got.apex == min(t2.obj("0"), t2.obj("1"))


def test_conical_colimit_matches_finset_route():
    # Delta1-weighted colimit of a covariant diagram equals its plain colimit
    rng = random.Random(23)
    for i in range(10):
        cat = rng.choice([c for c in SMALL_CATEGORIES if c.objects])
        s = random_presheaf(rng, cat.op(), f"s{i}")
        res = weighted_colimit(delta1(cat), s)
        assert res.size == len(finset_colimit(s).classes)


def test_conical_limit_matches_finset_route():
    rng = random.Random(29)
    for i in range(10):
        cat = rng.choice([c for c in SMALL_CATEGORIES if c.objects])
        t = random_presheaf(rng, cat, f"t{i}")
        res = weighted_limit(delta1(cat), t)
        assert res.size == len(finset_limit(t).apex)


# ---------------------------------------------------------------------------
# quotients on a generating set of morphisms, against every morphism's pairs


@contextlib.contextmanager
def _every_morphism():
    """Quotients as they were before they read ``core._gens`` only: the pairs
    of every morphism for ``finset_colimit`` and ``coend``, and every
    non-identity move for ``compose_modules``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(limits, "_gens", lambda c: c.morphisms)
        patch.setattr(profunctor, "_gens", lambda c: tuple(
            u for u in c.morphisms if not c.is_identity(u)))
        yield


def _quotient_digest(res):
    """Classes and lookup of a ColimitResult, both in order."""
    return res.classes, list(res.lookup.items())


def _composite_digest(comp):
    """Cells, action tables and each cell's classes and lookup, in order."""
    return (list(comp.sets.items()),
            [(k, list(t.items())) for k, t in comp.left.items()],
            [(k, list(t.items())) for k, t in comp.right.items()],
            [(k, _quotient_digest(co)) for k, co in comp.coends.items()])


def _assert_same_as_every_morphism(compute, digest=_quotient_digest):
    got = digest(compute())
    with _every_morphism():
        assert got == digest(compute())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_quotients_match_every_morphism_pairs_on_random_categories(seed):
    """finset_colimit on a random concrete category and its opposite, both
    routes of a weighted colimit, and module composites through the category
    and through I: the same classes and lookups, in order, as the pairs of
    every morphism give.  Half the categories are validated first, so their
    set is the one ``validate`` keeps."""
    rng = random.Random(seed)
    cat = random_concrete_category(rng, f"R{seed}", max_nonid=5)
    if rng.random() < 0.5:
        assert validate(cat).ok
    phi = random_presheaf(rng, cat, "phi")
    s = random_presheaf(rng, cat.op(), "s")
    for p in (phi, s):
        _assert_same_as_every_morphism(lambda: finset_colimit(p))
    el, proj = core.category_of_elements(phi)
    _assert_same_as_every_morphism(lambda: finset_colimit(core._pullback(proj, s)))
    _assert_same_as_every_morphism(lambda: coend(limits._Pairing(phi, s)))
    _assert_same_as_every_morphism(lambda: coend(pairing_profunctor(phi, s)))
    weight = module_of_weight(phi)
    coweight = _transpose(module_of_weight(s))
    for g, f in [(coweight, weight), (weight, coweight), (id_module(cat), weight)]:
        _assert_same_as_every_morphism(lambda: compose_modules(g, f), _composite_digest)


def _corpus_colimit_pairs():
    """(phi, s) for each corpus weight phi on K and each diagram s on K^op
    among the conical delta1 and the covariant homs K(b, -)."""
    for phi in PRESHEAVES.values():
        k = phi.base
        yield phi, delta1(k.op())
        for b in k.objects:
            yield phi, corpus.covariant_hom(k, b)


def test_weighted_colimit_routes_match_every_morphism_pairs_on_the_corpus():
    """Both routes of every corpus pair: the conical colimit of s pulled back
    to el(phi), whose set is read off phi's base, and the coend of phi (x) s."""
    pairs = list(_corpus_colimit_pairs())
    assert len(pairs) == 227
    for phi, s in pairs:
        _, proj = core.category_of_elements(phi)
        _assert_same_as_every_morphism(lambda: finset_colimit(core._pullback(proj, s)))
        _assert_same_as_every_morphism(lambda: coend(limits._Pairing(phi, s)))


def test_compose_modules_matches_every_move_on_adjoint_composites():
    """The 110 composites that has_right_adjoint builds on the corpus weights,
    g.f on each and f.g on the 42 with an invertible comparison."""
    built = []
    compose = profunctor.compose_modules
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(profunctor, "compose_modules",
                      lambda g, f: built.append((g, f)) or compose(g, f))
        for phi in PRESHEAVES.values():
            has_right_adjoint(module_of_weight(phi))
    assert len(built) == 110
    for g, f in built:
        _assert_same_as_every_morphism(lambda: compose_modules(g, f), _composite_digest)


def _unlawful_two(f_after_ia):
    """0 -> 1 with two parallel morphisms f and g, lawful but for the
    composite f . ia, which is f_after_ia, or missing when that is None."""
    compose = {("ia", "ia"): "ia", ("ib", "ib"): "ib", ("ib", "f"): "f",
               ("g", "ia"): "g", ("ib", "g"): "g"}
    if f_after_ia is not None:
        compose[("f", "ia")] = f_after_ia
    return FinCategory("Par?", ["0", "1"], [("ia", "0", "0"), ("ib", "1", "1"),
                                            ("f", "0", "1"), ("g", "0", "1")],
                       {"0": "ia", "1": "ib"}, compose)


def _split_by_f_and_g(cat):
    """c over 1 sent to a by f and to b by g: one class along both."""
    return Presheaf("P", cat, {"0": ("a", "b"), "1": ("c",)},
                    {"ia": {"a": "a", "b": "b"}, "ib": {"c": "c"},
                     "f": {"c": "a"}, "g": {"c": "b"}})


def test_quotients_over_an_unlawful_base():
    """A lawful base is the precondition of the quotients.  A missing
    composite raises MalformedTable naming it, where the pairs of every
    morphism gave an answer.  A wrong identity composite, f . ia = g, gives
    the quotient along ``_gens``, here f alone, since f . ia reaches g: the
    pair of g is not read, so (0, b) is a class of its own, where the pairs
    of every morphism give one class."""
    missing = _unlawful_two(None)
    p = _split_by_f_and_g(missing)
    s = delta1(missing.op())
    with _every_morphism():
        assert finset_colimit(p).classes == (("0", "a"),)
    for compute in (lambda: finset_colimit(p), lambda: coend(pairing_profunctor(p, s)),
                    lambda: weighted_colimit(p, s),
                    lambda: compose_modules(_transpose(module_of_weight(s)),
                                            module_of_weight(p))):
        with pytest.raises(MalformedTable, match=r"compose\('f', 'ia'\) undefined"):
            compute()
    wrong = _unlawful_two("g")
    assert [v.law for v in validate(wrong).violations] == ["identity-right"]
    assert core._gens(wrong) == ("f",)
    p = _split_by_f_and_g(wrong)
    assert _quotient_digest(finset_colimit(p)) == (
        (("0", "a"), ("0", "b")),
        [(("0", "a"), ("0", "a")), (("0", "b"), ("0", "b")), (("1", "c"), ("0", "a"))])
    with _every_morphism():
        assert finset_colimit(p).classes == (("0", "a"),)


# ---------------------------------------------------------------------------
# natural families with forced slots, on a generating set of morphisms,
# against the forcing-free search over every non-identity morphism


def _families_unforced(domains, equations, distinct=None, first=False):
    """(families, nodes) of ``core._families`` as it was before forced
    slots: every equation is checked once its later slot is assigned, and
    every slot tries its whole domain."""
    nodes = 0
    checks = [[] for _ in domains]
    for p, q, table in equations:
        checks[max(p, q)].append((p, q, table))
    unique = distinct is not None
    if unique:
        labels = {label: set() for label in distinct}
        held = [labels[label] for label in distinct]
    val = [None] * len(domains)
    out, tries, k = [], [], 0
    while k >= 0:
        if k == len(domains):
            out.append(tuple(val))
            if first:
                break
            k -= 1
            continue
        if len(tries) == k:
            if not first:
                nodes += len(domains[k])
            tries.append(iter(domains[k]))
        elif unique:
            held[k].discard(val[k])
        for v in tries[k]:
            if unique and v in held[k]:
                continue
            if first:
                nodes += 1
            val[k] = v
            if all(val[q] == table[val[p]] for p, q, table in checks[k]):
                if unique:
                    held[k].add(v)
                k += 1
                break
        else:
            tries.pop()
            k -= 1
    return out, nodes


def _nat_trans_oracle(source, target):
    """(frozen forms, nodes) of ``nat_trans_set`` as it was before it read
    ``_nat_gens``: one equation per non-identity morphism f and x in
    source(tgt f), solved without forced slots."""
    c = source.base
    slots = [(a, x) for a in c.objects for x in source.sets[a]]
    pos = {s: i for i, s in enumerate(slots)}
    equations = [(pos[(c.tgt[f], x)], pos[(c.src[f], source.act(f, x))],
                  target.actions[f])
                 for f in c.morphisms if not c.is_identity(f)
                 for x in source.sets[c.tgt[f]]]
    families, nodes = _families_unforced([target.sets[a] for a, _ in slots], equations)
    cuts = list(itertools.accumulate(len(source.sets[a]) for a in c.objects))
    return [tuple(fam[i - len(source.sets[a]):i] for a, i in zip(c.objects, cuts))
            for fam in families], nodes


def _assert_nat_trans_set_matches_the_oracle(source, target):
    """The same frozen forms, in order, within the oracle's node count."""
    want, nodes = _nat_trans_oracle(source, target)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "DEFAULT_BUDGET", nodes)
        got = [n.frozen() for n in nat_trans_set(source, target)]
    assert got == want, (source.name, target.name)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_nat_trans_set_matches_every_morphism_unforced_on_random_categories(seed):
    """Random concrete categories, half of them validated first, so that
    ``nat_trans_set`` reads the set that ``validate`` keeps."""
    rng = random.Random(seed)
    cat = random_concrete_category(rng, f"R{seed}", max_nonid=5)
    if rng.random() < 0.5:
        assert validate(cat).ok
    ps = [random_presheaf(rng, cat, f"p{i}") for i in range(3)]
    for p in ps:
        for q in ps:
            _assert_nat_trans_set_matches_the_oracle(p, q)


def test_nat_trans_set_matches_every_morphism_unforced_on_corpus_pairs():
    presheaves = sorted(PRESHEAVES.values(), key=lambda p: p.name)
    pairs = [(p, q) for p in presheaves for q in presheaves if p.base is q.base]
    assert len(pairs) == 340
    for p, q in pairs:
        _assert_nat_trans_set_matches_the_oracle(p, q)


@st.composite
def _equation_systems(draw):
    """Slots over domains drawn from a few shared tuples of distinct values
    in range(4), so that slots share domains; equations with p < q, p == q
    and p > q whose tables may leave the later slot's domain; optional
    ``distinct`` labels and ``first``."""
    pool = draw(st.lists(st.lists(st.integers(0, 3), max_size=4, unique=True)
                         .map(tuple), min_size=1, max_size=3))
    n = draw(st.integers(0, 6))
    domains = [draw(st.sampled_from(pool)) for _ in range(n)]
    equations = []
    if n:
        for _ in range(draw(st.integers(0, 2 * n))):
            p, q = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            table = {x: draw(st.integers(0, 3)) for x in range(4)}
            equations.append((p, q, table))
    distinct = draw(st.one_of(st.none(), st.lists(st.integers(0, 1), min_size=n,
                                                  max_size=n)))
    return domains, equations, distinct, draw(st.booleans())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_equation_systems())
def test_forced_slots_match_the_unforced_search(system):
    """The same list, in order, as the forcing-free copy, and never more
    nodes: the search finishes within the copy's node count."""
    domains, equations, distinct, first = system
    want, nodes = _families_unforced(domains, equations, distinct, first)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "DEFAULT_BUDGET", nodes)
        got = _families(domains, equations, "families", distinct, first)
    assert got == want


def test_nat_trans_set_over_an_unlawful_base():
    """A lawful base with functorial presheaves is the precondition of
    ``nat_trans_set``.  A base missing a composite raises MalformedTable
    naming it, through ``_gens``.  On a presheaf that is not functorial the
    answer is the families natural at each morphism of ``_nat_gens(base)``: on
    Chain3, with 0<=2 acting as neither composite would, the component at 0
    may send b anywhere, where every morphism's equations pinned it."""
    missing = _unlawful_two(None)
    p = _split_by_f_and_g(missing)
    with pytest.raises(MalformedTable, match=r"compose\('f', 'ia'\) undefined"):
        nat_trans_set(p, p)
    bent = Presheaf("bent", Chain3, {"0": ("a", "b"), "1": ("c",), "2": ("d",)},
                    {"0<=0": {"a": "a", "b": "b"}, "1<=1": {"c": "c"},
                     "2<=2": {"d": "d"}, "0<=1": {"c": "a"}, "1<=2": {"d": "c"},
                     "0<=2": {"d": "b"}})
    assert [v.law for v in validate(bent).violations] == ["composition-action"]
    assert core._nat_gens(Chain3) == ("0<=1", "1<=2")
    assert [n.frozen() for n in nat_trans_set(bent, bent)] == [
        (("a", "a"), ("c",), ("d",)), (("a", "b"), ("c",), ("d",))]
    assert _nat_trans_oracle(bent, bent)[0] == [(("a", "b"), ("c",), ("d",))]


def _order_021():
    """The order 0 <= 2 <= 1, objects listed 0, 1, 2: the composite 0<=1
    factors only through 2, which comes after both of its ends."""
    cat = corpus.poset_category("V", ["0", "1", "2"], lambda x, y: (x, y) in {
        ("0", "0"), ("1", "1"), ("2", "2"), ("0", "2"), ("2", "1"), ("0", "1")})
    p = Presheaf("P", cat, {"0": ("a0", "a1"), "1": ("c",), "2": ("d0", "d1")},
                 {"0<=0": {"a0": "a0", "a1": "a1"}, "1<=1": {"c": "c"},
                  "2<=2": {"d0": "d0", "d1": "d1"}, "0<=1": {"c": "a1"},
                  "0<=2": {"d0": "a0", "d1": "a1"}, "2<=1": {"c": "d1"}})
    return p, ("0<=2", "2<=1"), ("0<=1", "0<=2", "2<=1")


def _swap_after_a_point():
    """f, h: 0 -> 1 and an involution g of 1 with g . f = h: h factors only
    through 1, its later end, and x0 . g = x1 comes after z after x0."""
    cat = FinCategory("Swap", ["0", "1"], [("i0", "0", "0"), ("i1", "1", "1"), ("f", "0", "1"),
                                           ("h", "0", "1"), ("g", "1", "1")],
                      {"0": "i0", "1": "i1"},
                      {("i0", "i0"): "i0", ("i1", "i1"): "i1", ("f", "i0"): "f",
                       ("h", "i0"): "h", ("i1", "f"): "f", ("i1", "h"): "h",
                       ("g", "i1"): "g", ("i1", "g"): "g", ("g", "g"): "i1",
                       ("g", "f"): "h", ("g", "h"): "f"})
    p = Presheaf("P", cat, {"0": ("y0", "y1"), "1": ("x0", "z", "x1")},
                 {"i0": {"y0": "y0", "y1": "y1"}, "i1": {"x0": "x0", "z": "z", "x1": "x1"},
                  "f": {"x0": "y0", "z": "y0", "x1": "y1"},
                  "h": {"x0": "y1", "z": "y0", "x1": "y0"},
                  "g": {"x0": "x1", "z": "z", "x1": "x0"}})
    return p, ("f", "g"), ("f", "h", "g")


@pytest.mark.parametrize("case, oracle_nodes, gens_nodes",
                         [(_order_021, 18, 22), (_swap_after_a_point, 33, 40)])
def test_nat_gens_keeps_a_composite_with_no_earlier_middle(case, oracle_nodes, gens_nodes):
    """A composite whose every factorization passes through a middle object
    no earlier than both of its ends: no generator equation decides its
    equation at its own later slot.  ``_nat_gens`` keeps it, so the search
    stays within the every-morphism count, where the equations of ``_gens``
    alone visit more nodes."""
    p, gens, kept = case()
    cat = p.base
    assert validate(cat).ok and validate(p).ok
    assert core._gens(cat) == gens
    assert core._nat_gens(cat) == kept
    assert core._nat_gens(cat.op()) == kept
    assert _nat_trans_oracle(p, p)[1] == oracle_nodes
    _assert_nat_trans_set_matches_the_oracle(p, p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(limits, "_nat_gens", core._gens)
        patch.setattr(core, "DEFAULT_BUDGET", gens_nodes - 1)
        with pytest.raises(BudgetExceeded, match="nat_trans_set"):
            nat_trans_set(p, p)
        patch.setattr(core, "DEFAULT_BUDGET", gens_nodes)
        assert len(nat_trans_set(p, p)) == 2
