import random

import pytest
from hypothesis import given, settings, strategies as st

from fincat import classes, corpus
from fincat.classes import Caps, phi_closure_bounded
from fincat.cauchy import cauchy_completion
from fincat.core import (NatTrans, Presheaf, identity_functor, same_category,
                         validate)
from fincat.corpus import (Chain3, GSet, M, QM, Span, Two, Z2, PRESHEAVES,
                           WEIGHT_CLASSES, covariant_hom)
from fincat.equivalence import all_functors, presheaf_isomorphic
from fincat.errors import InternalMismatch, MalformedTable
from fincat.kan import (PresheafCollection, lan, member_category, nerve,
                        pointwise_colimit, restrict, yoneda_bijection,
                        yoneda_embed)
from fincat.limits import hom_diagram, nat_trans_set, weighted_colimit
from util import (SMALL_CATEGORIES, kan_bijection, member_category_oracle,
                  random_concrete_category, random_presheaf)


def test_yoneda_bijection_on_fixtures():
    for name in ("E", "free.Z2", "collapse.Two", "one.N5", "Y.Span.0"):
        p = PRESHEAVES[name]
        for b in p.base.objects:
            forward, backward = yoneda_bijection(p, b)
            assert len(forward) == len(p.sets[b])
            for x, alpha in backward.items():
                assert validate(alpha).ok


def yoneda_transform(cat, f):
    """Post-composition Y(src f) -> Y(tgt f)."""
    ys, yt = yoneda_embed(cat, cat.src[f]), yoneda_embed(cat, cat.tgt[f])
    comps = {a: {h: cat.compose(f, h) for h in ys.sets[a]} for a in cat.objects}
    return NatTrans(ys, yt, comps, name=f"Y[{f!r}]")


def test_yoneda_transform_is_postcomposition():
    t = yoneda_transform(Two, "f")
    assert t.components["0"]["id0"] == "f"
    assert validate(t).ok


def test_lan_along_identity_is_isomorphic():
    rng = random.Random(3)
    for i in range(6):
        cat = rng.choice([c for c in SMALL_CATEGORIES if c.objects])
        t = random_presheaf(rng, cat.op(), f"t{i}")
        res = lan(identity_functor(cat), t)
        assert presheaf_isomorphic(res.extension, t) is not None
        for a in cat.objects:
            image = set(res.unit[a].values())
            assert len(image) == len(t.sets[a])


def test_lan_along_ff_restricts_back():
    k = corpus.embedM
    t = covariant_hom(M, "*", "T")
    res = lan(k, t)
    back = restrict(k, res.extension)
    assert presheaf_isomorphic(back, t) is not None


def test_lan_rejects_contravariant_diagram():
    with pytest.raises(MalformedTable):
        lan(corpus.orbit, PRESHEAVES["Y.GSet.G"])


def _nerve_transports(g, presheaves):
    """For each morphism m: b -> b' of g's target, post-composition with m,
    Hom(g-, b) -> Hom(g-, b')."""
    cat = g.target
    return {m: NatTrans(presheaves[cat.src[m]], presheaves[cat.tgt[m]],
                        {n: {h: cat.compose(m, h) for h in presheaves[cat.src[m]].sets[n]}
                         for n in g.source.objects}, name=f"nerve[{m!r}]")
            for m in cat.morphisms}


def test_nerve_of_the_two_point_functors():
    g0, g1 = all_functors(corpus.I, Two)
    n0 = nerve(g0)
    assert tuple(n0) == Two.objects
    assert [len(n0[b].sets["*"]) for b in Two.objects] == [1, 1]
    n1 = nerve(g1)
    assert [len(n1[b].sets["*"]) for b in Two.objects] == [0, 1]
    for g in (g0, corpus.embedM):
        for m, t in _nerve_transports(g, nerve(g)).items():
            assert validate(t).ok, (g.name, m)


def test_nerve_of_embedM_detects_the_split():
    n = nerve(corpus.embedM)
    # at se the nerve is the splitting presheaf E, at s1 the representable
    assert presheaf_isomorphic(n["se"], PRESHEAVES["E"]) is not None
    assert presheaf_isomorphic(n["s1"], PRESHEAVES["Y.M.*"]) is not None


def test_kan_bijection_fixed_instances():
    cases = [
        (corpus.orbit, covariant_hom(GSet, "G"), covariant_hom(corpus.FinSet12, "2")),
        (corpus.orbit, covariant_hom(GSet, "1"), covariant_hom(corpus.FinSet12, "1")),
        (corpus.embedM, covariant_hom(M, "*"), covariant_hom(QM, "se")),
    ]
    for k, t, s in cases:
        left, right, bijective = kan_bijection(k, t, s)
        assert bijective, (k.name, t.name, s.name, left, right)


def test_presheaf_collection_dedups_up_to_iso():
    coll = PresheafCollection.representables(M)
    assert len(coll.members) == 1
    i, added = coll.add(PRESHEAVES["E"], None)
    assert (i, added) == (1, True)
    j, added = coll.add(PRESHEAVES["one.M"], None)
    assert (j, added) == (1, False)      # isomorphic to E
    assert coll.find_isomorphic(PRESHEAVES["Y.M.*"]) == 0


def test_pointwise_colimit_of_split_idempotent_is_E():
    y = PRESHEAVES["Y.M.*"]
    e_nat = NatTrans(y, y, {"*": {"1": "e", "e": "e"}})
    got = pointwise_colimit(PRESHEAVES["E"], {"*": y},
                            {"1": NatTrans(y, y, {"*": {"1": "1", "e": "e"}}),
                             "e": e_nat}, M, "split")
    assert validate(got).ok
    assert presheaf_isomorphic(got, PRESHEAVES["E"]) is not None


def _member_table(cat, decode):
    return (cat.objects, cat.morphisms, list(cat.identity.items()),
            list(cat.compose_table.items()),
            [(mid, alpha.frozen()) for mid, alpha in decode.items()])


@pytest.mark.parametrize("cat", SMALL_CATEGORIES, ids=lambda c: c.name)
def test_member_category_matches_the_nat_compose_oracle(cat):
    """Composites on frozen forms give the table that composing full
    transformations gives: the same composites in the same order, the same
    identities and the same decode.  The members are those of one closure
    round under each weight class, which a second round would compose."""
    for wc in WEIGHT_CLASSES.values():
        coll = phi_closure_bounded(wc, cat, Caps(rounds=1, members=10)).collection
        assert (_member_table(*member_category(coll))
                == _member_table(*member_category_oracle(coll))), wc.name


def _assert_composites_match_the_oracle(coll):
    """Each composite of a new member category, asked for through compose
    in reverse all-pairs order, is the entry of the oracle's table; asking
    builds no full table.  The number of composites."""
    cat = member_category(coll)[0]
    table = member_category_oracle(coll)[0].compose_table
    for (g, f), h in reversed(table.items()):
        assert cat.compose(g, f) == h, (g, f)
    assert "compose_table" not in vars(cat)
    return len(table)


@pytest.mark.parametrize("cat", SMALL_CATEGORIES, ids=lambda c: c.name)
def test_member_composites_on_first_ask_match_the_nat_compose_oracle(cat):
    """On the members of one closure round under each weight class."""
    assert sum(_assert_composites_match_the_oracle(phi_closure_bounded(
        wc, cat, Caps(rounds=1, members=10)).collection)
        for wc in WEIGHT_CLASSES.values()) > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_member_composites_on_first_ask_match_the_oracle_on_random_categories(seed):
    """On the representables of a random concrete category and the members
    of one closure round of them under pushouts."""
    c = random_concrete_category(random.Random(seed), f"R{seed}")
    _assert_composites_match_the_oracle(PresheafCollection.representables(c))
    _assert_composites_match_the_oracle(phi_closure_bounded(
        WEIGHT_CLASSES["pushouts"], c, Caps(rounds=1, members=4)).collection)


def test_member_category_reports_a_missing_composite():
    """Y0 -> Y1 -> Y2 over the chain composes to the one transformation
    Y0 -> Y2; with that one dropped from the collection's memo of hom sets,
    the composite has nowhere to go when it is asked for, or when the whole
    table is read.  A pair that does not compose is not a composite."""
    coll = PresheafCollection.representables(Chain3)
    assert [len(nat_trans_set(coll.members[i], coll.members[j]))
            for i, j in [(0, 1), (1, 2), (0, 2)]] == [1, 1, 1]
    coll._nats[(0, 2)] = []
    cat = member_category(coll)[0]
    with pytest.raises(InternalMismatch, match="after"):
        cat.compose((1, 2, 0), (0, 1, 0))
    with pytest.raises(InternalMismatch, match="after"):
        cat.compose_table
    for g, f in [((0, 1, 0), (1, 2, 0)), ((1, 2, 0), "nope"), ("nope", (0, 1, 0))]:
        with pytest.raises(MalformedTable, match="undefined"):
            cat.compose(g, f)


def _random_kan_instances():
    """Twelve seeded (k: a -> b, t covariant on a, s covariant on b)."""
    rng = random.Random(41)
    done = 0
    attempts = 0
    while done < 12 and attempts < 300:
        attempts += 1
        a = rng.choice([Two, Span, M, Chain3, corpus.I])
        b = rng.choice([Two, M, Z2, Chain3, QM])
        functors = all_functors(a, b)
        if not functors:
            continue
        k = rng.choice(functors)
        t = random_presheaf(rng, a.op(), f"t{attempts}", 2)
        s = random_presheaf(rng, b.op(), f"s{attempts}", 2)
        yield k, t, s
        done += 1
    assert done == 12


def test_randomized_kan_adjunction_bijections():
    for k, t, s in _random_kan_instances():
        left, right, bijective = kan_bijection(k, t, s)
        assert bijective, (k.source.name, k.target.name, left, right)


def _tables(p):
    return (p.name, p.base, list(p.sets.items()),
            [(f, list(table.items())) for f, table in p.actions.items()])


def _lan_oracle(k, t):
    """lan's extension assembled by hand from its per-object colimits."""
    c_cat = k.target
    per = {}
    sets = {}
    for c in c_cat.objects:
        per[c] = weighted_colimit(hom_diagram(k, c), t)
        sets[c] = per[c].classes
    actions = {}
    for g in c_cat.morphisms:
        c, c2 = c_cat.src[g], c_cat.tgt[g]
        table = {}
        for rep in sets[c]:
            a, (h, x) = rep
            table[rep] = per[c2].inject(a, c_cat.compose(g, h), x)
        actions[g] = table
    return Presheaf(f"lan[{k.name}]({t.name})", c_cat.op(), sets, actions)


def _pointwise_colimit_oracle(phi, diagram_objs, diagram_mors, base, name,
                              _el=None):
    """pointwise_colimit assembled by hand from its per-object colimits."""
    k = phi.base
    per = {}
    for a in base.objects:
        s_a = Presheaf(f"{name}@{a!r}", k.op(),
                       {j: diagram_objs[j].sets[a] for j in k.objects},
                       {u: diagram_mors[u].components[a] for u in k.morphisms})
        per[a] = weighted_colimit(phi, s_a, _el=_el)
    sets = {a: per[a].classes for a in base.objects}
    actions = {}
    for f in base.morphisms:
        a, b = base.src[f], base.tgt[f]
        table = {}
        for rep in sets[b]:
            j, (x, s) = rep
            table[rep] = per[a].inject(j, x, diagram_objs[j].act(f, s))
        actions[f] = table
    return Presheaf(name, base, sets, actions)


def _representables_along(k):
    """j -> Hom_b(k j, -) as a diagram on a^op of presheaves on b^op."""
    b_op = k.target.op()
    objs = {j: yoneda_embed(b_op, k.obj(j)) for j in k.source.objects}
    mors = {u: yoneda_transform(b_op, k.mor(u)) for u in k.source.morphisms}
    return objs, mors


def _corpus_kan_instances():
    """Each corpus functor and the identity of each corpus category, with
    every covariant hom and every corpus presheaf covariant on its source."""
    functors = list(corpus.FUNCTORS.values()) + [
        identity_functor(c) for c in corpus.CATEGORIES.values()]
    for k in functors:
        src = k.source
        for t in [covariant_hom(src, b) for b in src.objects] + [
                p for p in PRESHEAVES.values() if same_category(p.base, src.op())]:
            yield k, t


def test_lan_and_pointwise_colimit_match_the_assembly_by_hand():
    """The extension of lan and a colimit of representables weighted by t
    have the sets and action tables, in order, of the presheaf written out
    from their per-object colimits; on the corpus and on the seeded random
    instances of the Kan bijection test.  The colimit of Hom_b(k-, =)
    weighted by t is Lan_k t, so the two are also isomorphic."""
    instances = list(_corpus_kan_instances())
    instances += [(k, t) for k, t, _ in _random_kan_instances()]
    for k, t in instances:
        ext = lan(k, t).extension
        assert _tables(ext) == _tables(_lan_oracle(k, t)), (k.name, t.name)
        objs, mors = _representables_along(k)
        name = f"rep[{k.name}]"
        got = pointwise_colimit(t, objs, mors, k.target.op(), name)
        assert _tables(got) == _tables(_pointwise_colimit_oracle(
            t, objs, mors, k.target.op(), name)), (k.name, t.name)
        assert presheaf_isomorphic(got, ext) is not None, (k.name, t.name)
    assert len(instances) > 60


@pytest.mark.parametrize("cat", [c for c in corpus.CATEGORIES.values()
                                 if len(c.objects) <= 3], ids=lambda c: c.name)
def test_closure_colimits_match_the_assembly_by_hand(cat, monkeypatch):
    """Every pointwise colimit of a two-round closure under each weight
    class, el(phi) shared, has the tables of the one written out."""
    checked = []

    def checking(phi, objs, mors, base, name, _el=None):
        got = pointwise_colimit(phi, objs, mors, base, name, _el=_el)
        assert _tables(got) == _tables(_pointwise_colimit_oracle(
            phi, objs, mors, base, name, _el=_el)), name
        checked.append(name)
        return got
    monkeypatch.setattr(classes, "pointwise_colimit", checking)
    for wc in WEIGHT_CLASSES.values():
        phi_closure_bounded(wc, cat, Caps(rounds=2, members=8))
    assert checked


def _yoneda_embed_oracle(cat, b):
    sets = {a: cat.hom(a, b) for a in cat.objects}
    actions = {f: {h: cat.compose(h, f) for h in sets[cat.tgt[f]]}
               for f in cat.morphisms}
    return Presheaf(f"Y.{cat.name}.{b}", cat, sets, actions)


@pytest.mark.parametrize("cat", list(corpus.CATEGORIES.values()) + [
    cauchy_completion(M).completion, cauchy_completion(GSet).completion],
    ids=lambda c: c.name)
def test_yoneda_embed_is_the_hom_diagram_of_the_identity(cat):
    """The representable read off hom_diagram(identity) has the name, base,
    value sets and action tables of Hom(-, b) written out, in order."""
    for b in cat.objects:
        got, want = yoneda_embed(cat, b), _yoneda_embed_oracle(cat, b)
        assert (got.name, got.base) == (want.name, cat)
        assert list(got.sets.items()) == list(want.sets.items())
        assert ([(f, list(t.items())) for f, t in got.actions.items()]
                == [(f, list(t.items())) for f, t in want.actions.items()])


def _restrict_oracle(k, s):
    sets = {a: s.sets[k.obj(a)] for a in k.source.objects}
    actions = {u: s.actions[k.mor(u)] for u in k.source.morphisms}
    return Presheaf(f"{s.name}|{k.name}", k.source.op(), sets, actions)


def test_restrict_matches_the_tables_written_out():
    rng = random.Random(11)
    checked = 0
    for b in SMALL_CATEGORIES:
        s = random_presheaf(rng, b.op(), f"s.{b.name}")
        for a in SMALL_CATEGORIES:
            for k in all_functors(a, b)[:4]:
                got, want = restrict(k, s), _restrict_oracle(k, s)
                assert (got.name, got.base) == (want.name, a.op())
                assert got.sets == want.sets and got.actions == want.actions
                checked += 1
    assert checked > 100
    with pytest.raises(MalformedTable):
        restrict(identity_functor(Two), corpus.delta1(Two))
