"""End-to-end checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (visible under pytest -s; under
pytest -v the test outcome itself is the per-guarantee line).
"""
import random

from fincat import corpus
from fincat.cauchy import (cauchy_completion, check_absolute_sampled,
                           dual_limit_colimit, dual_pair_from_weight,
                           is_small_projective, morita_equivalent, q_duality,
                           retract_oracle)
from fincat.classes import (check_commutation, flat_for_finite_limits,
                            is_phi_continuous, phi_closure_bounded)
from fincat.core import identity_functor
from fincat.corpus import (CATEGORIES, M, QM, Span, Two, Z2, PRESHEAVES,
                           WEIGHT_CLASSES, delta1, embedM, example82, orbit)
from fincat.equivalence import all_functors, find_equivalence, presheaf_isomorphic
from fincat.kan import yoneda_bijection, yoneda_embed
from fincat.limits import nat_trans_set, weighted_colimit, weighted_limit
from fincat.profunctor import has_right_adjoint, module_of_weight

from util import SMALL_CATEGORIES, karoubi_oracle, kan_bijection, random_presheaf


def _verdict(label, ok):
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def test_criterion_01_idempotent_splitting_of_the_monoid():
    qc = cauchy_completion(M, verify=True)
    grid = sorted((len(qc.completion.hom(a, b))
                   for a in qc.completion.objects
                   for b in qc.completion.objects), reverse=True)
    n, sizes = karoubi_oracle(M)
    ok = (len(qc.completion.objects) == 2 == n
          and grid == [2, 1, 1, 1] == sorted(sizes, reverse=True))
    _verdict("completion of the idempotent monoid: 2 objects, homs 2/1/1/1, "
             "matching the brute-force enumeration", ok)


def test_criterion_02_small_projectives_three_ways():
    checked = 0
    agree = True
    for name, phi in sorted(PRESHEAVES.items()):
        a = is_small_projective(phi)
        b = retract_oracle(phi) is not None
        c = has_right_adjoint(module_of_weight(phi)).found
        checked += 1
        if not (a == b == c):
            agree = False
            print(f"  disagreement on {name}: canonical {a}, retract {b}, "
                  f"adjoint {c}")
    ok = agree and checked >= 50
    _verdict(f"canonical-map, retract, and module-adjoint tests agree on "
             f"{checked} weights", ok)


def test_criterion_03_continuity_does_not_imply_flatness():
    res = check_commutation(delta1(Z2), delta1(Span), example82)
    one_z2 = PRESHEAVES["one.Z2"]
    ok = (not res.commutes
          and (res.colimit_of_limits, res.limit_of_colimits) == (2, 1)
          and is_phi_continuous(one_z2, WEIGHT_CLASSES["pushouts"])
          and not flat_for_finite_limits(one_z2))
    _verdict("group averaging: commutation fails 2 vs 1 while the weight is "
             "pushout-continuous yet not flat", ok)


def test_criterion_04_both_weighted_routes_agree_on_random_instances():
    rng = random.Random(20260825)
    ran = 0
    while ran < 100:
        cat = rng.choice(SMALL_CATEGORIES)
        phi = random_presheaf(rng, cat, f"w{ran}", max_size=2)
        if ran % 2 == 0:
            t = random_presheaf(rng, cat, f"t{ran}", max_size=2)
            res = weighted_limit(phi, t)          # raises on route mismatch
            assert res.size == len(res.conical.apex)
        else:
            s = random_presheaf(rng, cat.op(), f"s{ran}", max_size=2)
            res = weighted_colimit(phi, s)
            assert res.size == len(res.conical.classes)
        ran += 1
    _verdict(f"end/coend and elements routes agree on {ran} randomized "
             "weighted (co)limits", True)


def test_criterion_05_yoneda_everywhere():
    checked = 0
    for name, phi in sorted(PRESHEAVES.items()):
        cat = phi.base
        for b in cat.objects:
            forward, _backward = yoneda_bijection(phi, b)  # verifies both ways
            count = len(nat_trans_set(yoneda_embed(cat, b), phi))
            assert count == len(phi.sets[b]), (name, b)
            checked += 1
    _verdict(f"representable transformation sets match evaluation at "
             f"{checked} (weight, object) pairs", True)


def test_criterion_06_bounded_closures():
    empty = phi_closure_bounded(WEIGHT_CLASSES["empty"], M)
    initial = phi_closure_bounded(WEIGHT_CLASSES["initial"], Two)
    split = phi_closure_bounded(WEIGHT_CLASSES["splitting"], M)
    anchors_two = [yoneda_embed(Two, "0"), yoneda_embed(Two, "1"),
                   PRESHEAVES["zero.Two"]]
    anchors_m = [yoneda_embed(M, "*"), PRESHEAVES["E"]]
    ok = (len(empty.collection.members) == 1 and empty.saturated_at_bound
          and len(initial.collection.members) == 3 and initial.saturated_at_bound
          and all(any(presheaf_isomorphic(m, a) for a in anchors_two)
                  for m in initial.collection.members)
          and len(split.collection.members) == 2 and split.saturated_at_bound
          and all(any(presheaf_isomorphic(m, a) for a in anchors_m)
                  for m in split.collection.members))
    _verdict("closures: empty class keeps representables, initial adds the "
             "empty weight, splitting adds the split part, all saturated", ok)


def test_criterion_07_morita_verdicts_and_idempotency():
    reflexive = True
    idempotent = True
    for name, cat in sorted(CATEGORIES.items()):
        if not morita_equivalent(cat, cat):
            reflexive = False
        q1 = cauchy_completion(cat).completion
        q2 = cauchy_completion(q1).completion
        if find_equivalence(q1, q2) is None:
            idempotent = False
    ok = (bool(morita_equivalent(M, QM))
          and not morita_equivalent(Z2, corpus.I)
          and reflexive and idempotent)
    _verdict("Morita: M ~ QM, Z2 !~ I, reflexive on all 15 fixture "
             "categories, completion idempotent up to equivalence", ok)


def test_criterion_08_duality_and_dual_pairs():
    for cat in (corpus.I, M, Z2):
        q_duality(cat)                      # raises if the witness breaks
    pair = dual_pair_from_weight(PRESHEAVES["E"])
    inside = dual_limit_colimit(pair, identity_functor(M))
    split = dual_limit_colimit(pair, embedM)
    ok = (inside.agree and inside.colimit is None and inside.limit is None
          and split.agree and split.colimit is not None
          and split.limit is not None)
    _verdict("completion duality holds on I, M, Z2; the splitting dual pair "
             "needs QM and agrees there", ok)


def test_criterion_09_kan_extension_adjunction():
    rng = random.Random(99)
    sources = [Two, Span, M, corpus.Chain3, corpus.I]
    targets = [Two, M, Z2, corpus.Chain3, QM]
    ran = 0
    while ran < 30:
        a = rng.choice(sources)
        b = rng.choice(targets)
        fs = all_functors(a, b, cap=40)
        if not fs:
            continue
        k = rng.choice(fs)
        t = random_presheaf(rng, a.op(), f"t{ran}", max_size=2)
        s = random_presheaf(rng, b.op(), f"s{ran}", max_size=2)
        left, right, bijective = kan_bijection(k, t, s)
        assert bijective and left == right, (a.name, b.name, ran)
        ran += 1
    _verdict(f"extension adjunction bijections exact on {ran} randomized "
             "instances", True)


def test_criterion_10_small_projectives_are_absolute():
    targets = [M, Two, QM]
    weights_checked = 0
    clean = True
    for name, phi in sorted(PRESHEAVES.items()):
        if not is_small_projective(phi):
            continue
        functors = []
        for t_cat in targets:
            fs = all_functors(phi.base, t_cat, cap=1)
            functors.extend(fs)
        cap = 4 if len(phi.base.objects) > 2 else 6
        rep = check_absolute_sampled(phi, functors, cap_per_functor=cap)
        weights_checked += 1
        if rep.violations:
            clean = False
            print(f"  violation under small projective {name}")
    counter = check_absolute_sampled(PRESHEAVES["one.Z2"], [orbit])
    ok = clean and weights_checked >= 10 and len(counter.violations) >= 1
    _verdict(f"{weights_checked} small projective weights preserved under "
             "sampled functors; the group-average weight is not", ok)


def test_criterion_11_free_cocompletion_recognition():
    from fincat.classes import recognize_free_cocompletion
    good = recognize_free_cocompletion(embedM, WEIGHT_CLASSES["splitting"])
    bad = recognize_free_cocompletion(orbit, WEIGHT_CLASSES["splitting"])
    ok = (good.ok and good.fully_faithful and good.cocomplete
          and good.closure_reaches_all and good.image_in_atoms
          and not bad.ok and not bad.fully_faithful)
    _verdict("recognition: the splitting embedding passes all four conditions, "
             "the orbit functor fails full faithfulness", ok)
