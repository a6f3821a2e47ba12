import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fincat import cauchy, corpus
from fincat.cauchy import (AbsoluteInstance, SmallProjectiveReport,
                           cauchy_completion, check_absolute_sampled,
                           dual_limit_colimit, dual_pair_from_weight,
                           idempotent_endos, is_small_projective, isbell_left,
                           isbell_right, isbell_unit,
                           morita_equivalent, q_duality, retract_oracle,
                           small_projective_report, unsplit_idempotents)
from fincat.core import (Presheaf, _bijectivity, _entry, _freeze, identity_functor,
                         nat_compose, nat_identity, validate)
from fincat.corpus import (CATEGORIES, GSet, I, M, QM, Two, Z2, PRESHEAVES,
                           embedM, orbit)
from fincat.equivalence import all_functors, find_equivalence, is_fully_faithful
from fincat.errors import InternalMismatch
from fincat.kan import nerve, yoneda_embed
from fincat.limits import (colimit_in_category, nat_trans_set,
                           preserves_weighted_colimit, weighted_colimit)
from fincat.profunctor import has_right_adjoint, module_of_weight

from util import (isbell_counit_oracle, isbell_right_oracle, karoubi_oracle,
                  random_concrete_category, random_presheaf)


def hom_size_grid(cat):
    return tuple(len(cat.hom(a, b)) for a in cat.objects for b in cat.objects)


def test_splitting_the_free_idempotent_monoid():
    qc = cauchy_completion(M, verify=True)
    assert len(qc.completion.objects) == 2
    assert sorted(hom_size_grid(qc.completion), reverse=True) == [2, 1, 1, 1]
    n, sizes = karoubi_oracle(M)
    assert len(qc.completion.objects) == n
    assert sorted(len(qc.completion.hom(a, b))
                  for a in qc.completion.objects
                  for b in qc.completion.objects) == sorted(sizes)


def test_completion_matches_brute_karoubi_everywhere():
    for name, cat in CATEGORIES.items():
        qc = cauchy_completion(cat)
        n, sizes = karoubi_oracle(cat)
        assert len(qc.completion.objects) == n, name
        assert sorted(hom_size_grid(qc.completion)) == sorted(sizes), name


def test_completion_verification_passes_on_fixtures():
    for cat in (I, Two, M, Z2, corpus.Par, corpus.Span):
        cauchy_completion(cat, verify=True)


def _presheaf_digest(p):
    """Name, base, sets and action tables of a presheaf, all in order."""
    return (p.name, p.base, list(p.sets.items()),
            [(f, list(t.items())) for f, t in p.actions.items()])


def _assert_reps_hand_off_changes_nothing(weights):
    """isbell_left and small_projective_report give the same answers, in the
    same order, with the representables of the base handed over as without."""
    for phi in weights:
        reps = {b: yoneda_embed(phi.base, b) for b in phi.base.objects}
        assert _presheaf_digest(isbell_left(phi, _reps=reps)) == \
            _presheaf_digest(isbell_left(phi)), phi.name
        assert small_projective_report(phi, _reps=reps) == \
            small_projective_report(phi), phi.name


def _completion_weights(cat):
    """The nerve presheaves of the completion objects, as the completion
    check reads them."""
    return nerve(cauchy_completion(cat).embedding).values()


def test_handed_representables_change_no_answer_on_the_corpus():
    weights = [p for cat in CATEGORIES.values() for p in _completion_weights(cat)]
    assert len(weights) == 39
    _assert_reps_hand_off_changes_nothing(weights)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_handed_representables_change_no_answer_on_random_categories(seed):
    """The completion weights of a random concrete category, and a random
    weight on it, which need not be small projective."""
    rng = random.Random(seed)
    cat = random_concrete_category(rng, f"R{seed}", max_nonid=6)
    weights = [*_completion_weights(cat), random_presheaf(rng, cat, "phi")]
    _assert_reps_hand_off_changes_nothing(weights)


def test_completion_check_builds_each_representable_once(monkeypatch):
    """A verified completion builds the representables of its base once per
    call and reaches the public is_small_projective and isbell_left, which
    the benchmark's ladder traces, through the module once per idempotent,
    each isbell_left with the one set of representables."""
    calls = {"yoneda_embed": [], "is_small_projective": [], "isbell_left": []}
    for name in calls:
        def recording(*args, _name=name, _real=getattr(cauchy, name), **kwargs):
            calls[_name].append((args, kwargs))
            return _real(*args, **kwargs)
        monkeypatch.setattr(cauchy, name, recording)
    for cat in (GSet, M, QM, corpus.N5, corpus.FinSet12):
        for name in calls:
            calls[name].clear()
        qc = cauchy_completion(cat, verify=True)
        assert [a[1] for a, _ in calls["yoneda_embed"]] == list(cat.objects), cat.name
        n = len(qc.idempotents)
        assert len(calls["is_small_projective"]) == len(calls["isbell_left"]) == n, cat.name
        handed = {id(a[1]) for a, _ in calls["isbell_left"]}
        assert len(handed) == 1, cat.name
        assert list(calls["isbell_left"][0][0][1]) == list(cat.objects), cat.name


def test_completion_check_calls_the_nerve_once(monkeypatch):
    """A verified completion reads the split images off one call of the
    public kan.nerve on its embedding, which the benchmark's ladder traces;
    an unverified completion calls it not at all."""
    calls = []

    def recording(g, _real=cauchy.nerve):
        calls.append(g)
        return _real(g)
    monkeypatch.setattr(cauchy, "nerve", recording)
    for cat in (GSet, M, QM, corpus.N5, corpus.FinSet12):
        calls.clear()
        qc = cauchy_completion(cat, verify=True)
        assert len(calls) == 1 and calls[0] is qc.embedding, cat.name
        calls.clear()
        cauchy_completion(cat)
        assert calls == [], cat.name


def test_groups_and_posets_are_already_complete():
    for cat in (I, Z2, corpus.Z3, corpus.Chain3, corpus.N5, Two):
        qc = cauchy_completion(cat)
        assert len(qc.completion.objects) == len(cat.objects), cat.name
        assert not unsplit_idempotents(cat), cat.name


def test_unsplit_idempotent_detection():
    assert unsplit_idempotents(M) == [("*", "e")]
    assert unsplit_idempotents(QM) == []
    assert idempotent_endos(QM) == ((("s1", "s1>s1:1")), ("s1", "s1>s1:e"),
                                    ("se", "se>se:e"))


def test_concrete_completion_size():
    qc = cauchy_completion(GSet)
    assert len(qc.completion.objects) == 7
    assert len(qc.completion.morphisms) == 113
    assert is_fully_faithful(qc.embedding)


def test_small_projective_three_ways_spot_checks():
    yes = ["E", "Y.M.*", "Y.Two.0", "free.Z2", "one.M", "one.Two"]
    no = ["one.Z2", "one.Z3", "zero.Two", "one.Span", "EplusE"]
    for name in yes:
        phi = PRESHEAVES[name]
        assert is_small_projective(phi), name
        assert retract_oracle(phi) is not None, name
        assert has_right_adjoint(module_of_weight(phi)).found, name
    for name in no:
        phi = PRESHEAVES[name]
        assert not is_small_projective(phi), name
        assert retract_oracle(phi) is None, name
        assert not has_right_adjoint(module_of_weight(phi)).found, name


def test_small_projective_report_shape():
    rep = small_projective_report(PRESHEAVES["E"])
    assert rep.ok and rep.colimit_size == rep.nat_size
    rep = small_projective_report(PRESHEAVES["one.Z2"])
    assert not rep.ok


def _small_projective_oracle(phi):
    """small_projective_report with the canonical map read one element at a
    time, through ``_freeze`` and ``_entry``: the report and the images of
    the map, in class order."""
    colim = weighted_colimit(phi, isbell_left(phi))
    nats = {n.frozen() for n in nat_trans_set(phi, phi)}

    def image(k, x, gkey):
        return _freeze(phi, lambda j, y: phi.act(_entry(gkey, phi, j, y), x))
    images = list(colim.descend(image, "canonical self-map not constant on classes").values())
    injective, surjective = _bijectivity(images, nats, "canonical self-map left the natural set")
    return SmallProjectiveReport(len(colim.classes), len(nats), injective, surjective), images


def _report_and_images(phi):
    """small_projective_report(phi) and the images of its canonical map, in
    the order it hands them to ``_bijectivity``."""
    seen = []

    def recording(images, onto, message):
        seen.append(list(images))
        return _bijectivity(seen[-1], onto, message)
    with mock.patch.object(cauchy, "_bijectivity", recording):
        report = small_projective_report(phi)
    assert len(seen) == 1
    return report, seen[0]


def test_canonical_map_matches_the_element_oracle_on_the_corpus():
    for name, phi in sorted(PRESHEAVES.items()):
        assert _report_and_images(phi) == _small_projective_oracle(phi), name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_canonical_map_matches_the_element_oracle_on_random_weights(seed):
    rng = random.Random(seed)
    cat = random_concrete_category(rng, f"R{seed}", max_nonid=6)
    for i in range(2):
        phi = random_presheaf(rng, cat, f"phi{i}")
        assert _report_and_images(phi) == _small_projective_oracle(phi), i


def test_retract_witness_is_a_retract():
    # the witness is (object, section, retraction) with r . s the identity
    b, section, retraction = retract_oracle(PRESHEAVES["E"])
    y = yoneda_embed(M, b)
    assert section.source.name == PRESHEAVES["E"].name
    assert section.target.name == y.name
    assert nat_compose(retraction, section).frozen() == \
        nat_identity(PRESHEAVES["E"]).frozen()


def test_isbell_left_of_representable_is_covariant_hom():
    lphi = isbell_left(PRESHEAVES["Y.M.*"])
    cov = corpus.covariant_hom(M, "*")
    # both are presheaves on M.op() with two elements at *
    assert len(lphi.sets["*"]) == len(cov.sets["*"]) == 2
    assert validate(lphi).ok


def test_isbell_round_trip_on_small_projectives():
    from fincat.equivalence import presheaf_isomorphic
    for name in ("E", "Y.Two.0", "Y.M.*", "free.Z2", "one.Two"):
        phi = PRESHEAVES[name]
        back = isbell_right(isbell_left(phi))
        assert presheaf_isomorphic(phi, back), name


def test_isbell_unit_and_counit_validate():
    for name in ("E", "one.Z2", "zero.Two", "Y.Span.0"):
        phi = PRESHEAVES[name]
        assert validate(isbell_unit(phi)).ok, name
        psi = isbell_left(phi)
        assert validate(isbell_unit(psi)).ok, name


def test_isbell_right_and_counit_match_their_direct_formulas():
    # R and the counit are L and the unit read on the opposite, so the counit
    # at psi is isbell_unit(psi), named as the unit; the oracles are the
    # direct formulas on B with B^op-presheaves as input
    cases = list(PRESHEAVES.values())
    cases += [isbell_left(phi) for phi in PRESHEAVES.values()]
    for psi in cases:
        got, want = isbell_right(psi), isbell_right_oracle(psi)
        assert got.name == want.name and got.base is want.base, psi.name
        assert list(got.sets.items()) == list(want.sets.items()), psi.name
        assert list(got.actions.items()) == list(want.actions.items()), psi.name
        got, want = isbell_unit(psi), isbell_counit_oracle(psi)
        assert got.source is psi, psi.name
        assert got.target.base is want.target.base, psi.name
        assert got.target.sets == want.target.sets, psi.name
        assert got.target.actions == want.target.actions, psi.name
        assert got.frozen() == want.frozen(), psi.name
        assert got.components == want.components, psi.name
    assert len(cases) == 136


def test_q_duality_fixture_categories():
    for cat in (I, M, Z2):
        dual = q_duality(cat)
        assert validate(dual.forward).ok
        assert dual.equivalence is not None


def test_morita_verdicts():
    assert morita_equivalent(M, QM)
    assert not morita_equivalent(Z2, I)
    assert morita_equivalent(Two, Two)
    assert morita_equivalent(M, M)
    res = morita_equivalent(M, QM)
    assert res.witness is not None
    assert validate(res.witness.forward).ok


def test_morita_without_equivalence():
    # M and QM are not equivalent as categories, only Morita equivalent
    assert find_equivalence(M, QM) is None
    assert morita_equivalent(M, QM).equivalent


def test_completion_is_idempotent_up_to_equivalence():
    for cat in (M, Two, Z2, corpus.Par, I):
        q1 = cauchy_completion(cat).completion
        q2 = cauchy_completion(q1).completion
        assert find_equivalence(q1, q2) is not None, cat.name


def test_dual_pair_from_small_projective_weight():
    pair = dual_pair_from_weight(PRESHEAVES["E"])
    assert pair is not None
    assert pair.psi.name == "dual(E)"
    assert dual_pair_from_weight(PRESHEAVES["one.Z2"]) is None


def _dual_weight_oracle(phi, g):
    """g(*, -) for the right adjoint g: B -|-> I of phi's module, read cell by
    cell as a presheaf on B^op."""
    b_cat = phi.base
    star = g.target.objects[0]
    sets = {b: g.cell(star, b) for b in b_cat.objects}
    actions = {}
    for f in b_cat.morphisms:
        b = b_cat.src[f]
        actions[f] = {x: g.right_act(star, f, x) for x in sets[b]}
    return Presheaf(f"dual({phi.name})", b_cat.op(), sets, actions)


def test_dual_weight_is_a_column_of_the_transposed_adjoint():
    found = 0
    for name, phi in sorted(PRESHEAVES.items()):
        pair = dual_pair_from_weight(phi)
        if pair is None:
            continue
        got, want = pair.psi, _dual_weight_oracle(phi, pair.psi_module)
        assert got.name == want.name and got.base is want.base, name
        assert list(got.sets.items()) == list(want.sets.items()), name
        assert list(got.actions.items()) == list(want.actions.items()), name
        found += 1
    assert found >= 40


def verify_covariant_representation(pair, x_weight):
    """Checks [B,V](psi, X) = phi * X via the canonical bijection; returns the size.

    The class of (x, xi) over b maps to the transformation gamma -> X(gamma_b(x))(xi).
    """
    phi, psi = pair.phi, pair.psi
    colim = weighted_colimit(phi, x_weight)
    nats = {n.frozen() for n in nat_trans_set(psi, x_weight)}

    def image(b, x, xi):
        return _freeze(psi, lambda k, gamma: x_weight.act(_entry(gamma, phi, b, x), xi))
    images = colim.descend(image, "representation map not constant on classes").values()
    message = (f"phi*X and [B,V](psi,X) disagree: {len(colim.classes)} classes "
               f"vs {len(nats)} transformations")
    if not all(_bijectivity(images, nats, message)):
        raise InternalMismatch(message)
    return len(nats)


def test_covariant_representation_counts():
    from fincat.core import covariant
    pair = dual_pair_from_weight(PRESHEAVES["E"])
    fixed = covariant("fix", M, {"*": ("x",)},
                      {"1": {"x": "x"}, "e": {"x": "x"}})
    squash = covariant("squash", M, {"*": ("u", "v")},
                       {"1": {"u": "u", "v": "v"}, "e": {"u": "u", "v": "u"}})
    for x in (corpus.covariant_hom(M, "*"), fixed, squash):
        n = verify_covariant_representation(pair, x)
        assert n == len(weighted_colimit(PRESHEAVES["E"], x).classes), x.name


def test_dual_limit_colimit_needs_the_completion():
    pair = dual_pair_from_weight(PRESHEAVES["E"])
    inside = dual_limit_colimit(pair, identity_functor(M))
    assert inside.agree and inside.colimit is None and inside.limit is None
    split = dual_limit_colimit(pair, embedM)
    assert split.agree
    assert split.colimit.apex == "se" and split.limit.apex == "se"


def test_absolute_sampling_respects_small_projectivity():
    rep = check_absolute_sampled(PRESHEAVES["Y.M.*"], [embedM])
    assert rep.small_projective
    assert rep.consistent and not rep.violations
    assert any(i.exists for i in rep.instances)


def test_absolute_sampling_finds_group_average_failure():
    rep = check_absolute_sampled(PRESHEAVES["one.Z2"], [orbit])
    assert not rep.small_projective
    assert rep.violations
    sides = {i.side for i in rep.violations}
    assert sides == {"colimit", "limit"}
    assert rep.consistent


def _absolute_instances_oracle(phi, functors, cap_per_functor=25):
    """The instances of check_absolute_sampled with each side written out."""
    k_cat = phi.base
    instances = []
    for f in functors:
        a_cat = f.source
        for s in all_functors(k_cat, a_cat, cap=cap_per_functor):
            colim = colimit_in_category(phi, s)
            summary = tuple(s.obj(j) for j in k_cat.objects)
            if colim is None:
                instances.append(AbsoluteInstance(f.name, summary, "colimit", False))
                continue
            res = preserves_weighted_colimit(f, phi, s, colim)
            instances.append(AbsoluteInstance(f.name, summary, "colimit", True,
                                              res.preserved, res.reason))
        for t in all_functors(k_cat.op(), a_cat, cap=cap_per_functor):
            colim = colimit_in_category(phi, t.op())
            summary = tuple(t.obj(j) for j in k_cat.objects)
            if colim is None:
                instances.append(AbsoluteInstance(f.name, summary, "limit", False))
                continue
            res = preserves_weighted_colimit(f.op(), phi, t.op(), colim)
            instances.append(AbsoluteInstance(f.name, summary, "limit", True,
                                              res.preserved, res.reason))
    return instances


@pytest.mark.parametrize("name, functors", [
    ("Y.M.*", [embedM]), ("one.Z2", [orbit]),
    ("E", [embedM, identity_functor(M)]), ("EplusE", [embedM]),
    ("zero.M", [embedM]), ("free.Z2", [orbit]), ("triv2.Z2", [orbit]),
    ("collapse.Two", [embedM, orbit]), ("Y.Par.0", [embedM, identity_functor(Two)])])
def test_absolute_sampling_matches_both_sides_written_out(name, functors):
    """One loop over both sides, the limit side read in the opposites, gives
    the same instances in the same order."""
    phi = PRESHEAVES[name]
    rep = check_absolute_sampled(phi, functors)
    assert rep.instances == _absolute_instances_oracle(phi, functors)
    assert {i.side for i in rep.instances} == {"colimit", "limit"}
