"""The paper's theorems on random finite categories, as a standing oracle.

The acceptance criteria check the theorems on the corpus categories.  Here
hypothesis draws seeds for ``random_concrete_category`` (at most six
non-identity morphisms) and each test checks one theorem on that category:

* P+ = P- = Q: the canonical-map criterion, a retract of a representable and
  a weight module with a right adjoint agree, and sampled functors preserve
  the colimits of every small projective weight;
* Q(A) is the Cauchy completion: ``cauchy_completion(verify=True)`` passes,
  its sizes are those of ``karoubi_oracle``, Q(Q(A)) ~ Q(A), and the
  duality Q(A^op)^op ~ Q(A) holds;
* Morita: A ~ Q(A), and a verdict does not change under shuffled copies;
* a weight whose elements are cofiltered is finite-colimit continuous.

A longer sweep over more and larger categories, from the repository root
(it prints nothing and raises at the first failure)::

    PYTHONPATH=src:tests python -c "
    import test_theorems as t
    for seed in range(2000):
        for check in t.CHECKS:
            check(seed, max_nonid=14)"
"""
import random

from hypothesis import given, settings, strategies as st

from fincat.cauchy import (cauchy_completion, check_absolute_sampled,
                           is_small_projective, morita_equivalent, q_duality,
                           retract_oracle)
from fincat.classes import flat_for_finite_limits, is_phi_continuous
from fincat.corpus import M, WEIGHT_CLASSES
from fincat.equivalence import all_functors, find_equivalence
from fincat.kan import nerve, yoneda_embed
from fincat.profunctor import has_right_adjoint, module_of_weight
from util import (karoubi_oracle, random_concrete_category, random_presheaf,
                  shuffled_category)

SEEDS = st.integers(0, 10 ** 6)


def _category(seed, max_nonid):
    return random_concrete_category(random.Random(seed), f"R{seed}",
                                    max_nonid=max_nonid)


def _weights(seed, cat):
    """Two random weights, and the split image of each idempotent, which is
    small projective."""
    rng = random.Random(~seed)
    grown = nerve(cauchy_completion(cat).embedding)
    return ([random_presheaf(rng, cat, f"w{i}", max_size=2) for i in range(2)]
            + list(grown.values()))


def small_projectives_three_ways(seed, max_nonid=6):
    cat = _category(seed, max_nonid)
    functors = [cauchy_completion(cat).embedding] + all_functors(cat, M, cap=1)
    for phi in _weights(seed, cat):
        canonical = is_small_projective(phi)
        assert canonical == (retract_oracle(phi) is not None), phi
        assert canonical == has_right_adjoint(module_of_weight(phi)).found, phi
        assert check_absolute_sampled(phi, functors, cap_per_functor=3).consistent, phi


def completion_is_the_karoubi_envelope(seed, max_nonid=6):
    cat = _category(seed, max_nonid)
    q = cauchy_completion(cat, verify=True).completion
    objects = q.objects
    assert karoubi_oracle(cat) == (len(objects), tuple(
        len(q.hom(a, b)) for a in objects for b in objects))
    assert find_equivalence(cauchy_completion(q).completion, q) is not None
    q_duality(cat)                      # raises if the duality breaks


def morita_verdicts_survive_shuffling(seed, max_nonid=6):
    rng = random.Random(seed)
    cat = _category(seed, max_nonid)
    q = cauchy_completion(cat).completion
    assert morita_equivalent(cat, q)
    assert morita_equivalent(shuffled_category(rng, cat), q)
    assert morita_equivalent(cat, shuffled_category(rng, q))
    other = _category(seed + 1, max_nonid)
    verdict = bool(morita_equivalent(cat, other))
    assert bool(morita_equivalent(shuffled_category(rng, cat), other)) == verdict
    assert bool(morita_equivalent(cat, shuffled_category(rng, other))) == verdict


def flat_weights_are_finite_colimit_continuous(seed, max_nonid=6):
    cat = _category(seed, max_nonid)
    weights = _weights(seed, cat) + [yoneda_embed(cat, a) for a in cat.objects]
    for phi in weights:
        if flat_for_finite_limits(phi):
            assert is_phi_continuous(phi, WEIGHT_CLASSES["finite-colimits"]), phi


CHECKS = (small_projectives_three_ways, completion_is_the_karoubi_envelope,
          morita_verdicts_survive_shuffling,
          flat_weights_are_finite_colimit_continuous)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(SEEDS)
def test_small_projectives_agree_three_ways_and_are_absolute(seed):
    small_projectives_three_ways(seed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS)
def test_completion_is_the_karoubi_envelope_and_idempotent(seed):
    completion_is_the_karoubi_envelope(seed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS)
def test_morita_verdicts_survive_shuffled_copies(seed):
    morita_verdicts_survive_shuffling(seed)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(SEEDS)
def test_flat_weights_are_finite_colimit_continuous(seed):
    flat_weights_are_finite_colimit_continuous(seed)
