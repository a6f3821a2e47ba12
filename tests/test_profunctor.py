import gc
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from fincat import core, corpus, profunctor
from fincat.core import (FinCategory, NatTrans, Presheaf, Profunctor, _freeze, nat_compose,
                         nat_identity, product_category, quotient, same_category,
                         unit_category, validate)
from fincat.corpus import (Disc2, I, M, Par, QM, Span, Two, Z2, Z3, PRESHEAVES,
                           delta0, example82)
from fincat.equivalence import all_functors, presheaf_isomorphic
from fincat.errors import EndpointMismatch, InternalMismatch, MalformedTable, ValidationFailed
from fincat.limits import ColimitResult, nat_trans_set
from fincat.profunctor import (_cellwise, _column, _companion, _transpose,
                               compose_modules, has_right_adjoint, id_module,
                               module_of_weight, right_extend, right_lift)
from util import (SMALL_CATEGORIES, compose_modules_oracle, random_concrete_category,
                  random_presheaf, random_profunctor, right_extend_oracle)


# ---------------------------------------------------------------------------
# modules read as presheaves on their product view target x source^op, and
# functors as modules


def as_presheaf(f, base):
    """View a module as a presheaf on base, the product target x source^op:
    (beta, alpha) acts as the right action of alpha after the left action of
    beta.  ``validate`` on a 2-cell reads the same action off the module's
    tables; this view is its oracle."""
    sets = {(b, a): f.cell(b, a) for (b, a) in base.objects}
    actions = {}
    for (beta, alpha) in base.morphisms:
        # base morphism (b,a) -> (b',a') carries beta: b -> b' and alpha: a' -> a
        a = f.source.src[alpha]
        left = f.left[(beta, a)]
        right = f.right[(f.target.src[beta], alpha)]
        actions[(beta, alpha)] = {x: right[left[x]] for x in f.sets[(f.target.tgt[beta], a)]}
    return Presheaf(f"cells({f.name})", base, sets, actions)


def _views(f, g):
    """f and g as presheaves on the product base f.target x f.source^op, a
    module on both sides viewed once."""
    base = product_category(f.target, f.source.op())
    cells = as_presheaf(f, base)
    return cells, cells if g is f else as_presheaf(g, base)


def _product_view(cell):
    """The 2-cell as a NatTrans between the product views of its modules:
    the former ``nat()`` of the 2-cell class, the oracle of ``validate`` on
    2-cells."""
    return NatTrans(*_views(cell.source, cell.target), cell.components, name=cell.name)


def two_cells(f, g):
    """Every 2-cell f => g: the natural families between the product views."""
    return [NatTrans(f, g, n.components, name=f"cell{i}")
            for i, n in enumerate(nat_trans_set(*_views(f, g)))]


def modules_isomorphic(f, g):
    return (same_category(f.source, g.source) and same_category(f.target, g.target)
            and presheaf_isomorphic(*_views(f, g)) is not None)


def _conjoint(t):
    """T^*(a, b) = B(Ta, b): the transpose of the companion of T^op, which
    runs from (B^op)^op, with the tables of B, to A."""
    upper = _transpose(_companion(t.op()))
    upper.name = f"({t.name})^*"
    return upper


# ---------------------------------------------------------------------------
# coherence 2-cells, and the triangle identities checked on chains of them:
# the oracle of profunctor._check_triangles, which reads them on elements


def then(first, second):
    """The 2-cell second after first."""
    comps = {cell: {x: second.components[cell][y] for x, y in table.items()}
             for cell, table in first.components.items()}
    return NatTrans(first.source, second.target, comps, name=f"({second.name};{first.name})")


def identity_two_cell(f):
    """The identity 2-cell of f cell by cell: the former
    ``profunctor.identity_two_cell``, the oracle of ``nat_identity`` on modules."""
    return _cellwise(f, f, f"1_{f.name}", lambda b, a, x: x)


def left_unitor(f, composite):
    """1_B . f -> f, sending a class (b', (h, x)) to x acted on by h."""

    def image(b, a, rep):
        _, (h, x) = rep
        return f.left_act(h, a, x)
    cell = _cellwise(composite, f, f"lambda({f.name})", image)
    if cell.bijection_failure() is not None:
        raise InternalMismatch(f"left unitor of {f.name} not invertible")
    return cell


def right_unitor(f, composite):
    """f . 1_A -> f."""

    def image(b, a, rep):
        _, (x, h) = rep
        return f.right_act(b, h, x)
    cell = _cellwise(composite, f, f"rho({f.name})", image)
    if cell.bijection_failure() is not None:
        raise InternalMismatch(f"right unitor of {f.name} not invertible")
    return cell


def associator(f3, f2, f1, left, right, inner):
    """(f3 . f2) . f1 -> f3 . (f2 . f1), re-bracketing representatives;
    ``inner`` is the composite f2 . f1 that ``right`` composes f3 with."""

    def image(t, s, rep):
        m1, ((m2, (y, z)), x) = rep
        return right.normalize(t, s, m2, y, inner.normalize(m2, s, m1, z, x))
    cell = _cellwise(left, right, f"assoc({f3.name},{f2.name},{f1.name})", image)
    if cell.bijection_failure() is not None:
        raise InternalMismatch("associator not invertible; representative bug")
    return cell


def whisker_left(g, sigma, src, tgt):
    """g . sigma: from g . (sigma.source) to g . (sigma.target)."""

    def image(t, s, rep):
        m, (y, x) = rep
        return tgt.normalize(t, s, m, y, sigma.at((m, s), x))
    return _cellwise(src, tgt, f"({g.name}.{sigma.name})", image)


def whisker_right(sigma, e, src, tgt):
    """sigma . e: from (sigma.source) . e to (sigma.target) . e."""

    def image(t, s, rep):
        m, (w, z) = rep
        return tgt.normalize(t, s, m, sigma.at((t, m), w), z)
    return _cellwise(src, tgt, f"({sigma.name}.{e.name})", image)


def _fixes_every_element(cell):
    """Whether an endo 2-cell is the identity: as its components cover every
    cell of its module, whether they fix every element."""
    return all(x == y for table in cell.components.values() for x, y in table.items())


def _chain_triangles(f, g, eta, eps):
    """The triangle identities as has_right_adjoint checked them before it
    read them on elements: each is a chain of five coherence 2-cells through
    four composites, which must fix every element."""
    one_a, one_b, c_gf, c_fg = eta.source, eps.target, eta.target, eps.source
    # triangle 1: f -> f.1_A -> f.(g.f) -> (f.g).f -> 1_B.f -> f equals 1_f
    c_f1 = compose_modules(f, one_a)
    c_f_gf = compose_modules(f, c_gf)
    c_fg_f = compose_modules(c_fg, f)
    c_1b_f = compose_modules(one_b, f)
    chain1 = right_unitor(f, c_f1).invert()
    for cell in (whisker_left(f, eta, c_f1, c_f_gf),
                 associator(f, g, f, c_fg_f, c_f_gf, c_gf).invert(),
                 whisker_right(eps, f, c_fg_f, c_1b_f),
                 left_unitor(f, c_1b_f)):
        chain1 = then(chain1, cell)
    if not _fixes_every_element(chain1):
        raise InternalMismatch(f"triangle identity (counit.f)(f.unit) fails for {f.name}")
    # triangle 2: g -> 1_A.g -> (g.f).g -> g.(f.g) -> g.1_B -> g equals 1_g
    c_1a_g = compose_modules(one_a, g)
    c_gf_g = compose_modules(c_gf, g)
    c_g_fg = compose_modules(g, c_fg)
    c_g_1b = compose_modules(g, one_b)
    chain2 = left_unitor(g, c_1a_g).invert()
    for cell in (whisker_right(eta, g, c_1a_g, c_gf_g),
                 associator(g, f, g, c_gf_g, c_g_fg, c_fg),
                 whisker_left(g, eps, c_g_fg, c_g_1b),
                 right_unitor(g, c_g_1b)):
        chain2 = then(chain2, cell)
    if not _fixes_every_element(chain2):
        raise InternalMismatch(f"triangle identity (g.counit)(unit.g) fails for {f.name}")


def test_id_module_and_as_presheaf():
    """as_presheaf takes its product base from the caller: it has no default
    that builds one."""
    hom = id_module(Two)
    assert validate(hom).ok
    assert hom.cell("0", "1") == ("f",)
    assert hom.cell("1", "0") == ()
    p = as_presheaf(hom, product_category(Two, Two.op()))
    assert validate(p).ok


def _as_presheaf_oracle(f, base):
    """The tables of f viewed as a presheaf on base, one left_act and one
    right_act call per element."""
    sets = {(b, a): f.cell(b, a) for (b, a) in base.objects}
    actions = {}
    for (beta, alpha_op) in base.morphisms:
        b = f.target.src[beta]
        a_tgt = f.source.op().tgt[alpha_op]
        actions[(beta, alpha_op)] = {
            x: f.right_act(b, alpha_op, f.left_act(beta, a_tgt, x))
            for x in f.cell(f.target.tgt[beta], a_tgt)}
    return sets, actions


def _assert_as_presheaf_matches_oracle(f):
    base = product_category(f.target, f.source.op())
    got = as_presheaf(f, base)
    sets, actions = _as_presheaf_oracle(f, base)
    assert list(got.sets.items()) == list(sets.items()), f.name
    assert [(m, list(t.items())) for m, t in got.actions.items()] == \
        [(m, list(t.items())) for m, t in actions.items()], f.name


def _corpus_modules():
    for phi in PRESHEAVES.values():
        yield module_of_weight(phi)
    for cat in corpus.CATEGORIES.values():
        yield id_module(cat)
    for t in corpus.FUNCTORS.values():
        yield _companion(t)
    for t in all_functors(Span, M):
        yield _companion(t)
    yield example82
    yield compose_modules(example82, id_module(example82.source))
    yield compose_modules(id_module(example82.target), example82)
    for t in corpus.FUNCTORS.values():
        lower, upper = _companion(t), _conjoint(t)
        yield compose_modules(upper, lower)
        yield compose_modules(lower, upper)


def test_as_presheaf_matches_per_element_calls_on_corpus_modules():
    count = 0
    for f in _corpus_modules():
        _assert_as_presheaf_matches_oracle(f)
        count += 1
    assert count == 96


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_CATEGORIES[:6]), st.sampled_from(SMALL_CATEGORIES[:6]),
       st.integers(0, 10 ** 6))
def test_as_presheaf_matches_per_element_calls_on_random_modules(source, target, seed):
    _assert_as_presheaf_matches_oracle(
        random_profunctor(random.Random(seed), source, target, "p"))


def test_compose_modules_endpoint_check():
    with pytest.raises(EndpointMismatch):
        compose_modules(example82, id_module(Two))


def test_unitors_are_isomorphisms():
    for f in (example82, id_module(Two), _companion(corpus.embedM)):
        lu = left_unitor(f, compose_modules(id_module(f.target), f))
        ru = right_unitor(f, compose_modules(f, id_module(f.source)))
        assert lu.bijection_failure() is None, f.name
        assert ru.bijection_failure() is None, f.name


def _raw_pairs(g, f):
    """Every raw pair of g . f: (c, a, b, y, x) with y in g(c, b), x in f(b, a)."""
    for c in g.target.objects:
        for a in f.source.objects:
            for b in f.target.objects:
                for y in g.cell(c, b):
                    for x in f.cell(b, a):
                        yield c, a, b, y, x


def _coherence_modules():
    return (example82, id_module(Two), _companion(corpus.embedM))


def test_unitors_satisfy_their_defining_equations():
    """lambda(class of (h, x)) = h.x and rho(class of (x, h)) = x.h on every
    raw pair, so in particular lambda(1_b, x) = x and rho(x, 1_a) = x."""
    for f in _coherence_modules():
        one_b, one_a = id_module(f.target), id_module(f.source)
        c_left, c_right = compose_modules(one_b, f), compose_modules(f, one_a)
        lu, ru = left_unitor(f, c_left), right_unitor(f, c_right)
        for b, a, b2, h, x in _raw_pairs(one_b, f):
            assert lu.at((b, a), c_left.normalize(b, a, b2, h, x)) == f.left_act(h, a, x)
            if b2 == b and h == f.target.id_of(b):
                assert lu.at((b, a), c_left.normalize(b, a, b, h, x)) == x
        for b, a, a2, x, h in _raw_pairs(f, one_a):
            assert ru.at((b, a), c_right.normalize(b, a, a2, x, h)) == f.right_act(b, h, x)
            if a2 == a and h == f.source.id_of(a):
                assert ru.at((b, a), c_right.normalize(b, a, a, x, h)) == x


def test_associator_rebrackets_every_raw_triple():
    """alpha sends the class of ((y, z), x) to the class of (y, (z, x))."""
    f2 = _companion(all_functors(Span, Two)[0])
    f3 = _companion(all_functors(Two, M)[1])
    triples = [(id_module(f.target), f, id_module(f.source))
               for f in _coherence_modules()] + [(f3, f2, example82)]
    checked = 0
    for g3, g2, g1 in triples:
        c32, c21 = compose_modules(g3, g2), compose_modules(g2, g1)
        left, right = compose_modules(c32, g1), compose_modules(g3, c21)
        alpha = associator(g3, g2, g1, left, right, c21)
        for t, m1, m2, y, z in _raw_pairs(g3, g2):
            for s in g1.source.objects:
                for x in g1.cell(m1, s):
                    src = left.normalize(t, s, m1, c32.normalize(t, m1, m2, y, z), x)
                    tgt = right.normalize(t, s, m2, y, c21.normalize(m2, s, m1, z, x))
                    assert alpha.at((t, s), src) == tgt
                    checked += 1
    assert checked > 40


def test_whiskers_act_on_one_factor_of_every_raw_pair():
    """(g.sigma)(class of (y, x)) = class of (y, sigma x) and
    (sigma.e)(class of (w, z)) = class of (sigma w, z)."""
    checked = 0
    for f in _coherence_modules():
        g, e = id_module(f.target), id_module(f.source)
        for sigma in two_cells(f, f):
            src, tgt = compose_modules(g, f), compose_modules(g, f)
            left = whisker_left(g, sigma, src, tgt)
            for t, s, m, y, x in _raw_pairs(g, f):
                assert (left.at((t, s), src.normalize(t, s, m, y, x))
                        == tgt.normalize(t, s, m, y, sigma.at((m, s), x)))
            src, tgt = compose_modules(f, e), compose_modules(f, e)
            right = whisker_right(sigma, e, src, tgt)
            for t, s, m, w, z in _raw_pairs(f, e):
                assert (right.at((t, s), src.normalize(t, s, m, w, z))
                        == tgt.normalize(t, s, m, sigma.at((t, m), w), z))
            checked += 1
    assert checked >= 3


def test_associator_is_isomorphism():
    t1 = all_functors(Span, Two)[0]
    f2 = _companion(t1)  # Span -|-> Two
    t2 = all_functors(Two, M)[1]
    f3 = _companion(t2)  # Two -|-> M
    inner = compose_modules(f2, example82)
    alpha = associator(f3, f2, example82,
                       compose_modules(compose_modules(f3, f2), example82),
                       compose_modules(f3, inner), inner)
    assert alpha.bijection_failure() is None


def test_whiskering_produces_valid_two_cells():
    f = example82
    cells = two_cells(f, f)
    assert cells, "no endo two-cells on the witness module"
    sigma = cells[0]
    g, e = id_module(Span), id_module(Z2)
    left = whisker_left(g, sigma, compose_modules(g, f), compose_modules(g, f))
    assert left.source.source is f.source
    right = whisker_right(sigma, e, compose_modules(f, e), compose_modules(f, e))
    assert right is not None


def test_identity_two_cell_frozen_matches_composition():
    f = example82
    ident = identity_two_cell(f)
    sig = two_cells(f, f)[0]
    assert then(ident, sig).frozen() == sig.frozen()
    assert then(sig, ident).frozen() == sig.frozen()


def test_nat_identity_of_a_module_is_the_cellwise_identity():
    """nat_identity serves modules: on each coherence module it has the
    components, in cell order, and the frozen form of the cellwise oracle."""
    for f in _coherence_modules():
        ident, oracle = nat_identity(f), identity_two_cell(f)
        assert list(ident.components.items()) == list(oracle.components.items())
        assert ident.frozen() == oracle.frozen() == _freeze(f, lambda cell, x: x)
        assert validate(ident).ok and ident.bijection_failure() is None


def test_nat_compose_of_module_two_cells_matches_then():
    """nat_compose serves modules: on every composable pair of 2-cells among
    each coherence module f and 1_B . f, whose classes are named apart from
    f's elements, it gives the components and frozen form of ``then``, and
    the identity is a unit for it."""
    checked = 0
    for f in _coherence_modules():
        modules = (f, compose_modules(id_module(f.target), f))
        for g in modules:
            assert nat_compose(nat_identity(g), nat_identity(g)).frozen() == \
                identity_two_cell(g).frozen()
            for first in (c for h in modules for c in two_cells(h, g)):
                for second in (c for h in modules for c in two_cells(g, h)):
                    got, want = nat_compose(second, first), then(first, second)
                    assert got.components == want.components
                    assert got.frozen() == want.frozen()
                    checked += 1
                assert nat_compose(first, nat_identity(first.source)).frozen() == first.frozen()
                assert nat_compose(nat_identity(g), first).frozen() == first.frozen()
    assert checked == 168


def test_functor_modules_equal_hom_sets_built_directly():
    """T_* = B(-, T-) and T^* = B(T-, -) with their actions written out, for
    every functor between the small categories; id_module is 1_*."""
    def direct(name, src, tgt, hom, left, right):
        sets = {(b, a): hom(b, a) for b in tgt.objects for a in src.objects}
        return (name, src, tgt, sets,
                {(m, a): {h: left(h, m) for h in sets[(tgt.tgt[m], a)]}
                 for m in tgt.morphisms for a in src.objects},
                {(b, m): {h: right(m, h) for h in sets[(b, src.src[m])]}
                 for b in tgt.objects for m in src.morphisms})

    def tables(p):
        return (p.name, p.source, p.target, p.sets, p.left, p.right)

    def same(got, want):
        assert got[:3] == want[:3]
        for mine, theirs in zip(got[3:], want[3:]):
            assert list(mine.items()) == list(theirs.items()), want[0]

    checked = 0
    for a in SMALL_CATEGORIES:
        same(tables(id_module(a)), direct(f"1_{a.name}", a, a, a.hom, a.compose, a.compose))
        for b in SMALL_CATEGORIES:
            for t in all_functors(a, b):
                lower, upper = _companion(t), _conjoint(t)
                same(tables(lower), direct(
                    f"({t.name})_*", a, b, lambda x, y: b.hom(x, t.obj(y)),
                    b.compose, lambda m, h: b.compose(t.mor(m), h)))
                same(tables(upper), direct(
                    f"({t.name})^*", b, a, lambda x, y: b.hom(t.obj(x), y),
                    lambda h, m: b.compose(h, t.mor(m)), b.compose))
                assert upper.source is b and upper.target is a
                checked += 1
    assert checked == 329


def test_companion_has_conjoint_as_right_adjoint():
    for t in (corpus.embedM, all_functors(Two, M)[0], corpus.orbit):
        lower, upper = _companion(t), _conjoint(t)
        adj = has_right_adjoint(lower)
        assert adj.found, t.name
        assert modules_isomorphic(adj.right, upper), t.name


def test_identity_module_is_self_adjoint():
    adj = has_right_adjoint(id_module(Two))
    assert adj.found
    assert modules_isomorphic(adj.right, id_module(Two))


def test_weight_module_adjoint_iff_small_projective():
    assert has_right_adjoint(module_of_weight(PRESHEAVES["E"])).found
    assert not has_right_adjoint(module_of_weight(PRESHEAVES["one.Z2"])).found
    assert not has_right_adjoint(module_of_weight(delta0(Two))).found
    res = has_right_adjoint(module_of_weight(PRESHEAVES["one.Z2"]))
    assert res.reason


def _bijection_failure_oracle(cell):
    """The former body of the 2-cell class's ``bijection_failure``, for a
    family between presheaves or modules."""
    for at, table in cell.components.items():
        images = set(table.values())
        if len(images) != len(table):
            return at, "injective"
        if images != set(cell.target.sets[at]):
            return at, "surjective"
    return None


def _failures(cells):
    got = [cell.bijection_failure() for cell in cells]
    assert got == [_bijection_failure_oracle(cell) for cell in cells]
    return {None if g is None else g[1] for g in got}


def test_bijection_failure_matches_the_oracle_on_corpus_cells():
    """The adjoint comparisons of the corpus weights' modules, and every
    2-cell between modules of corpus weights on one base."""
    small = [p for p in PRESHEAVES.values() if len(p.base.morphisms) <= 4]
    kinds = _failures([has_right_adjoint(module_of_weight(p)).comparison for p in small])
    assert kinds == {None, "surjective"}
    mods = [module_of_weight(p) for p in small]
    cells = [c for f in mods for g in mods if f.target is g.target for c in two_cells(f, g)]
    assert len(cells) > 100
    assert _failures(cells) == {None, "injective", "surjective"}


def test_bijection_failure_matches_the_oracle_on_presheaf_families():
    """Families between presheaves share the 2-cells' bijection test: each
    isomorphism that presheaf_isomorphic finds on a small corpus base inverts
    to a two-sided inverse, every family of nat_trans_set on that base gets
    the oracle's verdict, and a family that is not a bijection names its
    first failing object and what failed there."""
    small = [p for p in PRESHEAVES.values() if len(p.base.morphisms) <= 4]
    isos, families, kinds = 0, 0, set()
    for p in small:
        for q in small:
            if p.base is not q.base:
                continue
            found = presheaf_isomorphic(p, q)
            if found is not None:
                iso = NatTrans(p, q, found, name="iso")
                assert iso.bijection_failure() is None, (p.name, q.name)
                inverse = iso.invert()
                assert nat_compose(inverse, iso).frozen() == nat_identity(p).frozen()
                assert nat_compose(iso, inverse).frozen() == nat_identity(q).frozen()
                isos += 1
            nats = nat_trans_set(p, q)
            kinds |= _failures(nats)
            families += len(nats)
    assert (isos, families) == (42, 163)
    assert kinds == {None, "injective", "surjective"}
    one, yoneda, sum_ = (PRESHEAVES[n] for n in ("one.Two", "Y.Two.0", "YplusY.Two"))
    [onto_point] = nat_trans_set(yoneda, one)
    assert onto_point.bijection_failure() == ("1", "surjective")
    with pytest.raises(InternalMismatch, match="not invertible at '1'"):
        onto_point.invert()
    [collapse] = nat_trans_set(sum_, one)
    assert collapse.bijection_failure() == ("0", "injective")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_CATEGORIES[:4]), st.sampled_from(SMALL_CATEGORIES[:4]),
       st.integers(0, 10 ** 6))
def test_bijection_failure_matches_the_oracle_on_random_cells(source, target, seed):
    rng = random.Random(seed)
    f, g = (random_profunctor(rng, source, target, name) for name in "fg")
    _failures(two_cells(f, g) + two_cells(g, f) + two_cells(f, f))


def _count_presheaves(monkeypatch):
    """Patch both ways of constructing a Presheaf, ``__init__`` and
    ``_checked``, to record the name of each; returns the list of names."""
    names = []
    init, checked = Presheaf.__init__, Presheaf._checked
    monkeypatch.setattr(Presheaf, "__init__",
                        lambda p, name, *rest: names.append(name) or init(p, name, *rest))
    monkeypatch.setattr(Presheaf, "_checked", classmethod(
        lambda cls, name, *rest: names.append(name) or checked(name, *rest)))
    return names


def test_a_two_cell_builds_no_presheaf_view(monkeypatch):
    """A 2-cell holds only its components: building one by ``_cellwise``,
    chaining or ``invert`` builds no product category and no presheaf.
    ``validate`` builds one product base per call, walks its morphisms, and
    reads each module's action along them off the module's tables, so it
    constructs no Presheaf either, not even for a module on both sides."""
    composite = compose_modules(example82, id_module(example82.source))
    products, product = [], core.product_category
    monkeypatch.setattr(core, "product_category",
                        lambda a, b: products.append((a.name, b.name)) or product(a, b))
    presheaves = _count_presheaves(monkeypatch)
    cell = identity_two_cell(example82)
    rho = right_unitor(example82, composite)
    chain = then(then(rho.invert(), rho), cell)
    assert (products, presheaves) == ([], [])
    assert validate(cell).ok and validate(rho).ok and validate(chain).ok
    assert (products, presheaves) == ([("Span", "Z2^op")] * 3, [])
    assert chain.frozen() == rho.frozen()


def test_two_cell_rejects_a_component_off_its_cells():
    """NatTrans checks, on the module's own cells, what it checked on the
    product base: each component's domain is exactly its source cell
    (no element missing, none extra) and its image lies in its target cell."""
    f = example82
    comps = identity_two_cell(f).components
    cell, table = next((c, t) for c, t in comps.items() if t)
    x = next(iter(table))
    missing = {c: {y: v for y, v in t.items() if (c, y) != (cell, x)}
               for c, t in comps.items()}
    extra = {**comps, cell: {**table, ("extra",): x}}
    outside = {**comps, cell: {**table, x: ("outside",)}}
    uncovered = {c: t for c, t in comps.items() if c != cell}
    for bad in (missing, extra, outside, uncovered):
        with pytest.raises(MalformedTable, match="nat trans 'bad'"):
            NatTrans(f, f, bad, name="bad")
    assert NatTrans(f, f, comps).frozen() == identity_two_cell(f).frozen()


def _random_map(rng, dom, cod):
    """A random function dom -> cod as a table; IndexError if cod is empty and
    dom is not."""
    return {x: rng.choice(cod) for x in dom}


def _unlawful_modules(count):
    """Seeded random modules between I, Two, Disc2, Z2 and M whose tables the
    constructor accepts (every action is a map) and validate rejects."""
    rng = random.Random(0)
    cats = (I, Two, Disc2, Z2, M)
    found = 0
    while found < count:
        source, target = rng.choice(cats), rng.choice(cats)
        sets = {(b, a): tuple(f"x{i}" for i in range(rng.randint(0, 2)))
                for b in target.objects for a in source.objects}
        try:
            left = {(m, a): _random_map(rng, sets[(target.tgt[m], a)],
                                        sets[(target.src[m], a)])
                    for m in target.morphisms for a in source.objects}
            right = {(b, m): _random_map(rng, sets[(b, source.src[m])],
                                         sets[(b, source.tgt[m])])
                     for b in target.objects for m in source.morphisms}
        except IndexError:
            continue
        f = Profunctor(f"u{found}", source, target, sets, left, right)
        if not validate(f).ok:
            found += 1
            yield f


def _unlawful_weights(count):
    """Seeded random presheaves on Z2, M, Two, Span, Z3 and Par whose action
    tables are maps but break a presheaf law."""
    rng = random.Random(0)
    cats = (Z2, M, Two, Span, Z3, Par)
    found = 0
    while found < count:
        cat = rng.choice(cats)
        sets = {a: tuple(f"y{i}" for i in range(rng.randint(0, 3)))
                for a in cat.objects}
        try:
            actions = {m: _random_map(rng, sets[cat.tgt[m]], sets[cat.src[m]])
                       for m in cat.morphisms}
        except IndexError:
            continue
        phi = Presheaf(f"w{found}", cat, sets, actions)
        if not validate(phi).ok:
            found += 1
            yield phi


def test_unlawful_module_is_a_validation_failure():
    """An unlawful module is the caller's fault, not a disagreement between
    routes: has_right_adjoint raises ValidationFailed, never InternalMismatch."""
    for f in _unlawful_modules(300):
        with pytest.raises(ValidationFailed) as err:
            has_right_adjoint(f)
        assert str(err.value) == str(validate(f)), f.name


def test_unlawful_module_to_a_lift_or_extension_is_a_validation_failure():
    """right_lift and right_extend check the modules they are given, in
    either place, and report the unlawful one as the caller passed it."""
    for f in _unlawful_modules(300):
        one_b, one_a = id_module(f.target), id_module(f.source)
        calls = (lambda: right_lift(f, one_b), lambda: right_lift(one_b, f),
                 lambda: right_extend(f, one_a), lambda: right_extend(one_a, f))
        for call in calls:
            with pytest.raises(ValidationFailed) as err:
                call()
            assert str(err.value) == str(validate(f)), f.name


def test_module_of_unlawful_weight_is_a_validation_failure():
    for phi in _unlawful_weights(150):
        f = module_of_weight(phi)
        with pytest.raises(ValidationFailed) as err:
            has_right_adjoint(f)
        assert str(err.value) == str(validate(f)), phi.name


def test_small_projective_weight_adjoint_is_its_coweight_dual():
    # the splitting weight's dual: x -> {e} with the covariant action
    adj = has_right_adjoint(module_of_weight(PRESHEAVES["E"]))
    dual = _transpose(module_of_weight(corpus.covariant_hom(M, "*", "cov")))
    # E's adjoint has cells of size 1 everywhere, like E itself transposed
    assert sum(len(adj.right.cell(b, a))
               for b in adj.right.target.objects
               for a in adj.right.source.objects) == 1
    assert validate(adj.right).ok
    assert validate(dual).ok


def _module_of_coweight_oracle(psi):
    """A covariant weight psi on B as a module B -|-> I, cell by cell."""
    unit = unit_category()
    b_cat = psi.base.op()
    star = unit.objects[0]
    uid = unit.identity[star]
    sets = {(star, b): psi.sets[b] for b in b_cat.objects}
    left = {(uid, b): {x: x for x in sets[(star, b)]} for b in b_cat.objects}
    right = {(star, m): {x: psi.act(m, x) for x in sets[(star, b_cat.src[m])]}
             for m in b_cat.morphisms}
    return Profunctor(f"comod({psi.name})", b_cat, unit, sets, left, right)


def test_coweight_module_is_the_transposed_weight_module():
    """The module of a covariant weight psi is the transpose of psi's module
    as a weight: the same tables in the same order as the cell-by-cell
    module; only its target, I^op, is named apart from I."""
    for name, psi in sorted(PRESHEAVES.items()):
        got, want = _transpose(module_of_weight(psi)), _module_of_coweight_oracle(psi)
        assert got.source is want.source, name
        assert same_category(got.target, want.target), name
        assert (got.target.name, want.target.name) == ("I^op", "I")
        for table in ("sets", "left", "right"):
            assert (list(getattr(got, table).items())
                    == list(getattr(want, table).items())), (name, table)


def test_modules_of_weights_share_one_unit_category(monkeypatch):
    """Every module of a weight has the one source I, so deciding the adjoint
    of every corpus weight finds the generating set of I at most once."""
    calls = []
    generators = core._generators
    monkeypatch.setattr(core, "_generators",
                        lambda c, row: calls.append(c) or generators(c, row))
    modules = [module_of_weight(phi) for phi in PRESHEAVES.values()]
    unit = modules[0].source
    assert all(f.source is unit for f in modules)
    assert module_of_weight(PRESHEAVES["E"]).source is unit
    for f in modules:
        has_right_adjoint(f)
    assert sum(c is unit or c is unit.op() for c in calls) <= 1


def test_transpose_twice_gives_the_module_back():
    """``_transpose`` is the one route behind right extensions, the conjoint
    and the module of a covariant weight.  Read twice, every module of the
    composable pairs and every corpus weight module comes back with its
    sets, left and right tables in the same order, between its categories."""
    modules = {id(m): m for pair in _composable_pairs() for m in pair}
    modules.update((id(m), m) for m in map(module_of_weight, PRESHEAVES.values()))
    for f in modules.values():
        back = _transpose(_transpose(f))
        assert list(back.sets.items()) == list(f.sets.items()), f.name
        assert _nested(back.left) == _nested(f.left), f.name
        assert _nested(back.right) == _nested(f.right), f.name
        assert same_category(back.source, f.source), f.name
        assert same_category(back.target, f.target), f.name
    assert len(modules) == 797


def verify_lift_bijection(f, h, k):
    """The transpose bijection 2cells(k, {|f,h|}) <-> 2cells(f.k, h).

    Returns (count, forward) after checking the two directions are mutually
    inverse on the full enumerations; raises InternalMismatch otherwise.
    The extension bijection 2cells(k, [[g,h]]) <-> 2cells(k.g, h) is this
    one on the transposes of g, h and k.
    """
    lifted = right_lift(f, h)
    lift = lifted.lift
    fk = compose_modules(f, k)
    sigmas = two_cells(fk, h)
    taus = two_cells(k, lift)

    def transpose_of(tau):
        def image(b, c, rep):
            a, (y, z) = rep
            return lifted.decode[(a, c)][tau.at((a, c), z)].components[b][y]
        return _cellwise(fk, h, "", image)

    def transpose_back(sigma):
        def image(a, c, z):
            key = _freeze(lifted.f_col[a],
                          lambda b, y: sigma.at((b, c), fk.normalize(b, c, a, y, z)))
            if key not in lifted.decode[(a, c)]:
                raise InternalMismatch("lift transpose left the lift cell")
            return key
        return _cellwise(k, lift, "", image)

    forward = {tau.frozen(): transpose_of(tau).frozen() for tau in taus}
    backward = {sigma.frozen(): transpose_back(sigma).frozen() for sigma in sigmas}
    if set(forward.values()) != set(backward) or set(backward.values()) != set(forward):
        raise InternalMismatch("lift transpose is not onto")
    for tk, sk in forward.items():
        if backward[sk] != tk:
            raise InternalMismatch("lift transposes are not mutually inverse")
    return len(taus), forward


def test_right_lift_transpose_bijection():
    lifted = right_lift(example82, example82)
    count, forward = verify_lift_bijection(example82, example82, id_module(Z2))
    assert count == len(two_cells(id_module(Z2), lifted.lift))
    assert count >= 1


def test_right_extend_transpose_bijection():
    extended = right_extend(example82, example82)
    ext = extended.extension
    rng = random.Random(83)
    ks = [id_module(Span), ext, random_profunctor(rng, Span, Span, "k")]
    ks += [m for t in all_functors(Span, Span)[:3] for m in (_companion(t), _conjoint(t))]
    counts = []
    for k in ks:
        count, forward = verify_lift_bijection(*map(_transpose, (example82, example82, k)))
        assert count == len(two_cells(k, ext)) == len(forward), k.name
        counts.append(count)
    assert counts[0] >= 1 and len(set(counts)) > 1


def _extension_pairs():
    """(g, h) pairs with a shared source over every kind of module."""
    rng = random.Random(84)
    for cat in SMALL_CATEGORIES:
        hom = id_module(cat)
        yield hom, hom
        yield hom, random_profunctor(rng, cat, cat, f"r.{cat.name}")
    for a in SMALL_CATEGORIES:
        for b in SMALL_CATEGORIES:
            for t in all_functors(a, b)[:2]:
                lower, upper = _companion(t), _conjoint(t)
                yield lower, lower
                yield upper, upper
                yield lower, id_module(a)
                yield id_module(a), lower
                yield upper, id_module(b)
            yield (random_profunctor(rng, a, b, "p"),
                   random_profunctor(rng, a, a, "q"))
    weights = [module_of_weight(random_presheaf(rng, cat, f"w.{cat.name}"))
               for cat in SMALL_CATEGORIES]
    for g in weights:
        for h in weights:
            yield g, h
    yield example82, example82
    yield example82, id_module(example82.source)
    yield id_module(example82.source), example82


def _eager_right_lift(f, h):
    """The former right_lift: (lift, counit, composite), the composite and
    the counit built with the lift."""
    a_cat, c_cat = f.source, h.source
    f_col = {a: _column(f, a) for a in a_cat.objects}
    h_col = {c: _column(h, c) for c in c_cat.objects}
    decode = {}
    sets = {}
    for a in a_cat.objects:
        for c in c_cat.objects:
            nats = nat_trans_set(f_col[a], h_col[c])
            decode[(a, c)] = {n.frozen(): n for n in nats}
            sets[(a, c)] = tuple(n.frozen() for n in nats)

    def act(src, tgt, value):
        table = {}
        for key, n in decode[src].items():
            table[key] = _freeze(f_col[tgt[0]], lambda b, y: value(n, b, y))
            if table[key] not in decode[tgt]:
                raise InternalMismatch("lift action left the natural family set")
        return table

    left = {(alpha, c): act((a_cat.tgt[alpha], c), (a_cat.src[alpha], c),
                            lambda n, b, y: n.components[b][f.right_act(b, alpha, y)])
            for alpha in a_cat.morphisms for c in c_cat.objects}
    right = {(a, xi): act((a, c_cat.src[xi]), (a, c_cat.tgt[xi]),
                          lambda n, b, y: h.right_act(b, xi, n.components[b][y]))
             for a in a_cat.objects for xi in c_cat.morphisms}
    lift = Profunctor(f"lift({f.name},{h.name})", c_cat, a_cat, sets, left, right)
    composite = compose_modules(f, lift)

    def evaluate(b, c, rep):
        a, (y, key) = rep
        return decode[(a, c)][key].components[b][y]
    counit = _cellwise(composite, h, f"ev({f.name},{h.name})", evaluate)
    return lift, counit, composite


def _nested(table):
    return [(k, list(v.items())) for k, v in table.items()]


def _assert_lazy_lift_matches_eager(lifted, f, h):
    lift, counit, composite = _eager_right_lift(f, h)
    assert lifted.f is f and lifted.h is h
    got = lifted.counit
    assert lifted.counit is got and got.source is lifted.composite, lift.name
    assert got.target is h and got.name == counit.name, lift.name
    assert got.frozen() == counit.frozen(), lift.name
    for mine, theirs in ((lifted.lift, lift), (lifted.composite, composite)):
        assert list(mine.sets.items()) == list(theirs.sets.items()), theirs.name
        assert _nested(mine.left) == _nested(theirs.left), theirs.name
        assert _nested(mine.right) == _nested(theirs.right), theirs.name


def test_lazy_lift_fields_match_the_eager_lift():
    """The composite and counit built on first read equal the ones the
    former right_lift built with the lift, on example 8.2 and on the
    transposed pairs of every right extension of the end-formula test."""
    _assert_lazy_lift_matches_eager(right_lift(example82, example82), example82, example82)
    checked = 0
    for g, h in _extension_pairs():
        lifted = right_extend(g, h).lifted
        _assert_lazy_lift_matches_eager(lifted, lifted.f, lifted.h)
        assert (list(lifted.f.sets.items()), list(lifted.h.sets.items())) == \
            (list(_transpose(g).sets.items()), list(_transpose(h).sets.items()))
        checked += 1
    assert checked == 918


def test_right_extend_matches_end_formula():
    checked = 0
    for g, h in _extension_pairs():
        got = right_extend(g, h).extension
        want = right_extend_oracle(g, h)
        assert got.name == want.name
        assert got.source is want.source and got.target is want.target
        assert list(got.sets.items()) == list(want.sets.items()), want.name
        assert list(got.left.items()) == list(want.left.items()), want.name
        assert list(got.right.items()) == list(want.right.items()), want.name
        checked += 1
    assert checked > 300


def test_lift_of_hom_along_module_is_adjoint_candidate():
    # {|f, 1_B|} is the canonical right adjoint candidate for f
    f = _companion(corpus.embedM)
    lifted = right_lift(f, id_module(QM))
    adj = has_right_adjoint(f)
    assert adj.found
    assert modules_isomorphic(lifted.lift, adj.right)


def _composable_pairs():
    """(g, f) pairs over every kind of module the library builds."""
    rng = random.Random(82)
    ids = {cat.name: id_module(cat) for cat in SMALL_CATEGORIES}
    for cat in SMALL_CATEGORIES:
        yield ids[cat.name], ids[cat.name]
    for a in SMALL_CATEGORIES:
        for b in SMALL_CATEGORIES:
            for t in all_functors(a, b):
                lower, upper = _companion(t), _conjoint(t)
                yield upper, lower
                yield lower, upper
                yield ids[b.name], lower
                yield lower, ids[a.name]
    for cat in SMALL_CATEGORIES:
        for i in range(3):
            weight = module_of_weight(random_presheaf(rng, cat, f"w{i}"))
            coweight = _transpose(module_of_weight(random_presheaf(rng, cat.op(), f"v{i}")))
            yield ids[cat.name], weight
            yield coweight, weight
            yield weight, coweight
            yield coweight, ids[cat.name]
    ex_id = id_module(example82.target)
    yield ex_id, example82
    yield example82, id_module(example82.source)
    for t in all_functors(example82.target, Two):
        yield _companion(t), example82


def _assert_composite_matches_pair_modules(got, g, f):
    """got = g . f equals the pair-module route exactly: the same classes, the
    same class for every raw pair with the lookups in tag order, and the same
    action tables in the same order."""
    want, lookups = compose_modules_oracle(g, f)
    assert list(got.sets.items()) == list(want.sets.items()), got.name
    for mine, theirs in ((got.left, want.left), (got.right, want.right)):
        assert [(k, list(t.items())) for k, t in mine.items()] == \
            [(k, list(t.items())) for k, t in theirs.items()], got.name
    assert list(got.coends) == list(lookups), got.name
    for (c, a), lookup in lookups.items():
        co = got.coends[(c, a)]
        assert co.classes == want.sets[(c, a)], (got.name, c, a)
        tags = [(b, (y, x)) for b in g.source.objects
                for y in g.cell(c, b) for x in f.cell(b, a)]
        assert list(co.lookup.items()) == [(tag, lookup[tag]) for tag in tags], (got.name, c, a)


def test_compose_modules_matches_pair_module_route():
    checked = 0
    for g, f in _composable_pairs():
        _assert_composite_matches_pair_modules(compose_modules(g, f), g, f)
        checked += 1
    assert checked > 1000


def _tuple_tag_coend_pairs(g, f, c, a):
    """The coend's generating pairs as tag pairs: each u: s -> t of the
    middle category, identities included, identifies (y, u.x) over s with
    (y.u, x) over t."""
    mid = g.source
    for u in mid.morphisms:
        s, t = mid.src[u], mid.tgt[u]
        f_u, g_u = f.left[(u, a)], g.right[(c, u)]
        for y in g.cell(c, s):
            for x in f.cell(t, a):
                yield (s, (y, f_u[x])), (t, (g_u[y], x))


def _tuple_tag_compose(g, f):
    """g . f with one core.quotient of tuple tags per cell, over every
    morphism of the middle category rather than the non-identity ones that
    compose_modules links."""
    source, target = f.source, g.target
    coends, sets = {}, {}
    for c in target.objects:
        for a in source.objects:
            tags = [(b, (y, x)) for b in g.source.objects
                    for y in g.cell(c, b) for x in f.cell(b, a)]
            coends[(c, a)] = ColimitResult(*quotient(tags, _tuple_tag_coend_pairs(g, f, c, a)))
            sets[(c, a)] = coends[(c, a)].classes
    left = {(gamma, a): {(b, (y, x)): coends[(target.src[gamma], a)].find(
                             b, (g.left_act(gamma, b, y), x))
                         for b, (y, x) in sets[(target.tgt[gamma], a)]}
            for gamma in target.morphisms for a in source.objects}
    right = {(c, alpha): {(b, (y, x)): coends[(c, source.tgt[alpha])].find(
                              b, (y, f.right_act(b, alpha, x)))
                          for b, (y, x) in sets[(c, source.src[alpha])]}
             for c in target.objects for alpha in source.morphisms}
    return sets, left, right, coends


def _assert_composite_matches_tuple_tags(got, g, f):
    sets, left, right, coends = _tuple_tag_compose(g, f)
    assert list(got.sets.items()) == list(sets.items()), got.name
    for mine, theirs in ((got.left, left), (got.right, right)):
        assert [(k, list(t.items())) for k, t in mine.items()] == \
            [(k, list(t.items())) for k, t in theirs.items()], got.name
    assert list(got.coends) == list(coends), got.name
    for cell, co in coends.items():
        assert got.coends[cell].classes == co.classes, (got.name, cell)
        assert list(got.coends[cell].lookup.items()) == list(co.lookup.items()), (got.name, cell)


def test_compose_modules_matches_tuple_tags_on_composable_pairs():
    for g, f in _composable_pairs():
        _assert_composite_matches_tuple_tags(compose_modules(g, f), g, f)


def _adjoint_composites(monkeypatch, weights):
    """Every (g, f, g . f) that has_right_adjoint builds on the weights' modules."""
    built = []
    compose = profunctor.compose_modules

    def recording(g, f):
        built.append((g, f, compose(g, f)))
        return built[-1][2]
    monkeypatch.setattr(profunctor, "compose_modules", recording)
    for phi in weights:
        has_right_adjoint(module_of_weight(phi))
    return built


def test_compose_modules_matches_pair_module_route_on_adjoint_composites(monkeypatch):
    """110 composites: g.f on every weight, plus f.g (the counit's source)
    on the 42 weights whose comparison is invertible.  It was 446 while the
    triangle identities were checked on chains of coherence 2-cells, which
    composed eight more modules per adjunction (f.1_A, f.(g.f), (f.g).f,
    1_B.f and their mirrors for g), and 540 while each of the two lifts
    composed f with itself when built, whether or not its counit was read."""
    built = _adjoint_composites(monkeypatch, PRESHEAVES.values())
    assert len(built) == 110
    for g, f, got in built:
        _assert_composite_matches_pair_modules(got, g, f)


def test_adjoint_product_categories_are_pinned(monkeypatch):
    """has_right_adjoint builds a product base only to check the naturality
    of the counit and the unit of each adjunction it finds, and validates
    each module once; the patched ``profunctor.validate`` counts only those
    module validations, as the naturality checks go through
    ``core._require_valid``, and the patched ``core.product_category`` the
    product bases that ``core._validate_nat`` builds for them.  Over the 68
    weights that is 84 products for the 42 adjunctions, one GSet x GSet^op
    per absolute GSet weight, for its counit (572 while every 2-cell built
    its own base, 750 before lifts built their counit on first read);
    zero.GSet, whose comparison fails, builds none (one, I x I^op, while
    2-cells built bases).  Naturality reads a product's morphisms only, so
    none of the 84 builds its composition table, and reads each module's
    action off its tables, so the 68 calls construct 363 presheaves (531
    while ``_validate_nat`` built two product views per call, 168 in all)."""
    products, validated = [], []
    product, check = core.product_category, profunctor.validate
    monkeypatch.setattr(core, "product_category", lambda a, b: (
        products.append((a.name, b.name, product(a, b))) or products[-1][2]))
    monkeypatch.setattr(profunctor, "validate", lambda m: validated.append(m) or check(m))
    modules = [module_of_weight(phi) for phi in PRESHEAVES.values()]
    presheaves = _count_presheaves(monkeypatch)
    found = sum(has_right_adjoint(f).found for f in modules)
    assert (len(products), len(validated), found) == (84, 68, 42)
    assert len(presheaves) == 363
    assert [(a, b) for a, b, _ in products].count(("GSet", "GSet^op")) == 4
    assert [p.name for _, _, p in products if "compose_table" in vars(p)] == []
    products.clear()
    assert not has_right_adjoint(module_of_weight(PRESHEAVES["zero.GSet"])).found
    assert products == []


@pytest.mark.parametrize("family, value, triangle", [
    (("1", "g"), "g", "(counit.f)(f.unit)"),
    (("g", "1"), "1", "(g.counit)(unit.g)")])
def test_a_corrupted_counit_breaks_a_triangle_identity(monkeypatch, family, value, triangle):
    """On the representable of Z2, the counit at the class of (1, t) is t(1).
    Setting it to another value for the identity t breaks the first triangle;
    doing so for the swap breaks only the second.  Each identity is checked."""
    f = module_of_weight(PRESHEAVES["Y.Z2.*"])
    assert has_right_adjoint(f).found
    lift = profunctor._right_lift

    def corrupted(f, h):
        """{|f,h|}, its counit sending the class of (1, family) to value
        when h is 1_B."""
        lifted = lift(f, h)
        if h is not f:
            lifted.counit.components[("*", "*")][("*", ("1", (family,)))] = value
        return lifted
    monkeypatch.setattr(profunctor, "_right_lift", corrupted)
    with pytest.raises(InternalMismatch, match=f"triangle identity {re.escape(triangle)} fails"):
        has_right_adjoint(f)


def _counit_corruptions():
    """(phi, cell, x, value) for every way to send one element x of the
    counit ev(f, 1_B) of an absolute corpus weight outside GSet and FinSet12
    to another element of its target cell."""
    for phi in PRESHEAVES.values():
        if phi.base.name in ("GSet", "FinSet12"):
            continue
        res = has_right_adjoint(module_of_weight(phi))
        if res.found:
            for cell, table in res.counit.components.items():
                for x, y in table.items():
                    for value in res.counit.target.cell(*cell):
                        if value != y:
                            yield phi, cell, x, value


def test_an_unnatural_counit_is_never_returned(monkeypatch):
    """Each of the 42 single-value corruptions of ev(f, 1_B), made as the
    counit is built, raises InternalMismatch.  40 leave the counit unnatural
    and fail its naturality check, before the triangle identities run; the
    other 2 stay natural and fail the first triangle.  Before the counit was
    checked natural when built, 16 of the 42 passed both triangles and were
    returned as found."""
    cellwise = profunctor._cellwise
    corruptions = list(_counit_corruptions())
    assert (len(corruptions), len({phi.name for phi, *_ in corruptions})) == (42, 11)
    raised = []
    for phi, bad_cell, bad_x, value in corruptions:

        def corrupted(src, tgt, name, image):
            if not (name.startswith("ev(") and tgt.name.startswith("1_")):
                return cellwise(src, tgt, name, image)
            return cellwise(src, tgt, name, lambda b, c, x: (
                value if ((b, c), x) == (bad_cell, bad_x) else image(b, c, x)))
        monkeypatch.setattr(profunctor, "_cellwise", corrupted)
        with pytest.raises(InternalMismatch) as caught:
            has_right_adjoint(module_of_weight(phi))
        monkeypatch.undo()
        raised.append(str(caught.value).split(":")[0].split(" fails")[0])
    assert {m: raised.count(m) for m in raised} == {
        "lift counit not natural": 40, "triangle identity (counit.f)(f.unit)": 2}


def test_adjoint_composites_of_a_gset_weight_are_pinned(monkeypatch):
    """The two composites of Y.GSet.GG, g.f and f.g, and the pairs their
    quotients read: one per raw pair linked by a generator of the middle
    category, ``core._gens``.  While every non-identity morphism was a move,
    they read 4,368 pairs.  While the triangle identities were checked on
    chains of coherence 2-cells, eight more composites were built; the two
    largest, (5440, 320) and (5712, 336) tags and classes, were the triple
    composites g.(f.g) and (g.f).g, and their quotients read 194,856 pairs."""
    consumed = []
    quotient = profunctor.quotient

    def counting(tags, pairs):
        pairs = list(pairs)
        consumed.append(len(pairs))
        return quotient(tags, iter(pairs))
    monkeypatch.setattr(profunctor, "quotient", counting)
    built = _adjoint_composites(monkeypatch, [PRESHEAVES["Y.GSet.GG"]])
    sizes = sorted((sum(len(co.lookup) for co in c.coends.values()),
                    sum(len(classes) for classes in c.sets.values())) for _, _, c in built)
    assert sizes == [(272, 16), (420, 420)]
    linked = sum(len(g.cell(c, mid.src[u])) * len(f.cell(mid.tgt[u], a))
                 for g, f, _ in built for mid in [g.source]
                 for c in g.target.objects for a in f.source.objects
                 for u in core._gens(mid))
    assert sum(consumed) == linked == 784


def test_has_right_adjoint_decides_each_two_cell_once(monkeypatch):
    """No component of any 2-cell is tested for bijectivity twice.  On the
    weights outside GSet and FinSet12 that is 59 components, the one cell of
    each weight's comparison; it was 605 while the unitors and associators
    of the triangle chains were each decided invertible."""
    decided = []
    bijectivity = core._bijectivity
    monkeypatch.setattr(core, "_bijectivity", lambda images, onto, message: (
        decided.append(gc.get_referents(images)[0]) or bijectivity(images, onto, message)))
    for phi in PRESHEAVES.values():
        if phi.base.name not in ("GSet", "FinSet12"):
            has_right_adjoint(module_of_weight(phi))
    assert len(decided) == 59
    assert len({id(table) for table in decided}) == len(decided)


def _adjoint_outcome(f):
    """has_right_adjoint's verdict and reason, or the message it raised."""
    try:
        res = has_right_adjoint(f)
    except InternalMismatch as caught:
        return "raised", str(caught)
    return res.found, res.reason


def _routes_agree(f):
    """The outcome of has_right_adjoint on f, after checking that the chain
    oracle in place of the element check gives the same one."""
    got = _adjoint_outcome(f)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(profunctor, "_check_triangles", _chain_triangles)
        assert _adjoint_outcome(f) == got, f.name
    return got


def _corrupted_cellwise(bad_name, bad_cell, bad_x, value):
    """profunctor._cellwise, except that the 2-cell named bad_name sends
    bad_x in bad_cell to value."""
    cellwise = profunctor._cellwise

    def corrupted(src, tgt, name, image):
        if name != bad_name:
            return cellwise(src, tgt, name, image)
        return cellwise(src, tgt, name, lambda t, s, x: (
            value if ((t, s), x) == (bad_cell, bad_x) else image(t, s, x)))
    return corrupted


def test_triangles_on_elements_match_the_chains_on_corpus_weights():
    outcomes = [_routes_agree(module_of_weight(phi)) for phi in PRESHEAVES.values()]
    assert (len(outcomes), outcomes.count((True, ""))) == (68, 42)


def test_triangles_on_elements_match_the_chains_on_companions():
    """The cases of test_companion_has_conjoint_as_right_adjoint, and the
    conjoints themselves."""
    for t in (corpus.embedM, all_functors(Two, M)[0], corpus.orbit):
        lower, upper = _companion(t), _conjoint(t)
        assert _routes_agree(lower) == (True, ""), t.name
        _routes_agree(upper)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_triangles_on_elements_match_the_chains_on_random_companions(seed):
    """A companion T_* always has a right adjoint, T^*; its source A is
    never the unit category, so the unit has more than one cell.  Then each
    single-value corruption of the unit at an identity raises, either at the
    unit's naturality check or at a triangle, the same way on both routes."""
    rng = random.Random(seed)
    source = random_concrete_category(rng, "A", max_nonid=4)
    while len(source.morphisms) == 1:
        source = random_concrete_category(rng, "A", max_nonid=4)
    target = random_concrete_category(rng, "B", max_nonid=4)
    f = _companion(rng.choice(all_functors(source, target)))
    assert _routes_agree(f) == (True, "")
    unit = has_right_adjoint(f).unit
    for a in source.objects:
        one = source.id_of(a)
        for value in unit.target.cell(a, a):
            if value != unit.at((a, a), one):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(profunctor, "_cellwise",
                                  _corrupted_cellwise(unit.name, (a, a), one, value))
                    assert _routes_agree(f)[0] == "raised"


def _unit_corruptions():
    """(phi, name, cell, x, value) for every way to send the identity x of
    the unit of an absolute corpus weight outside GSet and FinSet12 to
    another class of its target cell (g.f)(a, a)."""
    for phi in PRESHEAVES.values():
        if phi.base.name in ("GSet", "FinSet12"):
            continue
        res = has_right_adjoint(module_of_weight(phi))
        if res.found:
            a_cat = res.unit.source.source
            for a in a_cat.objects:
                x = a_cat.id_of(a)
                for value in res.unit.target.cell(a, a):
                    if value != res.unit.at((a, a), x):
                        yield phi, res.unit.name, (a, a), x, value


def test_triangles_on_elements_match_the_chains_on_corrupted_units_and_counits(monkeypatch):
    """Every single-value corruption of the unit at an identity, and of the
    counit ev(f, 1_B), made as the 2-cell is built: both routes raise the
    same message on each.  A is the unit category, so each of the 6 unit
    corruptions stays natural and only the triangle identities catch it."""
    corruptions = list(_unit_corruptions())
    assert len(corruptions) == 6
    corruptions += [(phi, f"ev({module_of_weight(phi).name},1_{phi.base.name})", *rest)
                    for phi, *rest in _counit_corruptions()]
    raised = []
    for phi, *corruption in corruptions:
        monkeypatch.setattr(profunctor, "_cellwise", _corrupted_cellwise(*corruption))
        verdict, message = _routes_agree(module_of_weight(phi))
        monkeypatch.undo()
        assert verdict == "raised", (phi.name, corruption)
        raised.append(message.split(":")[0].split(" fails")[0])
    assert {m: raised.count(m) for m in raised} == {
        "lift counit not natural": 40, "triangle identity (counit.f)(f.unit)": 8}


def _canonical_two_cells():
    """Identity, unitors, associator and whiskers on the coherence modules,
    the counit of a right lift, and the comparison, unit and counit of
    has_right_adjoint on every corpus weight, GSet and FinSet12 included:
    their GSet x GSet^op and FinSet12 x FinSet12^op checks are the largest
    that validate runs on a 2-cell."""
    for f in _coherence_modules():
        one_b, one_a = id_module(f.target), id_module(f.source)
        c_bf, c_fa = compose_modules(one_b, f), compose_modules(f, one_a)
        yield identity_two_cell(f)
        yield left_unitor(f, c_bf)
        yield right_unitor(f, c_fa)
        yield associator(one_b, f, one_a, compose_modules(c_bf, one_a),
                         compose_modules(one_b, c_fa), c_fa)
        for sigma in two_cells(f, f):
            yield whisker_left(one_b, sigma, c_bf, c_bf)
            yield whisker_right(sigma, one_a, c_fa, c_fa)
    yield right_lift(example82, example82).counit
    for phi in PRESHEAVES.values():
        res = has_right_adjoint(module_of_weight(phi))
        yield res.comparison
        if res.found:
            yield res.unit
            yield res.counit


def test_canonical_two_cells_are_natural():
    """Building a 2-cell checks only each cell's domain and image; every
    canonical 2-cell must also pass the naturality check of validate, with
    the report of its product view, and its frozen form is that of its
    product view."""
    count = 0
    for cell in _canonical_two_cells():
        view = _product_view(cell)
        report = validate(cell)
        assert report.ok, cell.name
        assert report == validate(view), cell.name
        assert cell.frozen() == view.frozen(), cell.name
        count += 1
    assert count == 179


def _single_value_corruptions(cell):
    """cell with one element sent to another element of its target cell, in
    every way."""
    for at, table in cell.components.items():
        for x, y in table.items():
            for value in cell.target.cell(*at):
                if value != y:
                    comps = {**cell.components, at: {**table, x: value}}
                    yield NatTrans(cell.source, cell.target, comps, name=cell.name)


def _random_families(rng, f, g, count):
    """count random families f => g, each component a random map between
    the cells; none if a nonempty cell of f meets an empty one of g."""
    try:
        for i in range(count):
            yield NatTrans(f, g, {c: _random_map(rng, xs, g.sets[c]) for c, xs in f.sets.items()},
                           name=f"r{i}")
    except IndexError:
        return


def _assert_reports_match_the_product_view(cells):
    """validate on each 2-cell gives the report of its product view: the
    same kind, name and violations, in order; returns the reports."""
    reports = []
    for cell in cells:
        reports.append(validate(cell))
        assert reports[-1] == validate(_product_view(cell)), cell.name
    return reports


def test_validate_reports_a_corrupted_two_cell_as_its_product_view():
    """Every single-value corruption of the unit and the counit of each
    adjunction found outside GSet gets from ``validate`` the report of its
    product view: the same kind, name and violations, in order.  112 of the
    123 are unnatural; the other 11 stay natural."""
    corrupted = []
    for phi in PRESHEAVES.values():
        if phi.base.name == "GSet":
            continue
        res = has_right_adjoint(module_of_weight(phi))
        for cell in (res.unit, res.counit) if res.found else ():
            corrupted.extend(_single_value_corruptions(cell))
    reports = _assert_reports_match_the_product_view(corrupted)
    assert (len(reports), sum(r.ok for r in reports)) == (123, 11)
    assert {v.law for r in reports for v in r.violations} == {"naturality"}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_CATEGORIES[:6]), st.sampled_from(SMALL_CATEGORIES[:6]),
       st.integers(0, 10 ** 6))
def test_validate_matches_the_product_view_on_random_families(source, target, seed):
    """Random families f => f and f => g between random lawful modules,
    natural or not, get the report of their product view."""
    rng = random.Random(seed)
    f, g = (random_profunctor(rng, source, target, name) for name in "fg")
    _assert_reports_match_the_product_view(
        [*_random_families(rng, f, f, 4), *_random_families(rng, f, g, 4)])


def test_validate_matches_the_product_view_on_unlawful_modules():
    """On modules whose actions break the laws, an identity of the base
    need not act as the identity and the two ways round a square of actions
    need not agree, so the action of (beta, alpha) must be read exactly as
    the product view reads it: the right action of alpha after the left
    action of beta.  Every random family on 300 such modules gets the
    report of its product view."""
    rng = random.Random(1)
    reports = _assert_reports_match_the_product_view(
        cell for f in _unlawful_modules(300) for cell in _random_families(rng, f, f, 4))
    assert (len(reports), sum(not r.ok for r in reports)) == (1200, 754)


def test_a_two_cell_across_endpoint_categories_is_a_base_mismatch():
    """A family between modules whose endpoint categories differ, here the
    hom modules of Two and of a copy of Two with renamed morphisms, gets a
    base-mismatch report, as a family between presheaves on two bases does."""
    renamed = {m: f"{m}'" for m in Two.morphisms}
    copy = FinCategory("Two'", Two.objects,
                       [(renamed[m], Two.src[m], Two.tgt[m]) for m in Two.morphisms],
                       {a: renamed[m] for a, m in Two.identity.items()},
                       {(renamed[g], renamed[f]): renamed[h]
                        for (g, f), h in Two.compose_table.items()})
    f, g = id_module(Two), id_module(copy)
    cell = NatTrans(f, g, {at: {x: renamed[x] for x in f.cell(*at)} for at in f.sets},
                    name="rename")
    report = validate(cell)
    assert (report.kind, report.name, [v.law for v in report.violations]) == \
        ("nat-trans", "rename", ["base-mismatch"])
