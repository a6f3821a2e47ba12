import importlib
import inspect
import itertools
import pkgutil
import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from fincat import core, corpus, limits, profunctor, validate, workspace
from fincat.cauchy import cauchy_completion, is_small_projective
from fincat.core import (FinCategory, FinFunctor, FunctorTransform, NatTrans,
                         Presheaf, Profunctor, _bijectivity, _composable_pairs, _entry,
                         _freeze, _pullback,
                         category_of_elements, compose_functors, covariant,
                         full_subcategory, identity_functor, is_connected,
                         is_filtered, nat_compose, nat_identity,
                         product_category, quotient, same_category,
                         unit_category)
from fincat.corpus import (Chain3, Disc2, Empty, FinSet12, GSet, I, M, N5, Par, QM,
                           Span, Two, Z2, Z3, PRESHEAVES)
from fincat.equivalence import all_functors
from fincat.errors import InternalMismatch, MalformedTable
from fincat.kan import restrict
from fincat.limits import nat_trans_set
from test_limits import f3
from util import (SMALL_CATEGORIES, all_pairs_compose, composable_pairs_oracle,
                  nonassociative_table, presheaf_tables_ok, product_category_oracle,
                  profunctor_tables_ok, quotient_oracle, random_concrete_category,
                  random_presheaf, random_profunctor, validate_category_oracle)


def test_compose_is_first_then_second():
    # compose(g, f) means "first f, then g"
    assert Two.compose("id1", "f") == "f"
    assert Two.compose("f", "id0") == "f"
    assert Z3.compose("g", "g") == "h"
    assert Chain3.compose("1<=2", "0<=1") == "0<=2"


def test_hom_and_identities():
    assert Two.hom("0", "1") == ("f",)
    assert Two.hom("1", "0") == ()
    assert M.hom("*", "*") == ("1", "e")
    assert M.id_of("*") == "1"
    assert Span.id_of("2") == "id2"


def test_missing_composite_is_rejected():
    with pytest.raises(MalformedTable):
        FinCategory("broken", ["a"], [("i", "a", "a"), ("e", "a", "a")],
                    {"a": "i"}, {("i", "i"): "i", ("i", "e"): "e",
                                 ("e", "i"): "e"}).compose("e", "e")


def test_op_is_a_cached_involution():
    for cat in (Two, M, Z2, Span, GSet):
        op = cat.op()
        assert op.op() is cat
        assert cat.op() is op
        assert set(op.morphisms) == set(cat.morphisms)
        for f in cat.morphisms:
            assert op.src[f] == cat.tgt[f] and op.tgt[f] == cat.src[f]


def test_public_surface_is_traceable():
    # perfbench/spans.py wraps every public module-level function and cannot
    # time a generator; every exported name must resolve
    import fincat
    for info in pkgutil.iter_modules(fincat.__path__):
        mod = importlib.import_module(f"fincat.{info.name}")
        for attr, fn in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                assert not inspect.isgeneratorfunction(fn), f"{mod.__name__}.{attr}"
    for name in fincat.__all__:
        assert hasattr(fincat, name), name


def test_op_reverses_composition():
    op = Chain3.op()
    assert op.compose("0<=1", "1<=2") == "0<=2"
    with pytest.raises(MalformedTable):
        op.compose("1<=2", "0<=1")


@st.composite
def tags_and_pairs(draw):
    """Tags whose values are shuffled, so least index and least value differ."""
    n = draw(st.integers(0, 12))
    tags = [("t", i) for i in draw(st.permutations(range(n)))]
    if not n:
        return tags, []
    index = st.integers(0, n - 1)
    picks = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    return tags, [(tags[i], tags[j]) for i, j in picks]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tags_and_pairs())
def test_quotient_matches_breadth_first_closure(case):
    tags, pairs = case
    assert quotient(tags, iter(pairs)) == quotient_oracle(tags, pairs)


@st.composite
def index_pairs(draw):
    """Up to 300 indices, with a long chain in shuffled order, self-pairs and
    repeated pairs, all in shuffled order."""
    n = draw(st.integers(1, 300))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=n // 2))
    chain = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    pairs += zip(chain, chain[1:])
    if draw(st.booleans()):     # a descending chain: the longest parent paths
        pairs += zip(range(n - 1, 0, -1), range(n - 2, -1, -1))
    pairs += [(i, i) for i in draw(st.lists(index, max_size=10))]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=20))
    return n, draw(st.permutations(pairs))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(index_pairs())
def test_least_reps_matches_breadth_first_closure(case):
    """quotient's union-find on index tags, where each representative is the
    least index of its class, against the oracle."""
    n, pairs = case
    _, lookup = quotient_oracle(range(n), pairs)
    _, got = quotient(range(n), iter(pairs))
    assert [got[i] for i in range(n)] == [lookup[i] for i in range(n)]


def test_quotient_representatives_are_least_indices():
    classes, lookup = quotient("dcba", [("a", "d"), ("b", "c"), ("c", "a")])
    assert classes == ("d",)
    assert set(lookup.values()) == {"d"}
    classes, lookup = quotient("xyz", iter([("z", "y")]))
    assert classes == ("x", "y")
    assert lookup == {"x": "x", "y": "y", "z": "y"}


def test_unit_category_shape():
    u = unit_category()
    assert u.objects == ("*",)
    assert u.morphisms == ("id",)
    assert u.compose("id", "id") == "id"


def test_product_category_counts():
    p = product_category(Two, Two)
    assert len(p.objects) == 4
    assert len(p.morphisms) == 9
    assert validate(p).ok
    assert p.compose(("id1", "f"), ("f", "id0")) == ("f", "f")


def test_product_category_matches_all_pairs_filter():
    for c in SMALL_CATEGORIES:
        for d in SMALL_CATEGORIES:
            got = product_category(c, d).compose_table
            want = product_category_oracle(c, d)
            assert list(got.items()) == list(want.items()), (c.name, d.name)


def test_product_category_of_gset_with_its_opposite_count():
    assert len(product_category(GSet, GSet.op()).compose_table) == 216225


def test_product_category_rejects_a_missing_composite():
    broken = FinCategory("broken", ["a"], [("i", "a", "a"), ("e", "a", "a")],
                         {"a": "i"}, {("i", "i"): "i", ("i", "e"): "e",
                                      ("e", "i"): "e"})
    with pytest.raises(MalformedTable):
        product_category(broken, Two)
    with pytest.raises(MalformedTable):
        product_category(Two, broken)


def test_product_category_builds_each_pair_id_once():
    """Every compose key component and value of GSet x GSet^op is one of the
    841 product morphism ids, each a single object shared with the morphism
    list and the identity table."""
    p = product_category(GSet, GSet.op())
    shared = {id(m) for pair, h in p.compose_table.items() for m in (*pair, h)}
    assert len(shared) == len(p.morphisms) == 841
    assert {id(m) for m in p.morphisms} == shared
    assert {id(m) for m in p.identity.values()} <= shared
    want = product_category_oracle(GSet, GSet.op())
    assert list(p.compose_table.items()) == list(want.items())


def _product_compose_dict_oracle(c, d):
    """The composition table of c x d as product_category built it when it
    filled a dict of its own and FinCategory copied it: the same loop."""
    ids = {f: {g: (f, g) for g in d.morphisms} for f in c.morphisms}
    d_rows = [(g2, [(g1, d.compose(g2, g1)) for g1 in d.into[d.src[g2]]])
              for g2 in d.morphisms]
    compose = {}
    for f2 in c.morphisms:
        c_row = [(ids[f1], ids[c.compose(f2, f1)]) for f1 in c.into[c.src[f2]]]
        for g2, d_row in d_rows:
            m2 = ids[f2][g2]
            for row1, row_h in c_row:
                for g1, k in d_row:
                    compose[(m2, row1[g1])] = row_h[k]
    return compose


def test_product_table_matches_the_dict_loop_on_adjoint_products(monkeypatch):
    """The products that has_right_adjoint builds over the 68 corpus weights,
    for the naturality of each counit and unit in ``core._validate_nat``: 84
    calls on 14 distinct pairs, each table equal to the dict loop's, items in
    order."""
    built = []
    product = core.product_category
    monkeypatch.setattr(core, "product_category",
                        lambda c, d: built.append((c, d)) or product(c, d))
    for phi in PRESHEAVES.values():
        profunctor.has_right_adjoint(profunctor.module_of_weight(phi))
    distinct = {(c.name, d.name): (c, d) for c, d in built}
    assert (len(built), len(distinct)) == (84, 14)
    for c, d in distinct.values():
        got = product_category(c, d).compose_table
        assert list(got.items()) == list(_product_compose_dict_oracle(c, d).items()), c.name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_product_table_matches_the_dict_loop_on_random_categories(seed):
    rng = random.Random(seed)
    c = random_concrete_category(rng, "C", max_nonid=6)
    d = random_concrete_category(rng, "D", max_nonid=6)
    for left, right in ((c, d), (c, d.op()), (d, c)):
        got = product_category(left, right).compose_table
        want = _product_compose_dict_oracle(left, right)
        assert list(got.items()) == list(want.items())


def test_product_table_is_the_only_dict_built():
    """GSet x GSet^op reads its composites into its table from a generator,
    so the traced peak of building it and reading the table stays under 1.25
    times what the result retains (1.46 while a dict was built and then
    copied)."""
    op = GSet.op()
    tracemalloc.start()
    try:
        p = product_category(GSet, op)
        assert len(p.compose_table) == 216225
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * retained


def _unknown_reference_oracle(name, morphisms, compose):
    """The message of the first unknown id in (g, f, h) order over the
    table, by a membership test per id; None if every id is known."""
    known = {m for m, _, _ in morphisms}
    for (g, f), h in compose.items():
        for m in (g, f, h):
            if m not in known:
                return f"{name}: compose table references unknown morphism {m!r}"
    return None


_REFERENCE_TABLES = SMALL_CATEGORIES + [N5, QM, Z3, product_category(Two, Z2),
                                        product_category(Span, M.op())]


@st.composite
def tables_with_unknown_ids(draw):
    """A lawful table with an unknown id planted in the g, f or h position
    of one to three random entries."""
    cat = draw(st.sampled_from(_REFERENCE_TABLES))
    compose = dict(cat.compose_table)
    for _ in range(draw(st.integers(1, 3))):
        pairs = list(compose)
        (g, f) = pair = pairs[draw(st.integers(0, len(pairs) - 1))]
        bad = draw(st.sampled_from(["zz", ("f", "zz"), 0, None]))
        where = draw(st.sampled_from("gfh"))
        if where == "h":
            compose[pair] = bad
        else:
            h = compose.pop(pair)
            compose[(bad, f) if where == "g" else (g, bad)] = h
    morphisms = [(m, cat.src[m], cat.tgt[m]) for m in cat.morphisms]
    return cat, morphisms, compose


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tables_with_unknown_ids())
def test_unknown_compose_reference_is_named_like_the_per_id_loop(case):
    cat, morphisms, compose = case
    want = _unknown_reference_oracle(cat.name, morphisms, compose)
    assert want is not None
    with pytest.raises(MalformedTable) as err:
        FinCategory(cat.name, cat.objects, morphisms, cat.identity, compose)
    assert str(err.value) == want


def test_lawful_corpus_tables_and_products_pass_the_reference_check():
    products = [product_category(c, d.op()) for c in SMALL_CATEGORIES
                for d in SMALL_CATEGORIES]
    for cat in list(corpus.CATEGORIES.values()) + products:
        morphisms = [(m, cat.src[m], cat.tgt[m]) for m in cat.morphisms]
        assert _unknown_reference_oracle(cat.name, morphisms, cat.compose_table) is None
        copy = FinCategory(cat.name, cat.objects, morphisms, cat.identity,
                           cat.compose_table)
        assert same_category(copy, cat), cat.name


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from("abc"),
                          st.sampled_from("abc")), max_size=10))
def test_composable_pairs_match_all_pairs_filter(morphisms):
    assert list(_composable_pairs(morphisms)) == composable_pairs_oracle(morphisms)


def _violations(cat):
    return [(v.law, v.witness) for v in validate(cat).violations]


@st.composite
def magma_tables(draw):
    """A one-object category table whose composition is an arbitrary magma."""
    n = draw(st.integers(1, 4))
    elements = [f"m{i}" for i in range(n)]
    compose = {(g, f): elements[draw(st.integers(0, n - 1))]
               for g in elements for f in elements}
    return FinCategory("magma", ["*"], [(m, "*", "*") for m in elements],
                       {"*": "m0"}, compose)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(magma_tables())
def test_validate_matches_all_pairs_triple_loop_on_magmas(cat):
    assert _violations(cat) == validate_category_oracle(cat)


@st.composite
def corrupted_tables(draw):
    """A corpus category with one composite replaced by a parallel morphism,
    one composite dropped, or one noncomposable pair added."""
    cat = draw(st.sampled_from(SMALL_CATEGORIES + [N5, QM, Z3]))
    compose = dict(cat.compose_table)
    pairs = list(compose)
    g, f = pairs[draw(st.integers(0, len(pairs) - 1))]
    how = draw(st.sampled_from(["replace", "drop", "add"]))
    if how == "replace":
        compose[(g, f)] = draw(st.sampled_from(cat.hom(cat.src[f], cat.tgt[g])))
    elif how == "drop":
        del compose[(g, f)]
    else:
        h = draw(st.sampled_from(cat.morphisms))
        if cat.tgt[h] != cat.src[g]:
            compose[(g, h)] = g
    morphisms = [(m, cat.src[m], cat.tgt[m]) for m in cat.morphisms]
    return FinCategory(cat.name, cat.objects, morphisms, cat.identity, compose)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(corrupted_tables())
def test_validate_matches_all_pairs_triple_loop_on_corrupted_tables(cat):
    assert _violations(cat) == validate_category_oracle(cat)


@pytest.fixture(scope="module")
def long_row_categories():
    """Categories whose composition rows hold up to 113 entries; the magmas
    and corrupted corpus tables above have rows of at most 4."""
    return [GSet, f3(), cauchy_completion(GSet).completion,
            cauchy_completion(FinSet12).completion]


def _corrupt_once(cat, how, rng):
    """A copy of cat with one composite replaced by another parallel morphism,
    dropped, or given the wrong endpoints, or one noncomposable pair added;
    "none" copies the table unchanged."""
    compose = dict(cat.compose_table)
    if how == "replace":
        pair, h = rng.choice([(p, h) for p, h in compose.items()
                              if len(cat.hom(cat.src[h], cat.tgt[h])) > 1])
        compose[pair] = rng.choice([m for m in cat.hom(cat.src[h], cat.tgt[h]) if m != h])
    elif how == "drop":
        del compose[rng.choice(list(compose))]
    elif how == "add":
        g, f = rng.choice([(g, f) for g in cat.morphisms for f in cat.morphisms
                           if cat.tgt[f] != cat.src[g]])
        compose[(g, f)] = g
    elif how == "endpoints":
        pair, h = rng.choice(list(compose.items()))
        compose[pair] = rng.choice([m for m in cat.morphisms if cat.src[m] != cat.src[h]])
    morphisms = [(m, cat.src[m], cat.tgt[m]) for m in cat.morphisms]
    return FinCategory(cat.name, cat.objects, morphisms, cat.identity, compose)


@pytest.mark.parametrize("how", ["none", "replace", "drop", "add", "endpoints"])
def test_validate_matches_all_pairs_triple_loop_on_long_rows(long_row_categories, how):
    rng = random.Random(how)
    for cat in long_row_categories:
        for _ in range(2):
            bent = _corrupt_once(cat, how, rng)
            assert _violations(bent) == validate_category_oracle(bent), cat.name


def test_validate_accepts_the_completion_of_f3():
    assert validate(cauchy_completion(f3()).completion).ok


@st.composite
def unital_tables(draw):
    """A table on one or two objects, its morphisms in a drawn order, whose
    identities are fixed and whose other composites are each drawn among the
    morphisms with the right endpoints: the endpoints and identity laws hold,
    and associativity may or may not."""
    objects = ["a", "b"][:draw(st.integers(1, 2))]
    ends = st.sampled_from(objects)
    morphisms = [(f"1{x}", x, x) for x in objects]
    morphisms += [(f"m{i}", draw(ends), draw(ends)) for i in range(draw(st.integers(1, 4)))]
    identity = {x: f"1{x}" for x in objects}
    ids = set(identity.values())
    compose = {}
    for g, g_src, g_tgt in morphisms:
        for f, f_src, f_tgt in morphisms:
            if f_tgt != g_src:
                continue
            if g in ids:
                compose[(g, f)] = f
            elif f in ids:
                compose[(g, f)] = g
            else:
                compose[(g, f)] = draw(st.sampled_from(
                    [m for m, s, t in morphisms if s == f_src and t == g_tgt]))
    return FinCategory("unital", objects, draw(st.permutations(morphisms)),
                       identity, compose)


def test_validate_matches_all_pairs_triple_loop_on_unital_tables():
    # lawful endpoints and identities send every table to the generator check:
    # the associative ones end there, the others go on to the loop over
    # every middle
    associative = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(unital_tables())
    def check(cat):
        want = validate_category_oracle(cat)
        assert _violations(cat) == want
        assert {law for law, _ in want} <= {"associativity"}
        associative.add(not want)

    check()
    assert associative == {True, False}


@pytest.mark.parametrize("base, copies", [(GSet, 8), (FinSet12, 60)])
def test_validate_matches_all_pairs_triple_loop_on_corrupted_completions(base, copies):
    # a composite of two non-identities replaced by a parallel morphism keeps
    # the identity laws, so validate decides associativity on its generators
    cat = cauchy_completion(base).completion
    ids = set(cat.identity.values())
    choices = [(pair, m) for pair, h in cat.compose_table.items() if not ids & set(pair)
               for m in cat.hom(cat.src[h], cat.tgt[h]) if m != h]
    morphisms = [(m, cat.src[m], cat.tgt[m]) for m in cat.morphisms]
    unlawful = 0
    for pair, m in random.Random(base.name).sample(choices, copies):
        compose = dict(cat.compose_table)
        compose[pair] = m
        bent = FinCategory(cat.name, cat.objects, morphisms, cat.identity, compose)
        want = validate_category_oracle(bent)
        assert _violations(bent) == want, (pair, m)
        unlawful += bool(want)
    assert unlawful


def _chain(n):
    return corpus.poset_category(f"Chain{n}", [str(i) for i in range(n)],
                                 lambda x, y: int(x) <= int(y))


@pytest.fixture(scope="module")
def ladder_rungs():
    """F3, its completion, and the longest chain and cyclic monoid that the
    ladder benchmark validates."""
    def power(k):
        return k if k < 16 else 1 + (k - 1) % 15
    cyc16 = corpus.monoid_category(
        "Cyc16", [f"a{k}" for k in range(16)],
        {(f"a{j}", f"a{k}"): f"a{power(j + k)}" for j in range(16) for k in range(16)},
        "a0")
    return {"F3": f3(), "Q(F3)": cauchy_completion(f3()).completion,
            "Chain16": _chain(16), "Cyc16": cyc16}


def _generators_of(cat):
    """core._generators on a composition table read by rows from all pairs."""
    row = {g: {f: cat.compose(g, f) for f in cat.morphisms if cat.tgt[f] == cat.src[g]}
           for g in cat.morphisms}
    return core._generators(cat, row)


def _composites(cat, start):
    """Every composite of morphisms in start, breadth first over all pairs."""
    reached = set(start)
    queue = deque(start)
    while queue:
        x = queue.popleft()
        for y in list(reached):
            for g, f in ((x, y), (y, x)):
                if cat.tgt[f] == cat.src[g] and cat.compose(g, f) not in reached:
                    reached.add(cat.compose(g, f))
                    queue.append(cat.compose(g, f))
    return reached


def test_generators_and_identities_reach_every_morphism(ladder_rungs):
    rng = random.Random("generators")
    cats = [random_concrete_category(rng, f"R{k}") for k in range(40)]
    for cat in cats + list(ladder_rungs.values()):
        start = list(cat.identity.values()) + _generators_of(cat)
        assert _composites(cat, start) == set(cat.morphisms), cat.name


def test_generator_counts_are_pinned(ladder_rungs):
    # a chain has its covers i <= i+1 as irreducibles, and they compose to
    # the rest; Cyc16 has none (a1 = a8 . a8), and a1 reaches every power;
    # F3 and Q(F3) have none either, so theirs are the picks of the pass in
    # morphism order
    for n in range(2, 17):
        assert _generators_of(_chain(n)) == [f"{i}<={i + 1}" for i in range(n - 1)]
    counts = {name: len(_generators_of(cat)) for name, cat in ladder_rungs.items()}
    assert counts == {"F3": 16, "Q(F3)": 56, "Chain16": 15, "Cyc16": 1}
    assert _generators_of(ladder_rungs["Cyc16"]) == ["a1"]


def test_elements_generators_reach_every_morphism_of_el():
    """el(phi) keeps the morphisms (u, x) over its base's generators, in el
    order, without building its table; with the identities they compose to
    every morphism of el(phi), for every corpus weight and for random weights
    on random concrete categories."""
    rng = random.Random("elements")
    weights = list(PRESHEAVES.values())
    for k in range(20):
        cat = random_concrete_category(rng, f"R{k}", max_nonid=5)
        weights.append(random_presheaf(rng, cat, f"w{k}"))
    for phi in weights:
        el, _ = category_of_elements(phi)
        base = set(core._gens(phi.base))
        gens = core._gens(el)
        assert "compose_table" not in vars(el), phi.name
        assert gens == tuple(m for m in el.morphisms if m[0] in base), phi.name
        start = list(el.identity.values()) + list(gens)
        assert _composites(el, start) == set(el.morphisms), phi.name


def test_a_category_keeps_one_generating_set(monkeypatch):
    """``_gens`` runs ``_generators`` once per category: validate keeps the
    set it picks, and an opposite, built before or after, shares it."""
    calls = []
    generators = core._generators
    monkeypatch.setattr(core, "_generators",
                        lambda c, row: calls.append(c.name) or generators(c, row))
    first, second = _chain(5), _chain(5)
    second.op()
    assert validate(first).ok and validate(second.op()).ok
    assert calls == ["Chain5", "Chain5^op"]
    assert core._gens(first) == core._gens(first.op()) == ("0<=1", "1<=2", "2<=3", "3<=4")
    assert core._gens(second) is core._gens(second.op())
    third = _chain(4)
    assert core._gens(third.op()) == ("0<=1", "1<=2", "2<=3")
    assert validate(third).ok
    assert core._gens(third) is core._gens(third.op())
    assert calls == ["Chain5", "Chain5^op", "Chain4^op"]


def _corrupt(draw, tables, elements):
    """Drop a key from one action table, add a foreign key, or set a foreign
    value; or leave the tables alone."""
    how = draw(st.sampled_from(["none", "drop", "key", "value"]))
    table = tables[draw(st.sampled_from(list(tables)))]
    if how == "key":
        table[draw(st.sampled_from(elements))] = draw(st.sampled_from(elements))
    elif how != "none" and table:
        x = draw(st.sampled_from(list(table)))
        if how == "drop":
            del table[x]
        else:
            table[x] = draw(st.sampled_from(elements))


def _accepts(build):
    try:
        build()
    except MalformedTable:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_CATEGORIES), st.integers(0, 10 ** 6), st.data())
def test_presheaf_constructor_decides_like_fresh_set_checks(cat, seed, data):
    p = random_presheaf(random.Random(seed), cat, "p")
    actions = {f: dict(t) for f, t in p.actions.items()}
    elements = [x for v in p.sets.values() for x in v] + ["foreign"]
    _corrupt(data.draw, actions, elements)
    assert _accepts(lambda: Presheaf("q", cat, p.sets, actions)) == \
        presheaf_tables_ok(cat, p.sets, actions)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_CATEGORIES[:6]), st.sampled_from(SMALL_CATEGORIES[:6]),
       st.integers(0, 10 ** 6), st.data())
def test_profunctor_constructor_decides_like_fresh_set_checks(source, target,
                                                              seed, data):
    p = random_profunctor(random.Random(seed), source, target, "p")
    left = {k: dict(t) for k, t in p.left.items()}
    right = {k: dict(t) for k, t in p.right.items()}
    elements = [x for v in p.sets.values() for x in v] + ["foreign"]
    _corrupt(data.draw, data.draw(st.sampled_from([left, right])), elements)
    assert _accepts(lambda: Profunctor("q", source, target, p.sets, left, right)) == \
        profunctor_tables_ok(source, target, p.sets, left, right)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_CATEGORIES), st.integers(0, 10 ** 6))
def test_freeze_and_entry_match_the_frozen_transformation(cat, seed):
    """NatTrans.frozen is the oracle: _freeze of a transformation's own
    components gives its frozen form, and _entry reads each image back."""
    rng = random.Random(seed)
    p, q = random_presheaf(rng, cat, "p"), random_presheaf(rng, cat, "q")
    for n in nat_trans_set(p, q):
        key = n.frozen()
        assert _freeze(n.source, n.at) == key
        assert all(_entry(key, n.source, a, x) == n.components[a][x]
                   for a in cat.objects for x in p.sets[a])


def test_a_family_between_differently_keyed_sets_is_malformed():
    """A target lacking one of the source's keys, another base's presheaf or
    a module in place of a presheaf, is a MalformedTable, not a KeyError."""
    one_span, one_two = PRESHEAVES["one.Span"], PRESHEAVES["one.Two"]
    for source, target in ((one_span, one_two),
                           (one_two, profunctor.module_of_weight(one_two))):
        comps = {a: {x: x for x in xs} for a, xs in source.sets.items()}
        with pytest.raises(MalformedTable, match="'bad': source and target have different keys"):
            NatTrans(source, target, comps, name="bad")


def test_presheaves_and_modules_keep_their_sets_in_canonical_order():
    """Sets given out of order come back in base order, or target x source
    order for a module, so a family's frozen form is ``_freeze`` of the same
    image and does not depend on the order the sets were listed in."""
    phi = PRESHEAVES["Y.Span.0"]
    shuffled = Presheaf("shuffled", Span, dict(reversed(list(phi.sets.items()))), phi.actions)
    assert list(shuffled.sets) == list(Span.objects)
    f = corpus.example82
    module = Profunctor("shuffled", f.source, f.target, dict(reversed(list(f.sets.items()))),
                        f.left, f.right)
    assert list(module.sets) == [(b, a) for b in f.target.objects for a in f.source.objects]
    for listed, source in ((phi, shuffled), (f, module)):
        assert list(source.sets.items()) == list(listed.sets.items())
        image = {a: {x: x for x in reversed(xs)} for a, xs in reversed(list(source.sets.items()))}
        family = NatTrans(source, source, image)
        assert family.frozen() == _freeze(source, lambda a, x: image[a][x])
        assert family.frozen() == nat_identity(listed).frozen()


def test_bijectivity_reads_a_listed_map_and_names_an_escaped_image():
    onto = {"a", "b"}
    assert _bijectivity(["a", "b"], onto, "") == (True, True)
    assert _bijectivity(["b", "b"], onto, "") == (False, False)
    assert _bijectivity(iter(["b"]), onto, "") == (True, False)
    assert _bijectivity(["a", "b", "a"], onto, "") == (False, True)
    assert _bijectivity([], set(), "") == (True, True)
    assert _bijectivity(["a"], {"a": 0}.keys(), "") == (True, True)
    for images in (["c"], ["a", "b", "c"], ["a", "a", "c"]):
        with pytest.raises(InternalMismatch, match=r"^image escaped \(x\)$"):
            _bijectivity(images, onto, "image escaped (x)")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 5), max_size=8), st.sets(st.integers(0, 5)))
def test_bijectivity_matches_the_definitions(images, onto):
    """Injective: no two listed images are equal.  Surjective: every element
    of onto is an image.  An image outside onto raises."""
    if not set(images) <= onto:
        with pytest.raises(InternalMismatch):
            _bijectivity(images, onto, "escaped")
        return
    injective = all(images[i] != images[j] for i in range(len(images))
                    for j in range(i))
    surjective = all(any(x == y for x in images) for y in onto)
    assert _bijectivity(images, onto, "escaped") == (injective, surjective)


def test_into_lists_the_morphisms_into_each_object():
    for cat in list(corpus.CATEGORIES.values()) + [product_category(Two, Span)]:
        assert cat.into == {a: [m for m in cat.morphisms if cat.tgt[m] == a]
                            for a in cat.objects}, cat.name


def test_derived_compose_tables_match_all_pairs_rebuild():
    rng = random.Random(5)
    for cat in SMALL_CATEGORIES:
        q = cauchy_completion(cat).completion
        want = all_pairs_compose(q, lambda g, f: (q.src[f], q.tgt[g],
                                                  cat.compose(g[2], f[2])))
        assert list(q.compose_table.items()) == list(want.items()), cat.name
        for size in range(len(cat.objects) + 1):
            for objs in itertools.combinations(reversed(cat.objects), size):
                sub, _ = full_subcategory(cat, objs, f"{cat.name}{list(objs)}")
                want = all_pairs_compose(sub, cat.compose)
                assert list(sub.compose_table.items()) == list(want.items())
        weights = [p for p in PRESHEAVES.values() if p.base is cat]
        weights += [random_presheaf(rng, cat, f"r{i}") for i in range(4)]
        for p in weights:
            el, _ = category_of_elements(p)
            assert list(el.compose_table.items()) == list(_elements_oracle(p).items()), p.name


def _elements_oracle(p):
    """el(p)'s composition table, filtered from all pairs of its morphisms;
    it reads el's morphisms and endpoints only."""
    el, _ = category_of_elements(p)
    return all_pairs_compose(el, lambda g, f: (p.base.compose(f[0], g[0]), f[1]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_elements_table_matches_all_pairs_rebuild_on_random_presheaves(seed):
    rng = random.Random(seed)
    cat = random_concrete_category(rng, f"R{seed}", max_nonid=6)
    p = random_presheaf(rng, cat, "p")
    el, _ = category_of_elements(p)
    assert "compose_table" not in vars(el)
    assert list(el.compose_table.items()) == list(_elements_oracle(p).items())


def test_small_projectivity_never_builds_an_elements_table(monkeypatch):
    """The elements route of weighted_colimit reads el(phi)'s objects,
    morphisms and endpoints only: is_small_projective on the 68 corpus
    weights builds 68 el(phi), 721 morphisms in all, and no composition
    table."""
    built = []

    def recording(phi):
        el, proj = category_of_elements(phi)
        built.append(el)
        return el, proj
    monkeypatch.setattr(limits, "category_of_elements", recording)
    for phi in PRESHEAVES.values():
        is_small_projective(phi)
    assert (len(built), sum(len(el.morphisms) for el in built)) == (68, 721)
    assert [el.name for el in built if "compose_table" in vars(el)] == []


_TABLE_READS = {
    "op": lambda el, _twin: el.op(),
    "validate": lambda el, _twin: validate(el),
    "compose": lambda el, _twin: el.compose(el.identity[el.objects[0]],
                                            el.identity[el.objects[0]]),
    "same_category": same_category,
    "is_filtered": lambda el, _twin: is_filtered(el),
    "workspace": lambda el, _twin: workspace._category_json(el),
}


def _assert_built_once_on_first_read(cat, twin, first, want):
    """cat has no table until the read named first; that read builds and
    checks it once, and every later read, op included, sees that same dict,
    its items equal to want's in order.  same_category compares cat with
    twin, the same category built apart."""
    assert "compose_table" not in vars(cat), cat.name
    checks = []
    cat._checked_compose = lambda table: checks.append(table) or table
    _TABLE_READS[first](cat, twin)
    table = cat.compose_table
    for read in _TABLE_READS.values():
        read(cat, twin)
    assert cat.compose_table is table and checks == [table], cat.name
    assert list(table.items()) == list(want.items()), cat.name
    assert cat.op().compose_table == {(f, g): h for (g, f), h in table.items()}
    assert validate(cat).ok, cat.name


@pytest.mark.parametrize("first", sorted(_TABLE_READS))
def test_elements_table_is_built_once_on_first_read(first):
    rng = random.Random(11)
    weights = list(PRESHEAVES.values())
    weights += [random_presheaf(rng, cat, f"r{i}") for i, cat in
                enumerate(SMALL_CATEGORIES)]
    for p in weights:
        if not any(p.sets.values()):
            continue
        el, _ = category_of_elements(p)
        twin, _ = category_of_elements(p)
        _assert_built_once_on_first_read(el, twin, first, _elements_oracle(p))


@pytest.mark.parametrize("first", sorted(_TABLE_READS))
def test_product_table_is_built_once_on_first_read(first):
    """As for el(phi), on every product of two SMALL_CATEGORIES, or of one
    with the opposite of another; the table is the dict loop's."""
    for c in SMALL_CATEGORIES:
        for d in SMALL_CATEGORIES + [x.op() for x in SMALL_CATEGORIES]:
            _assert_built_once_on_first_read(
                product_category(c, d), product_category(c, d), first,
                _product_compose_dict_oracle(c, d))


def test_full_subcategory_of_QM_is_M_shaped():
    sub, incl = full_subcategory(QM, ["s1"], "QM[s1]")
    assert len(sub.objects) == 1 and len(sub.morphisms) == 2
    assert validate(sub).ok and validate(incl).ok
    assert sub.compose("s1>s1:e", "s1>s1:e") == "s1>s1:e"


def test_validate_accepts_whole_corpus():
    for cat in corpus.CATEGORIES.values():
        assert validate(cat).ok, cat.name
    for p in PRESHEAVES.values():
        assert validate(p).ok, p.name
    for f in corpus.FUNCTORS.values():
        assert validate(f).ok, f.name
    for p in corpus.PROFUNCTORS.values():
        assert validate(p).ok, p.name
    for p in corpus.COVARIANT.values():
        assert validate(p).ok, p.name


def test_validate_reports_nonassociative_triple():
    report = validate(nonassociative_table())
    assert not report.ok
    assoc = [v for v in report.violations if v.law == "associativity"]
    assert assoc, report
    witnesses = {v.witness for v in assoc}
    assert any("f" in w and "e" in w for w in witnesses)


def test_validate_reports_a_transform_whose_functor_breaks_endpoints():
    # f: 0 -> 1 sent to id0, so the component at 1 cannot follow its image
    squash = FinFunctor("squash", Two, Two, {"0": "0", "1": "1"},
                        {"id0": "id0", "id1": "id1", "f": "id0"})
    t = FunctorTransform(squash, identity_functor(Two), {"0": "id0", "1": "id1"})
    rep = validate(t)
    assert not rep.ok
    assert [(v.law, v.witness) for v in rep.violations] == [("naturality", ("f",))]
    assert not validate(squash).ok


@pytest.mark.parametrize("components, message", [
    ({"0": "id0"}, "transform 't': components must cover every object"),
    ({"0": "id0", "1": "g"}, "transform 't': unknown morphism 'g'"),
    ({"0": "id0", "1": "f"}, "transform 't': component at '1' has wrong endpoints"),
])
def test_functor_transform_rejects_malformed_components(components, message):
    ident = identity_functor(Two)
    with pytest.raises(MalformedTable) as err:
        FunctorTransform(ident, ident, components, name="t")
    assert str(err.value) == message


def test_validate_functor():
    collapse = FinFunctor("collapse", Two, Two, {"0": "0", "1": "0"},
                          {"id0": "id0", "id1": "id0", "f": "id0"})
    assert validate(collapse).ok
    squash = FinFunctor("squash", Par, Two, {"0": "0", "1": "1"},
                        {"id0": "id0", "id1": "id1", "s": "f", "t": "f"})
    assert validate(squash).ok
    broken = FinFunctor("broken", Par, Two, {"0": "0", "1": "1"},
                        {"id0": "id0", "id1": "id1", "s": "f", "t": "id1"})
    rep = validate(broken)
    assert not rep.ok
    assert any(v.law == "endpoint-preservation" for v in rep.violations)


def test_presheaf_requires_action_coverage():
    with pytest.raises(MalformedTable):
        Presheaf("p", Two, {"0": ("a",), "1": ("b",)},
                 {"id0": {"a": "a"}, "id1": {"b": "b"}, "f": {}})


def test_presheaf_validate_catches_broken_identity_action():
    p = Presheaf("p", Two, {"0": ("a", "b"), "1": ()},
                 {"id0": {"a": "b", "b": "a"}, "id1": {}, "f": {}})
    rep = validate(p)
    assert not rep.ok
    assert any(v.law == "identity-action" for v in rep.violations)


def test_nat_trans_validate_and_compose():
    e, one = PRESHEAVES["E"], PRESHEAVES["one.M"]
    up = NatTrans(e, PRESHEAVES["Y.M.*"], {"*": {"e": "e"}})
    assert validate(up).ok
    bad = NatTrans(e, PRESHEAVES["Y.M.*"], {"*": {"e": "1"}})
    assert not validate(bad).ok
    ident = nat_identity(e)
    assert nat_compose(ident, ident).frozen() == ident.frozen()


def test_covariant_constructor_matches_manual_op_presheaf():
    cov = corpus.covariant_hom(Two, "0")
    assert cov.base is Two.op()
    assert cov.sets["0"] == ("id0",) and cov.sets["1"] == ("f",)
    assert cov.act("f", "id0") == "f"
    assert validate(cov).ok


def test_category_of_elements_of_E():
    el, proj = category_of_elements(PRESHEAVES["E"])
    assert len(el.objects) == 1
    assert len(el.morphisms) == 2
    assert validate(el).ok and validate(proj).ok
    assert is_connected(el)


def test_category_of_elements_counts():
    el, _ = category_of_elements(PRESHEAVES["groupCospan"])
    assert len(el.objects) == 5
    assert len(el.morphisms) == 9
    el2, _ = category_of_elements(PRESHEAVES["zero.Two"])
    assert len(el2.objects) == 0
    assert not is_connected(el2)


def test_connectedness():
    assert is_connected(Span)
    assert is_connected(Two)
    assert not is_connected(Disc2)
    assert not is_connected(Empty)
    assert is_connected(Z2)


def test_filteredness():
    assert is_filtered(Chain3)
    assert is_filtered(N5)          # finite lattice: directed
    assert is_filtered(I)
    assert is_filtered(M)           # e coequalizes the pair (1, e)
    assert not is_filtered(Z2)      # nothing coequalizes 1 and g
    assert not is_filtered(Disc2)   # no cospans
    assert not is_filtered(Empty)
    assert not is_filtered(Par.op())


def test_functor_composition_and_identity():
    ident = identity_functor(M)
    emb = corpus.embedM
    comp = compose_functors(emb, ident)
    assert comp.obj("*") == "s1"
    assert comp.mor("e") == "s1>s1:e"
    with pytest.raises(MalformedTable):
        compose_functors(emb, corpus.orbit)


def test_same_category_is_structural():
    clone = FinCategory("Two", list(Two.objects),
                        [(m, Two.src[m], Two.tgt[m]) for m in Two.morphisms],
                        {a: Two.id_of(a) for a in Two.objects},
                        dict(Two.compose_table))
    assert same_category(Two, clone)
    assert not same_category(Two, Par)


def test_pullback_reads_the_presheaf_along_the_functor():
    """p . fn^op has value p(fn a) at a and acts by p(fn u), sharing p's
    tables; a presheaf on any other base than fn's target, or a functor that
    sends a morphism to one with other endpoints, raises MalformedTable."""
    fn = corpus.orbit
    on_target = [p for p in PRESHEAVES.values() if p.base is fn.target]
    assert len(on_target) >= 3
    for p in on_target:
        got = _pullback(fn, p)
        assert (got.name, got.base) == (f"{p.name}|orbit", fn.source)
        assert got.sets == {a: p.sets[fn.obj(a)] for a in fn.source.objects}
        assert got.actions == {u: p.actions[fn.mor(u)] for u in fn.source.morphisms}
        assert all(got.actions[u] is p.actions[fn.mor(u)] for u in fn.source.morphisms)
        assert validate(got).ok
    assert _pullback(identity_functor(Two), PRESHEAVES["collapse.Two"], "c").name == "c"
    for fn, p in ((corpus.orbit, PRESHEAVES["one.GSet"]),
                  (identity_functor(Two), corpus.delta1(Par)),
                  (identity_functor(Two), corpus.delta1(Two.op()))):
        with pytest.raises(MalformedTable):
            _pullback(fn, p)
    # built directly, never validated: f: 0 -> 1 goes to id0, or the
    # objects swap under the identity morphism map
    ids = {m: m for m in Two.morphisms}
    bent = [FinFunctor("to-id0", Two, Two, {"0": "0", "1": "1"}, dict(ids, f="id0")),
            FinFunctor("swap", Two, Two, {"0": "1", "1": "0"}, ids)]
    for fn in bent:
        assert not validate(fn).ok
        # one.Two has equal sets everywhere, so only the endpoint test sees it
        for p in (PRESHEAVES["one.Two"], PRESHEAVES["collapse.Two"]):
            with pytest.raises(MalformedTable, match="endpoints"):
                _pullback(fn, p)
        for s in (corpus.delta1(Two.op()),
                  covariant("c", Two, {"0": ("x",), "1": ("y", "z")},
                            {"id0": {"x": "x"}, "id1": {"y": "y", "z": "z"},
                             "f": {"x": "y"}})):
            with pytest.raises(MalformedTable, match="endpoints"):
                restrict(fn, s)


def _pullback_oracle(fn, p):
    """p . fn^op through the checking Presheaf constructor."""
    return Presheaf(f"{p.name}|{fn.name}", fn.source,
                    {a: p.sets[fn.obj(a)] for a in fn.source.objects},
                    {u: p.actions[fn.mor(u)] for u in fn.source.morphisms})


def _pullback_matches_oracle(fn, p):
    got, want = _pullback(fn, p), _pullback_oracle(fn, p)
    return (got.sets == want.sets and got.actions == want.actions
            and got.name == want.name and validate(got).ok)


def test_pullback_matches_the_checking_constructor_on_the_corpus():
    """Along every corpus functor, identity and el(phi) projection (and its
    opposite, the weighted limit's route), on every corpus presheaf over the
    functor's target."""
    functors = [corpus.orbit, corpus.embedM]
    functors += [identity_functor(c) for c in corpus.CATEGORIES.values()]
    for phi in PRESHEAVES.values():
        _, proj = category_of_elements(phi)
        functors += [proj, proj.op()]
    pairs = [(fn, p) for fn in functors for p in PRESHEAVES.values()
             if same_category(p.base, fn.target)]
    assert len(pairs) == 572
    assert [(fn.name, p.name) for fn, p in pairs if not _pullback_matches_oracle(fn, p)] == []


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_pullback_matches_the_checking_constructor_on_random_pairs(seed):
    rng = random.Random(seed)
    a = random_concrete_category(rng, "A", max_nonid=4)
    b = random_concrete_category(rng, "B", max_nonid=4)
    fn = rng.choice(all_functors(a, b, cap=20))
    assert _pullback_matches_oracle(fn, random_presheaf(rng, b, "p"))
    assert _pullback_matches_oracle(fn.op(), random_presheaf(rng, b.op(), "q"))
