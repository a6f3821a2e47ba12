"""The bicategory of modules at finite scale.

A module f: A -|-> B is a Profunctor with source A and target B; its cells are
indexed (b, a).  Composition g . f (for g: B -|-> C) is the pointwise coend
over B of g(c,b) x f(b,a), taken directly: one quotient per cell (c, a) of the
raw pairs (b, (y, x)), generated by the morphisms of B.  Right lifts are
computed by their end formula: a cell of {|f,h|} at (a,c) is a natural family
of functions f(-,a) -> h(-,c), stored in frozen form with a decode table kept
alongside.  Right extensions are right lifts of transposed modules: reading
A -|-> B as B^op -|-> A^op gives [[g,h]] = {|g^t,h^t|}^t, and the extension
transpose bijection is the lift bijection of the transposes.

2-cells wrap NatTrans values over the product base target x source^op; building
one checks each cell's domain and image only, and ``validate(cell.nat)`` checks
naturality.  Every canonical 2-cell (identities, unitors, associators, whiskers,
counits, units, comparisons) is built by ``_cellwise`` from its value on one
element of one source cell; unitors, associators and whiskers take the
composite modules they run between from the caller, which composes each once.
The conjoint T^* of a functor T is the transpose of the companion of T^op, and
the module of a covariant weight is the transpose of its module as a weight.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (FinCategory, FinFunctor, NatTrans, Presheaf, Profunctor,
                   _bijectivity, _freeze, identity_functor, product_category,
                   quotient, same_category, unit_category, validate)
from .equivalence import presheaf_isomorphic
from .errors import EndpointMismatch, InternalMismatch, ValidationFailed
from .limits import ColimitResult, nat_trans_set


def as_presheaf(f: Profunctor, base: FinCategory = None) -> Presheaf:
    """View a module as a presheaf on target x source^op."""
    if base is None:
        base = product_category(f.target, f.source.op())
    sets = {(b, a): f.cell(b, a) for (b, a) in base.objects}
    actions = {}
    for (beta, alpha) in base.morphisms:
        # base morphism (b,a) -> (b',a') carries beta: b -> b' and alpha: a' -> a
        a = f.source.src[alpha]
        left = f.left[(beta, a)]
        right = f.right[(f.target.src[beta], alpha)]
        actions[(beta, alpha)] = {x: right[left[x]] for x in f.sets[(f.target.tgt[beta], a)]}
    return Presheaf(f"cells({f.name})", base, sets, actions)


class TwoCell:
    """Morphism of modules with the same endpoints; components per (b, a) cell."""

    def __init__(self, source: Profunctor, target: Profunctor, components,
                 name="", base=None):
        if base is None:
            base = product_category(source.target, source.source.op())
        self.source = source
        self.target = target
        self.base = base
        cells = as_presheaf(source, base)
        self.nat = NatTrans(cells, cells if target is source else as_presheaf(target, base),
                            components, name=name)

    @property
    def name(self):
        return self.nat.name

    @property
    def components(self):
        return self.nat.components

    def at(self, b, a, x):
        return self.nat.components[(b, a)][x]

    def frozen(self):
        return self.nat.frozen()

    def then(self, other: "TwoCell") -> "TwoCell":
        """other after self."""
        comps = {cell: {x: other.components[cell][y] for x, y in table.items()}
                 for cell, table in self.components.items()}
        return TwoCell(self.source, other.target, comps,
                       name=f"({other.name};{self.name})", base=self.base)

    def invert(self) -> "TwoCell":
        failure = self.bijection_failure()
        if failure is not None:
            raise InternalMismatch(f"2-cell {self.name!r} not invertible at {failure[0]!r}")
        comps = {cell: {y: x for x, y in table.items()}
                 for cell, table in self.components.items()}
        return TwoCell(self.target, self.source, comps,
                       name=f"inv({self.name})", base=self.base)

    def bijection_failure(self):
        """The first cell, in component order, whose component is not a
        bijection onto the target cell, with "injective" or "surjective" for
        what fails there (injectivity is tested first); None if there is none."""
        for cell, table in self.components.items():
            injective, surjective = _bijectivity(table.values(), set(self.target.cell(*cell)),
                                                 "2-cell left its target cell")
            if not (injective and surjective):
                return cell, "surjective" if injective else "injective"
        return None

    def is_iso(self):
        return self.bijection_failure() is None

    def __repr__(self):
        return f"TwoCell({self.name!r}: {self.source.name} => {self.target.name})"


def _cellwise(src: Profunctor, tgt: Profunctor, name, image) -> TwoCell:
    """The 2-cell src => tgt sending x in cell (t, s) of src to image(t, s, x)."""
    comps = {(t, s): {x: image(t, s, x) for x in src.cell(t, s)}
             for t in src.target.objects for s in src.source.objects}
    return TwoCell(src, tgt, comps, name=name)


def identity_two_cell(f: Profunctor) -> TwoCell:
    return _cellwise(f, f, f"1_{f.name}", lambda b, a, x: x)


def two_cells(f: Profunctor, g: Profunctor) -> list:
    """All module morphisms f => g, enumerated."""
    base = product_category(f.target, f.source.op())
    nats = nat_trans_set(as_presheaf(f, base), as_presheaf(g, base))
    return [TwoCell(f, g, n.components, name=f"cell{i}", base=base)
            for i, n in enumerate(nats)]


def modules_isomorphic(f: Profunctor, g: Profunctor) -> bool:
    if not (same_category(f.source, g.source) and same_category(f.target, g.target)):
        return False
    base = product_category(f.target, f.source.op())
    return presheaf_isomorphic(as_presheaf(f, base), as_presheaf(g, base)) is not None


def id_module(cat: FinCategory) -> Profunctor:
    """The hom module: cell(b, a) = Hom(b, a), the companion of the identity."""
    hom = _companion(identity_functor(cat))
    hom.name = f"1_{cat.name}"
    return hom


class CompositeProfunctor(Profunctor):
    """g . f with each cell's ColimitResult kept for normalization of raw pairs;
    a class is represented by its first raw pair (b, (y, x)) in tag order.
    The inner factor f is kept for the associator, which normalizes in it."""

    def __init__(self, f, name, source, target, sets, left, right, coends):
        super().__init__(name, source, target, sets, left, right)
        self.inner = f
        self.coends = coends

    def normalize(self, tgt_obj, src_obj, mid_obj, outer_elem, inner_elem):
        """Class of the raw pair (outer_elem, inner_elem) sitting over mid_obj."""
        return self.coends[(tgt_obj, src_obj)].find(mid_obj, (outer_elem, inner_elem))


def _coend_pairs(g: Profunctor, f: Profunctor, c, a):
    """The generating pairs of the coend at (c, a): each u: s -> t of the middle
    category identifies (y, u.x) over s with (y.u, x) over t."""
    mid = g.source
    for u in mid.morphisms:
        s, t = mid.src[u], mid.tgt[u]
        f_u, g_u = f.left[(u, a)], g.right[(c, u)]
        for y in g.cell(c, s):
            for x in f.cell(t, a):
                yield (s, (y, f_u[x])), (t, (g_u[y], x))


def compose_modules(g: Profunctor, f: Profunctor) -> CompositeProfunctor:
    """g . f: each cell (c, a) is one quotient of its raw pairs (b, (y, x)),
    with no intermediate pair module; the actions send representatives to the
    classes of their acted-on raw pairs."""
    if not same_category(g.source, f.target):
        raise EndpointMismatch(f"cannot compose {g.name} after {f.name}")
    mid = g.source
    source, target = f.source, g.target
    coends = {}
    sets = {}
    for c in target.objects:
        for a in source.objects:
            tags = [(b, (y, x)) for b in mid.objects
                    for y in g.cell(c, b) for x in f.cell(b, a)]
            co = ColimitResult(*quotient(tags, _coend_pairs(g, f, c, a)))
            coends[(c, a)] = co
            sets[(c, a)] = co.classes
    left = {}
    for gamma in target.morphisms:
        c, c2 = target.src[gamma], target.tgt[gamma]
        for a in source.objects:
            table = {}
            for rep in sets[(c2, a)]:
                b, (y, x) = rep
                table[rep] = coends[(c, a)].find(b, (g.left_act(gamma, b, y), x))
            left[(gamma, a)] = table
    right = {}
    for c in target.objects:
        for alpha in source.morphisms:
            a, a2 = source.src[alpha], source.tgt[alpha]
            table = {}
            for rep in sets[(c, a)]:
                b, (y, x) = rep
                table[rep] = coends[(c, a2)].find(b, (y, f.right_act(b, alpha, x)))
            right[(c, alpha)] = table
    return CompositeProfunctor(f, f"({g.name}.{f.name})", source, target,
                               sets, left, right, coends)


# ---------------------------------------------------------------------------
# coherence 2-cells


def left_unitor(f: Profunctor, composite: CompositeProfunctor) -> TwoCell:
    """1_B . f -> f, sending a class (b', (h, x)) to x acted on by h."""

    def image(b, a, rep):
        _, (h, x) = rep
        return f.left_act(h, a, x)
    cell = _cellwise(composite, f, f"lambda({f.name})", image)
    if not cell.is_iso():
        raise InternalMismatch(f"left unitor of {f.name} not invertible")
    return cell


def right_unitor(f: Profunctor, composite: CompositeProfunctor) -> TwoCell:
    """f . 1_A -> f."""

    def image(b, a, rep):
        _, (x, h) = rep
        return f.right_act(b, h, x)
    cell = _cellwise(composite, f, f"rho({f.name})", image)
    if not cell.is_iso():
        raise InternalMismatch(f"right unitor of {f.name} not invertible")
    return cell


def associator(f3: Profunctor, f2: Profunctor, f1: Profunctor,
               left: CompositeProfunctor, right: CompositeProfunctor) -> TwoCell:
    """(f3 . f2) . f1 -> f3 . (f2 . f1), re-bracketing representatives."""

    def image(t, s, rep):
        m1, ((m2, (y, z)), x) = rep
        return right.normalize(t, s, m2, y, right.inner.normalize(m2, s, m1, z, x))
    cell = _cellwise(left, right, f"assoc({f3.name},{f2.name},{f1.name})", image)
    if not cell.is_iso():
        raise InternalMismatch("associator not invertible; representative bug")
    return cell


def whisker_left(g: Profunctor, sigma: TwoCell, src: CompositeProfunctor,
                 tgt: CompositeProfunctor) -> TwoCell:
    """g . sigma: from g . (sigma.source) to g . (sigma.target)."""

    def image(t, s, rep):
        m, (y, x) = rep
        return tgt.normalize(t, s, m, y, sigma.at(m, s, x))
    return _cellwise(src, tgt, f"({g.name}.{sigma.name})", image)


def whisker_right(sigma: TwoCell, e: Profunctor, src: CompositeProfunctor,
                  tgt: CompositeProfunctor) -> TwoCell:
    """sigma . e: from (sigma.source) . e to (sigma.target) . e."""

    def image(t, s, rep):
        m, (w, z) = rep
        return tgt.normalize(t, s, m, sigma.at(t, m, w), z)
    return _cellwise(src, tgt, f"({sigma.name}.{e.name})", image)


# ---------------------------------------------------------------------------
# functors as modules


def _companion(t: FinFunctor) -> Profunctor:
    """T_*: A -|-> B with T_*(b, a) = B(b, Ta)."""
    a_cat, b_cat = t.source, t.target
    sets = {(b, a): b_cat.hom(b, t.obj(a))
            for b in b_cat.objects for a in a_cat.objects}
    left = {(m, a): {h: b_cat.compose(h, m) for h in sets[(b_cat.tgt[m], a)]}
            for m in b_cat.morphisms for a in a_cat.objects}
    right = {(b, m): {h: b_cat.compose(t.mor(m), h)
                      for h in sets[(b, a_cat.src[m])]}
             for b in b_cat.objects for m in a_cat.morphisms}
    return Profunctor(f"({t.name})_*", a_cat, b_cat, sets, left, right)


def functor_to_modules(t: FinFunctor):
    """T_*(b,a) = B(b, Ta) and T^*(a,b) = B(Ta, b).

    T^* is the transpose of (T^op)_*: B^op(b, Ta) = B(Ta, b), and the
    transpose runs from (B^op)^op, which is B itself, to A."""
    upper = _transpose(_companion(t.op()))
    upper.name = f"({t.name})^*"
    return _companion(t), upper


def module_of_weight(phi: Presheaf) -> Profunctor:
    """A weight phi on A as a module I -|-> A with cell(a, *) = phi(a)."""
    unit = unit_category()
    a_cat = phi.base
    star = unit.objects[0]
    uid = unit.identity[star]
    sets = {(a, star): phi.sets[a] for a in a_cat.objects}
    left = {(m, star): {x: phi.act(m, x) for x in sets[(a_cat.tgt[m], star)]}
            for m in a_cat.morphisms}
    right = {(a, uid): {x: x for x in sets[(a, star)]} for a in a_cat.objects}
    return Profunctor(f"mod({phi.name})", unit, a_cat, sets, left, right)


def module_of_coweight(psi: Presheaf) -> Profunctor:
    """A covariant weight psi on B (a presheaf on B^op) as a module B -|-> I^op.

    It is the transpose of psi's module I -|-> B^op; I^op has the tables of I."""
    comod = _transpose(module_of_weight(psi))
    comod.name = f"comod({psi.name})"
    return comod


# ---------------------------------------------------------------------------
# right lifts and right extensions


def _column(f: Profunctor, a) -> Presheaf:
    """f(-, a): a presheaf on the target category."""
    b_cat = f.target
    sets = {b: f.cell(b, a) for b in b_cat.objects}
    actions = {beta: {x: f.left_act(beta, a, x)
                      for x in sets[b_cat.tgt[beta]]}
               for beta in b_cat.morphisms}
    return Presheaf(f"{f.name}(-,{a!r})", b_cat, sets, actions)


@dataclass
class LiftResult:
    lift: Profunctor                 # C -|-> A
    counit: TwoCell                  # f . lift -> h
    composite: CompositeProfunctor   # f . lift
    decode: dict                     # (a, c) -> {frozen: NatTrans}
    f_col: dict


def right_lift(f: Profunctor, h: Profunctor) -> LiftResult:
    """{|f,h|}(a,c) = natural families f(-,a) -> h(-,c), with its counit."""
    if not same_category(f.target, h.target):
        raise EndpointMismatch("right_lift needs a shared target category")
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
        """The action from cell src to cell tgt: the family n goes to the
        family sending y over b to value(n, b, y)."""
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
    return LiftResult(lift, counit, composite, decode, f_col)


@dataclass
class ExtendResult:
    extension: Profunctor            # A -|-> B
    lifted: LiftResult               # {|g^t,h^t|}; its counit is the
                                     # extension's, read on the transposes


def _transpose(f: Profunctor) -> Profunctor:
    """f: A -|-> B read as B^op -|-> A^op; cell (a, b) is f(b, a)."""
    source, target = f.target.op(), f.source.op()
    sets = {(a, b): f.cell(b, a) for a in target.objects for b in source.objects}
    left = {(m, b): f.right[(b, m)] for m in target.morphisms for b in source.objects}
    right = {(a, m): f.left[(m, a)] for a in target.objects for m in source.morphisms}
    return Profunctor(f"{f.name}^t", source, target, sets, left, right)


def right_extend(g: Profunctor, h: Profunctor) -> ExtendResult:
    """[[g,h]] = {|g^t,h^t|}^t: right extensions are right lifts of transposes,
    so a cell at (b,a) is a natural family g(a,-) -> h(b,-)."""
    if not same_category(g.source, h.source):
        raise EndpointMismatch("right_extend needs a shared source category")
    lifted = right_lift(_transpose(g), _transpose(h))
    extension = _transpose(lifted.lift)
    extension.name = f"ext({g.name},{h.name})"
    return ExtendResult(extension, lifted)


def verify_lift_bijection(f: Profunctor, h: Profunctor, k: Profunctor):
    """The transpose bijection 2cells(k, {|f,h|}) <-> 2cells(f.k, h).

    Returns (count, forward) after checking the two directions are mutually
    inverse on the full enumerations; raises InternalMismatch otherwise.
    """
    lifted = right_lift(f, h)
    lift = lifted.lift
    fk = compose_modules(f, k)
    sigmas = two_cells(fk, h)
    taus = two_cells(k, lift)

    def transpose_of(tau):
        def image(b, c, rep):
            a, (y, z) = rep
            return lifted.decode[(a, c)][tau.at(a, c, z)].components[b][y]
        return _cellwise(fk, h, "", image)

    def transpose_back(sigma):
        def image(a, c, z):
            key = _freeze(lifted.f_col[a],
                          lambda b, y: sigma.at(b, c, fk.normalize(b, c, a, y, z)))
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


def verify_extend_bijection(g: Profunctor, h: Profunctor, k: Profunctor):
    """The transpose bijection 2cells(k, [[g,h]]) <-> 2cells(k.g, h).

    Checked as the lift bijection of the transposes, so the count is the same
    and the keys of ``forward`` are frozen 2-cells of the transposed modules.
    """
    return verify_lift_bijection(_transpose(g), _transpose(h), _transpose(k))


# ---------------------------------------------------------------------------
# adjoint detection


@dataclass
class AdjunctionResult:
    found: bool
    right: Profunctor = None
    unit: TwoCell = None             # 1_A -> right . f
    counit: TwoCell = None           # f . right -> 1_B
    comparison: TwoCell = None       # right . f -> {|f,f|}
    reason: str = ""

    def __bool__(self):
        return self.found


def has_right_adjoint(f: Profunctor) -> AdjunctionResult:
    """Absolute-lifting criterion: g = {|f,1|} is right adjoint iff the
    canonical comparison g.f -> {|f,f|} is invertible.  Triangle identities
    are verified on the constructed unit and counit before returning.  An
    unlawful f raises ValidationFailed."""
    report = validate(f)
    if not report.ok:
        raise ValidationFailed(report)
    a_cat, b_cat = f.source, f.target
    one_a, one_b = id_module(a_cat), id_module(b_cat)
    lifted = right_lift(f, one_b)
    g, eps, c_fg = lifted.lift, lifted.counit, lifted.composite
    selflift = right_lift(f, f)
    c_gf = compose_modules(g, f)

    def compare(a2, a1, rep):
        b0, (tkey, z) = rep
        t = lifted.decode[(a2, b0)][tkey]
        key = _freeze(selflift.f_col[a2],
                      lambda b, y: f.left_act(t.components[b][y], a1, z))
        if key not in selflift.decode[(a2, a1)]:
            raise InternalMismatch("comparison left the lift cell")
        return key
    comparison = _cellwise(c_gf, selflift.lift, f"cmp({f.name})", compare)
    failure = comparison.bijection_failure()
    if failure is not None:
        cell, kind = failure
        return AdjunctionResult(False, comparison=comparison,
                                reason=f"comparison not {kind} at {cell!r}")
    inverse = comparison.invert()

    def unit_at(a2, a1, h):
        key = _freeze(selflift.f_col[a2], lambda b, y: f.right_act(b, h, y))
        if key not in selflift.decode[(a2, a1)]:
            raise InternalMismatch("unit left the lift cell")
        return inverse.at(a2, a1, key)
    eta = _cellwise(one_a, c_gf, f"unit({f.name})", unit_at)

    # triangle 1: f -> f.1_A -> f.(g.f) -> (f.g).f -> 1_B.f -> f equals 1_f
    c_f1 = compose_modules(f, one_a)
    rho_f = right_unitor(f, c_f1)
    c_f_gf = compose_modules(f, c_gf)
    c_fg_f = compose_modules(c_fg, f)
    c_1b_f = compose_modules(one_b, f)
    chain1 = (rho_f.invert()
              .then(whisker_left(f, eta, c_f1, c_f_gf))
              .then(associator(f, g, f, c_fg_f, c_f_gf).invert())
              .then(whisker_right(eps, f, c_fg_f, c_1b_f))
              .then(left_unitor(f, c_1b_f)))
    if chain1.frozen() != identity_two_cell(f).frozen():
        raise InternalMismatch(f"triangle identity (counit.f)(f.unit) fails for {f.name}")

    # triangle 2: g -> 1_A.g -> (g.f).g -> g.(f.g) -> g.1_B -> g equals 1_g
    c_1a_g = compose_modules(one_a, g)
    lam_g = left_unitor(g, c_1a_g)
    c_gf_g = compose_modules(c_gf, g)
    c_g_fg = compose_modules(g, c_fg)
    c_g_1b = compose_modules(g, one_b)
    chain2 = (lam_g.invert()
              .then(whisker_right(eta, g, c_1a_g, c_gf_g))
              .then(associator(g, f, g, c_gf_g, c_g_fg))
              .then(whisker_left(g, eps, c_g_fg, c_g_1b))
              .then(right_unitor(g, c_g_1b)))
    if chain2.frozen() != identity_two_cell(g).frozen():
        raise InternalMismatch(f"triangle identity (g.counit)(unit.g) fails for {f.name}")

    return AdjunctionResult(True, right=g, unit=eta, counit=eps,
                            comparison=comparison)
