"""The bicategory of modules at finite scale.

A module f: A -|-> B is a Profunctor with source A and target B; its cells are
indexed (b, a).  Composition g . f (for g: B -|-> C) is the pointwise coend
over B of g(c,b) x f(b,a): one ``core.quotient`` per cell (c, a) of the raw
pairs (b, (y, x)) in tag order, joined where a morphism of ``core._gens(B)``
links them.  Right lifts are computed by their
end formula: a cell of {|f,h|} at (a,c) is a natural family of functions
f(-,a) -> h(-,c), stored in frozen form with a decode table kept alongside;
the composite f.{|f,h|} and the counit ev(f,h) are built on first read.
Right extensions are right lifts of transposed modules: reading A -|-> B as
B^op -|-> A^op gives [[g,h]] = {|g^t,h^t|}^t.  ``right_lift`` and
``right_extend`` validate the modules they are given and raise
ValidationFailed with the report of the first unlawful one.

A 2-cell is a plain ``NatTrans`` keyed by cells (b, a), so ``at((b, a), x)``,
``frozen``, ``invert``, ``bijection_failure``, ``nat_identity`` and
``nat_compose`` serve it as they serve presheaf families; ``validate(cell)``
checks its naturality along each morphism (beta, alpha) of target x
source^op, reading both modules' actions off their left and right tables
with no presheaf view, and runs on the lift counit and the adjunction unit,
not natural by construction, when they are built.  Every
canonical 2-cell (counits, units, comparisons) is built by
``_cellwise`` from its value on one element of one source cell.  The triangle
identities of an adjunction are read on elements through the unit, the counit
and the normal forms of f.g, so the library builds no unitor, associator or
whisker; the tests keep them as the oracle.  A functor T becomes a module
as its companion T_* (``id_module`` is that of the identity), and a weight
as ``module_of_weight``; the conjoint T^* is the ``_transpose`` of the
companion of T^op, and the module of a covariant weight the ``_transpose``
of its module as a weight.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (FinCategory, FinFunctor, NatTrans, Presheaf, Profunctor,
                   _freeze, _gens, _require_valid, identity_functor, quotient,
                   same_category, unit_category, validate)
from .errors import EndpointMismatch, InternalMismatch, ValidationFailed
from .limits import ColimitResult, nat_trans_set


def _cellwise(src: Profunctor, tgt: Profunctor, name, image) -> NatTrans:
    """The 2-cell src => tgt sending x in cell (t, s) of src to image(t, s, x)."""
    comps = {(t, s): {x: image(t, s, x) for x in src.cell(t, s)}
             for t in src.target.objects for s in src.source.objects}
    return NatTrans(src, tgt, comps, name=name)


def id_module(cat: FinCategory) -> Profunctor:
    """The hom module: cell(b, a) = Hom(b, a), the companion of the identity."""
    hom = _companion(identity_functor(cat))
    hom.name = f"1_{cat.name}"
    return hom


class CompositeProfunctor(Profunctor):
    """g . f with each cell's ColimitResult kept for normalization of raw pairs;
    a class is represented by its first raw pair (b, (y, x)) in tag order."""

    def __init__(self, name, source, target, sets, left, right, coends):
        super().__init__(name, source, target, sets, left, right)
        self.coends = coends

    def normalize(self, tgt_obj, src_obj, mid_obj, outer_elem, inner_elem):
        """Class of the raw pair (outer_elem, inner_elem) sitting over mid_obj."""
        return self.coends[(tgt_obj, src_obj)].find(mid_obj, (outer_elem, inner_elem))


def _coend_pairs(g: Profunctor, f: Profunctor, c, a, moves):
    """The generating pairs of the coend at (c, a), one per raw pair that a
    move u: s -> t, a generator of the middle category, links: (y, u.x) over
    s with (y.u, x) over t."""
    for u, s, t in moves:
        f_u, g_u = f.left[(u, a)], g.right[(c, u)]
        for y in g.sets[(c, s)]:
            for x in f.sets[(t, a)]:
                yield (s, (y, f_u[x])), (t, (g_u[y], x))


def compose_modules(g: Profunctor, f: Profunctor) -> CompositeProfunctor:
    """g . f: each cell (c, a) is one quotient of its raw pairs (b, (y, x)),
    with no intermediate pair module; the actions send representatives to the
    classes of their acted-on raw pairs.

    Precondition: lawful modules over a lawful middle category, whose
    ``core._gens`` are the only moves read; one missing a composite raises
    MalformedTable."""
    if not same_category(g.source, f.target):
        raise EndpointMismatch(f"cannot compose {g.name} after {f.name}")
    mid = g.source
    source, target = f.source, g.target
    moves = [(u, mid.src[u], mid.tgt[u]) for u in _gens(mid)]
    coends = {}
    sets = {}
    for c in target.objects:
        for a in source.objects:
            tags = [(b, (y, x)) for b in mid.objects for y in g.cell(c, b) for x in f.cell(b, a)]
            co = ColimitResult(*quotient(tags, _coend_pairs(g, f, c, a, moves)))
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
    return CompositeProfunctor(f"({g.name}.{f.name})", source, target,
                               sets, left, right, coends)


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


# The source I of every module of a weight, built once so that its
# generating set is computed once.
_UNIT = unit_category()


def module_of_weight(phi: Presheaf) -> Profunctor:
    """A weight phi on A as a module I -|-> A with cell(a, *) = phi(a); every
    such module has the one source ``_UNIT``."""
    a_cat = phi.base
    star = _UNIT.objects[0]
    uid = _UNIT.identity[star]
    sets = {(a, star): phi.sets[a] for a in a_cat.objects}
    left = {(m, star): {x: phi.act(m, x) for x in sets[(a_cat.tgt[m], star)]}
            for m in a_cat.morphisms}
    right = {(a, uid): {x: x for x in sets[(a, star)]} for a in a_cat.objects}
    return Profunctor(f"mod({phi.name})", _UNIT, a_cat, sets, left, right)


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
    """{|f,h|}: C -|-> A with its decode table and the columns f(-,a).  The
    composite f . lift and the counit ev(f,h): f . lift -> h are built on
    first read and kept; the counit is checked natural as it is built."""
    f: Profunctor                    # A -|-> B
    h: Profunctor                    # C -|-> B
    lift: Profunctor                 # C -|-> A
    decode: dict                     # (a, c) -> {frozen: NatTrans}
    f_col: dict

    @cached_property
    def composite(self) -> CompositeProfunctor:
        """f . lift."""
        return compose_modules(self.f, self.lift)

    @cached_property
    def counit(self) -> NatTrans:
        """f . lift -> h, evaluating a family at one element of f."""
        decode = self.decode

        def evaluate(b, c, rep):
            a, (y, key) = rep
            return decode[(a, c)][key].components[b][y]
        counit = _cellwise(self.composite, self.h, f"ev({self.f.name},{self.h.name})", evaluate)
        _require_valid(counit, "lift counit not natural")
        return counit


def _require_lawful(*modules):
    """Raise ValidationFailed with the report of the first unlawful module;
    a module given twice is validated once."""
    for m in dict.fromkeys(modules):
        report = validate(m)
        if not report.ok:
            raise ValidationFailed(report)


def right_lift(f: Profunctor, h: Profunctor) -> LiftResult:
    """{|f,h|}(a,c) = natural families f(-,a) -> h(-,c).  An unlawful f or h
    raises ValidationFailed."""
    if not same_category(f.target, h.target):
        raise EndpointMismatch("right_lift needs a shared target category")
    _require_lawful(f, h)
    return _right_lift(f, h)


def _right_lift(f: Profunctor, h: Profunctor) -> LiftResult:
    """right_lift of modules known to be lawful, with shared target."""
    a_cat, c_cat = f.source, h.source
    f_col = {a: _column(f, a) for a in a_cat.objects}
    h_col = {c: _column(h, c) for c in c_cat.objects}
    decode = {}
    sets = {}
    for a in a_cat.objects:
        for c in c_cat.objects:
            nats = nat_trans_set(f_col[a], h_col[c])
            decode[(a, c)] = {n.frozen(): n for n in nats}
            sets[(a, c)] = tuple(decode[(a, c)])

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
    return LiftResult(f, h, lift, decode, f_col)


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
    so a cell at (b,a) is a natural family g(a,-) -> h(b,-).  An unlawful g
    or h raises ValidationFailed."""
    if not same_category(g.source, h.source):
        raise EndpointMismatch("right_extend needs a shared source category")
    _require_lawful(g, h)
    lifted = _right_lift(_transpose(g), _transpose(h))
    extension = _transpose(lifted.lift)
    extension.name = f"ext({g.name},{h.name})"
    return ExtendResult(extension, lifted)


# ---------------------------------------------------------------------------
# adjoint detection


@dataclass
class AdjunctionResult:
    found: bool
    right: Profunctor = None
    unit: NatTrans = None            # 1_A -> right . f
    counit: NatTrans = None          # f . right -> 1_B
    comparison: NatTrans = None      # right . f -> {|f,f|}
    reason: str = ""

    def __bool__(self):
        return self.found


def has_right_adjoint(f: Profunctor) -> AdjunctionResult:
    """Absolute-lifting criterion: g = {|f,1|} is right adjoint iff the
    canonical comparison g.f -> {|f,f|} is invertible.  Only then are the
    counit and unit built, each checked natural, and both triangle identities
    read on their elements.  An unlawful f raises ValidationFailed from the validated
    lift {|f,f|}; {|f,1_B|} skips the check, 1_B being lawful by construction."""
    selflift = right_lift(f, f)
    lifted = _right_lift(f, id_module(f.target))
    g = lifted.lift
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
    inverse, eps = comparison.invert(), lifted.counit

    def unit_at(a2, a1, h):
        key = _freeze(selflift.f_col[a2], lambda b, y: f.right_act(b, h, y))
        if key not in selflift.decode[(a2, a1)]:
            raise InternalMismatch("unit left the lift cell")
        return inverse.at((a2, a1), key)
    eta = _cellwise(id_module(f.source), c_gf, f"unit({f.name})", unit_at)
    _require_valid(eta, "adjunction unit not natural")
    _check_triangles(f, g, eta, eps)
    return AdjunctionResult(True, right=g, unit=eta, counit=eps,
                            comparison=comparison)


def _check_triangles(f: Profunctor, g: Profunctor, eta: NatTrans, eps: NatTrans):
    """Both triangle identities of eta: 1_A -> g.f and eps: f.g -> 1_B, read
    on elements (Street, Absolute colimits in enriched categories, 1983).
    With (b1, (u, v)) the representative of eta(1_a), (counit.f)(f.unit)
    sends x in f(b, a) to eps(x, u) . v and (g.counit)(unit.g) sends y in
    g(a, b) to u . eps(v, y); each must give its element back.  Both 2-cells
    are checked natural before, so eta is fixed by its values at identities
    and no composite of three modules or coherence 2-cell is built."""
    c_fg = eps.source
    units = [(a, *eta.at((a, a), f.source.id_of(a))) for a in f.source.objects]
    if not all(f.left_act(eps.at((b, b1), c_fg.normalize(b, b1, a, x, u)), a, v) == x
               for a, b1, (u, v) in units for b in f.target.objects for x in f.cell(b, a)):
        raise InternalMismatch(f"triangle identity (counit.f)(f.unit) fails for {f.name}")
    if not all(g.right_act(a, eps.at((b1, b), c_fg.normalize(b1, b, a, v, y)), u) == y
               for a, b1, (u, v) in units for b in f.target.objects for y in g.cell(a, b)):
        raise InternalMismatch(f"triangle identity (g.counit)(unit.g) fails for {f.name}")
