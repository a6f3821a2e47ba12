"""Small projectives, Cauchy completion, the Isbell adjunction, Morita equivalence.

The Isbell pair is written once: a covariant weight is a presheaf on the
opposite, so R is L computed on the opposite, and the counit psi -> L(R(psi))
is ``isbell_unit(psi)``, the unit computed on the opposite.

Three independent routes decide small-projectivity and are cross-checked in the
test suite: the canonical-map criterion implemented here, an exhaustive
retract-of-representable search, and adjoint detection on the weight's module.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (FinCategory, FinFunctor, NatTrans, Presheaf, _bijectivity,
                   _composable_pairs, _entry, _freeze, _require_valid, nat_compose,
                   nat_identity)
from .equivalence import (Equivalence, find_equivalence, is_fully_faithful,
                          objects_isomorphic, all_functors)
from .errors import InternalMismatch
from .kan import nerve, yoneda_embed
from .limits import (colimit_in_category, nat_trans_set,
                     preserves_weighted_colimit, weighted_colimit)
from .profunctor import _column, _transpose, has_right_adjoint, module_of_weight


# ---------------------------------------------------------------------------
# the Isbell adjunction


def isbell_left(phi: Presheaf, _reps=None) -> Presheaf:
    """L(phi)(b) = Nat(phi, Yb) as a covariant weight (presheaf on B^op).

    Elements are frozen transformations; a morphism f: b -> b' acts by
    post-composing with Y(f).

    _reps, when given, is ``{b: yoneda_embed(B, b)}`` built once by a caller
    that checks many weights on one base B.
    """
    b_cat = phi.base
    reps = _reps or {b: yoneda_embed(b_cat, b) for b in b_cat.objects}
    nats = {b: nat_trans_set(phi, reps[b]) for b in b_cat.objects}
    sets = {b: tuple(n.frozen() for n in nats[b]) for b in b_cat.objects}
    actions = {f: {key: tuple(tuple(b_cat.compose(f, h) for h in row) for row in key)
                   for key in sets[b_cat.src[f]]}
               for f in b_cat.morphisms}
    # the constructor rejects any action that leaves the transformation sets
    return Presheaf(f"L({phi.name})", b_cat.op(), sets, actions)


def isbell_right(psi: Presheaf) -> Presheaf:
    """R(psi)(b) = [B,V](psi, B(b,-)), contravariant in b.

    psi is a presheaf on B^op, so this is L(psi) computed on B^op: the same
    sets and actions, on the base B^op^op = B.
    """
    right = isbell_left(psi)
    right.name = f"R({psi.name})"
    return right


def isbell_unit(phi: Presheaf) -> NatTrans:
    """phi -> R(L(phi)), x at b mapping to (gamma -> gamma_b(x))."""
    lphi = isbell_left(phi)
    rl = isbell_right(lphi)
    comps = {b: {x: _freeze(lphi, lambda a, g: _entry(g, phi, b, x))
                 for x in phi.sets[b]} for b in phi.base.objects}
    if any(not set(rl.sets[b]).issuperset(comps[b].values()) for b in comps):
        raise InternalMismatch("isbell unit left R(L(phi))")
    unit = NatTrans(phi, rl, comps, name=f"isbell-unit({phi.name})")
    _require_valid(unit, "isbell unit not natural")
    return unit


# ---------------------------------------------------------------------------
# small projectives


@dataclass
class SmallProjectiveReport:
    colimit_size: int
    nat_size: int
    injective: bool
    surjective: bool

    @property
    def ok(self):
        return self.injective and self.surjective


def small_projective_report(phi: Presheaf, _reps=None) -> SmallProjectiveReport:
    """Bijectivity report for the canonical map phi * L(phi) -> Nat(phi, phi).

    The map sends the class of (x, gamma) over k to y |-> phi(gamma(y))(x),
    built row by row off the frozen form of gamma, as ``isbell_left`` builds
    its action; it is checked to be constant on classes before anything
    else.  _reps is passed to ``isbell_left``.
    """
    psi = isbell_left(phi, _reps)
    colim = weighted_colimit(phi, psi)
    nats = {n.frozen() for n in nat_trans_set(phi, phi)}

    def image(k, x, gkey):
        return tuple(tuple(phi.actions[g][x] for g in row) for row in gkey)
    images = colim.descend(image, "canonical self-map not constant on classes").values()
    injective, surjective = _bijectivity(images, nats, "canonical self-map left the natural set")
    return SmallProjectiveReport(len(colim.classes), len(nats), injective, surjective)


def is_small_projective(phi: Presheaf, _reps=None) -> bool:
    return small_projective_report(phi, _reps).ok


def retract_oracle(phi: Presheaf):
    """Exhaustive search for b, s: phi -> Yb, r: Yb -> phi with r.s = id.

    Independent of the canonical-map criterion; used to cross-check it.
    """
    b_cat = phi.base
    ident = nat_identity(phi).frozen()
    for b in b_cat.objects:
        yb = yoneda_embed(b_cat, b)
        sections = nat_trans_set(phi, yb)
        if not sections:
            continue
        retractions = nat_trans_set(yb, phi)
        for s in sections:
            for r in retractions:
                if nat_compose(r, s).frozen() == ident:
                    return b, s, r
    return None


# ---------------------------------------------------------------------------
# Cauchy completion


@dataclass
class CauchyCompletion:
    base: FinCategory
    completion: FinCategory
    embedding: FinFunctor
    idempotents: tuple          # objects of the completion, (a, e) pairs


def idempotent_endos(cat: FinCategory):
    return tuple((a, e) for a in cat.objects for e in cat.hom(a, a)
                 if cat.compose(e, e) == e)


def cauchy_completion(cat: FinCategory, verify=False) -> CauchyCompletion:
    """Split every idempotent: objects (a,e), hom((a,e),(a',e')) = {m = e'.m.e}."""
    objs = idempotent_endos(cat)
    morphisms = []
    for o1 in objs:
        a1, e1 = o1
        for o2 in objs:
            a2, e2 = o2
            for m in cat.hom(a1, a2):
                if cat.compose(e2, cat.compose(m, e1)) == m:
                    morphisms.append(((o1, o2, m), o1, o2))
    identity = {(a, e): ((a, e), (a, e), e) for (a, e) in objs}
    compose = {(g, f): (fs, gt, cat.compose(g[2], f[2]))
               for (g, _, gt), (f, fs, _) in _composable_pairs(morphisms)}
    completion = FinCategory(f"Q({cat.name})", list(objs), morphisms, identity, compose)
    emb_obj = {a: (a, cat.id_of(a)) for a in cat.objects}
    emb_mor = {f: (emb_obj[cat.src[f]], emb_obj[cat.tgt[f]], f) for f in cat.morphisms}
    embedding = FinFunctor(f"embed({cat.name})", cat, completion, emb_obj, emb_mor)
    result = CauchyCompletion(cat, completion, embedding, objs)
    if verify:
        _verify_completion(result)
    return result


def _verify_completion(qc: CauchyCompletion):
    for entity in (qc.completion, qc.embedding):
        _require_valid(entity, "completion invalid")
    if not is_fully_faithful(qc.embedding):
        raise InternalMismatch("completion embedding is not fully faithful")
    unsplit = unsplit_idempotents(qc.completion)
    if unsplit:
        raise InternalMismatch(f"idempotents fail to split in completion: {unsplit}")
    grown = nerve(qc.embedding)
    reps = {b: yoneda_embed(qc.base, b) for b in qc.base.objects}
    for (b, e) in qc.idempotents:
        p = grown[(b, e)]
        for a in qc.base.objects:
            expect = {m for m in qc.base.hom(a, b)
                      if qc.base.compose(e, m) == m}
            got = {triple[2] for triple in p.sets[a]}
            if expect != got:
                raise InternalMismatch("nerve of completion object is not the split image")
        if not is_small_projective(p, _reps=reps):
            raise InternalMismatch(f"completion object {(b, e)!r} not small projective")


def unsplit_idempotents(cat: FinCategory):
    """Idempotents admitting no splitting s.p = e, p.s = id; empty means all split."""
    return [(x, e) for (x, e) in idempotent_endos(cat)
            if not any(cat.compose(s, p) == e and cat.compose(p, s) == cat.id_of(r)
                       for r in cat.objects
                       for s in cat.hom(r, x) for p in cat.hom(x, r))]


# ---------------------------------------------------------------------------
# duality and Morita equivalence


@dataclass
class QDuality:
    forward: FinFunctor         # opposite(Q(A^op)) -> Q(A), an isomorphism
    equivalence: Equivalence


def q_duality(cat: FinCategory) -> QDuality:
    """The contravariant match between completions of a category and its opposite."""
    q = cauchy_completion(cat).completion
    q_op = cauchy_completion(cat.op()).completion
    source = q_op.op()
    obj_map = {(a, e): (a, e) for (a, e) in source.objects}
    mor_map = {}
    for mid in source.morphisms:
        (o1, o2, m) = mid
        mor_map[mid] = (o2, o1, m)
    forward = FinFunctor(f"duality({cat.name})", source, q, obj_map, mor_map)
    _require_valid(forward, "duality witness invalid")
    if len(source.morphisms) != len(q.morphisms) or not is_fully_faithful(forward):
        raise InternalMismatch("duality witness is not an isomorphism")
    equiv = find_equivalence(source, q)
    if equiv is None:
        raise InternalMismatch("duality equivalence search failed")
    return QDuality(forward, equiv)


@dataclass
class MoritaResult:
    equivalent: bool
    witness: Equivalence = None
    left: CauchyCompletion = None
    right: CauchyCompletion = None

    def __bool__(self):
        return self.equivalent


def morita_equivalent(a: FinCategory, b: FinCategory) -> MoritaResult:
    qa, qb = cauchy_completion(a), cauchy_completion(b)
    witness = find_equivalence(qa.completion, qb.completion)
    return MoritaResult(witness is not None, witness, qa, qb)


# ---------------------------------------------------------------------------
# dual pairs (weight with right-adjoint module) and Prop-7.3-style checks


@dataclass
class DualPair:
    phi: Presheaf               # contravariant weight on B
    psi: Presheaf               # covariant weight, presheaf on B^op
    psi_module: object          # B -|-> I, right adjoint of phi's module


def dual_pair_from_weight(phi: Presheaf):
    """The adjoint pair generated by a small projective weight, else None."""
    adj = has_right_adjoint(module_of_weight(phi))
    if not adj:
        return None
    g = adj.right
    psi = _column(_transpose(g), g.target.objects[0])   # g(*, -) on B^op
    psi.name = f"dual({phi.name})"
    return DualPair(phi, psi, g)


@dataclass
class DualComparison:
    colimit: object             # ColimitInCategory or None
    limit: object               # ColimitInCategory in the opposite, or None
    agree: bool
    reason: str = ""


def dual_limit_colimit(pair: DualPair, diagram: FinFunctor) -> DualComparison:
    """{psi, F} against phi * F inside the diagram's target category.

    Both sides must exist together and then have isomorphic apexes.  The
    limit is the colimit of F^op weighted by psi, in the opposite.
    """
    colim = colimit_in_category(pair.phi, diagram)
    lim = colimit_in_category(pair.psi, diagram.op())
    if (colim is None) != (lim is None):
        return DualComparison(colim, lim, False, "one side exists without the other")
    if colim is None:
        return DualComparison(None, None, True, "both sides absent")
    same = objects_isomorphic(diagram.target, colim.apex, lim.apex)
    reason = "" if same else "apexes not isomorphic"
    return DualComparison(colim, lim, same, reason)


# ---------------------------------------------------------------------------
# absoluteness sampling


@dataclass
class AbsoluteInstance:
    functor: str
    diagram: tuple              # the diagram's object images, for the record
    side: str                   # "colimit" or "limit"
    exists: bool
    preserved: bool = None
    reason: str = ""


@dataclass
class AbsoluteReport:
    small_projective: bool
    instances: list

    @property
    def violations(self):
        return [i for i in self.instances if i.preserved is False]

    @property
    def consistent(self):
        """Small projectivity must imply that nothing was violated."""
        return not (self.small_projective and self.violations)


def check_absolute_sampled(phi: Presheaf, functors, cap_per_functor=25) -> AbsoluteReport:
    """Preservation of phi-weighted colimits and limits under sampled functors.

    For every sampled functor F: A -> X, every diagram K -> A (up to the cap)
    with an existing weighted colimit is transported and re-checked in X.  The
    limit side is the colimit side read in the opposites: each diagram
    t: K^op -> A gives the colimit of t^op in A^op, transported by F^op.
    """
    k_cat = phi.base
    instances = []
    for f in functors:
        for side, k_side, flip in (("colimit", k_cat, lambda fn: fn),
                                   ("limit", k_cat.op(), FinFunctor.op)):
            for t in all_functors(k_side, f.source, cap=cap_per_functor):
                s = flip(t)
                colim = colimit_in_category(phi, s)
                summary = tuple(s.obj(j) for j in k_cat.objects)
                if colim is None:
                    instances.append(AbsoluteInstance(f.name, summary, side, False))
                    continue
                res = preserves_weighted_colimit(flip(f), phi, s, colim)
                instances.append(AbsoluteInstance(f.name, summary, side, True,
                                                  res.preserved, res.reason))
    return AbsoluteReport(is_small_projective(phi), instances)
