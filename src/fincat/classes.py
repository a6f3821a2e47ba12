"""Weight classes: bounded closure, saturation, atoms, commutation, flatness,
continuity, and recognition of free cocompletions."""
from __future__ import annotations

from dataclasses import dataclass

from .core import (Caps, FinCategory, FinFunctor, NatTrans, Presheaf,
                   Profunctor, WeightClass, _composable_pairs, _pullback,
                   category_of_elements, covariant, delta0, is_connected,
                   is_filtered, nat_compose, same_category)
from .equivalence import all_functors, is_fully_faithful, objects_isomorphic
from .errors import CapExceeded, InternalMismatch, MalformedTable
from .kan import (PresheafCollection, Provenance, member_category,
                  pointwise_colimit, yoneda_embed)
from .limits import (_colimits_presheaf, colimit_in_category, hom_diagram,
                     nat_trans_set, weighted_colimit, weighted_limit)
from .profunctor import _column, _transpose


@dataclass
class ClosureResult:
    collection: PresheafCollection
    rounds: int
    saturated_at_bound: bool
    cap: Caps
    capped: tuple = ()           # notes for anything a cap suppressed


def phi_closure_bounded(weight_class: WeightClass, base: FinCategory,
                        caps: Caps = Caps()) -> ClosureResult:
    """Close the representables of base under weighted colimits, round by round.

    Each round takes every weight and every diagram into the members present at
    the start of the round, computes the colimit pointwise, and adds it unless an
    isomorphic member exists.  Stops at a fixpoint or at the caps; hitting a cap
    is flagged on the result, never raised.  Every colimit computed runs both
    routes of ``weighted_colimit``; el(phi) is built once per weight in each
    round, on its first diagram, and shared by that weight's colimits.

    One colimit is computed per isomorphism class of diagrams: the first of a
    class, in ``all_functors`` order, marks its orbit, and the rest are
    skipped, as their colimits are isomorphic to its colimit; a skip in a class
    that hit the value cap repeats the note.
    """
    coll = PresheafCollection.representables(base)
    notes = []
    rounds = 0
    saturated = False
    while rounds < caps.rounds:
        rounds += 1
        mem_cat, decode = member_category(coll)
        auts = _automorphisms(mem_cat)
        added = False
        capped_this_round = False
        for phi in weight_class.weights:
            el = None
            marks = {}          # diagram key -> did its class hit the value cap
            value_note = (f"value cap {caps.value_size} hit by a "
                          f"{phi.name}-colimit in round {rounds}")
            for s in all_functors(phi.base, mem_cat):
                if len(coll.members) >= caps.members:
                    notes.append(f"member cap {caps.members} hit in round {rounds}")
                    capped_this_round = True
                    break
                key = tuple(map(s.mor_map.__getitem__, phi.base.morphisms))
                if key in marks:
                    if marks[key]:
                        notes.append(value_note)
                    continue
                el = el or category_of_elements(phi)
                objs = {k: coll.members[s.obj(k)] for k in phi.base.objects}
                mors = {u: decode[s.mor(u)] for u in phi.base.morphisms}
                p = pointwise_colimit(phi, objs, mors, base,
                                      f"{weight_class.name}#{len(coll.members)}", _el=el)
                value_capped = any(len(p.sets[a]) > caps.value_size
                                   for a in base.objects)
                marks.update(dict.fromkeys(_orbit(s, auts), value_capped))
                if value_capped:
                    notes.append(value_note)
                    capped_this_round = True
                    continue
                if coll.find_isomorphic(p) is not None:
                    continue
                coll._insert(p, Provenance("colimit", (
                    phi.name,
                    tuple((k, s.obj(k)) for k in phi.base.objects),
                    tuple((u, tuple((a, tuple(sorted(
                        decode[s.mor(u)].components[a].items(), key=repr)))
                        for a in base.objects))
                        for u in phi.base.morphisms))))
                added = True
            else:
                marks.clear()   # no orbit outlives its weight
                continue
            break
        if capped_this_round:
            break
        if not added:
            saturated = True
            break
    coll._nats.clear()      # the hom sets served only the rounds; free them
    return ClosureResult(coll, rounds, saturated, caps, tuple(notes))


def _automorphisms(cat: FinCategory) -> dict:
    """a -> [(sigma, sigma^-1)] for the automorphisms sigma != id of a."""
    table = cat.compose_table
    return {a: [(f, g) for f in cat.hom(a, a) for g in cat.hom(a, a) if f != cat.id_of(a)
                and table[(g, f)] == cat.id_of(a) == table[(f, g)]]
            for a in cat.objects}


def _orbit(s: FinFunctor, auts: dict) -> set:
    """Keys (morphism images) of the diagrams naturally isomorphic to s: with
    pairwise non-isomorphic objects in s.target, the sigma_t . S(u) . sigma_s^-1
    for sigma_k in Aut(S k).  Walks the orbit, not the group, one object at a
    time, skipping objects on no non-identity morphism."""
    shape, table = s.source, s.target.compose_table
    orbit = {tuple(map(s.mor_map.__getitem__, shape.morphisms))}
    arrows = [(i, shape.src[u], shape.tgt[u]) for i, u in enumerate(shape.morphisms)
              if not shape.is_identity(u)]
    for k in shape.objects:
        touched = [(i, a == k, b == k) for i, a, b in arrows if k in (a, b)]
        for key in list(orbit) if touched else ():
            for sigma, inverse in auts[s.obj(k)]:
                new = list(key)
                for i, at_src, at_tgt in touched:
                    if at_src:
                        new[i] = table[(new[i], inverse)]
                    if at_tgt:
                        new[i] = table[(sigma, new[i])]
                orbit.add(tuple(new))
    return orbit


@dataclass
class SaturationVerdict:
    verdict: str                 # "yes" | "no-at-fixpoint" | "unknown-at-cap"
    member_index: object
    closure: ClosureResult

    @property
    def found(self):
        return self.verdict == "yes"


def in_saturation_bounded(psi: Presheaf, weight_class: WeightClass,
                          caps: Caps = Caps()) -> SaturationVerdict:
    """Is psi, up to isomorphism, in the bounded closure over its own base?"""
    closure = phi_closure_bounded(weight_class, psi.base, caps)
    i = closure.collection.find_isomorphic(psi)
    if i is not None:
        return SaturationVerdict("yes", i, closure)
    if closure.saturated_at_bound:
        return SaturationVerdict("no-at-fixpoint", None, closure)
    return SaturationVerdict("unknown-at-cap", None, closure)


@dataclass
class CocompletenessResult:
    cocomplete: bool
    witness: object              # (weight name, ((k, object), ...)) when missing

    def __bool__(self):
        return self.cocomplete


def _instances(cat: FinCategory, weight_class: WeightClass, budget):
    """Lazily, (phi, s, colimit_in_category(phi, s)) for each weight phi of the
    class and each diagram s of its shape in cat, in ``all_functors`` order."""
    for phi in weight_class.weights:
        for s in all_functors(phi.base, cat, budget=budget):
            yield phi, s, colimit_in_category(phi, s)


def is_phi_cocomplete(cat: FinCategory, weight_class: WeightClass,
                      budget=None) -> CocompletenessResult:
    for phi, s, colim in _instances(cat, weight_class, budget):
        if colim is None:
            witness = (phi.name, tuple((k, s.obj(k)) for k in phi.base.objects))
            return CocompletenessResult(False, witness)
    return CocompletenessResult(True, None)


def _hom_preserves_colimit(cat, a, phi, s, colim) -> bool:
    """Does Hom(a, -) turn the given colimit into a colimit of sets?

    Computes the weighted colimit of k -> Hom(a, S k) and compares it with
    Hom(a, apex) along the map induced by the cocone.
    """
    vals = list(weighted_colimit(phi, hom_diagram(s.op(), a)).descend(
        lambda k, x, h: cat.compose(colim.cocone[k][x], h),
        "cocone-induced map not constant on colimit classes").values())
    return len(set(vals)) == len(vals) and set(vals) == set(cat.hom(a, colim.apex))


def atoms(cat: FinCategory, weight_class: WeightClass, budget=None) -> tuple:
    """Objects whose covariant hom preserves every existing colimit instance."""
    return _atoms(cat, _instances(cat, weight_class, budget))


def _atoms(cat, instances) -> tuple:
    good = set(cat.objects)
    for phi, s, colim in instances:
        if colim is None:
            continue
        for a in list(good):
            if not _hom_preserves_colimit(cat, a, phi, s, colim):
                good.discard(a)
        if not good:
            return ()
    return tuple(a for a in cat.objects if a in good)


@dataclass
class CommutationResult:
    commutes: bool
    colimit_of_limits: int       # size of phi * Nat(psi, S(-, ?))
    limit_of_colimits: int       # size of Nat(psi, phi * S(?, -))
    injective: bool
    surjective: bool

    def __bool__(self):
        return self.commutes


def _limit_then_colimit(phi, psi, s):
    """The colimit, weighted by phi, of l -> Nat(psi, S(-, l)) with frozen elements."""
    l_cat, k_cat = s.source, s.target
    cols = {l: _column(s, l) for l in l_cat.objects}
    g_sets = {l: [n.frozen() for n in nat_trans_set(psi, cols[l])]
              for l in l_cat.objects}
    g_actions = {}
    for m in l_cat.morphisms:
        l = l_cat.src[m]
        table = {}
        for gamma in g_sets[l]:
            table[gamma] = tuple(tuple(s.right_act(k, m, y) for y in row)
                                 for k, row in zip(k_cat.objects, gamma))
        g_actions[m] = table
    g = covariant(f"lim[{psi.name},{s.name}]", l_cat, g_sets, g_actions)
    return weighted_colimit(phi, g)


def _colimit_then_limit(phi, s):
    """Per-object colimits phi * S(k, -) assembled into a presheaf on the target."""
    rows = _transpose(s)   # S(k, -) is column k of the transpose
    per = {k: weighted_colimit(phi, _column(rows, k)) for k in s.target.objects}
    h = _colimits_presheaf(f"colim[{phi.name},{s.name}]", s.target, per,
                           lambda beta, l, x, y: (x, s.left_act(beta, l, y)))
    return h, per


def check_commutation(phi: Presheaf, psi: Presheaf, s: Profunctor) -> CommutationResult:
    """Does the phi-colimit commute with the psi-limit over the two-variable s?

    s must be contravariant in its target (the psi side) and covariant in its
    source (the phi side).  Computes both iterated constructions and the
    comparison map from colimit-of-limits to limit-of-colimits; commutes means
    the comparison is a bijection.
    """
    if not same_category(phi.base, s.source):
        raise MalformedTable("check_commutation: colimit weight must live on the source")
    if not same_category(psi.base, s.target):
        raise MalformedTable("check_commutation: limit weight must live on the target")
    k_cat = s.target
    a_side = _limit_then_colimit(phi, psi, s)
    h, per = _colimit_then_limit(phi, s)
    b_res = weighted_limit(psi, h)
    b_frozen = {t.frozen() for t in b_res.transforms}

    def push(l, x, gamma):
        comps = {}
        for k, row in zip(k_cat.objects, gamma):
            comps[k] = {w: per[k].inject(l, x, val)
                        for w, val in zip(psi.sets[k], row)}
        return NatTrans(psi, h, comps).frozen()

    values = list(a_side.descend(push, "comparison not constant on classes").values())
    if not set(values) <= b_frozen:
        raise InternalMismatch("comparison image is not a natural family")
    injective = len(set(values)) == len(values)
    surjective = set(values) == b_frozen
    return CommutationResult(injective and surjective, a_side.size, b_res.size,
                             injective, surjective)


def flat_for_finite_limits(phi: Presheaf) -> bool:
    """Filteredness of el(phi)^op; such weights commute with finite limits."""
    el, _ = category_of_elements(phi)
    return is_filtered(el.op())


def flat_for_terminal(phi: Presheaf) -> bool:
    """Connectedness of el(phi); such weights commute with the terminal object."""
    el, _ = category_of_elements(phi)
    return is_connected(el)


def _sends_colimit_to_limit(psi, phi, s, colim) -> bool:
    """Is psi(apex) -> Nat(phi, psi . S) induced by the cocone a bijection."""
    families = {n.frozen() for n in nat_trans_set(phi, _pullback(s, psi))}
    seen = []
    for z in psi.sets[colim.apex]:
        key = tuple(tuple(psi.act(colim.cocone[k][x], z) for x in phi.sets[k])
                    for k in phi.base.objects)
        if key not in families:
            raise InternalMismatch("cocone image under psi is not a natural family")
        seen.append(key)
    return len(set(seen)) == len(seen) and len(seen) == len(families)


def is_phi_continuous(psi: Presheaf, weight_class: WeightClass,
                      budget=None) -> bool:
    """Does psi send every existing weighted colimit of its base to a limit of
    sets?  Instances whose colimit does not exist in the base are skipped."""
    for phi, s, colim in _instances(psi.base, weight_class, budget):
        if colim is not None and not _sends_colimit_to_limit(psi, phi, s, colim):
            return False
    return True


@dataclass
class RecognitionReport:
    fully_faithful: bool
    cocomplete: bool
    closure_reaches_all: bool
    image_in_atoms: bool
    rounds: int
    unreached: tuple = ()

    @property
    def ok(self):
        return (self.fully_faithful and self.cocomplete
                and self.closure_reaches_all and self.image_in_atoms)

    def __bool__(self):
        return self.ok


def recognize_free_cocompletion(g: FinFunctor, weight_class: WeightClass,
                                caps: Caps = Caps(), budget=None) -> RecognitionReport:
    """Is g the inclusion of the atoms of a free cocompletion, at this bound?

    Checks four conditions: g fully faithful; its target has all the class's
    colimits; the image objects generate the target under those colimits; and
    the image lands in the atoms.  Raises CapExceeded only if the object closure
    is still growing when the round cap stops it and objects remain unreached.
    """
    b_cat = g.target
    ff = is_fully_faithful(g)
    instances = list(_instances(b_cat, weight_class, budget))
    cocomplete = all(colim is not None for _, _, colim in instances)
    reached = []
    for a in g.source.objects:
        if g.obj(a) not in reached:
            reached.append(g.obj(a))
    rounds = 0
    fixpoint = False
    while rounds < caps.rounds and not fixpoint:
        rounds += 1
        inside = set(reached)
        new = []
        for _, s, colim in instances:   # diagrams into the full subcategory
            if (colim is not None and inside.issuperset(s.obj_map.values())
                    and colim.apex not in reached and colim.apex not in new):
                new.append(colim.apex)
        if new:
            reached.extend(new)
        else:
            fixpoint = True
    unreached = tuple(b for b in b_cat.objects
                      if not any(objects_isomorphic(b_cat, b, c) for c in reached))
    if unreached and not fixpoint:
        raise CapExceeded(f"object closure still growing after {rounds} rounds "
                          f"with {len(unreached)} objects unreached")
    atom_set = set(_atoms(b_cat, instances))
    in_atoms = all(g.obj(a) in atom_set for a in g.source.objects)
    return RecognitionReport(ff, cocomplete, not unreached, in_atoms,
                             rounds, unreached)


@dataclass
class CommaWitness:
    connected: bool
    objects: int
    morphisms: int
    category: FinCategory


def comma_connectedness_witness(target: Presheaf) -> CommaWitness:
    """Build the comma of (representables + empty presheaf) over target.

    The empty presheaf maps uniquely into everything, so the comma category is
    never empty and always connected; the witness makes that checkable.  The
    probes' maps come from ``kan.member_category`` on all of them, isomorphic
    representables included; the empty presheaf is the initial colimit.
    """
    cat = target.base
    probes = PresheafCollection(cat)
    for a in cat.objects:
        probes._insert(yoneda_embed(cat, a), Provenance("representable", (a,)))
    # a provenance names its weight: "zero.Empty" is corpus.initial_weight
    probes._insert(delta0(cat), Provenance("colimit", ("zero.Empty", (), ())))
    mem, decode = member_category(probes)
    into = {i: nat_trans_set(p, target) for i, p in enumerate(probes.members)}
    objects = [(i, w.frozen()) for i in mem.objects for w in into[i]]
    arrow = {(i, w.frozen()): w for i in mem.objects for w in into[i]}
    morphisms = []
    identity = {}
    for src in objects:
        for tgt in objects:
            for mid in mem.hom(src[0], tgt[0]):
                if nat_compose(arrow[tgt], decode[mid]).frozen() == src[1]:
                    morphisms.append(((src, tgt, mid[2]), src, tgt))
        identity[src] = (src, src, mem.id_of(src[0])[2])
    compose = {(m2, m1): (s1, t2, mem.compose((s2[0], t2[0], m2[2]),
                                              (s1[0], s2[0], m1[2]))[2])
               for (m2, s2, t2), (m1, s1, _) in _composable_pairs(morphisms)}
    comma = FinCategory(f"comma(W/{target.name})", objects, morphisms,
                        identity, compose)
    return CommaWitness(is_connected(comma), len(objects), len(morphisms), comma)
