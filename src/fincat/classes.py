"""Weight classes: bounded closure, saturation, atoms, commutation, flatness,
continuity, and recognition of free cocompletions."""
from __future__ import annotations

from dataclasses import dataclass

from .core import (Caps, FinCategory, FinFunctor, Presheaf, Profunctor,
                   WeightClass, _bijectivity, _entry, _freeze, _pullback,
                   category_of_elements, covariant, is_connected, is_filtered,
                   same_category)
from .equivalence import (_symmetries, all_functors, is_fully_faithful,
                          objects_isomorphic, presheaf_isomorphic)
from .errors import CapExceeded, InternalMismatch, MalformedTable
from .kan import PresheafCollection, Provenance, member_category, pointwise_colimit
from .limits import (_colimits_presheaf, colimit_in_category, hom_diagram,
                     nat_trans_set, weighted_colimit, weighted_limit)
from .profunctor import _column, _transpose


@dataclass
class ClosureResult:
    collection: PresheafCollection
    rounds: int
    saturated_at_bound: bool
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

    One colimit is computed per class of diagrams under the automorphisms of
    the members and the symmetries of the weight: the first of a class, in
    ``all_functors`` order, marks its orbit under the member automorphisms
    (``_orbit``), and a later diagram S is skipped when its key, or the key of
    S . sigma for a symmetry sigma of the weight, is marked.  Its colimit is
    isomorphic to the marked one's, so the members, their order and the notes
    are those of computing every colimit; a skip repeats the value-cap note
    of the class it joins.

    A symmetry of phi is an automorphism sigma of its shape K with
    phi . sigma ~ phi (``_preserving``).  A weighted colimit changes
    variables along an isomorphism of its shape (Kelly, *Basic Concepts of
    Enriched Category Theory*): phi * (S . sigma) is the coend over k of
    phi(k) x S(sigma k), which is (phi . sigma^-1) * S after k = sigma^-1 j;
    and phi . sigma^-1 ~ phi, as the symmetries form a group.  So
    phi * (S . sigma) ~ phi * S.  Each weight's symmetries are found once per
    call, on its first diagram that is neither marked nor its first.

    Nor is a colimit computed when a rule (``_rule``, read once per call off
    the weight's tables) names the member m that it is isomorphic to; the
    diagram marks its orbit with m's set sizes.  Members being pairwise
    non-isomorphic, their isomorphisms are the identities and ``auts``.  In
    Set, pointwise: a cocone on a span i <- k -> j with k -> i invertible is
    its leg at j, so the pushout is S j; on a parallel pair sent to f, f it is
    its leg at i, so the coequalizer is S i; phi * (constant X) is
    pi0(el phi) x X, so X for a connected el(phi); an empty presheaf is
    initial, so X plus empty ones is X, and empty ones alone are empty.
    """
    coll = PresheafCollection.representables(base)
    notes = []
    rounds = 0
    saturated = False
    symmetric = {}      # weight index -> its ``_preserving``, once read
    rules = {}          # weight index -> its ``_rule``, once read
    while rounds < caps.rounds:
        rounds += 1
        mem_cat, decode = member_category(coll)
        auts = _automorphisms(mem_cat, decode)
        isos = set(mem_cat.identity.values()).union(f for fs in auts.values() for f, _ in fs)
        added = False
        capped_this_round = False
        for w, phi in enumerate(weight_class.weights):
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
                if marks and key not in marks:
                    if w not in symmetric:
                        symmetric[w] = _preserving(phi)
                    key = next((k for perm in symmetric[w]
                                if (k := tuple(map(key.__getitem__, perm))) in marks), key)
                if key in marks:
                    if marks[key]:
                        notes.append(value_note)
                    continue
                if w not in rules:
                    rules[w] = _rule(phi, (el := el or category_of_elements(phi))[0])
                m = rules[w](key, mem_cat, isos, coll.members)
                if m is None:
                    el = el or category_of_elements(phi)
                    objs = {k: coll.members[s.obj(k)] for k in phi.base.objects}
                    mors = {u: decode[s.mor(u)] for u in phi.base.morphisms}
                    p = pointwise_colimit(phi, objs, mors, base,
                                          f"{weight_class.name}#{len(coll.members)}", _el=el)
                sets = (p if m is None else coll.members[m]).sets
                value_capped = any(len(sets[a]) > caps.value_size for a in base.objects)
                marks.update(dict.fromkeys(_orbit(s, auts), value_capped))
                if value_capped:
                    notes.append(value_note)
                    capped_this_round = True
                    continue
                if m is not None or coll.find_isomorphic(p) is not None:
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
    return ClosureResult(coll, rounds, saturated, tuple(notes))


def _preserving(phi: Presheaf) -> list:
    """The morphism positions of the symmetries of phi other than the
    identity: the automorphisms sigma of its shape, from
    ``equivalence._symmetries``, with phi . sigma ~ phi.  The key of
    S . sigma is the key of S read at these positions.  When phi . sigma
    has phi's own tables, as for a conical weight, the identity is that
    isomorphism and no search runs."""
    shape = phi.base
    found = []
    for objs, perm in _symmetries(shape)[1:]:
        obj_map = dict(zip(shape.objects, objs))
        mor_map = {u: shape.morphisms[j] for u, j in zip(shape.morphisms, perm)}
        same_tables = (all(phi.sets[obj_map[a]] == phi.sets[a] for a in shape.objects)
                       and all(phi.actions[mor_map[u]] == phi.actions[u]
                               for u in shape.morphisms))
        if same_tables or presheaf_isomorphic(phi, _pullback(FinFunctor(
                "sigma", shape, shape, obj_map, mor_map), phi)) is not None:
            found.append(perm)
    return found


def _rule(phi: Presheaf, el: FinCategory):
    """(key, cat, isos, members) -> the member that a rule of ``phi_closure_bounded``
    names for a diagram of phi's shape into cat, or None; isos: cat's invertibles."""
    shape = phi.base
    arrows = [(i, shape.src[u], shape.tgt[u]) for i, u in enumerate(shape.morphisms)
              if not shape.is_identity(u)]
    if all(len(phi.sets[k]) == 1 for k in shape.objects):       # conical
        if len(arrows) == 2 and arrows[0][1] == arrows[1][1] not in (arrows[0][2], arrows[1][2]):
            (p, _, i), (q, _, j) = arrows
            if i != j and len(shape.objects) == 3:              # a span
                return lambda key, cat, isos, _: (cat.tgt[key[q]] if key[p] in isos else
                                                  cat.tgt[key[p]] if key[q] in isos else None)
            if i == j and len(shape.objects) == 2:              # a parallel pair
                return lambda key, cat, *_: cat.tgt[key[p]] if key[p] == key[q] else None
        if not arrows and len(shape.objects) > 1:               # a coproduct
            def summand(key, cat, _, members):
                rest = [f for f in key if any(members[cat.src[f]].sets.values())]
                return cat.src[(rest or key)[0]] if len(rest) < 2 else None
            return summand
    if is_connected(el):
        return lambda key, cat, *_: cat.src[key[0]] if len(set(key)) == 1 else None
    return lambda *_: None


def _automorphisms(cat: FinCategory, decode: dict) -> dict:
    """a -> [(sigma, sigma^-1)] for the automorphisms sigma != id of a, in hom
    order, in the member category cat whose transformations are decode.

    Decided on components, with no composite read: a natural transformation
    is invertible exactly when each component is a bijection, and its inverse
    inverts each component, so it is the endomorphism with that frozen form.
    An inverse missing from the hom set raises InternalMismatch."""
    auts = {}
    for a in cat.objects:
        found = [f for f in cat.hom(a, a)
                 if f != cat.id_of(a) and decode[f].bijection_failure() is None]
        by_form = {decode[f].frozen(): f for f in found}
        auts[a] = []
        for f in found:
            g = by_form.get(decode[f].invert().frozen())
            if g is None:
                raise InternalMismatch(f"member_category: the inverse of {f!r} is "
                                       f"not among the transformations {a} -> {a}")
            auts[a].append((f, g))
    return auts


def _orbit(s: FinFunctor, auts: dict) -> set:
    """Keys (morphism images) of the diagrams naturally isomorphic to s: with
    pairwise non-isomorphic objects in s.target, the sigma_t . S(u) . sigma_s^-1
    for sigma_k in Aut(S k).  Walks the orbit, not the group, one object at a
    time, skipping objects on no non-identity morphism.  Composites are read
    through ``compose``, so a lazy target computes only those of the orbit.

    A natural isomorphism S ~ S' gives phi * S ~ phi * S'.  The orbit under
    the symmetries of the weight is not listed: the closure reads it off this
    one, as phi * (S . sigma) ~ phi * S for each of them, so a diagram whose
    key read at the positions of some symmetry lies in a marked orbit joins
    that orbit's class."""
    shape, compose = s.source, s.target.compose
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
                        new[i] = compose(new[i], inverse)
                    if at_tgt:
                        new[i] = compose(sigma, new[i])
                orbit.add(tuple(new))
    return orbit


@dataclass
class SaturationVerdict:
    verdict: str                 # "yes" | "no-at-fixpoint" | "unknown-at-cap"
    member_index: object

    @property
    def found(self):
        return self.verdict == "yes"


def in_saturation_bounded(psi: Presheaf, weight_class: WeightClass,
                          caps: Caps = Caps()) -> SaturationVerdict:
    """Is psi, up to isomorphism, in the bounded closure over its own base?"""
    closure = phi_closure_bounded(weight_class, psi.base, caps)
    i = closure.collection.find_isomorphic(psi)
    if i is not None:
        return SaturationVerdict("yes", i)
    if closure.saturated_at_bound:
        return SaturationVerdict("no-at-fixpoint", None)
    return SaturationVerdict("unknown-at-cap", None)


@dataclass
class CocompletenessResult:
    cocomplete: bool
    witness: object              # (weight name, ((k, object), ...)) when missing

    def __bool__(self):
        return self.cocomplete


def _instances(cat: FinCategory, weight_class: WeightClass):
    """Lazily, (phi, s, colimit_in_category(phi, s)) for each weight phi of the
    class and each diagram s of its shape in cat, in ``all_functors`` order."""
    for phi in weight_class.weights:
        for s in all_functors(phi.base, cat):
            yield phi, s, colimit_in_category(phi, s)


def is_phi_cocomplete(cat: FinCategory, weight_class: WeightClass) -> CocompletenessResult:
    for phi, s, colim in _instances(cat, weight_class):
        if colim is None:
            witness = (phi.name, tuple((k, s.obj(k)) for k in phi.base.objects))
            return CocompletenessResult(False, witness)
    return CocompletenessResult(True, None)


def _hom_preserves_colimit(cat, a, phi, s, colim) -> bool:
    """Does Hom(a, -) turn the given colimit into a colimit of sets?

    Computes the weighted colimit of k -> Hom(a, S k) and compares it with
    Hom(a, apex) along the map induced by the cocone.
    """
    vals = weighted_colimit(phi, hom_diagram(s.op(), a)).descend(
        lambda k, x, h: cat.compose(colim.cocone[k][x], h),
        "cocone-induced map not constant on colimit classes").values()
    return all(_bijectivity(vals, set(cat.hom(a, colim.apex)), "induced map left Hom(a, apex)"))


def atoms(cat: FinCategory, weight_class: WeightClass) -> tuple:
    """Objects whose covariant hom preserves every existing colimit instance."""
    return _atoms(cat, _instances(cat, weight_class))


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
    """The colimit, weighted by phi, of the limits l -> {psi, S(-, l)} with frozen elements."""
    l_cat, k_cat = s.source, s.target
    cols = {l: _column(s, l) for l in l_cat.objects}
    g_sets = {l: [n.frozen() for n in weighted_limit(psi, cols[l]).transforms]
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
    a_side = _limit_then_colimit(phi, psi, s)
    h, per = _colimit_then_limit(phi, s)
    b_res = weighted_limit(psi, h)

    def push(l, x, gamma):
        return _freeze(psi, lambda k, w: per[k].inject(l, x, _entry(gamma, psi, k, w)))

    values = a_side.descend(push, "comparison not constant on classes").values()
    injective, surjective = _bijectivity(values, b_res.pairing.keys(),
                                         "comparison image is not a natural family")
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
    images = (_freeze(phi, lambda k, x: psi.act(colim.cocone[k][x], z))
              for z in psi.sets[colim.apex])
    return all(_bijectivity(images, families, "cocone image under psi is not a natural family"))


def is_phi_continuous(psi: Presheaf, weight_class: WeightClass) -> bool:
    """Does psi send every existing weighted colimit of its base to a limit of
    sets?  Instances whose colimit does not exist in the base are skipped."""
    for phi, s, colim in _instances(psi.base, weight_class):
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
                                caps: Caps = Caps()) -> RecognitionReport:
    """Is g the inclusion of the atoms of a free cocompletion, at this bound?

    Checks four conditions: g fully faithful; its target has all the class's
    colimits; the image objects generate the target under those colimits; and
    the image lands in the atoms.  Raises CapExceeded only if the object closure
    is still growing when the round cap stops it and objects remain unreached.
    """
    b_cat = g.target
    ff = is_fully_faithful(g)
    instances = list(_instances(b_cat, weight_class))
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
