"""Command-line front end: every library operation on a loaded workspace.

Exit codes: 0 ok, 2 parse, 3 validation or unresolved reference, 4 budget or
cap, 5 internal mismatch assertion.

Beyond ``core``, ``errors`` and ``workspace``, each handler reads the library
as ``fincat.<module>.<name>``, so a command loads only the modules it calls.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from importlib import resources

import fincat
from .core import (Caps, Violation, category_of_elements, delta1,
                   is_connected, is_filtered, same_category, validate)
from .errors import (BudgetExceeded, CapExceeded, DuplicateName,
                     EndpointMismatch, FincatError, InternalMismatch,
                     MalformedTable, ParseError, UnresolvedReference,
                     ValidationFailed)
from .workspace import _unvalidated, load_workspace

@dataclass
class Options:
    caps: Caps = Caps()
    budget: object = None
    seed: object = None


def _b(x):
    return "true" if x else "false"


def _args(args, count, usage):
    if len(args) != count:
        raise ParseError(f"usage: {usage}")
    return args


def _count(text):
    """The argparse type of --budget and the caps: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def default_fixture_paths():
    root = resources.files("fincat") / "fixtures"
    return sorted(str(p) for p in root.iterdir() if p.name.endswith(".json"))


def _cmd_validate(ws, args, opts):
    targets = [] if args else list(ws.entities())
    for name in args:
        found = next((t for t in ws.entities() if t[1] == name), None)
        if found:
            targets.append(found)
        elif name in ws.weight_classes:
            targets += [("presheaf", w.name, w)
                        for w in ws.weight_classes[name].weights]
        else:
            raise UnresolvedReference(f"no entity named {name!r}")
    lines, payload, bad = [], [], 0
    reports = {}                # category -> its report, checked once

    def checked(c):
        if c not in reports:
            reports[c] = validate(c)
        return reports[c]
    for kind, name, entity in targets:
        if kind == "category":
            report = checked(entity)
        else:
            # the solvers need lawful categories, so an entity over an
            # unlawful one names that category's first violation as its own
            bases = ([entity.base] if kind == "presheaf"
                     else [entity.source, entity.target])
            report = validate(entity)
            report.violations[:0] = [
                Violation(f"base {c.name}: {v.law}", v.witness)
                for c in dict.fromkeys(bases) for v in checked(c).violations[:1]]
        if report.ok:
            lines.append(f"ok {kind} {name}")
        else:
            bad += 1
            lines.append(f"INVALID {kind} {name}")
            lines += [f"  {v}" for v in report.violations]
        payload.append({"kind": kind, "name": name, "ok": report.ok,
                        "violations": [{"law": v.law,
                                        "witness": [repr(w) for w in v.witness]}
                                       for v in report.violations]})
    return lines, {"entities": payload, "invalid": bad}, 3 if bad else 0


def _cmd_limit(ws, args, opts):
    (name,) = _args(args, 1, "limit PRESHEAF")
    res = fincat.limits.finset_limit(ws.presheaf(name))
    return ([f"limit size {len(res.apex)}"],
            {"size": len(res.apex), "families": [list(f) for f in res.apex]}, 0)


def _cmd_colimit(ws, args, opts):
    (name,) = _args(args, 1, "colimit PRESHEAF")
    res = fincat.limits.finset_colimit(ws.presheaf(name))
    return ([f"colimit size {len(res.classes)}"],
            {"size": len(res.classes),
             "classes": [list(c) for c in res.classes]}, 0)


def _cmd_wlimit(ws, args, opts):
    pname, tname = _args(args, 2, "wlimit WEIGHT DIAGRAM")
    phi, t = ws.presheaf(pname), ws.presheaf(tname)
    if not same_category(phi.base, t.base):
        raise MalformedTable("wlimit: weight and diagram must share a base")
    res = fincat.limits.weighted_limit(phi, t)
    return [f"weighted limit size {res.size}"], {"size": res.size}, 0


def _cmd_wcolimit(ws, args, opts):
    pname, sname = _args(args, 2, "wcolimit WEIGHT DIAGRAM")
    phi, s = ws.presheaf(pname), ws.presheaf(sname)
    if not same_category(s.base, phi.base.op()):
        raise MalformedTable("wcolimit: diagram must be covariant on the "
                             "weight's base (declare it with variance 'co')")
    res = fincat.limits.weighted_colimit(phi, s)
    return ([f"weighted colimit size {res.size}"],
            {"size": res.size, "classes": [[k, list(v)] for k, v in res.classes]}, 0)


def _cmd_kan(ws, args, opts):
    kname, tname = _args(args, 2, "kan FUNCTOR DIAGRAM")
    k, t = ws.functor(kname), ws.presheaf(tname)
    res = fincat.kan.lan(k, t)
    lines = [f"{c}: {len(res.extension.sets[c])}" for c in k.target.objects]
    return lines, {"sizes": {c: len(res.extension.sets[c])
                             for c in k.target.objects}}, 0


def _cmd_nerve(ws, args, opts):
    (gname,) = _args(args, 1, "nerve FUNCTOR")
    g = ws.functor(gname)
    res = fincat.kan.nerve(g)
    lines = []
    sizes = {}
    for b in g.target.objects:
        sizes[b] = {a: len(res[b].sets[a]) for a in g.source.objects}
        row = " ".join(str(sizes[b][a]) for a in g.source.objects)
        lines.append(f"{b}: {row}")
    return lines, {"sizes": sizes}, 0


def _cmd_elements(ws, args, opts):
    (name,) = _args(args, 1, "elements PRESHEAF")
    el, _ = category_of_elements(ws.presheaf(name))
    payload = {"objects": len(el.objects), "morphisms": len(el.morphisms),
               "connected": is_connected(el), "op_filtered": is_filtered(el.op())}
    lines = [f"objects {payload['objects']}", f"morphisms {payload['morphisms']}",
             f"connected {_b(payload['connected'])}",
             f"op-filtered {_b(payload['op_filtered'])}"]
    return lines, payload, 0


def _cmd_filtered(ws, args, opts):
    (name,) = _args(args, 1, "filtered CATEGORY")
    value = is_filtered(ws.category(name))
    return [_b(value)], {"filtered": value}, 0


def _cmd_connected(ws, args, opts):
    (name,) = _args(args, 1, "connected CATEGORY")
    value = is_connected(ws.category(name))
    return [_b(value)], {"connected": value}, 0


def _cell_sizes(p):
    """One line and one --json entry per cell of a module, target x source.
    The entry's key is ``b|a``, with ``\\`` and ``|`` inside each name
    escaped by a backslash, so that distinct cells get distinct keys."""
    def escape(x):
        return str(x).replace("\\", "\\\\").replace("|", "\\|")
    sizes = [(b, a, len(p.cell(b, a)))
             for b in p.target.objects for a in p.source.objects]
    return ([f"{b} {a}: {n}" for b, a, n in sizes],
            {"cells": {f"{escape(b)}|{escape(a)}": n for b, a, n in sizes}}, 0)


def _cmd_lift(ws, args, opts):
    fname, hname = _args(args, 2, "lift F H")
    res = fincat.profunctor.right_lift(ws.profunctor(fname), ws.profunctor(hname))
    return _cell_sizes(res.lift)


def _cmd_extend(ws, args, opts):
    gname, hname = _args(args, 2, "extend G H")
    res = fincat.profunctor.right_extend(ws.profunctor(gname), ws.profunctor(hname))
    return _cell_sizes(res.extension)


def _cmd_adjoint(ws, args, opts):
    (fname,) = _args(args, 1, "adjoint PROFUNCTOR")
    res = fincat.profunctor.has_right_adjoint(ws.profunctor(fname))
    if not res.found:
        return ([f"right adjoint: none ({res.reason})"],
                {"found": False, "reason": res.reason}, 0)
    lines, payload, code = _cell_sizes(res.right)
    return ["right adjoint: found"] + lines, dict(payload, found=True), code


def _cmd_smallproj(ws, args, opts):
    (name,) = _args(args, 1, "smallproj PRESHEAF")
    rep = fincat.cauchy.small_projective_report(ws.presheaf(name))
    lines = [f"small projective: {_b(rep.ok)}",
             f"colimit size {rep.colimit_size}, transformation size {rep.nat_size}",
             f"injective {_b(rep.injective)}, surjective {_b(rep.surjective)}"]
    return lines, {"ok": rep.ok, "colimit_size": rep.colimit_size,
                   "nat_size": rep.nat_size, "injective": rep.injective,
                   "surjective": rep.surjective}, 0


def _cmd_cauchy(ws, args, opts):
    (name,) = _args(args, 1, "cauchy CATEGORY")
    qc = fincat.cauchy.cauchy_completion(ws.category(name), verify=True)
    q = qc.completion
    sizes = [len(q.hom(o1, o2)) for o1 in q.objects for o2 in q.objects]
    lines = [f"{len(q.objects)} objects",
             "hom sizes: " + "/".join(str(n) for n in sizes)]
    return lines, {"objects": [repr(o) for o in q.objects], "hom_sizes": sizes}, 0


def _cmd_isbell(ws, args, opts):
    (name,) = _args(args, 1, "isbell PRESHEAF")
    phi = ws.presheaf(name)
    left = fincat.cauchy.isbell_left(phi)
    fincat.cauchy.isbell_unit(phi)
    back = fincat.cauchy.isbell_right(left)
    iso = fincat.equivalence.presheaf_isomorphic(back, phi) is not None
    lines = [f"L sizes: " + " ".join(str(len(left.sets[a]))
                                     for a in phi.base.objects),
             f"R(L) isomorphic to input: {_b(iso)}"]
    return lines, {"left_sizes": {a: len(left.sets[a]) for a in phi.base.objects},
                   "round_trip_iso": iso}, 0


def _cmd_duality(ws, args, opts):
    (name,) = _args(args, 1, "duality CATEGORY")
    res = fincat.cauchy.q_duality(ws.category(name))
    q = res.forward.target
    lines = [f"duality holds: {len(q.objects)} objects, "
             f"{len(q.morphisms)} morphisms"]
    return lines, {"objects": len(q.objects), "morphisms": len(q.morphisms)}, 0


def _cmd_morita(ws, args, opts):
    aname, bname = _args(args, 2, "morita CATEGORY CATEGORY")
    res = fincat.cauchy.morita_equivalent(ws.category(aname), ws.category(bname))
    lines = [f"morita equivalent: {_b(res.equivalent)}"]
    payload = {"equivalent": res.equivalent}
    if res.equivalent:
        fwd = res.witness.forward
        payload["witness_objects"] = {repr(a): repr(fwd.obj(a))
                                      for a in fwd.source.objects}
        lines.append(f"witness: {len(fwd.source.objects)} objects matched")
    return lines, payload, 0


def _cmd_closure(ws, args, opts):
    cname, wname = _args(args, 2, "closure CATEGORY CLASS")
    res = fincat.classes.phi_closure_bounded(
        ws.weight_class(wname), ws.category(cname), caps=opts.caps)
    coll = res.collection
    lines = [f"members {len(coll.members)}, rounds {res.rounds}, "
             f"saturated {_b(res.saturated_at_bound)}"]
    members = []
    for i, p in enumerate(coll.members):
        sizes = "/".join(str(len(p.sets[a])) for a in coll.base.objects)
        lines.append(f"[{i}] sizes {sizes} ({coll.provenance[i]})")
        members.append({"sizes": {a: len(p.sets[a]) for a in coll.base.objects},
                        "provenance": str(coll.provenance[i])})
    for note in res.capped:
        lines.append(f"note: {note}")
    return lines, {"members": members, "rounds": res.rounds,
                   "saturated": res.saturated_at_bound,
                   "notes": list(res.capped)}, 0


def _cmd_saturation(ws, args, opts):
    pname, wname = _args(args, 2, "saturation PRESHEAF CLASS")
    res = fincat.classes.in_saturation_bounded(
        ws.presheaf(pname), ws.weight_class(wname), caps=opts.caps)
    lines = [res.verdict]
    if res.member_index is not None:
        lines.append(f"member index {res.member_index}")
    return lines, {"verdict": res.verdict, "member_index": res.member_index}, 0


def _cmd_cocomplete(ws, args, opts):
    cname, wname = _args(args, 2, "cocomplete CATEGORY CLASS")
    res = fincat.classes.is_phi_cocomplete(
        ws.category(cname), ws.weight_class(wname))
    lines = [_b(res.cocomplete)]
    if res.witness is not None:
        weight, objs = res.witness
        lines.append(f"missing: weight {weight} on diagram "
                     + " ".join(f"{k}->{v}" for k, v in objs))
    return lines, {"cocomplete": res.cocomplete,
                   "witness": None if res.witness is None else
                   {"weight": res.witness[0], "diagram": dict(res.witness[1])}}, 0


def _cmd_atoms(ws, args, opts):
    cname, wname = _args(args, 2, "atoms CATEGORY CLASS")
    got = fincat.classes.atoms(ws.category(cname), ws.weight_class(wname))
    return ([" ".join(str(a) for a in got) if got else "(none)"],
            {"atoms": [str(a) for a in got]}, 0)


def _cmd_commute(ws, args, opts):
    if len(args) == 1:
        s = ws.profunctor(args[0])
        phi, psi = delta1(s.source), delta1(s.target)
    else:
        pname, qname, sname = _args(args, 3, "commute [PHI PSI] PROFUNCTOR")
        phi, psi, s = ws.presheaf(pname), ws.presheaf(qname), ws.profunctor(sname)
    res = fincat.classes.check_commutation(phi, psi, s)
    lines = [f"commutes: {_b(res.commutes)} "
             f"({res.colimit_of_limits} vs {res.limit_of_colimits})"]
    return lines, {"commutes": res.commutes,
                   "colimit_of_limits": res.colimit_of_limits,
                   "limit_of_colimits": res.limit_of_colimits,
                   "injective": res.injective, "surjective": res.surjective}, 0


def _cmd_flat(ws, args, opts):
    (name,) = _args(args, 1, "flat PRESHEAF")
    phi = ws.presheaf(name)
    fin = fincat.classes.flat_for_finite_limits(phi)
    term = fincat.classes.flat_for_terminal(phi)
    return ([f"flat for finite limits: {_b(fin)}",
             f"flat for terminal: {_b(term)}"],
            {"finite_limits": fin, "terminal": term}, 0)


def _cmd_continuous(ws, args, opts):
    pname, wname = _args(args, 2, "continuous PRESHEAF CLASS")
    psi = ws.presheaf(pname)
    value = fincat.classes.is_phi_continuous(psi, ws.weight_class(wname))
    return [_b(value)], {"continuous": value}, 0


def _cmd_recognize(ws, args, opts):
    fname, wname = _args(args, 2, "recognize FUNCTOR CLASS")
    rep = fincat.classes.recognize_free_cocompletion(
        ws.functor(fname), ws.weight_class(wname), caps=opts.caps)
    lines = [f"fully faithful: {_b(rep.fully_faithful)}",
             f"cocomplete: {_b(rep.cocomplete)}",
             f"closure reaches all: {_b(rep.closure_reaches_all)}",
             f"image in atoms: {_b(rep.image_in_atoms)}",
             f"ok: {_b(rep.ok)}"]
    return lines, {"fully_faithful": rep.fully_faithful,
                   "cocomplete": rep.cocomplete,
                   "closure_reaches_all": rep.closure_reaches_all,
                   "image_in_atoms": rep.image_in_atoms, "ok": rep.ok}, 0


def _cmd_absolute_sample(ws, args, opts):
    if not args:
        raise ParseError("usage: absolute-sample PRESHEAF [FUNCTOR ...]")
    phi = ws.presheaf(args[0])
    if len(args) > 1:
        functors = [ws.functor(n) for n in args[1:]]
    else:
        functors = [ws.functors[n] for n in sorted(ws.functors)]
    if opts.seed is not None:
        random.Random(opts.seed).shuffle(functors)
    cap = {} if opts.budget is None else {"cap_per_functor": opts.budget}
    rep = fincat.cauchy.check_absolute_sampled(phi, functors, **cap)
    lines = [f"small projective: {_b(rep.small_projective)}",
             f"instances: {len(rep.instances)}",
             f"violations: {len(rep.violations)}"]
    for v in rep.violations:
        lines.append(f"  {v.functor} {v.side} diagram {'/'.join(map(str, v.diagram))}"
                     f": {v.reason}")
    return lines, {"small_projective": rep.small_projective,
                   "instances": len(rep.instances),
                   "violations": [{"functor": v.functor, "side": v.side,
                                   "diagram": [str(d) for d in v.diagram],
                                   "reason": v.reason}
                                  for v in rep.violations],
                   "consistent": rep.consistent}, 0


_HANDLERS = {
    "validate": _cmd_validate, "limit": _cmd_limit, "colimit": _cmd_colimit,
    "wlimit": _cmd_wlimit, "wcolimit": _cmd_wcolimit, "kan": _cmd_kan,
    "nerve": _cmd_nerve, "elements": _cmd_elements, "filtered": _cmd_filtered,
    "connected": _cmd_connected, "lift": _cmd_lift, "extend": _cmd_extend,
    "adjoint": _cmd_adjoint, "smallproj": _cmd_smallproj, "cauchy": _cmd_cauchy,
    "isbell": _cmd_isbell, "duality": _cmd_duality, "morita": _cmd_morita,
    "closure": _cmd_closure, "saturation": _cmd_saturation,
    "cocomplete": _cmd_cocomplete, "atoms": _cmd_atoms, "commute": _cmd_commute,
    "flat": _cmd_flat, "continuous": _cmd_continuous,
    "recognize": _cmd_recognize, "absolute-sample": _cmd_absolute_sample,
}
COMMANDS = tuple(_HANDLERS)


def run_command(ws, command, args, opts: Options = Options()):
    """Returns (text lines, json payload, exit code) for one command."""
    if command not in _HANDLERS:
        raise ParseError(f"unknown command {command!r}")
    return _HANDLERS[command](ws, args, opts)


_EXIT = ((ParseError, 2),
         (ValidationFailed, 3), (UnresolvedReference, 3), (DuplicateName, 3),
         (MalformedTable, 3), (EndpointMismatch, 3),
         (BudgetExceeded, 4), (CapExceeded, 4),
         (InternalMismatch, 5))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fincat",
        description="Exact weighted (co)limits, Kan extensions, module "
                    "adjunctions, and Cauchy completions over finite categories.")
    parser.add_argument("-w", "--workspace", action="append", default=[],
                        metavar="FILE", help="workspace JSON file; may repeat. "
                        "Defaults to the bundled fixtures.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--cap-rounds", type=_count, default=Caps.rounds, metavar="N")
    parser.add_argument("--cap-members", type=_count, default=Caps.members, metavar="N")
    parser.add_argument("--budget", type=_count, default=None, metavar="N")
    parser.add_argument("--seed", type=int, default=None, metavar="N")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("args", nargs="*", metavar="ARG")
    ns = parser.parse_args(argv)
    opts = Options(caps=Caps(rounds=ns.cap_rounds, members=ns.cap_members),
                   budget=ns.budget, seed=ns.seed)
    # --budget caps each search of one command, or is absolute-sample's cap
    default = fincat.core.DEFAULT_BUDGET
    if ns.budget is not None and ns.command != "absolute-sample":
        fincat.core.DEFAULT_BUDGET = ns.budget
    try:
        load = _unvalidated if ns.command == "validate" else load_workspace
        ws = load(ns.workspace or default_fixture_paths())
        lines, payload, code = run_command(ws, ns.command, ns.args, opts)
    except FincatError as err:
        for cls, code in _EXIT:
            if isinstance(err, cls):
                print(f"error: {err}", file=sys.stderr)
                return code
        raise
    finally:
        fincat.core.DEFAULT_BUDGET = default
    if ns.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
