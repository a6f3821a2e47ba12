"""The four workloads as fixed query lists.

``build(name, spec)`` returns a list of ``(query id, run, oracle)``.  ``run()``
calls the library and returns a JSON-shaped answer, which is compared with the
answer pinned in ``expected.json``.  ``oracle(answer)``, where one exists,
checks the answer along an independent route; it runs outside the timed region.

Library calls go through attributes of the ``fincat`` package, looked up at
call time, so that the tracer's wrappers see them.
"""
import importlib.util
import json
import resource
import subprocess
import sys
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# -- adjoint: three routes to small projectivity on every corpus weight -------

def _adjoint_answer(phi):
    import fincat
    return [fincat.is_small_projective(phi),
            fincat.retract_oracle(phi) is not None,
            fincat.has_right_adjoint(fincat.module_of_weight(phi)).found]


def _routes_agree(answer):
    return len(set(answer)) == 1


def adjoint(spec):
    from fincat import corpus
    return [(name, partial(_adjoint_answer, phi), _routes_agree)
            for name, phi in sorted(corpus.PRESHEAVES.items())]


# -- ladder: validation and verified completion up to Q(F3) ------------------

def cyclic_monoid(n):
    """The cyclic monoid <a | a^n = a> of order n; 1 and a^(n-1) are idempotent."""
    from fincat import corpus

    def power(k):
        return k if k < n else 1 + (k - 1) % (n - 1)

    elements = [f"a{k}" for k in range(n)]
    mult = {(f"a{j}", f"a{k}"): f"a{power(j + k)}"
            for j in range(n) for k in range(n)}
    return corpus.monoid_category(f"Cyc{n}", elements, mult, "a0")


def chain(n):
    from fincat import corpus
    return corpus.poset_category(f"Chain{n}", [str(i) for i in range(n)],
                                 lambda x, y: int(x) <= int(y))


def finite_sets(sizes):
    """All functions between sets of the given sizes, e.g. F3 for (1, 2, 3)."""
    from fincat import corpus
    carriers = {str(n): tuple(f"x{i}" for i in range(n)) for n in sizes}
    tables = {(s, t): corpus.all_function_tables(carriers[s], carriers[t])
              for s in carriers for t in carriers}
    return corpus.concrete_category(f"F{max(sizes)}", carriers, tables)


def _ladder_answer(cat):
    import fincat
    valid = fincat.validate(cat).ok
    q = fincat.cauchy_completion(cat, verify=True).completion
    return {"valid": valid, "objects": len(q.objects),
            "homs": [len(q.hom(a, b)) for a in q.objects for b in q.objects]}


def _karoubi_agrees(oracle, cat, answer):
    count, sizes = oracle(cat)
    return answer["objects"] == count and tuple(answer["homs"]) == sizes


def _test_util():
    """tests/util.py, whose oracles avoid the library code paths under test."""
    spec = importlib.util.spec_from_file_location("fincat_test_util",
                                                  ROOT / "tests" / "util.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ladder(spec):
    from fincat import corpus
    rungs = [("F3", finite_sets(spec["finite_set_sizes"]))]
    rungs += [(f"cyclic:{n}", cyclic_monoid(n)) for n in spec["cyclic_orders"]]
    rungs += [(f"chain:{n}", chain(n)) for n in spec["chain_lengths"]]
    rungs += [(f"corpus:{name}", cat) for name, cat in corpus.CATEGORIES.items()]
    agrees = partial(_karoubi_agrees, _test_util().karoubi_oracle)
    return [(rung, partial(_ladder_answer, cat), partial(agrees, cat))
            for rung, cat in rungs]


# -- closure: bounded weight-class closures of the small corpus categories ----

def _closure_answer(weight_class, cat, caps):
    import fincat
    r = fincat.phi_closure_bounded(weight_class, cat, caps)
    return {"members": len(r.collection.members), "rounds": r.rounds,
            "saturated": r.saturated_at_bound}


def closure(spec):
    from fincat import Caps, corpus
    caps = Caps(**spec["caps"])
    excluded = {tuple(e["pair"]) for e in spec["excluded"]}
    return [(f"{cname}/{wname}", partial(_closure_answer, wc, cat, caps), None)
            for cname, cat in corpus.CATEGORIES.items()
            if len(cat.objects) <= spec["max_objects"]
            for wname, wc in corpus.WEIGHT_CLASSES.items()
            if (cname, wname) not in excluded]


# -- cli: one fresh command process per CLI command ---------------------------

def _limit_cpu(seconds):
    resource.setrlimit(resource.RLIMIT_CPU, (seconds, seconds + 1))


def _cli_answer(argv, deadline_s, traces):
    """Run one command; with ``traces`` a list, run it traced and keep its summary."""
    if traces is None:
        cmd = [sys.executable, "-m", "fincat.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_traced.py"), *argv]
    proc = subprocess.run(cmd, capture_output=True, cwd=ROOT,
                          preexec_fn=partial(_limit_cpu, deadline_s),
                          timeout=2 * deadline_s)
    summary = proc.stderr.decode().splitlines()[-1:]
    if traces is not None and summary and summary[0].startswith("{"):
        traces.append(json.loads(summary[0]))
    return {"exit": proc.returncode, "stdout": proc.stdout.decode()}


def cli(spec, deadline_s, traces=None):
    from fincat import cli as fincat_cli, load_workspace
    load_workspace(fincat_cli.default_fixture_paths())
    invoked = sorted(argv[0] for argv in spec["invocations"])
    if invoked != sorted(fincat_cli.COMMANDS):
        raise ValueError("cli workload must invoke each CLI command once")
    return [(" ".join(argv), partial(_cli_answer, argv, deadline_s, traces), None)
            for argv in spec["invocations"]]


def build(name, spec, traces=None):
    """The query list of workload ``name``; ``traces`` collects traced CLI runs."""
    workload = spec["workloads"][name]
    if name == "cli":
        return cli(workload, spec["query_deadline_cpu_s"], traces)
    return {"adjoint": adjoint, "ladder": ladder, "closure": closure}[name](workload)
