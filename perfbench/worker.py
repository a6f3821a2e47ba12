"""Workload child process: set up, run timed passes, check answers.

Started by run.py, which has already limited this process's address space and
CPU time.  Once set-up is done it prints ``ready REF_S OVERHEAD_S``: the
reference time over the set-up (speed.py) and the time the set-up spent in
speed.py, which run.py takes off.  Then it prints one JSON line with a record
per query run: ``[query id, seconds, reference seconds, passed, error]``.
With ``--trace 1`` it runs one traced pass and one untraced pass and adds the
per-layer summary.
"""
import argparse
import json
import random
import resource
import signal
from pathlib import Path
from time import perf_counter

import queries
import spans
import speed

SPEC = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())
EXPECTED = Path(__file__).resolve().parent / "expected.json"


class QueryDeadline(BaseException):
    """Raised on SIGXCPU; a BaseException so library handlers cannot swallow it."""


def _on_cpu_limit(signum, frame):
    raise QueryDeadline(f"query used more than {SPEC['query_deadline_cpu_s']} s of CPU")


def timed(run, meter):
    """Run one query under the per-query CPU deadline.

    Returns (seconds, reference seconds, answer, error).
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    _, hard = resource.getrlimit(resource.RLIMIT_CPU)
    deadline = int(usage.ru_utime + usage.ru_stime) + 1 + SPEC["query_deadline_cpu_s"]
    resource.setrlimit(resource.RLIMIT_CPU, (min(deadline, hard), hard))
    meter.start()
    try:
        answer, error = run(), None
    except (QueryDeadline, Exception) as exc:  # a failed query is recorded, not fatal
        answer, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        seconds, ref_s = meter.stop()
        resource.setrlimit(resource.RLIMIT_CPU, (hard, hard))
    return seconds, ref_s, answer, error


def run_pass(qs, expected, meter, tracer=None):
    records = []
    for qid, run, oracle in qs:
        if tracer is not None:
            tracer.query = qid
        seconds, ref_s, answer, error = timed(run, meter)
        if error is None:
            answer = json.loads(json.dumps(answer))
            if answer != expected[qid]:
                error = f"answer {answer!r} differs from pinned {expected[qid]!r}"
            elif oracle is not None and not oracle(answer):
                error = f"answer {answer!r} disagrees with its oracle"
        records.append([qid, seconds, ref_s, error is None, error])
    if tracer is not None:
        tracer.query = None
    return records


def shuffled(qs, seed, index):
    order = list(qs)
    random.Random(f"{seed}/{index}").shuffle(order)
    return order


def traced_passes(workload, seed, qs, expected, meter):
    """One traced pass, then one untraced pass in the same order."""
    traces = []  # CLI commands run in their own processes, each traced on its own
    traced_qs = queries.build("cli", SPEC, traces) if workload == "cli" else qs
    tracer = spans.Tracer()
    tracer.install()
    traced = run_pass(shuffled(traced_qs, seed, 0), expected, meter, tracer)
    tracer.uninstall()
    untraced = run_pass(shuffled(qs, seed, 0), expected, meter)
    layers = spans.derive(spans.merge([tracer.summary(), {"cli.import_s": 0.0}] + traces))
    layers["trace.untraced_wall_s"] = sum(speed.scaled(r[1], r[2]) for r in untraced)
    layers["trace.overhead"] = (sum(speed.scaled(r[1], r[2]) for r in traced)
                                / layers["trace.untraced_wall_s"])
    return [traced, untraced], layers


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGXCPU, _on_cpu_limit)
    began = perf_counter()
    meter = speed.Meter(SPEC["reference_interval_s"])
    meter.start()
    qs = queries.build(args.workload, SPEC)
    expected = json.loads(EXPECTED.read_text())[args.workload]
    if sorted(expected) != sorted(qid for qid, _, _ in qs):
        raise SystemExit(f"{args.workload}: queries differ from expected.json")
    seconds, ref_s = meter.stop()
    print(f"ready {ref_s!r} {perf_counter() - began - seconds!r}", flush=True)
    if args.setup_only:
        return

    out = {}
    if args.trace:
        passes, out["layers"] = traced_passes(args.workload, args.seed, qs, expected, meter)
        out["unexercised"] = [
            name for name, layer in SPEC["layers"].items()
            if args.workload in layer["heavy"] and out["layers"][f"{name}.calls"] < 1]
    else:
        passes = []
        start = perf_counter()
        min_passes = SPEC["workloads"][args.workload]["min_passes"]
        while len(passes) < min_passes or perf_counter() - start < args.seconds:
            passes.append(run_pass(shuffled(qs, args.seed, len(passes)), expected, meter))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    out["passes"] = passes
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
