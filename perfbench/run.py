"""fincat benchmark: run one workload in a fresh, limited child process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed permutes the query order within each pass and sets the child's
PYTHONHASHSEED, so the same seed gives the same inputs and the same counts.
Every answer is compared with the answer pinned in perfbench/expected.json.
Times are scaled to a nominal host speed by a reference loop timed around
and during the work (speed.py); the unscaled times go to stderr.  The run and
all its processes are pinned to one CPU, the one the reference measures.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The exit code is 0 only when every query passed.
"""
import argparse
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())


def _child_limits():
    """Applied in the workload child only: address space and total CPU time."""
    space = SPEC["address_space_mb"] * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (space, space))
    cpu = SPEC["run_timeout_s"]
    resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))


class Child:
    """One worker process.

    ``setup_s`` runs from spawn until it is ready, less the time its set-up
    spent measuring the host speed; ``ref_s`` is the reference time over it.
    """

    def __init__(self, args, env, deadline):
        self.deadline = deadline
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, preexec_fn=_child_limits)
        waiting = select.select([self.proc.stdout], [], [], max(0.0, deadline - perf_counter()))[0]
        ready = (self.proc.stdout.readline() if waiting else "").split()
        elapsed = perf_counter() - start
        if len(ready) != 3 or ready[0] != "ready":
            self.proc.kill()
            self.proc.wait()
            raise SystemExit("workload child failed during set-up")
        self.ref_s = float(ready[1])
        self.setup_s = elapsed - float(ready[2])

    def finish(self):
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise SystemExit(f"workload child exceeded {SPEC['run_timeout_s']} s") from None
        if self.proc.returncode != 0:
            raise SystemExit(f"workload child exited with {self.proc.returncode}")
        return out


def nearest_rank(values, percentile):
    ordered = sorted(values)
    return ordered[math.ceil(percentile / 100 * len(ordered)) - 1]


def end_to_end(passes, setup_samples, peak_rss_mb, workload, scale):
    """The end-to-end metrics; ``scale(seconds, ref_s)`` maps a measured time."""
    per_query = {}
    for records in passes:
        for qid, seconds, ref_s, _, _ in records:
            per_query.setdefault(qid, []).append(scale(seconds, ref_s))
    times = [t for query_times in per_query.values() for t in query_times]
    percentile = workload["tail_percentile"]
    beyond = len(times) - math.ceil(percentile / 100 * len(times))
    if beyond < 10:
        raise SystemExit(f"p{percentile} leaves {beyond} samples beyond it, not 10")
    passed = sum(r[3] for records in passes for r in records)
    return {
        "setup_s": statistics.median(scale(s, r) for s, r in setup_samples),
        "wall_s": statistics.median(sum(scale(r[1], r[2]) for r in records)
                                    for records in passes),
        "latency_p50_ms": statistics.median(map(statistics.median, per_query.values())) * 1e3,
        "latency_tail_ms": nearest_rank(times, percentile) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": passed / len(times),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    for needed in ("src/fincat/__init__.py", "tests/util.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            sys.exit(f"run from a fincat checkout: {needed} is missing")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if args.trace else "end_to_end"]

    deadline = perf_counter() + SPEC["run_timeout_s"]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=str(args.seed % 2 ** 32))
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup_samples = []  # (seconds, reference seconds) of set-up-only children
    if not args.trace:
        for _ in range(SPEC["setup_samples"]):
            probe = Child(child_args + ["--setup-only"], env, deadline)
            probe.finish()
            setup_samples.append((probe.setup_s, probe.ref_s))
    child = Child(child_args, env, deadline)
    result = json.loads(child.finish().splitlines()[-1])

    records = [r for pass_records in result["passes"] for r in pass_records]
    failures = [r for r in records if not r[3]]
    for qid, _, _, _, error in failures[:20]:
        print(f"FAILED {args.workload} {qid}: {error}", file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
        for name in result["unexercised"]:
            print(f"FAILED {name} recorded no call on {args.workload}", file=sys.stderr)
    else:
        workload = SPEC["workloads"][args.workload]
        metrics = end_to_end(result["passes"], setup_samples, result["peak_rss_mb"],
                             workload, speed.scaled)
        raw = end_to_end(result["passes"], setup_samples, result["peak_rss_mb"],
                         workload, lambda seconds, ref_s: seconds)
        refs = [r[2] for records in result["passes"] for r in records]
        print(f"unscaled {json.dumps(raw)} reference_ms_median "
              f"{statistics.median(refs) * 1e3:.4f}", file=sys.stderr)
    correct = not failures and not result.get("unexercised")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
