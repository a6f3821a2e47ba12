"""Pin the expected answer of every benchmark query.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/pin.py

Runs each workload's queries once, checks each answer against its oracle
where one exists, and rewrites perfbench/expected.json.  Pin from a commit
whose answers are trusted; a benchmark run compares with these answers.
"""
import json

import queries
from worker import EXPECTED, SPEC


def main():
    pinned = {}
    for name in sorted(SPEC["workloads"]):
        answers = {}
        for qid, run, oracle in queries.build(name, SPEC):
            answer = json.loads(json.dumps(run()))
            if oracle is not None and not oracle(answer):
                raise SystemExit(f"{name} {qid}: {answer!r} disagrees with its oracle")
            answers[qid] = answer
        if len(answers) != SPEC["workloads"][name]["queries"]:
            raise SystemExit(f"{name}: {len(answers)} queries, workloads.json says "
                             f"{SPEC['workloads'][name]['queries']}")
        pinned[name] = answers
    # one line per query keeps a changed answer a one-line diff
    EXPECTED.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(qid)}: {json.dumps(answer, sort_keys=True)}"
            for qid, answer in sorted(answers.items())) + "\n }"
        for name, answers in sorted(pinned.items())) + "\n}\n")


if __name__ == "__main__":
    main()
