"""Run one fincat CLI command under the tracer.

Usage: python3 perfbench/cli_traced.py COMMAND [ARG ...]

Stdout and the exit code are the command's own.  The last line of stderr is
the tracer's raw summary as JSON, with the import time of ``fincat.cli``.
"""
import json
import sys
from time import perf_counter

from spans import Tracer


def main(argv):
    start = perf_counter()
    from fincat import cli
    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    sys.stdout.flush()
    summary = tracer.summary()
    summary["cli.import_s"] = import_s
    print(json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
