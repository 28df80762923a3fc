"""Traced cold `sips` process: python -X importtime coldtrace.py SUMMARY -- ARGS...

Imports sips.cli, wraps its layers (tracing.py), runs `sips ARGS` in this
process, writes the tracer's summary as JSON to SUMMARY and exits with the
command's exit code. Run by run.py for the traced half of cli_cold.
"""

import json
import sys

import sips.cli

import tracing


def main() -> int:
    summary_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: coldtrace.py SUMMARY -- ARGS...", file=sys.stderr)
        return 2
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        rc = tracer.run_op(sys.modules["sips.cli"].main, argv)
    finally:
        with open(summary_path, "w") as handle:
            json.dump(tracer.summary(), handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
