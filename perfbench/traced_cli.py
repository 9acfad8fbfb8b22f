"""Runs one ``qckit`` command under the tracer.

    python3 perfbench/traced_cli.py --trace-out FILE --fixture LABEL -- ARGV...

Calls ``qckit.cli.main(ARGV)`` inside a span named ``cli.<subcommand>``,
writes the trace to FILE and exits with the command's exit code.  The
command's own output goes to stdout and stderr as usual.
"""

import argparse
import json
import sys

import qckit.cli

from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--fixture", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(f"cli.{argv[0]}", fixture=args.fixture):
            code = qckit.cli.main(argv)
    finally:
        tracer.restore()
    sys.stdout.flush()
    with open(args.trace_out, "w") as fh:
        json.dump(tracer.data(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
