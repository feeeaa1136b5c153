"""Traced stand-in for the ``moralagg`` command.

Usage: ``python launcher.py SPANS_FILE OP_ID -- ARGS...``

Installs the tracer's wrappers, runs ``moralagg.cli.main(ARGS)`` inside a
``cli.main`` span, writes the spans to SPANS_FILE and exits with main's
exit code.  Standard output and error are the command's own.
"""

import json
import sys

sys.dont_write_bytecode = True

from tracer import Tracer  # noqa: E402

import moralagg.cli  # noqa: E402


def _main() -> int:
    spans_file, op_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: launcher.py SPANS_FILE OP_ID -- ARGS...")
    tracer = Tracer()
    tracer.op = int(op_id)
    tracer.install()
    try:
        code = tracer.span("cli.main", moralagg.cli.main, argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as out:
            json.dump(tracer.dump(), out)
    return code


if __name__ == "__main__":
    sys.exit(_main())
