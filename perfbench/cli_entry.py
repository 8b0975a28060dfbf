"""Traced stand-in for ``python -m abelode.cli``.

Usage: ``python cli_entry.py TRACE.json ARGS...`` with ``src`` on PYTHONPATH.
Times ``import abelode.cli``, installs the tracer, runs
``abelode.cli.main(ARGS)``, writes the import time and the spans to
TRACE.json and exits with main's exit code.
"""

import json
import sys
import time


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import abelode.cli
    import_s = time.perf_counter() - start

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = abelode.cli.main(argv)
    except SystemExit as exit_:  # argparse usage errors
        code = exit_.code
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": tracer.snapshot()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
