"""One benchmark operation: import primerace from ./src, then run its CLI.

    python3 perfbench/child.py TIMING_JSON [--setup-only | --trace TRACE_JSON] -- ARGV...

Writes ``{"ready": t, "done": t, "exit": code}`` to TIMING_JSON, where the
times are CLOCK_MONOTONIC readings (system-wide, so the parent can compare
them with its own spawn time). ``ready`` is taken once primerace is imported
and the CLI parser is built; ``done`` once ``primerace.cli.main`` has
returned, outputs written. With ``--trace`` the layer entry points are
wrapped before the command runs and the spans are dumped to TRACE_JSON.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    sep = sys.argv.index("--")
    timing_path, *opts = sys.argv[1:sep]
    argv = sys.argv[sep + 1:]

    sys.path.insert(0, SRC)
    from primerace import cli

    cli.build_parser()
    ready = time.monotonic()

    import json

    if not cli.__file__.startswith(SRC + os.sep):
        print(f"primerace imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 1
    tracer = None
    if opts and opts[0] == "--trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = 0 if opts[:1] == ["--setup-only"] else cli.main(argv)
    done = time.monotonic()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "done": done, "exit": code}, fh)
    if tracer is not None:
        tracer.dump(opts[1], done - ready)
    return code


if __name__ == "__main__":
    sys.exit(main())
