"""Traced stand-in for ``python -c "from strquiv.cli import main; main()"``.

Usage: python -X importtime perfbench/launch.py SPANS_FILE VERB [ARGS...]

Runs one CLI command with the span recorder installed and writes the
command's spans and counters to SPANS_FILE as one JSON object, also when
the command fails.
"""

import json
import sys

from spans import Tracer, span_rows

from strquiv.cli import main


def launch() -> None:
    out, sys.argv = sys.argv[1], ["strquiv"] + sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op(" ".join(sys.argv[1:2]), main)
    finally:
        tracer.uninstall()
        taken = tracer.take()
        with open(out, "w") as fh:
            json.dump({"rows": span_rows(taken["spans"]), "counters": taken["counters"],
                       "loose_steps": taken["loose_steps"]}, fh)


if __name__ == "__main__":
    launch()
