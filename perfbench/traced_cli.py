"""Traced cold CLI process: `python3 traced_cli.py SPANS_JSON <limcone args>`.

Runs limcone.cli.main on the given arguments with one span around
`import limcone.cli`, one around `cli.main`, and the layer spans of
tracing.py below it, then writes the spans to SPANS_JSON and exits with
the CLI's exit code.
"""

import json
import sys

from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import limcone.cli
    tracer.install()
    with tracer.span("cli.main"):
        rc = limcone.cli.main(argv)
    with open(spans_path, "w") as f:
        json.dump([s.to_dict() for s in tracer.spans], f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
