"""Run one CLI report in a fresh process with spans recorded.

    python bench/traced_cli.py SPANS.json <gpdalg arguments...>

Behaves like ``python -m gpdalg.cli`` on stdout, stderr and exit code,
and writes the report's spans to SPANS.json.
"""
import sys

import gpdalg.cli
from spans import ROOT, Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(gpdalg.cli, tracer)
    try:
        with tracer.span(ROOT):
            return gpdalg.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
