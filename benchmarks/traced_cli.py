"""Run the lvdyn CLI with the benchmark's hooks installed and dump its spans.

Usage: python benchmarks/traced_cli.py SPANS_JSON <lvdyn arguments...>

The process exits with the CLI's own exit code.  The spans file holds one
op: the ``cli.op`` root around ``lvdyn.cli.main`` and the hook spans in it.
"""

from __future__ import annotations

import json
import sys

import tracing
from workloads import CliFixtureSuite


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from lvdyn import cli

    tracer = tracing.Tracer()
    tracer.install(CliFixtureSuite.hooks)
    try:
        with tracer.span("cli.op"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"spans": [s.to_list() for s in tracer.spans],
                       "calls": tracer.calls, "missing": tracer.missing}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
