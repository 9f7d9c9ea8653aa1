"""Run one `celint` CLI call with span tracing, for the cli workload's traced pass.

Usage: python3 childtrace.py OUT.json ROOT OP_ID VERB FILE [options...]

Imports celint from ROOT/src, wraps its entry points (see spans.py),
runs `celint.cli.main` on the remaining arguments and writes the spans
and per-name aggregates to OUT.json. Exits with main's exit code.
"""

import sys
from pathlib import Path


def main() -> int:
    out, root, op_id, args = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
    sys.path.insert(0, str(root / "src"))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    from celint import cli

    tracer.op_id = op_id
    tracer.active = True
    try:
        code = cli.main(args)
    finally:
        tracer.active = False
        sys.stdout.flush()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
