"""Run one crsphere command with layer spans recorded.

    python3 perfbench/traced_op.py SPANS_JSON OP_ID -- <crsphere arguments>

Behaves like `python3 -m crsphere.cli <crsphere arguments>` (same exit
code), and writes the spans and counters of the process to SPANS_JSON when
the command returns.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main():
    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: traced_op.py SPANS_JSON OP_ID -- <crsphere arguments>")
    rec = tracing.Recorder(op_id)
    rec.begin("cli.import")
    import crsphere.cli

    rec.end()
    tracing.install(rec)
    try:
        return crsphere.cli.main(argv)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
