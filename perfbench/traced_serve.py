"""Launcher for the traced server: wrap the layers, then run ``repro serve``.

    python perfbench/traced_serve.py --spans spans.jsonl --summary summary.json \
        -- serve --workload UQ1 --scale-factor 0.01 --seed 1 --port 0

Everything after ``--`` goes unchanged to the same CLI entry point
``python -m repro`` uses.  When the server exits (SIGINT) the spans and the
per-layer summary are written out.
"""

from __future__ import annotations

import argparse
import json
import sys

import tracing


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--summary", required=True)
    args = parser.parse_args(argv[:split])

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as repro_main

    try:
        code = repro_main(argv[split + 1:])
    finally:
        service = tracer.service
        relations = ([] if service is None else
                     [r for q in service.workload.queries for r in q.relations.values()])
        summary = tracer.summary(relations)
        tracer.dump_spans(args.spans)
        with open(args.summary, "w", encoding="utf-8") as out:
            json.dump(summary, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
