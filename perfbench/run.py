"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_adhoc --seed 1 --seconds 45 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The report (provenance, sizes, shares, failures) is printed first; the
last line of standard output is the result, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
The report and, for a traced run, its spans are also written under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve_adhoc", "campaign")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import bench

    result, report, spans = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    out = os.path.join(ROOT, ".perfbench")
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump({"report": report, "result": result}, handle, indent=1)
    if spans:
        with open(stem + "-spans.jsonl", "w") as handle:
            for record in spans:
                handle.write(json.dumps(record) + "\n")
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
