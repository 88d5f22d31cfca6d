"""Fixed-interface entry point of the repository benchmark.

Run from the repository root::

    python3 benchmarks/perf/bench.py --workload NAME --seed N \\
        --seconds S --trace 0|1

It measures one workload exactly as ``python -m benchmarks.perf run``
does and prints, as the last line of standard output, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` untraced, its
``per_layer`` metrics traced (the raw spans then go to
``benchmarks/perf/.work/trace-NAME.json``).  A traced run whose results
differ from the untraced pass exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf import cli  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = cli.benchmark_spec()
    traced = bool(args.trace)
    record = cli.measure(args.workload, args.seed, args.seconds, trace=traced)
    for line in cli.format_lines(record):
        print(line)
    measured = record["layers" if traced else "metrics"]
    names = [entry["name"]
             for entry in spec["per_layer" if traced else "end_to_end"]]
    missing = [name for name in names if name not in measured]
    if missing:
        print(f"bench: {args.workload} did not measure {missing}",
              file=sys.stderr)
        return 1
    if traced:
        cli.WORK_DIR.mkdir(parents=True, exist_ok=True)
        cli.write_chrome_trace(
            str(cli.WORK_DIR / f"trace-{args.workload}.json"), [record])
    failed = record["ops_failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": record["ops"],
        "failed": failed,
        "metrics": {
            name: {"value": measured[name]["value"],
                   "unit": measured[name]["unit"]}
            for name in names
        },
    }), flush=True)
    return 1 if traced and failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
