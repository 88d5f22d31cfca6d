"""Command line of the repository benchmark.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.perf run --workload all --seed 7 \\
        --out OUT.json [--trace TRACE.json] [--smoke]
    python -m benchmarks.perf compare PARENT1.json ... CHANGE1.json ...
    python -m benchmarks.perf golden

``run`` starts every workload in a fresh process (``REPRO_FAST=1``)
after timing :data:`SETUP_LAUNCHES` fresh launches of it to ready, and
prints each metric as ``workload metric value unit n=<samples>``.
With ``--trace`` the workloads run traced instead and report per-layer
metrics; the raw spans go to ``TRACE.json`` as a Chrome trace.

``bench.py`` next to this file is the same measurement behind the
fixed interface ``--workload NAME --seed N --seconds S --trace 0|1``,
reporting the metrics ``BENCHMARK.json`` lists as one JSON line.

The remaining subcommands (``workload``, ``ready``, ``figures-proc``,
``golden-digests``) are the bodies of the processes the above start.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from benchmarks.perf import hostspeed, stats
from benchmarks.perf.workloads import ROOT, WORKLOADS, child_env, passes_for

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORK_DIR = Path(__file__).resolve().with_name(".work")

#: Fresh launches whose median time-to-ready is ``setup_s``.
SETUP_LAUNCHES = 5

#: Wall-clock cap on any one process the benchmark waits for.
PROCESS_TIMEOUT_S = 170


def benchmark_spec() -> dict:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _python(*args: str) -> "list[str]":
    return [sys.executable, "-m", "benchmarks.perf", *args]


# ----------------------------------------------------------------------
# Launcher
# ----------------------------------------------------------------------


def launch_ready(workload: str, seed: int, work_dir: Path,
                 meter: hostspeed.Meter) -> "tuple[float, float]":
    """Work and reference seconds from spawning a fresh interpreter
    until it reports ready."""
    def launch():
        process = subprocess.Popen(
            _python("ready", workload, "--work-dir", str(work_dir)),
            cwd=ROOT, env=child_env(seed), stdout=subprocess.PIPE, text=True,
        )
        return process, process.stdout.readline()

    (process, line), work, ref = meter.time(launch)
    process.stdout.read()
    process.stdout.close()
    code = process.wait(timeout=PROCESS_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"{workload}: set-up launch failed (exit {code})")
    return work, ref


def setup_launches(workload: str, seed: int, work_dir: Path,
                   launches: int) -> "list[tuple[float, float]]":
    """``launch_ready`` ``launches`` times, this process and the launched
    ones pinned to one CPU, where the meter reads host speed."""
    cpus = os.sched_getaffinity(0)
    try:
        meter = hostspeed.Meter([hostspeed.pin_one_cpu()])
        return [launch_ready(workload, seed, work_dir, meter)
                for _ in range(launches)]
    finally:
        os.sched_setaffinity(0, cpus)


def measure(workload: str, seed: int, seconds: float, smoke: bool = False,
            trace: bool = False) -> dict:
    """One workload in a fresh process; returns its result record."""
    passes = 1 if smoke else passes_for(workload, seconds)
    work = WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = []
        if not trace:
            setup = setup_launches(workload, seed, work,
                                   1 if smoke else SETUP_LAUNCHES)
        out = work / "record.json"
        command = _python(
            "workload", workload, "--seed", str(seed), "--passes",
            str(passes), "--work-dir", str(work), "--out", str(out),
        )
        command += ["--smoke"] * smoke + ["--trace"] * trace
        # The workload's own output goes to stderr: stdout ends with
        # the result line.
        subprocess.run(command, cwd=ROOT, env=child_env(seed), check=True,
                       stdout=sys.stderr, timeout=PROCESS_TIMEOUT_S)
        with open(out, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if setup:
        works, refs = zip(*setup)
        record["metrics"]["setup_s"] = {
            "value": stats.quartiles(refs)[1], "unit": "s", "n": len(refs),
        }
        record["metrics"]["setup_work_s"] = {
            "value": stats.quartiles(works)[1], "unit": "s", "n": len(works),
        }
    return record


def format_lines(record: dict) -> "list[str]":
    workload = record["workload"]
    lines = [
        f"{workload} has_numpy {record['has_numpy']}",
        f"{workload} ops {record['ops']}",
        f"{workload} ops_failed {record['ops_failed']}",
    ]
    lines += [f"{workload} failure {text}" for text in record["failures"]]
    metrics = record.get("metrics") or record.get("layers")
    for name, entry in metrics.items():
        lines.append(f"{workload} {name} {entry['value']:.6g} {entry['unit']} "
                     f"n={entry['n']}")
    return lines


def write_chrome_trace(path: str, records: "list[dict]") -> None:
    events = []
    for record in records:
        events.extend(record.get("trace", []))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    targets = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = benchmark_spec()["run_seconds"]
    records = []
    for workload in targets:
        record = measure(workload, args.seed, seconds, smoke=args.smoke,
                         trace=args.trace is not None)
        for line in format_lines(record):
            print(line, flush=True)
        records.append(record)
    summary = {
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "traced": args.trace is not None,
        "workloads": {
            record["workload"]: {
                key: value for key, value in record.items() if key != "trace"
            }
            for record in records
        },
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    if args.trace is not None:
        write_chrome_trace(args.trace, records)
    return 1 if any(record["ops_failed"] for record in records) else 0


def _direction(name: str, unit: str, gate: dict) -> "tuple[str, float | None]":
    if name in gate:
        return gate[name]["better"], gate[name]["bound"]
    return ("higher" if unit == "1/s" else "lower"), None


def cmd_compare(args: argparse.Namespace) -> int:
    files = args.files
    if len(files) < 2 or len(files) % 2:
        print("compare: give as many PARENT files as CHANGE files, parents "
              "first", file=sys.stderr)
        return 2
    runs = []
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            runs.append(json.load(handle))
    settings = {(run["seconds"], run["smoke"], run["traced"]) for run in runs}
    if len(settings) > 1:
        print(f"compare: runs differ in (seconds, smoke, traced): "
              f"{sorted(settings)}", file=sys.stderr)
        return 2
    half = len(runs) // 2
    sides = [[run["workloads"] for run in runs[:half]],
             [run["workloads"] for run in runs[half:]]]
    workloads = [name for name in runs[0]["workloads"]
                 if all(name in run["workloads"] for run in runs)]
    for workload in workloads:
        passes = {run["workloads"][workload]["passes"] for run in runs}
        if len(passes) > 1:
            print(f"compare: {workload} runs differ in passes: "
                  f"{sorted(passes)}", file=sys.stderr)
            return 2
    gate = {entry["name"]: entry for entry in benchmark_spec()["end_to_end"]}
    print(f"{'workload':18} {'metric':20} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'wins':>6} {'spread':>7} verdict")
    for workload in workloads:
        records = [[run[workload] for run in side] for side in sides]
        failed = tuple(sum(record["ops_failed"] for record in side)
                       for side in records)
        print(f"{workload:18} {'ops_failed':20} {failed[0]:>30} "
              f"{failed[1]:>30}")
        for name, entry in records[0][0].get("metrics", {}).items():
            try:
                parent, change = [
                    [record["metrics"][name]["value"] for record in side]
                    for side in records
                ]
            except KeyError:
                continue
            better, bound = _direction(name, entry["unit"], gate)
            row = stats.compare(parent, change, better, bound, failed)
            sides = [" / ".join(f"{value:.4g}" for value in row[side])
                     for side in ("parent", "change")]
            print(f"{workload:18} {name:20} {sides[0]:>30} {sides[1]:>30} "
                  f"{row['wins']:>2}/{row['pairs']:<3} {row['spread']:>7.3f} "
                  f"{row['verdict']}")
    return 0


def cmd_golden(args: argparse.Namespace) -> int:
    """Digest every seed-7 op on both simulation paths; write the golden
    file only when the two agree."""
    from benchmarks.perf.oracle import GOLDEN_PATH, GOLDEN_SEED

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    digests = []
    for fast in ("0", "1"):
        out = WORK_DIR / f"golden-{fast}-{os.getpid()}.json"
        env = child_env(REPRO_FAST=fast)
        # Every digest must come from a simulation on this path, never
        # from a result cache another path filled.
        env.pop("REPRO_SWEEP_CACHE_DIR", None)
        subprocess.run(_python("golden-digests", "--out", str(out)), cwd=ROOT,
                       env=env, check=True)
        with open(out, "r", encoding="utf-8") as handle:
            digests.append(json.load(handle))
        out.unlink()
    reference, fast = digests
    differing = sorted(key for key in reference
                       if reference[key] != fast.get(key))
    if differing or set(reference) != set(fast):
        print(f"golden: REPRO_FAST=0 and =1 disagree on {differing}",
              file=sys.stderr)
        return 1
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": GOLDEN_SEED, "digests": reference}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"golden: {len(reference)} digests agree; wrote {GOLDEN_PATH.name}")
    return 0


def cmd_golden_digests(args: argparse.Namespace) -> int:
    from repro.experiments.placement import fig9_grid_specs
    from repro.sim.parallel import run_spec

    from benchmarks.perf import oracle, workloads

    digests: "dict[str, str]" = {}

    def record(key: str, digest: str) -> None:
        if digests.setdefault(key, digest) != digest:
            raise SystemExit(
                f"golden: run_cell and run_spec disagree on {key}")

    for workload in ("static-placement", "dynamic-placement"):
        for app, policy, ratio in workloads.placement_cells(workload, False):
            result = workloads.run_cell(app, policy, ratio,
                                        oracle.GOLDEN_SEED, None, [])
            record(oracle.cell_key(app, policy, ratio),
                   oracle.result_digest(result))
    for spec in fig9_grid_specs():  # make_spec's default seed is 7
        record(oracle.cell_key(spec.app, spec.policy, spec.fast_ratio),
               oracle.result_digest(run_spec(spec)))
    for name in workloads.FIGURES:
        record(oracle.figure_key(name), workloads.figure_digest(name))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(digests, handle)
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from benchmarks.perf.workloads import run_workload

    record = run_workload(args.workload, args.seed, args.passes, args.smoke,
                          args.trace, Path(args.work_dir))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


def cmd_ready(args: argparse.Namespace) -> int:
    from benchmarks.perf import workloads

    if args.workload == "figures":
        import repro.cli  # noqa: F401
        import repro.experiments  # noqa: F401
        from repro.sim.parallel import source_fingerprint

        source_fingerprint()
    elif args.workload == "sweep-serve":
        import repro.experiments.placement  # noqa: F401
        from repro.sim.parallel import source_fingerprint

        source_fingerprint()
        root = Path(args.work_dir) / f"ready-{os.getpid()}"
        root.mkdir(parents=True)
        with workloads.Daemon(root):
            print("ready", flush=True)
        shutil.rmtree(root, ignore_errors=True)
        return 0
    else:
        import repro.core  # noqa: F401
        import repro.sim.engine  # noqa: F401
        import repro.sim.fast  # noqa: F401
        import repro.sim.runner  # noqa: F401
        import repro.workloads.registry  # noqa: F401
    print("ready", flush=True)
    return 0


def cmd_figures_proc(args: argparse.Namespace) -> int:
    from benchmarks.perf.workloads import figures_process

    figures_process(args.names, args.out, args.trace, args.raw)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure workloads")
    run.add_argument("--workload", required=True,
                     choices=list(WORKLOADS) + ["all"])
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out", required=True, metavar="OUT.json")
    run.add_argument("--trace", metavar="TRACE.json", default=None,
                     help="run traced: per-layer metrics, raw spans here")
    run.add_argument("--smoke", action="store_true",
                     help="one pass over shortened inputs (tests)")
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser(
        "compare", help="judge CHANGE runs against PARENT runs")
    compare.add_argument("files", nargs="+", metavar="OUT.json",
                         help="parent runs, then as many change runs")
    compare.set_defaults(func=cmd_compare)

    golden = sub.add_parser("golden", help="regenerate golden_seed7.json")
    golden.set_defaults(func=cmd_golden)

    digests = sub.add_parser("golden-digests")
    digests.add_argument("--out", required=True)
    digests.set_defaults(func=cmd_golden_digests)

    workload = sub.add_parser("workload")
    workload.add_argument("workload", choices=WORKLOADS)
    workload.add_argument("--seed", type=int, required=True)
    workload.add_argument("--passes", type=int, required=True)
    workload.add_argument("--work-dir", required=True)
    workload.add_argument("--out", required=True)
    workload.add_argument("--smoke", action="store_true")
    workload.add_argument("--trace", action="store_true")
    workload.set_defaults(func=cmd_workload)

    ready = sub.add_parser("ready")
    ready.add_argument("workload", choices=WORKLOADS)
    ready.add_argument("--work-dir", required=True)
    ready.set_defaults(func=cmd_ready)

    figures = sub.add_parser("figures-proc")
    figures.add_argument("names", nargs="+")
    figures.add_argument("--out", required=True)
    figures.add_argument("--trace", action="store_true")
    figures.add_argument("--raw", action="store_true")
    figures.set_defaults(func=cmd_figures_proc)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
