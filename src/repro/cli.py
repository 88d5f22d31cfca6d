"""Command-line interface.

Usage::

    python -m repro list                     # apps and policies
    python -m repro run graphchi hetero-lru --ratio 0.25
    python -m repro compare graphchi --ratio 0.25
    python -m repro figure fig9              # any table/figure driver
    python -m repro figure all               # regenerate everything
    python -m repro lint src/repro           # heterolint static analysis
    python -m repro sanitize-check           # frame-sanitizer smoke run
    python -m repro sweep --workers 4 --cache-dir .sweep-cache \
        --apps graphchi redis --policies hetero-lru heap-od
    python -m repro sweep --live --metrics sweep.metrics.json \
        --trace-sweep sweep.trace.json   # flight-recorder artifacts
    python -m repro report --cache-dir .sweep-cache \
        --metrics sweep.metrics.json     # post-hoc sweep summary

The ``figure`` subcommand accepts any name in
``repro.experiments.FIGURES``, or ``all``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import (
    available_policies,
    available_workloads,
    gain_percent,
    run_experiment,
)


def cmd_list(_args: argparse.Namespace) -> int:
    print("applications:")
    for app in available_workloads():
        print(f"  {app}")
    print("policies:")
    for policy in available_policies():
        print(f"  {policy}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    faults = None
    if args.faults is not None:
        import json as json_module

        from repro.errors import ConfigurationError
        from repro.faults import FaultPlan

        try:
            with open(args.faults, "r", encoding="utf-8") as handle:
                faults = FaultPlan.from_dict(json_module.load(handle))
        except (OSError, ValueError, ConfigurationError) as exc:
            print(f"repro run: bad fault plan {args.faults}: {exc}",
                  file=sys.stderr)
            return 1
    result = run_experiment(
        args.app,
        args.policy,
        fast_ratio=args.ratio,
        epochs=args.epochs,
        throttle=(args.latency_factor, args.bandwidth_factor),
        llc_mib=args.llc_mib,
        faults=faults,
    )
    print(f"workload : {result.workload_name}")
    print(f"policy   : {result.policy_name}")
    print(f"runtime  : {result.runtime_sec:.3f} s ({result.stats.epochs} epochs)")
    if result.metric != "seconds":
        print(f"metric   : {result.metric_value:,.0f} {result.metric}")
    print(f"mpki     : {result.mpki:.2f}")
    print(f"fastmem allocation miss ratio: {result.fastmem_miss_ratio():.2f}")
    if result.pages_migrated or result.pages_demoted:
        print(
            f"migrated : {result.pages_migrated} pages "
            f"(demoted {result.pages_demoted})"
        )
    if result.fault_counts:
        fired = ", ".join(
            f"{kind}={count}" for kind, count in result.fault_counts.items()
        )
        print(f"faults   : {fired}")
    if args.breakdown:
        from repro.experiments import report
        from repro.experiments.analysis import (
            allocation_breakdown,
            time_breakdown,
        )

        print()
        print(report.format_table(time_breakdown(result), title="time"))
        print()
        print(
            report.format_table(
                allocation_breakdown(result), title="allocations"
            )
        )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments import report

    baseline = run_experiment(
        args.app, "slowmem-only", fast_ratio=args.ratio, epochs=args.epochs
    )
    rows = []
    for policy in available_policies():
        result = (
            baseline
            if policy == "slowmem-only"
            else run_experiment(
                args.app, policy, fast_ratio=args.ratio, epochs=args.epochs
            )
        )
        rows.append(
            {
                "policy": policy,
                "runtime_sec": result.runtime_sec,
                "gain_pct": gain_percent(result, baseline),
            }
        )
    rows.sort(key=lambda row: row["runtime_sec"])
    print(report.format_table(rows, title=f"{args.app} @ ratio {args.ratio}"))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import FIGURES, report, run_figures
    from repro.sim.parallel import default_cache, source_fingerprint

    targets = list(FIGURES) if args.name == "all" else [args.name]
    unknown = [t for t in targets if t not in FIGURES]
    if unknown:
        print(
            f"unknown figure(s): {unknown}; choose from "
            f"{sorted(FIGURES)} or 'all'",
            file=sys.stderr,
        )
        return 2
    # With a result cache, a figure's rows are stored under its name and
    # the source fingerprint, so an unchanged tree prints them again
    # without running anything; the figures that miss run together.
    cache = default_cache()
    fingerprint = source_fingerprint() if cache is not None else ""
    tables = {
        target: cache.lookup_figure(target, fingerprint) if cache else None
        for target in targets
    }
    missing = [target for target, rows in tables.items() if rows is None]
    for target, rows in run_figures(missing).items():
        tables[target] = rows
        if cache is not None:
            cache.store_figure(target, fingerprint, rows)
    for target in targets:
        print(report.format_table(tables[target], title=target))
        print()
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.flow import (
        combined_rule_metadata,
        deep_lint_paths,
        deep_rule_metadata,
        sarif_json,
    )
    from repro.devtools.lint import all_rules, lint_paths
    from repro.errors import LintError

    if args.list_rules:
        for rule_id, rule_cls in sorted(all_rules().items()):
            print(f"{rule_id}: {rule_cls.rationale}")
        for rule_id, rationale in sorted(deep_rule_metadata().items()):
            print(f"{rule_id} [deep]: {rationale}")
        return 0
    rule_ids = args.rules.split(",") if args.rules else None
    changed = None
    if args.changed:
        from repro.devtools.flow import changed_python_files

        changed = changed_python_files(args.paths)
        if changed is None:
            print(
                "repro lint: --changed needs a git work tree",
                file=sys.stderr,
            )
            return 2
        if not changed:
            print("no changed Python files under the requested paths")
            return 0
    try:
        if args.deep:
            # The deep pass is whole-program: even under --changed the
            # full tree is parsed (cache-warm), then findings are scoped
            # to the changed files' reverse call-graph closure.
            report, index = deep_lint_paths(
                args.paths, rule_ids=rule_ids, cache_dir=args.cache_dir
            )
            if changed is not None:
                from repro.devtools.flow import scope_to_changed

                report = scope_to_changed(report, index, changed)
        elif changed is not None:
            report = lint_paths(
                sorted(str(path) for path in changed), rule_ids=rule_ids
            )
        else:
            report = lint_paths(args.paths, rule_ids=rule_ids)
    except LintError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    elif args.format == "sarif":
        print(sarif_json(report, combined_rule_metadata()))
    else:
        print(report.format_human())
    return 0 if report.clean else 1


def cmd_sanitize_check(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.sim.runner import build_config, run_experiment

    config = build_config(
        fast_ratio=args.ratio, slow_gib=args.slow_gib, seed=args.seed
    )
    config.sanitize = True
    result = run_experiment(
        args.app, args.policy, epochs=args.epochs, config=config
    )
    reports = result.sanitizer_reports
    if args.format == "json":
        print(
            json_module.dumps(
                {
                    "app": args.app,
                    "policy": args.policy,
                    "epochs": result.stats.epochs,
                    "violations": [report.to_dict() for report in reports],
                },
                indent=2,
            )
        )
    else:
        for report in reports:
            print(report.format())
        print(
            f"frame sanitizer: {len(reports)} violation(s) over "
            f"{result.stats.epochs} epochs of {args.app}/{args.policy}"
        )
    return 0 if not reports else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import (
        ChromeTraceSink,
        JsonlSink,
        PhaseProfiler,
        Telemetry,
        TimelineSink,
    )

    out_path = Path(args.out)
    jsonl_path = (
        Path(args.jsonl) if args.jsonl else out_path.with_suffix(".jsonl")
    )
    profiler = PhaseProfiler() if not args.no_profile else None
    telemetry = Telemetry(
        sinks=[
            TimelineSink(),
            JsonlSink(jsonl_path),
            ChromeTraceSink(out_path),
        ],
        profiler=profiler,
    )
    result = run_experiment(
        args.app,
        args.policy,
        fast_ratio=args.ratio,
        epochs=args.epochs,
        seed=args.seed,
        telemetry=telemetry,
    )
    epochs = result.stats.epochs
    print(
        f"traced {args.app}/{args.policy}: {epochs} epochs, "
        f"{result.runtime_sec:.3f}s virtual"
    )
    print(f"chrome trace : {out_path}  (open in ui.perfetto.dev)")
    print(f"jsonl        : {jsonl_path}")
    if profiler is not None and profiler.total_seconds > 0:
        print("host profile :")
        for phase, entry in profiler.report().items():
            share = entry["seconds"] / profiler.total_seconds * 100.0
            print(
                f"  {phase:<8} {entry['seconds'] * 1e3:8.2f} ms "
                f"({share:4.1f}%) over {entry['calls']} call(s)"
            )
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs import diff_timelines, load_timeline

    if args.diff:
        path_a, path_b = args.diff
        _, samples_a, _ = load_timeline(path_a)
        _, samples_b, _ = load_timeline(path_b)
        diff = diff_timelines(samples_a, samples_b)
        print(diff.describe())
        return 0 if diff.identical else 1
    if not args.path:
        print(
            "repro timeline: give a timeline file or --diff A B",
            file=sys.stderr,
        )
        return 2
    header, samples, summary = load_timeline(args.path)
    label = "{}/{}".format(
        header.get("workload", "?"), header.get("policy", "?")
    )
    print(f"{label}: {len(samples)} epochs")
    for sample in samples:
        print(
            f"  epoch {sample.epoch:>4}: runtime {sample.runtime_ns:14.0f} ns"
            f"  mpki {sample.mpki:7.2f}  stall {sample.stall_ns:14.0f} ns"
            f"  migrated {sample.pages_migrated:>8}"
        )
    if summary:
        print(
            f"summary: runtime {summary.get('runtime_ns', 0):,.0f} ns, "
            f"mpki {summary.get('mpki', 0):.2f}"
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.errors import SweepError
    from repro.experiments import report
    from repro.experiments.sweep import sweep
    from repro.sim import parallel

    cache = None
    if not args.no_cache:
        cache = (
            parallel.ResultCache(args.cache_dir)
            if args.cache_dir
            else parallel.default_cache()
        )

    journal = None
    if cache is not None:
        journal = parallel.SweepJournal(
            cache.directory / "sweep-journal.jsonl"
        )
        if not args.resume:
            journal.reset()
    elif args.resume:
        print(
            "repro sweep: --resume needs a journal, which lives in the "
            "result cache directory; configure --cache-dir (or "
            "$REPRO_SWEEP_CACHE_DIR) and drop --no-cache",
            file=sys.stderr,
        )
        return 1

    recorder = None
    if args.metrics or args.trace_sweep or args.live:
        from repro.obs.flight import SweepRecorder

        recorder = SweepRecorder()

    # --live needs a TTY to repaint in place; without one it degrades
    # to the normal per-spec progress lines (still recorded).
    live = args.live and sys.stderr.isatty()
    live_lines = 0

    def progress(outcome, done, total):
        nonlocal live_lines
        if live and recorder is not None:
            from repro.obs.flight import format_live_status

            screen = format_live_status(recorder.status())
            if live_lines:
                # Cursor up over the previous frame, then clear it.
                sys.stderr.write(f"\x1b[{live_lines}F\x1b[J")
            sys.stderr.write(screen + "\n")
            sys.stderr.flush()
            live_lines = screen.count("\n") + 1
            return
        status = (
            "ok" if outcome.ok else f"{outcome.error.kind}!"
        )
        print(
            f"[{done}/{total}] {outcome.spec.label:<44} "
            f"{outcome.source:<8} {outcome.elapsed_sec:6.2f}s  {status}",
            file=sys.stderr,
        )

    want_progress = not args.quiet or live
    exit_code = 0
    rows = None
    try:
        rows = sweep(
            apps=tuple(args.apps) if args.apps else tuple(available_workloads()),
            policies=tuple(args.policies),
            ratios=tuple(args.ratios),
            epochs=args.epochs,
            max_workers=args.workers,
            cache=cache,
            timeout_sec=args.timeout,
            progress=progress if want_progress else None,
            retries=args.retries,
            retry_backoff_sec=args.retry_backoff,
            retry_jitter=args.retry_jitter,
            journal=journal,
            recorder=recorder,
        )
    except SweepError as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        exit_code = 1
    finally:
        # Flight-recorder artifacts survive a failed sweep — that is
        # when they are most useful.
        if recorder is not None:
            if args.metrics:
                recorder.write_metrics(args.metrics)
            if args.trace_sweep:
                recorder.write_chrome_trace(args.trace_sweep)
    if recorder is not None and not args.quiet:
        from repro.obs.flight import format_live_status

        print(format_live_status(recorder.status()), file=sys.stderr)
        if args.metrics:
            print(f"metrics      : {args.metrics}", file=sys.stderr)
        if args.trace_sweep:
            print(
                f"sweep trace  : {args.trace_sweep}  "
                "(open in ui.perfetto.dev)",
                file=sys.stderr,
            )
    if exit_code != 0:
        return exit_code
    if cache is not None and not args.quiet:
        print(
            f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"in {cache.directory}",
            file=sys.stderr,
        )
    print(report.format_table(rows, title="sweep"))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ServeError
    from repro.serve import ExperimentServer, ServeConfig
    from repro.sim import parallel

    root = args.cache_dir or os.environ.get(parallel.CACHE_DIR_ENV)
    if not root:
        print(
            "repro serve: give --cache-dir (or set "
            "$REPRO_SWEEP_CACHE_DIR); the daemon's job journal, sweep "
            "journal, and result cache all live there",
            file=sys.stderr,
        )
        return 2
    config = ServeConfig(
        root=root,
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        workers=args.workers,
        timeout_sec=args.timeout,
        retries=args.retries,
        max_crashes=args.max_crashes,
        queue_limit=args.queue_limit,
        client_limit=args.client_limit,
    )
    server = ExperimentServer(config)
    try:
        server.start()
    except (ServeError, OSError) as exc:
        print(f"repro serve: cannot start: {exc}", file=sys.stderr)
        return 1
    server.install_signal_handlers()
    recovered = server.store.counts()
    scheme = "unix:" if args.unix_socket else "http://"
    print(
        f"repro serve: listening on {scheme}{server.address} "
        f"(root {root}, {config.workers} worker(s), mode "
        f"{server.supervisor.mode})",
        file=sys.stderr,
    )
    if recovered.get("queued"):
        print(
            f"repro serve: recovered {recovered['queued']} unfinished "
            "job(s) from the journal",
            file=sys.stderr,
        )
    # Block until SIGTERM/SIGINT drains the daemon; the scheduler
    # thread calls stop() once in-flight work has finished.
    while not server.wait(timeout_sec=1.0):
        pass
    print("repro serve: drained, exiting", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.obs.flight import reconstruct_report
    from repro.sim import parallel

    journal_path = args.journal
    if journal_path is None:
        cache_dir = args.cache_dir or os.environ.get(parallel.CACHE_DIR_ENV)
        if not cache_dir:
            print(
                "repro report: give --journal PATH or a cache directory "
                "(--cache-dir / $REPRO_SWEEP_CACHE_DIR) that holds "
                "sweep-journal.jsonl",
                file=sys.stderr,
            )
            return 2
        journal_path = os.path.join(cache_dir, "sweep-journal.jsonl")
    if not os.path.exists(journal_path):
        print(
            f"repro report: no journal at {journal_path} "
            "(run a sweep with a cache directory first)",
            file=sys.stderr,
        )
        return 1
    journal = parallel.SweepJournal(journal_path)
    entries = journal.load()
    metrics_snapshot = None
    if args.metrics:
        try:
            with open(args.metrics, "r", encoding="utf-8") as handle:
                metrics_snapshot = json_module.load(handle)
        except (OSError, ValueError) as exc:
            print(
                f"repro report: cannot read metrics snapshot "
                f"{args.metrics}: {exc}",
                file=sys.stderr,
            )
            return 1
    summary = reconstruct_report(entries, metrics_snapshot)
    if args.format == "json":
        print(json_module.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"sweep report ({journal_path})")
    statuses = summary["statuses"]
    rendered = ", ".join(f"{k}={v}" for k, v in statuses.items()) or "none"
    print(f"  specs    : {summary['specs']} ({rendered})")
    if summary["sources"]:
        rendered = ", ".join(
            f"{k}={v}" for k, v in summary["sources"].items()
        )
        print(f"  sources  : {rendered}")
    if summary["failures_by_kind"]:
        rendered = ", ".join(
            f"{k}={v}" for k, v in summary["failures_by_kind"].items()
        )
        print(f"  failures : {rendered}")
    print(f"  executed : {summary['executed_wall_sec']:.2f}s host wall-clock")
    if journal.corrupt_lines_skipped:
        print(
            f"  journal  : {journal.corrupt_lines_skipped} corrupt "
            "line(s) skipped"
        )
    if summary["slowest"]:
        print("  slowest  :")
        for item in summary["slowest"]:
            print(f"    {item['elapsed_sec']:8.2f}s  {item['label']}")
    cache_summary = summary.get("cache")
    if cache_summary:
        hit_rate = cache_summary.get("hit_rate")
        rate_text = (
            f"{hit_rate * 100:.1f}%" if hit_rate is not None else "n/a"
        )
        print(
            f"  cache    : {cache_summary.get('hits')} hit(s), "
            f"{cache_summary.get('misses')} miss(es), "
            f"hit rate {rate_text}, "
            f"{cache_summary.get('evictions')} eviction(s), "
            f"{cache_summary.get('store_failures')} store failure(s)"
        )
    if summary.get("journal_corrupt_lines"):
        print(
            "  corrupt  : "
            f"{summary['journal_corrupt_lines']:.0f} journal line(s) "
            "skipped during the recorded sweep"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HeteroOS reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list applications and policies").set_defaults(
        func=cmd_list
    )

    run_parser = sub.add_parser("run", help="run one (app, policy) pair")
    run_parser.add_argument("app")
    run_parser.add_argument("policy")
    run_parser.add_argument("--ratio", type=float, default=0.25)
    run_parser.add_argument("--epochs", type=int, default=None)
    run_parser.add_argument("--latency-factor", type=float, default=5.0)
    run_parser.add_argument("--bandwidth-factor", type=float, default=9.0)
    run_parser.add_argument("--llc-mib", type=int, default=16)
    run_parser.add_argument(
        "--breakdown", action="store_true",
        help="print time and allocation breakdowns",
    )
    run_parser.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="inject faults from a FaultPlan JSON file (see "
        "docs/resilience.md); same plan + same seed reproduces the "
        "same run bit-for-bit",
    )
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser(
        "compare", help="run every policy on one app"
    )
    compare_parser.add_argument("app")
    compare_parser.add_argument("--ratio", type=float, default=0.25)
    compare_parser.add_argument("--epochs", type=int, default=None)
    compare_parser.set_defaults(func=cmd_compare)

    figure_parser = sub.add_parser(
        "figure", help="regenerate a paper table/figure (or 'all')"
    )
    figure_parser.add_argument("name")
    figure_parser.set_defaults(func=cmd_figure)

    lint_parser = sub.add_parser(
        "lint", help="run heterolint static analysis over source paths"
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint_parser.add_argument(
        "--format", choices=("human", "json", "sarif"), default="human"
    )
    lint_parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule and its rationale",
    )
    lint_parser.add_argument(
        "--deep", action="store_true",
        help="also run the whole-program pass: determinism taint "
        "(flow-unordered-flow) and the heteroeffect race, fork-safety "
        "and observation-purity rules (effect-*)",
    )
    lint_parser.add_argument(
        "--cache-dir", default=None,
        help="directory for the parsed-AST and effect-fixpoint cache "
        "(--deep only; default: no cache)",
    )
    lint_parser.add_argument(
        "--changed", action="store_true",
        help="scope the run to files git reports as changed or "
        "untracked; the deep pass still analyzes the whole tree but "
        "only reports findings in the changed files' reverse call-graph "
        "closure (pre-commit mode)",
    )
    lint_parser.set_defaults(func=cmd_lint)

    sanitize_parser = sub.add_parser(
        "sanitize-check",
        help="run a workload with the frame sanitizer attached",
    )
    sanitize_parser.add_argument("--app", default="nginx")
    sanitize_parser.add_argument("--policy", default="hetero-lru")
    sanitize_parser.add_argument("--epochs", type=int, default=10)
    sanitize_parser.add_argument("--ratio", type=float, default=0.25)
    sanitize_parser.add_argument("--slow-gib", type=float, default=0.5)
    sanitize_parser.add_argument("--seed", type=int, default=7)
    sanitize_parser.add_argument(
        "--format", choices=("human", "json"), default="human"
    )
    sanitize_parser.set_defaults(func=cmd_sanitize_check)

    trace_parser = sub.add_parser(
        "trace",
        help="run one (app, policy) pair with full telemetry: Chrome "
        "trace JSON + JSONL timeline + host profile",
    )
    trace_parser.add_argument("app")
    trace_parser.add_argument("policy")
    trace_parser.add_argument(
        "--out", default="run.trace.json",
        help="Chrome trace_event output path (default: run.trace.json)",
    )
    trace_parser.add_argument(
        "--jsonl", default=None,
        help="JSONL timeline output path (default: --out with .jsonl)",
    )
    trace_parser.add_argument("--ratio", type=float, default=0.25)
    trace_parser.add_argument("--epochs", type=int, default=None)
    trace_parser.add_argument("--seed", type=int, default=7)
    trace_parser.add_argument(
        "--no-profile", action="store_true",
        help="skip the host wall-clock phase profiler",
    )
    trace_parser.set_defaults(func=cmd_trace)

    timeline_parser = sub.add_parser(
        "timeline",
        help="inspect a JSONL timeline, or --diff two to find the first "
        "divergent epoch",
    )
    timeline_parser.add_argument(
        "path", nargs="?", default=None,
        help="JSONL timeline to summarize",
    )
    timeline_parser.add_argument(
        "--diff", nargs=2, metavar=("A", "B"), default=None,
        help="compare two timelines; exit 1 and report the first "
        "divergent epoch when they differ",
    )
    timeline_parser.set_defaults(func=cmd_timeline)

    sweep_parser = sub.add_parser(
        "sweep",
        help="grid-sweep apps x policies x ratios (parallel + cached)",
    )
    sweep_parser.add_argument("--apps", nargs="+", default=None)
    sweep_parser.add_argument(
        "--policies", nargs="+", default=["hetero-lru"]
    )
    sweep_parser.add_argument(
        "--ratios", nargs="+", type=float, default=[0.25]
    )
    sweep_parser.add_argument("--epochs", type=int, default=None)
    sweep_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = in-process serial; results are "
        "bit-identical either way)",
    )
    sweep_parser.add_argument(
        "--cache-dir", default=None,
        help="on-disk result cache directory (default: "
        "$REPRO_SWEEP_CACHE_DIR when set, else no cache)",
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if configured",
    )
    sweep_parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-grid-point wall-clock budget in seconds",
    )
    sweep_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-spec progress lines on stderr",
    )
    sweep_parser.add_argument(
        "--retries", type=int, default=0,
        help="re-run grid points that failed transiently (timeout or "
        "worker crash) up to N extra times with exponential backoff; "
        "deterministic simulation errors never retry",
    )
    sweep_parser.add_argument(
        "--retry-backoff", type=float, default=0.5, metavar="SEC",
        help="base backoff before the first retry round (doubles each "
        "round)",
    )
    sweep_parser.add_argument(
        "--retry-jitter", type=float, default=0.0, metavar="FRAC",
        help="stretch each retry backoff by up to FRAC (e.g. 0.5 = up "
        "to +50%%), derived deterministically from the retried specs' "
        "cache keys — desynchronizes sweeps sharing a cache directory "
        "without giving up reproducibility",
    )
    sweep_parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from its journal (kept in "
        "the cache directory): cached and journaled grid points are "
        "not re-run; requires a result cache",
    )
    sweep_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the sweep flight-recorder metrics snapshot here "
        "(.prom selects Prometheus text exposition, anything else "
        "canonical JSON); written even when the sweep fails",
    )
    sweep_parser.add_argument(
        "--trace-sweep", default=None, metavar="PATH",
        help="write a sweep-level Chrome trace (per-spec spans on "
        "worker lanes, cache/retry instants) viewable in "
        "ui.perfetto.dev; merge with per-run `repro trace` files via "
        "repro.obs.flight.merge_traces",
    )
    sweep_parser.add_argument(
        "--live", action="store_true",
        help="render a refreshing one-screen status (progress, hit "
        "rate, ETA, failures) on stderr instead of per-spec lines; "
        "needs a TTY, degrades to plain progress otherwise",
    )
    sweep_parser.set_defaults(func=cmd_sweep)

    serve_parser = sub.add_parser(
        "serve",
        help="run the crash-tolerant experiment daemon over a cache "
        "directory (jobs survive SIGKILL; SIGTERM drains gracefully)",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None,
        help="state root: result cache, sweep journal, and job journal "
        "(default: $REPRO_SWEEP_CACHE_DIR)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind address (default: loopback only)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: 0 = OS-assigned, printed on startup)",
    )
    serve_parser.add_argument(
        "--unix-socket", default=None, metavar="PATH",
        help="serve over an AF_UNIX socket at PATH instead of TCP",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1,
        help="supervised worker processes (crashed workers respawn; "
        "results are bit-identical to `repro sweep` at any width)",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-spec wall-clock budget in seconds (SIGALRM in the "
        "worker, like `repro sweep --timeout`)",
    )
    serve_parser.add_argument(
        "--retries", type=int, default=1,
        help="scheduler-side retries for timed-out specs",
    )
    serve_parser.add_argument(
        "--max-crashes", type=int, default=2,
        help="worker crashes before a spec is quarantined as poisoned",
    )
    serve_parser.add_argument(
        "--queue-limit", type=int, default=16,
        help="max jobs in flight before submissions get 429 + "
        "Retry-After",
    )
    serve_parser.add_argument(
        "--client-limit", type=int, default=4,
        help="max queued jobs per client id (fairness cap)",
    )
    serve_parser.set_defaults(func=cmd_serve)

    report_parser = sub.add_parser(
        "report",
        help="reconstruct a sweep summary post-hoc from its journal "
        "(plus an optional --metrics snapshot)",
    )
    report_parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="sweep journal JSONL (default: sweep-journal.jsonl in the "
        "cache directory)",
    )
    report_parser.add_argument(
        "--cache-dir", default=None,
        help="cache directory holding the journal (default: "
        "$REPRO_SWEEP_CACHE_DIR)",
    )
    report_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="metrics JSON snapshot from `repro sweep --metrics` to "
        "fold cache/retry counters into the report",
    )
    report_parser.add_argument(
        "--format", choices=("human", "json"), default="human"
    )
    report_parser.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
