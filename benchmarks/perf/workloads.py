"""The four benchmark workloads, run inside one fresh workload process.

Each workload is a closed loop: one client issues an op (a cell, a
figure driver, a sweep or a serve job) only after the previous one
finished.  A run is an untimed warm-up followed by a fixed number of
timed passes; a traced run times one untraced pass, the baseline for
``trace_overhead_pct``, and traces the rest.  Every op's result goes
through the :class:`~benchmarks.perf.oracle.Oracle`, and every op is
timed on a :class:`~benchmarks.perf.hostspeed.Meter`, so the metrics
are in reference seconds (see ``hostspeed``).  The single-process
workloads pin themselves to one CPU, where the meter reads host speed;
sweep-serve's pools use every CPU, and the meter reads them all.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import io
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

from benchmarks.perf import stats
from benchmarks.perf.hostspeed import Meter, pin_one_cpu
from benchmarks.perf.oracle import (
    GOLDEN_SEED,
    Oracle,
    cell_key,
    figure_key,
    load_golden,
    result_digest,
    sha256_text,
)
from benchmarks.perf.tracing import BOUNDARIES, Tracer, install

ROOT = Path(__file__).resolve().parents[2]

WORKLOADS = ("static-placement", "dynamic-placement", "figures", "sweep-serve")

#: Workloads whose ops run in one process at a time, pinned to one CPU.
SINGLE_PROCESS = ("static-placement", "dynamic-placement", "figures")

#: Timed passes per 30 s of run time (``run_seconds``); a run scales
#: them linearly (at least one), so both sides of a comparison do
#: identical work.
PASSES_PER_30S = {
    "static-placement": 12,
    "dynamic-placement": 8,
    "figures": 1,
    "sweep-serve": 6,
}

STATIC_POLICIES = (
    "slowmem-only", "fastmem-only", "heap-od", "heap-io-slab-od",
    "numa-preferred", "random",
)
STATIC_RATIO = 1 / 4
DYNAMIC_POLICIES = (
    "hetero-lru", "hetero-coordinated", "hetero-native", "vmm-exclusive",
    "numa-balancing", "nvm-write-aware", "multi-level",
)
DYNAMIC_RATIO = 1 / 8

FIGURES = (
    "table1", "table3", "table4", "table5", "table6",
    "fig1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig11", "fig12", "fig13",
)

#: sweep-serve ops per pass besides the cold sweep and cold serve batch.
WARM_SWEEPS = 50
WARM_JOBS = 50
WORKERS = 2

#: ``--smoke``: one pass over shortened inputs, for the harness tests.
SMOKE_EPOCHS = 12
SMOKE_FIGURES = ("table1", "table4", "fig7")
SMOKE_APPS = ("graphchi", "redis")
SMOKE_WARM = 5

#: Raw spans kept per process for the Chrome trace (aggregates are
#: always complete); a dynamic-placement pass alone makes ~10^6 spans.
RAW_SPAN_LIMIT = 100_000

ROOT_SPANS = ("bench.cell", "bench.sweep", "bench.serve") + tuple(
    f"figure.{name}" for name in FIGURES
)

SIM_COUNTS = (
    "epochs", "llc_misses", "pages_migrated", "pages_demoted",
    "swap_pages_out", "dropped_allocation_pages",
)


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(PASSES_PER_30S[workload] * seconds / 30))


def has_numpy() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def child_env(seed: "int | None" = None, **extra: str) -> dict:
    """Environment of every process the benchmark starts.

    A launch for a run passes the run's ``seed``, which also sets the
    string-hash seed: one run repeats exactly, and runs with different
    seeds sample different dict and set layouts, as users' processes
    do.  Processes a workload starts inherit it.
    """
    path = [str(ROOT / "src"), str(ROOT)]
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry and entry not in path:
            path.append(entry)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), REPRO_FAST="1")
    if seed is not None:
        env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    env.update(extra)
    return env


def sim_counts(result) -> dict:
    stats_ = result.stats
    return {
        "epochs": stats_.epochs,
        "llc_misses": stats_.llc_misses,
        "pages_migrated": result.pages_migrated,
        "pages_demoted": result.pages_demoted,
        "swap_pages_out": result.swap_pages_out,
        "dropped_allocation_pages": stats_.dropped_allocation_pages,
    }


# ----------------------------------------------------------------------
# Run context
# ----------------------------------------------------------------------


class Run:
    """State of one workload run: oracle, meter, samples, tracer, scratch.

    Every time it keeps is in reference seconds except the ``work``
    pass totals: wall seconds less the meter's readings.
    """

    def __init__(self, workload: str, seed: int, smoke: bool,
                 work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        golden = load_golden() if seed == GOLDEN_SEED and not smoke else None
        self.oracle = Oracle(golden)
        self.rng = random.Random(seed)
        self.meter = Meter()
        #: ``"warmup"``, ``"timed"`` or ``"traced"``.
        self.mode = "warmup"
        #: Timed passes' time per gated op (a cell, a figure driver in
        #: one phase, a sweep-serve batch), one entry per pass.
        self.op_s: "dict[str, list[float]]" = {}
        self.samples: "dict[str, list[float]]" = {}
        self.step_s: "list[float]" = []
        self.epochs = 0
        #: The current pass's op time, work and reference.
        self.pass_work = self.pass_ref = 0.0
        self.pass_s: "list[float]" = []
        self.work_pass_s: "list[float]" = []
        self.traced_pass_s: "list[float]" = []
        self.tracer: "Tracer | None" = None
        #: Chrome-trace events from traced figure processes.
        self.raw_spans: "list[dict]" = []
        self.counts: "dict[str, float]" = {}
        self._dirs = 0

    @property
    def traced(self) -> bool:
        return self.mode == "traced"

    def record(self, key: str, work: float, ref: float) -> None:
        """Account one gated op's work and reference time to the pass."""
        self.pass_work += work
        self.pass_ref += ref
        if self.mode == "timed":
            self.op_s.setdefault(key, []).append(ref)

    def timed(self, key: str, call):
        """``call()`` timed as gated op ``key``: ``(value, work, ref)``."""
        value, work, ref = self.meter.time(call)
        self.record(key, work, ref)
        return value, work, ref

    def sample(self, kind: str, seconds: float) -> None:
        if self.mode == "timed":
            self.samples.setdefault(kind, []).append(seconds)

    def count(self, name: str, value: float) -> None:
        if self.traced:
            self.counts[name] = self.counts.get(name, 0) + value

    def op(self, request: str, root: str):
        """Root span of one op (a no-op unless this pass is traced)."""
        if self.tracer is None or not self.traced:
            return nullcontext()
        self.tracer.request = request
        return self.tracer.span(root)

    def check(self, key: str, result, simulated: bool = True) -> None:
        """Digest one op's result; a traced pass also sums the simulated
        counts of results that were simulated, not read from a cache."""
        self.oracle.check(key, result_digest(result))
        if simulated:
            for name, value in sim_counts(result).items():
                self.count(f"sim.{name}", value)

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.work_dir / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path


# ----------------------------------------------------------------------
# Placement workloads
# ----------------------------------------------------------------------


def run_cell(app: str, policy_name: str, ratio: float, seed: int,
             epochs: "int | None", step_s: "list[float]",
             clock=perf_counter):
    """``run_experiment`` spelled out so each ``step`` is timed on
    ``clock``, in seconds, into ``step_s``."""
    from repro.core.policy import make_policy
    from repro.sim.engine import SimulationEngine
    from repro.sim.runner import build_config
    from repro.workloads.registry import make_workload

    workload = make_workload(app)
    policy = make_policy(policy_name)
    config = build_config(
        fast_ratio=ratio,
        unlimited_fast=policy.requires_unlimited_fast,
        seed=seed,
    )
    engine = SimulationEngine(config, workload, policy)
    count = epochs if epochs is not None else workload.default_epochs()
    record = step_s.append
    for demand in workload.epochs(count):
        start = clock()
        engine.step(demand)
        record(clock() - start)
    return engine.result()


def placement_cells(workload: str, smoke: bool):
    from repro.workloads.registry import ALL_APPS, PLACEMENT_APPS

    if workload == "static-placement":
        apps, policies, ratio = ALL_APPS, STATIC_POLICIES, STATIC_RATIO
    else:
        apps, policies, ratio = PLACEMENT_APPS, DYNAMIC_POLICIES, DYNAMIC_RATIO
    if smoke:
        apps, policies = SMOKE_APPS, policies[:2]
    return [(app, policy, ratio) for app in apps for policy in policies]


def placement_pass(run: Run) -> None:
    cells = placement_cells(run.workload, run.smoke)
    run.rng.shuffle(cells)
    epochs = SMOKE_EPOCHS if run.smoke else None
    for app, policy, ratio in cells:
        key = cell_key(app, policy, ratio, epochs)
        steps: "list[float]" = []

        def cell():
            with run.op(key, "bench.cell"):
                return run_cell(app, policy, ratio, run.seed, epochs, steps,
                                run.meter.now)

        try:
            result, work, ref = run.timed(key, cell)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            run.oracle.error(key, f"raised {type(exc).__name__}: {exc}")
            continue
        run.sample("cell", ref)
        if run.mode == "timed":
            scale = ref / work
            run.step_s.extend(seconds * scale for seconds in steps)
            run.epochs += len(steps)
        run.check(key, result)
        # `repro run` simulates one cell per process: one cell's cyclic
        # garbage must not be collected on the next cell's clock.
        del result
        gc.collect()


# ----------------------------------------------------------------------
# Figures workload
# ----------------------------------------------------------------------


def figure_digest(name: str) -> str:
    """Digest of the table ``repro figure NAME`` prints."""
    from repro import cli

    rendered = io.StringIO()
    with redirect_stdout(rendered):
        code = cli.main(["figure", name])
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return sha256_text(rendered.getvalue())


def figures_process(names, out: str, trace: bool, keep_raw: bool) -> None:
    """Body of one figure-regeneration process (cold or warm).

    Each driver is timed here, on this process's own meter; the result
    file lists ``[name, digest, error, work, ref]`` per driver.
    """
    from repro.sim.engine import SimulationEngine

    meter = Meter()
    tracer = install(Tracer()) if trace else None
    counts = dict.fromkeys(SIM_COUNTS, 0)
    if tracer is not None:
        tracer.raw_limit = RAW_SPAN_LIMIT if keep_raw else 0
        traced_result = SimulationEngine.result

        def counted_result(engine):
            result = traced_result(engine)
            for name, value in sim_counts(result).items():
                counts[name] += value
            return result

        SimulationEngine.result = counted_result
    drivers = []
    for name in names:
        span = nullcontext()
        if tracer is not None:
            tracer.request = figure_key(name)
            span = tracer.span(f"figure.{name}")

        def render():
            with span:
                return figure_digest(name)

        digest = error = None
        work = ref = 0.0
        try:
            digest, work, ref = meter.time(render)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            error = f"raised {type(exc).__name__}: {exc}"
        drivers.append([name, digest, error, work, ref])
    payload = {"drivers": drivers}
    if tracer is not None:
        payload.update(
            tracer.aggregates(),
            counts=counts,
            raw=tracer.chrome_trace()["traceEvents"],
        )
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _figure_run(run: Run, names, cache: Path, phase: str) -> float:
    """One figure process over ``cache``; its drivers' reference time."""
    out = run.fresh_dir("figure-out") / "result.json"
    command = [sys.executable, "-m", "benchmarks.perf", "figures-proc",
               "--out", str(out), *names]
    if run.traced:
        command.append("--trace")
        if run.tracer.raw_limit:
            command.append("--raw")
    subprocess.run(
        command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        env=child_env(REPRO_SWEEP_CACHE_DIR=str(cache)),
    )
    with open(out, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    total = 0.0
    for name, digest, error, work, ref in payload["drivers"]:
        key = figure_key(name)
        if error is None:
            run.record(f"{phase}/{name}", work, ref)
            total += ref
            run.oracle.check(key, digest)
        else:
            run.oracle.error(key, error)
    if run.traced:
        run.tracer.merge(payload)
        for name, value in payload["counts"].items():
            run.count(f"sim.{name}", value)
        run.raw_spans.extend(payload["raw"])
    return total


def figures_warmup(run: Run) -> None:
    _figure_run(run, FIGURES[:1], run.fresh_dir("figures-cache"), "warmup")


def figures_pass(run: Run) -> None:
    names = SMOKE_FIGURES if run.smoke else FIGURES
    cache = run.fresh_dir("figures-cache")
    for phase in ("cold", "warm"):
        run.sample(f"figures_{phase}", _figure_run(run, names, cache, phase))
    shutil.rmtree(cache, ignore_errors=True)


# ----------------------------------------------------------------------
# Sweep-serve workload
# ----------------------------------------------------------------------


class Daemon:
    """A ``repro serve --workers 2`` daemon on a unix socket."""

    def __init__(self, root: Path) -> None:
        from repro.errors import ServeError
        from repro.serve.client import ServeClient

        # Relative to the shared working directory: a checkout's
        # absolute path can exceed the 107-byte AF_UNIX limit.
        socket_path = os.path.relpath(root / "serve.sock", ROOT)
        self.address = f"unix:{socket_path}"
        self._log = open(root / "serve.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--cache-dir",
             str(root), "--unix-socket", socket_path,
             "--workers", str(WORKERS)],
            cwd=ROOT, env=child_env(), stdout=self._log, stderr=self._log,
        )
        probe = ServeClient(self.address, max_attempts=1)
        deadline = time.monotonic() + 60
        while True:
            try:
                if probe.healthz().get("ready"):
                    return
            except ServeError:
                pass  # not listening yet: poll again until the deadline
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"serve daemon did not become healthy "
                                   f"(see {root / 'serve.log'})")
            time.sleep(0.005)

    def metrics(self) -> str:
        from repro.serve.client import ServeClient

        return ServeClient(self.address).metrics_text()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


_PROM_SAMPLE = re.compile(r"^(\w+)\{([^}]*)\}\s+(\S+)$", re.MULTILINE)


def serve_admissions(metrics_text: str) -> "tuple[float, float]":
    """(accepted admissions, HTTP 429 answers) from a ``/metrics`` page."""
    accepted = rejected = 0.0
    for name, labels, value in _PROM_SAMPLE.findall(metrics_text):
        if name == "serve_admissions_total" and 'result="accepted"' in labels:
            accepted += float(value)
        elif name == "serve_http_requests_total" and 'code="429"' in labels:
            rejected += float(value)
    return accepted, rejected


def sweep_specs(run: Run):
    from repro.experiments.placement import fig9_grid_specs
    from repro.workloads.registry import PLACEMENT_APPS

    apps = SMOKE_APPS if run.smoke else PLACEMENT_APPS
    epochs = SMOKE_EPOCHS if run.smoke else None
    grid = fig9_grid_specs(apps=apps, epochs=epochs)
    return [dataclasses.replace(spec, seed=run.seed) for spec in grid]


def _check_outcomes(run: Run, outcomes) -> None:
    for outcome in outcomes:
        spec = outcome.spec
        key = cell_key(spec.app, spec.policy, spec.fast_ratio, spec.epochs)
        if not outcome.ok:
            run.oracle.error(
                key, f"[{outcome.error.kind}] {outcome.error.message}")
            continue
        run.check(key, outcome.result, simulated=outcome.source != "cache")


def sweep_warmup(run: Run) -> None:
    """The in-process reference every sweep and serve outcome must
    match (and, at seed 7, the golden file)."""
    from repro.sim import parallel

    _check_outcomes(run, parallel.run_specs(sweep_specs(run), max_workers=1))


def _batch(run: Run, kind: str, root: str, ops) -> None:
    """Run ``ops``, ``(request id, call)`` pairs, back to back as one
    gated op ``kind``; each op's latency, scaled by the batch's host
    speed, is a ``kind`` sample.  Outcomes are checked after the batch.
    """
    def body():
        latencies, results = [], []
        for request, call in ops:
            start = run.meter.now()
            with run.op(request, root):
                results.append(call())
            latencies.append(run.meter.now() - start)
        return latencies, results

    (latencies, results), work, ref = run.timed(kind, body)
    for latency in latencies:
        run.sample(kind, latency * ref / work)
    for outcomes in results:
        _check_outcomes(run, outcomes)


def sweep_serve_pass(run: Run) -> None:
    from repro.serve.client import ServeClient
    from repro.sim import parallel

    specs = sweep_specs(run)
    run.rng.shuffle(specs)
    warm = SMOKE_WARM if run.smoke else None
    cache_dir = run.fresh_dir("sweep-cache")
    cache = parallel.ResultCache(cache_dir)
    label = cache_dir.name

    def sweep():
        return parallel.run_specs(specs, max_workers=WORKERS, cache=cache)

    _batch(run, "sweep_cold", "bench.sweep", [(f"{label}/cold", sweep)])
    _batch(run, "sweep_warm", "bench.sweep", [
        (f"{label}/warm-{index}", sweep)
        for index in range(warm or WARM_SWEEPS)
    ])
    run.count("sweep.cache_hits", cache.hits)
    run.count("sweep.cache_misses", cache.misses)
    shutil.rmtree(cache_dir, ignore_errors=True)

    serve_root = run.fresh_dir("serve-root")
    with Daemon(serve_root) as daemon:
        client = ServeClient(daemon.address, client_id=f"{label}-cold")
        _batch(run, "serve_cold", "bench.serve", [
            (f"{label}/serve-cold", lambda: client.run(specs, 600)),
        ])
        jobs = []
        for index in range(warm or WARM_JOBS):
            # Each job from a new client id, so none is a resubmission.
            job_client = ServeClient(daemon.address,
                                     client_id=f"{label}-warm-{index}")
            job = [specs[index % len(specs)]]
            jobs.append((f"{label}/serve-warm-{index}",
                         functools.partial(job_client.run, job, 60)))
        _batch(run, "serve_warm", "bench.serve", jobs)
        accepted, rejected = serve_admissions(daemon.metrics())
    run.count("serve.admissions", accepted)
    run.count("serve.rejected_429", rejected)
    shutil.rmtree(serve_root, ignore_errors=True)


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------


def _warmup(run: Run) -> None:
    if run.workload == "figures":
        figures_warmup(run)
    elif run.workload == "sweep-serve":
        sweep_warmup(run)
    else:
        placement_pass(run)


def _pass(run: Run) -> None:
    if run.workload == "figures":
        figures_pass(run)
    elif run.workload == "sweep-serve":
        sweep_serve_pass(run)
    else:
        placement_pass(run)


def schedule(passes: int, trace: bool) -> "list[str]":
    """Pass modes after the warm-up; a traced run measures one untraced
    pass as its overhead baseline, then traces the rest."""
    if not trace:
        return ["timed"] * passes
    return ["timed"] + ["traced"] * max(1, passes - 1)


def run_workload(workload: str, seed: int, passes: int, smoke: bool,
                 trace: bool, work_dir: Path) -> dict:
    """Run one workload in this process; returns its result record."""
    if workload in SINGLE_PROCESS:
        pin_one_cpu()
    run = Run(workload, seed, smoke, work_dir)
    _warmup(run)
    for mode in schedule(passes, trace):
        gc.collect()
        if mode == "traced" and run.tracer is None:
            # Raw spans cover the first traced pass only.
            run.tracer = install(Tracer())
            run.tracer.raw_limit = RAW_SPAN_LIMIT
        run.mode = mode
        run.pass_work = run.pass_ref = 0.0
        _pass(run)
        if mode == "traced":
            run.traced_pass_s.append(run.pass_ref)
        else:
            run.pass_s.append(run.pass_ref)
            run.work_pass_s.append(run.pass_work)
        if run.tracer is not None:
            run.tracer.raw_limit = 0
    if run.tracer is not None:
        run.tracer.uninstall()
    record = {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "has_numpy": has_numpy(),
        "ops": run.oracle.ops,
        "ops_failed": run.oracle.failed,
        "failures": run.oracle.failures,
        "pass_ref_s": run.pass_s + run.traced_pass_s,
        "pass_work_s": run.work_pass_s,
        "op_ref_s": run.op_s,
    }
    if trace:
        record["layers"] = layer_metrics(run)
        record["trace"] = trace_events(run)
    else:
        record["metrics"] = end_to_end_metrics(run)
    return record


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _metric(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def _latency(metrics: dict, name: str, samples, q: float, scale: float,
             unit: str) -> None:
    value = stats.percentile(samples, q)
    if value is not None:
        metrics[name] = _metric(value * scale, unit, len(samples))


def peak_rss_mib() -> float:
    """Peak RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end_metrics(run: Run) -> dict:
    """The gate metrics (every workload) plus the workload's own detail
    metrics; ``setup_s`` is added by the launcher.

    Times are reference seconds.  The gated ``ref_pass_s`` sums, over
    the pass's gated ops, each op's median over the timed passes.
    ``host_slowdown`` is how much slower than the reference host the
    passes ran (work over reference time).
    """
    metrics = {
        "peak_rss_mib": _metric(peak_rss_mib(), "MiB", 1),
        "ref_pass_s": _metric(
            sum(statistics.median(times) for times in run.op_s.values()),
            "s", len(run.pass_s)),
        "host_slowdown": _metric(
            sum(run.work_pass_s) / sum(run.pass_s), "x", len(run.pass_s)),
    }
    samples = run.samples
    if run.workload in ("static-placement", "dynamic-placement"):
        cells = samples.get("cell", [])
        _latency(metrics, "cell_ms_p50", cells, 0.5, 1e3, "ms")
        _latency(metrics, "cell_ms_p90", cells, 0.9, 1e3, "ms")
        metrics["epochs_per_s"] = _metric(
            run.epochs / sum(cells), "1/s", len(cells))
        _latency(metrics, "step_us_p50", run.step_s, 0.5, 1e6, "us")
        _latency(metrics, "step_us_p99", run.step_s, 0.99, 1e6, "us")
    elif run.workload == "figures":
        for phase in ("cold", "warm"):
            times = samples[f"figures_{phase}"]
            metrics[f"figures_{phase}_s"] = _metric(
                statistics.median(times), "s", len(times))
    else:
        specs = len(sweep_specs(run))
        for tier in ("sweep", "serve"):
            cold = samples[f"{tier}_cold"]
            metrics[f"{tier}_specs_per_s"] = _metric(
                specs / statistics.median(cold), "1/s", len(cold))
        for name, kind in (("warm_sweep_ms", "sweep_warm"),
                           ("serve_rtt_ms", "serve_warm")):
            warm = samples[kind]
            _latency(metrics, f"{name}_p50", warm, 0.5, 1e3, "ms")
            _latency(metrics, f"{name}_p90", warm, 0.9, 1e3, "ms")
    return metrics


def layer_metrics(run: Run) -> dict:
    calls, self_ns = run.tracer.calls, run.tracer.self_ns
    host_ns = sum(self_ns.values()) or 1
    metrics = {}
    for name in list(BOUNDARIES) + [f"figure.{name}" for name in FIGURES]:
        metrics[f"{name}.calls"] = _metric(calls.get(name, 0), "count", 1)
        metrics[f"{name}.self_pct"] = _metric(
            100.0 * self_ns.get(name, 0) / host_ns, "%", 1)
    unattributed = sum(self_ns.get(name, 0) for name in ROOT_SPANS)
    metrics["unattributed.self_pct"] = _metric(
        100.0 * unattributed / host_ns, "%", 1)
    metrics["host.total_ms"] = _metric(host_ns / 1e6, "ms", 1)
    for name in [f"sim.{count}" for count in SIM_COUNTS] + [
        "sweep.cache_hits", "sweep.cache_misses",
        "serve.admissions", "serve.rejected_429",
    ]:
        metrics[name] = _metric(run.counts.get(name, 0), "count", 1)
    metrics["trace_overhead_pct"] = _metric(
        100.0 * (statistics.median(run.traced_pass_s)
                 / statistics.median(run.pass_s) - 1.0), "%",
        len(run.traced_pass_s))
    return metrics


def trace_events(run: Run) -> list:
    return run.raw_spans + run.tracer.chrome_trace()["traceEvents"]
