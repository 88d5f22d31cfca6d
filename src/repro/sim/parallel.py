"""Parallel, cached experiment execution.

Every figure/table driver runs a (workload x policy x platform) grid,
and many grid points recur across drivers — ``fastmem-only`` at the
default platform alone recurs in Table 4, Figure 1, and Figure 3.
This module makes the grid the unit of work:

* :class:`ExperimentSpec` — a frozen, hashable description of one run
  (everything :func:`repro.sim.runner.run_experiment` needs).  Its
  :meth:`~ExperimentSpec.cache_key` is a SHA-256 over the spec's
  canonical JSON plus a fingerprint of the simulator source tree, so a
  cached result can never outlive the code that produced it (the same
  invalidation approach as ``repro.devtools.flow.cache``).
* :class:`ResultCache` — an on-disk memo of pickled
  :class:`~repro.sim.stats.RunResult` payloads and of the rows
  ``repro figure`` printed, one file per cache key.  Corrupt or stale
  entries degrade to misses, never errors.
* :class:`WorkerSupervisor` — the one worker pool: persistent forked
  workers, each with its own pipe and at most one task, crash
  attribution and respawn, and a per-spec timeout enforced *inside*
  the worker (``SIGALRM``).  With ``max_workers=1`` or without
  ``fork`` it runs the same code path inline.  Both :func:`run_specs`
  and the ``repro serve`` daemon execute on it.
* :func:`run_specs` — submits a grid's cache misses to one supervisor
  and polls for outcomes.  Worker crashes and timeouts surface as
  structured :class:`SpecFailure`\\ s on the returned
  :class:`SpecOutcome`\\ s — a dead worker never hangs a sweep, and
  a crash fails only the spec that caused it.  The figure drivers
  (:func:`repro.experiments.run_figures`), ``repro sweep`` and the
  benchmarks all run their grids through it.

Determinism contract: the engine derives all randomness from
``SimConfig.seed``, so one spec produces a bit-identical
:class:`RunResult` whether it ran serially, in a worker process, or
came back from the cache.  ``tests/test_parallel_runner.py`` asserts
that equivalence field-by-field for every registered policy.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Hashable,
    Iterable,
    Mapping,
    Optional,
    Sequence,
)

try:  # advisory file locking (POSIX); absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - exercised via monkeypatch
    fcntl = None  # type: ignore[assignment]

from repro.core.policy import make_policy
from repro.errors import ReproError, ServeError, SweepError
from repro.faults import FaultPlan
from repro.hw.throttle import ThrottleConfig
from repro.hw.topology import remote_dram
from repro.obs.bus import Telemetry
from repro.obs.sample import EpochSample
from repro.obs.sinks import json_line
# At module level on purpose: the workers WorkerSupervisor forks inherit
# the simulator instead of compiling it inside a timed sweep.
from repro.sim.runner import build_config, run_experiment
from repro.sim.stats import RunResult
from repro.vmm.hotness import HotnessConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.flight import SweepRecorder

__all__ = [
    "ExperimentSpec",
    "ResultCache",
    "SpecFailure",
    "SpecOutcome",
    "SweepJournal",
    "WorkerSupervisor",
    "default_cache",
    "make_spec",
    "results_or_raise",
    "run_spec",
    "run_specs",
    "source_fingerprint",
    "spec_from_canonical",
]

#: Environment variable naming a shared on-disk result-cache directory
#: (used by CI and the benchmark harness; absent means no disk cache).
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE_DIR"

#: The function every forked worker runs.  The heteroeffect race rules
#: (``repro lint --deep``) read this marker statically and treat
#: everything call-reachable from it (``_run_one``, ``run_spec``, the
#: simulator) as shared with the parent process: module-global writes
#: there are races, module-global OS handles are fork-unsafe.  Keep it
#: in sync with :meth:`WorkerSupervisor._spawn`.
WORKER_ENTRY_POINTS = ("_worker_main",)

#: Run inputs that are deliberately NOT part of the cache key, with the
#: reason a reviewer should see.  Every non-spec ``run_spec`` parameter
#: must appear here, and every entry must still name such a parameter
#: (``tests/test_spec_hash.py``,
#: ``test_spec_inputs_mirror_the_spec_fields``).
CACHE_KEY_EXCLUDED = {
    "telemetry": (
        "observation never affects results (the PR 4 no-perturbation "
        "contract), so it must not perturb cache keys either"
    ),
}

#: Named SlowMem device presets a spec may reference (device objects
#: themselves are not part of a spec so that specs stay hashable and
#: their canonical form stays JSON-serializable).
_DEVICE_PRESETS: "dict[str, Callable[[], object]]" = {
    "remote-dram": remote_dram,
}


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One hashable grid point: everything needed to reproduce a run.

    ``throttle`` is a plain ``(latency_factor, bandwidth_factor)`` tuple
    (``None`` means the platform default), ``slow_device`` names a
    preset from :data:`_DEVICE_PRESETS`, ``policy_args`` are extra
    keyword arguments for :func:`~repro.core.policy.make_policy`, and
    ``hotness`` holds :class:`~repro.vmm.hotness.HotnessConfig` fields —
    all as sorted tuples so the spec hashes and serializes canonically.
    Build instances through :func:`make_spec`, which normalizes richer
    argument types down to this form.
    """

    app: str
    policy: str
    fast_ratio: float = 0.25
    epochs: "int | None" = None
    slow_gib: float = 8.0
    throttle: "tuple[float, float] | None" = None
    llc_mib: int = 16
    seed: int = 7
    slow_device: "str | None" = None
    policy_args: "tuple[tuple[str, object], ...]" = ()
    hotness: "tuple[tuple[str, object], ...] | None" = None
    #: Deterministic fault schedule; ``None`` (or, via :func:`make_spec`
    #: normalization, an empty plan) means the fault-free seed path.
    faults: "FaultPlan | None" = None

    def canonical(self) -> dict:
        """A JSON-safe ordered mapping; the hashing input."""
        return {
            "app": self.app,
            "policy": self.policy,
            "fast_ratio": self.fast_ratio,
            "epochs": self.epochs,
            "slow_gib": self.slow_gib,
            "throttle": list(self.throttle) if self.throttle else None,
            "llc_mib": self.llc_mib,
            "seed": self.seed,
            "slow_device": self.slow_device,
            "policy_args": [list(item) for item in self.policy_args],
            "hotness": (
                [list(item) for item in self.hotness]
                if self.hotness is not None
                else None
            ),
            "faults": (
                self.faults.canonical() if self.faults is not None else None
            ),
        }

    def cache_key(self, fingerprint: str) -> str:
        """SHA-256 over the canonical spec + simulator source tree."""
        payload = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256()
        digest.update(payload.encode("utf-8"))
        digest.update(fingerprint.encode("utf-8"))
        return digest.hexdigest()

    @property
    def label(self) -> str:
        """Compact one-line description for progress output."""
        parts = [f"{self.app}/{self.policy}", f"r={self.fast_ratio:g}"]
        if self.throttle is not None:
            parts.append(ThrottleConfig(*self.throttle).label)
        if self.llc_mib != 16:
            parts.append(f"llc={self.llc_mib}M")
        if self.slow_device is not None:
            parts.append(self.slow_device)
        if self.epochs is not None:
            parts.append(f"e={self.epochs}")
        if self.faults is not None:
            parts.append(f"faults={len(self.faults.faults)}")
        return " ".join(parts)


def _normalize_mapping(
    value: "Mapping | Sequence | None",
) -> "tuple[tuple[str, object], ...]":
    if not value:
        return ()
    items = value.items() if isinstance(value, Mapping) else value
    return tuple(sorted((str(key), val) for key, val in items))


def make_spec(
    app: str,
    policy: str,
    fast_ratio: float = 0.25,
    epochs: "int | None" = None,
    slow_gib: float = 8.0,
    throttle: "tuple[float, float] | ThrottleConfig | None" = None,
    llc_mib: int = 16,
    seed: int = 7,
    slow_device: "str | None" = None,
    policy_args: "Mapping | None" = None,
    hotness: "HotnessConfig | Mapping | None" = None,
    faults: "FaultPlan | Mapping | None" = None,
) -> ExperimentSpec:
    """Build a canonical :class:`ExperimentSpec` from rich argument types."""
    if isinstance(throttle, ThrottleConfig):
        throttle = (throttle.latency_factor, throttle.bandwidth_factor)
    elif throttle is not None:
        throttle = (float(throttle[0]), float(throttle[1]))
    if isinstance(hotness, HotnessConfig):
        hotness = dataclasses.asdict(hotness)
    if isinstance(faults, Mapping):
        faults = FaultPlan.from_dict(dict(faults))
    if faults is not None and faults.empty:
        # No-perturbation contract: an empty plan IS no plan, down to
        # the cache key.
        faults = None
    if slow_device is not None and slow_device not in _DEVICE_PRESETS:
        raise SweepError(
            f"unknown slow-device preset {slow_device!r}; "
            f"available: {sorted(_DEVICE_PRESETS)}"
        )
    return ExperimentSpec(
        app=app,
        policy=policy,
        fast_ratio=float(fast_ratio),
        epochs=epochs,
        slow_gib=float(slow_gib),
        throttle=throttle,
        llc_mib=int(llc_mib),
        seed=int(seed),
        slow_device=slow_device,
        policy_args=_normalize_mapping(policy_args),
        hotness=(
            _normalize_mapping(hotness) if hotness is not None else None
        ),
        faults=faults,
    )


def spec_from_canonical(data: Mapping) -> ExperimentSpec:
    """Rebuild a spec from its :meth:`~ExperimentSpec.canonical` form.

    The inverse of ``canonical()`` for JSON-safe specs: round-tripping
    through ``json.dumps``/``loads`` (e.g. across the ``repro serve``
    wire) reconstructs an equal spec with an identical cache key — the
    property behind idempotent job resubmission.  Values inside
    ``policy_args``/``hotness`` must be JSON scalars (they are for every
    spec :func:`make_spec` normalizes from driver inputs).
    """
    if not isinstance(data, Mapping):
        raise SweepError(
            f"canonical spec must be a mapping, got {type(data).__name__}"
        )
    try:
        app = data["app"]
        policy = data["policy"]
    except KeyError as exc:
        raise SweepError(f"canonical spec missing field {exc}") from None
    throttle = data.get("throttle")
    policy_args = data.get("policy_args") or ()
    hotness = data.get("hotness")
    try:
        return make_spec(
            str(app),
            str(policy),
            fast_ratio=data.get("fast_ratio", 0.25),
            epochs=data.get("epochs"),
            slow_gib=data.get("slow_gib", 8.0),
            throttle=tuple(throttle) if throttle is not None else None,
            llc_mib=data.get("llc_mib", 16),
            seed=data.get("seed", 7),
            slow_device=data.get("slow_device"),
            policy_args=[(str(k), v) for k, v in policy_args],
            hotness=(
                [(str(k), v) for k, v in hotness]
                if hotness is not None
                else None
            ),
            faults=data.get("faults"),
        )
    except (TypeError, ValueError) as exc:
        raise SweepError(f"malformed canonical spec: {exc}") from exc


# ----------------------------------------------------------------------
# Advisory file locking (daemon + CLI sharing one cache directory)
# ----------------------------------------------------------------------

#: Warn-once state for lock degradation paths (parent-process only;
#: never touched on the worker entry-point paths).
_LOCK_WARNINGS = {"unavailable": False, "contention": False}


class _FileLock:
    """Advisory ``flock`` over ``<target>.lock``; degrades, never raises.

    A ``repro serve`` daemon and a concurrent ``repro sweep`` pointed at
    the same cache directory both append to the sweep journal; an
    advisory lock keeps their lines from interleaving mid-write.  The
    degradation ladder is: uncontended lock (fast path) → contended
    lock blocks until the other writer finishes (the warn-once *serial*
    path) → platform without ``fcntl`` or an unwritable lock file
    proceeds unlocked with a warning (exactly the pre-lock behaviour).
    """

    def __init__(self, target: "str | Path") -> None:
        target = Path(target)
        self.path = target.with_name(target.name + ".lock")
        self._handle = None

    def __enter__(self) -> "_FileLock":
        if fcntl is None:
            self._warn_once(
                "unavailable",
                "advisory file locking is unavailable on this platform "
                "(no fcntl); concurrent writers may interleave",
            )
            return self
        try:
            self._handle = open(self.path, "ab")
        except OSError:
            # The directory itself is unwritable; the write that follows
            # will degrade through its own warn-once path.
            return self
        try:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            # Contention: another process holds the lock.  Block until
            # it finishes — writers serialize instead of corrupting.
            self._warn_once(
                "contention",
                f"lock {self.path} is contended (another sweep or a "
                "serve daemon is writing); serializing writers",
            )
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
            except OSError:
                self._close()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._handle is not None and fcntl is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
        self._close()

    def _close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    @staticmethod
    def _warn_once(key: str, message: str) -> None:
        if _LOCK_WARNINGS.get(key):
            return
        _LOCK_WARNINGS[key] = True
        warnings.warn(message, RuntimeWarning, stacklevel=4)


def run_spec(
    spec: ExperimentSpec,
    telemetry: "Telemetry | None" = None,
) -> RunResult:
    """Execute one spec; the single simulation path every mode shares.

    ``telemetry`` is deliberately *not* part of the spec: observation
    never affects results, so it must not perturb cache keys either.
    """
    policy = make_policy(spec.policy, **dict(spec.policy_args))
    device = None
    if spec.slow_device is not None:
        try:
            factory = _DEVICE_PRESETS[spec.slow_device]
        except KeyError:
            raise SweepError(
                f"unknown slow-device preset {spec.slow_device!r}"
            ) from None
        device = factory()
    config = build_config(
        fast_ratio=spec.fast_ratio,
        slow_gib=spec.slow_gib,
        throttle=spec.throttle,
        llc_mib=spec.llc_mib,
        slow_device=device,
        unlimited_fast=policy.requires_unlimited_fast,
        seed=spec.seed,
    )
    if spec.hotness is not None:
        config.hotness_config = HotnessConfig(**dict(spec.hotness))
    if spec.faults is not None:
        config.fault_plan = spec.faults
    return run_experiment(
        spec.app,
        policy,
        epochs=spec.epochs,
        config=config,
        telemetry=telemetry,
    )


# ----------------------------------------------------------------------
# Source fingerprint
# ----------------------------------------------------------------------

_FINGERPRINTS: "dict[str, str]" = {}


def source_fingerprint(root: "str | Path | None" = None) -> str:
    """SHA-256 over every ``*.py`` under the simulator package.

    The digest covers relative path and content of each file, so any
    source change — a new policy, a timing-model tweak — invalidates
    every cached result.  Memoized per root for the process lifetime
    (the source tree does not change under a running sweep).
    """
    base = Path(root) if root is not None else Path(__file__).parent.parent
    cache_token = str(base.resolve())
    memoized = _FINGERPRINTS.get(cache_token)
    if memoized is not None:
        return memoized
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        digest.update(str(path.relative_to(base)).encode("utf-8"))
        digest.update(b"\x00")
        try:
            digest.update(path.read_bytes())
        except OSError:
            continue
        digest.update(b"\x00")
    fingerprint = digest.hexdigest()
    _FINGERPRINTS[cache_token] = fingerprint
    return fingerprint


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------


class ResultCache:
    """One pickled entry per cache key, under one directory.

    Two kinds of entry share the directory, the format and one
    loader/writer pair.  A *spec entry* holds the ``RunResult`` of one
    :class:`ExperimentSpec` under :meth:`ExperimentSpec.cache_key`; a
    *figure entry* holds the rows one ``repro figure`` driver returned,
    under :meth:`figure_key`.  Each payload is ``{"version", "spec",
    "result"}``, where ``spec`` is the spec's canonical form or
    ``{"figure": name}``.

    Robustness contract: a corrupt, truncated, version-skewed, or
    colliding entry is a *miss* (and is deleted best-effort), never an
    error — a poisoned cache directory can slow a sweep down but cannot
    change its results.  Writes are atomic (temp file + ``os.replace``)
    so parallel sweeps sharing a directory never read half a pickle.

    Timelines ride along as *sidecars*: the pickled payload always
    stores the result with ``timeline=None`` (keeping the determinism
    surface and the entry format stable), and a captured timeline is
    written next to it as ``<key>.timeline.jsonl``.  A lookup that
    requires the timeline (``with_timeline=True``) treats a missing or
    corrupt sidecar as a miss so the run re-executes and re-records it.
    """

    FORMAT_VERSION = 1

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        #: Invalid entries deleted during lookups (unreadable, version
        #: skew, key collisions, spec mismatches) — flight-recorder fodder.
        self.evictions = 0
        #: Failed store attempts (read-only/full cache directory).
        self.store_failures = 0
        self._store_warned = False

    def writable(self) -> bool:
        """Probe whether the cache directory accepts writes.

        Creates the directory if needed and round-trips a probe file;
        a read-only or full filesystem answers ``False`` (and the sweep
        degrades to uncached execution) instead of raising later."""
        probe = self.directory / f".probe-{os.getpid()}"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(probe, "wb") as handle:
                handle.write(b"repro-cache-probe")
            return True
        except OSError:
            return False
        finally:
            self._evict(probe)

    def _note_store_failure(self, exc: Exception) -> None:
        """Warn (once per cache instance) that results are not persisting."""
        if self._store_warned:
            return
        self._store_warned = True
        warnings.warn(
            f"result cache at {self.directory} is not writable ({exc}); "
            "continuing without persisting results",
            RuntimeWarning,
            stacklevel=4,
        )

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.pickle"

    def timeline_path_for(self, key: str) -> Path:
        """The JSONL timeline sidecar accompanying one cache entry."""
        return self.directory / f"{key}.timeline.jsonl"

    @staticmethod
    def figure_key(name: str, fingerprint: str) -> str:
        """The key of figure ``name``'s rows: SHA-256 over the figure
        name + simulator source tree."""
        digest = hashlib.sha256(f"figure:{name}".encode("utf-8"))
        digest.update(fingerprint.encode("utf-8"))
        return digest.hexdigest()

    def lookup(
        self,
        spec: ExperimentSpec,
        fingerprint: str,
        with_timeline: bool = False,
    ) -> "RunResult | None":
        key = spec.cache_key(fingerprint)
        result = self._load(key, spec.canonical(), RunResult)
        if result is None:
            self.misses += 1
            return None
        if with_timeline:
            timeline = self._load_timeline(key)
            if timeline is None:
                # Entry predates timeline capture (or sidecar rotted):
                # re-run to record one; the re-store refreshes both files.
                self.misses += 1
                return None
            result = dataclasses.replace(result, timeline=timeline)
        self.hits += 1
        return result

    def store(
        self, spec: ExperimentSpec, fingerprint: str, result: RunResult
    ) -> None:
        """Best-effort atomic write; cache I/O failure is not an error."""
        timeline = result.timeline
        if timeline is not None:
            result = dataclasses.replace(result, timeline=None)
        self._write(
            spec.cache_key(fingerprint), spec.canonical(), result, timeline
        )

    def lookup_figure(
        self, name: str, fingerprint: str
    ) -> "list[dict] | None":
        """The rows ``repro figure NAME`` stored from this source tree."""
        rows = self._load(
            self.figure_key(name, fingerprint), {"figure": name}, list
        )
        if rows is None:
            self.misses += 1
        else:
            self.hits += 1
        return rows

    def store_figure(
        self, name: str, fingerprint: str, rows: "list[dict]"
    ) -> None:
        """Best-effort atomic write of one figure driver's rows."""
        self._write(
            self.figure_key(name, fingerprint), {"figure": name}, rows
        )

    def _load(self, key: str, identity: dict, kind: type) -> object:
        """The result of entry ``key``, or ``None`` when it is absent or
        invalid.  An invalid entry (unreadable, version-skewed, or naming
        another spec or figure than ``identity``) is evicted."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except OSError:
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            payload = None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != self.FORMAT_VERSION
            or payload.get("spec") != identity
            or not isinstance(payload.get("result"), kind)
        ):
            self.evictions += 1
            self._evict(path)
            return None
        return payload["result"]

    def _write(
        self,
        key: str,
        identity: dict,
        result: object,
        timeline: "list[EpochSample] | None" = None,
    ) -> None:
        path = self.path_for(key)
        payload = {
            "version": self.FORMAT_VERSION,
            "spec": identity,
            "result": result,
        }
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            # Advisory lock: a serve daemon and a concurrent sweep on
            # the same cache directory serialize their writes to one
            # key instead of racing replace + sidecar pairs.
            with _FileLock(self.directory / ".cache"):
                with open(tmp, "wb") as handle:
                    pickle.dump(
                        payload, handle, protocol=pickle.HIGHEST_PROTOCOL
                    )
                os.replace(tmp, path)
                if timeline is not None:
                    self._store_timeline(key, timeline)
        except (OSError, pickle.PicklingError) as exc:
            # Cache-miss-and-warn degradation: a read-only or full cache
            # directory slows the next sweep down but never fails this
            # one.  Clean up the half-written temp file best-effort.
            self.store_failures += 1
            self._evict(tmp)
            self._note_store_failure(exc)

    def _store_timeline(
        self, key: str, timeline: "list[EpochSample]"
    ) -> None:
        sidecar = self.timeline_path_for(key)
        tmp = sidecar.with_suffix(f".tmp-{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                for sample in timeline:
                    handle.write(json_line(sample.to_dict()) + "\n")
            os.replace(tmp, sidecar)
        except (OSError, TypeError, ValueError):
            pass

    def _load_timeline(self, key: str) -> "list[EpochSample] | None":
        """Sidecar samples, or ``None`` when absent/corrupt (→ miss)."""
        sidecar = self.timeline_path_for(key)
        try:
            with open(sidecar, "r", encoding="utf-8") as handle:
                return [
                    EpochSample.from_dict(json.loads(line))
                    for line in handle
                    if line.strip()
                ]
        except (OSError, ValueError, TypeError, ReproError):
            return None

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


def default_cache() -> "ResultCache | None":
    """The ``REPRO_SWEEP_CACHE_DIR`` cache, or ``None`` when unset."""
    directory = os.environ.get(CACHE_DIR_ENV)
    if not directory:
        return None
    return ResultCache(directory)


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------


#: Failure kinds worth retrying: host-side transients, not simulator
#: determinism (an ``"error"`` reproduces identically on every retry).
TRANSIENT_FAILURE_KINDS = frozenset({"timeout", "worker-crash"})


@dataclass(frozen=True)
class SpecFailure:
    """A structured per-spec failure (never a raised exception).

    ``kind`` is one of ``"timeout"`` (the per-spec budget elapsed),
    ``"worker-crash"`` (the worker process died while running this
    spec; the parent knows which spec each worker holds, so no other
    spec is marked), or
    ``"error"`` (the simulation raised; ``message`` holds the exception
    text).
    When the raised exception was a :class:`~repro.errors.ReproError`
    subclass, ``error_type`` preserves its class name across the worker
    boundary instead of collapsing the type into the message string.
    """

    kind: str
    message: str
    error_type: "str | None" = None

    @property
    def transient(self) -> bool:
        """Whether a retry could plausibly change the outcome."""
        return self.kind in TRANSIENT_FAILURE_KINDS

    def exception_class(self) -> "type[ReproError] | None":
        """The structured :class:`ReproError` subclass, when one raised."""
        if self.error_type is None:
            return None
        import repro.errors as errors_module

        candidate = getattr(errors_module, self.error_type, None)
        if isinstance(candidate, type) and issubclass(candidate, ReproError):
            return candidate
        return None


@dataclass
class SpecOutcome:
    """What happened to one grid point.

    Exactly one of ``result``/``error`` is set.  ``source`` records how
    the result was obtained: ``"cache"``, ``"serial"``, or
    ``"parallel"``.  ``elapsed_sec`` is host wall-clock execution time
    (zero for cache hits) — harness telemetry, never simulator time.
    """

    spec: ExperimentSpec
    result: "RunResult | None" = None
    error: "SpecFailure | None" = None
    source: str = "serial"
    elapsed_sec: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None


def results_or_raise(outcomes: "Sequence[SpecOutcome]") -> "list[RunResult]":
    """Unwrap outcomes, raising :class:`SweepError` on any failure."""
    failures = [o for o in outcomes if not o.ok]
    if failures:
        lines = ", ".join(
            f"{o.spec.label}: [{o.error.kind}] {o.error.message}"
            for o in failures[:5]
        )
        raise SweepError(
            f"{len(failures)} of {len(outcomes)} grid points failed: {lines}"
        )
    return [o.result for o in outcomes]  # type: ignore[misc]


# ----------------------------------------------------------------------
# Sweep journal (kill-and-resume checkpointing)
# ----------------------------------------------------------------------


def _append_jsonl(path: Path, entry: dict) -> None:
    """Append one canonical-JSON line to a journal: locked, flushed and
    fsynced, so a kill loses at most the line being written.

    Best-effort: an unwritable journal degrades durability, never
    availability.  The advisory lock keeps a ``repro serve`` daemon and
    a concurrent ``repro sweep`` appending to one file from
    interleaving their lines.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with _FileLock(path):
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(
                    json.dumps(entry, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )
                handle.flush()
                os.fsync(handle.fileno())
    except OSError:
        pass


def _replay_jsonl(path: Path) -> "tuple[list, int]":
    """Every parseable line of a journal, in file order, and the number
    of corrupt lines skipped (torn writes from a kill mid-append).  An
    absent or unreadable journal replays as empty."""
    entries: list = []
    corrupt = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    corrupt += 1
    except OSError:
        pass
    return entries, corrupt


class SweepJournal:
    """Append-only JSONL checkpoint of per-spec sweep progress.

    Every executed spec appends one line keyed by its cache key (spec
    canonical JSON + source fingerprint — so a source change silently
    invalidates old entries, exactly like the result cache).  After a
    kill, ``repro sweep --resume`` reloads the journal: completed specs
    come back from the result cache, journaled *deterministic* failures
    are reused without re-running (re-simulating them would reproduce
    the same error), and transient failures (timeouts, worker crashes)
    re-run.  Corrupt lines — a kill mid-append — are skipped; the last
    entry per key wins.  All journal I/O is best-effort: a broken
    journal degrades to a journal-less sweep, never an error.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        #: Corrupt lines dropped by the most recent :meth:`load` — a
        #: torn write from a kill is expected (count 1); more than that
        #: suggests real file damage, so the count is surfaced as a
        #: warning and a flight-recorder metric instead of vanishing.
        self.corrupt_lines_skipped = 0

    def load(self) -> "dict[str, dict]":
        """Entries by cache key; empty when absent or unreadable."""
        lines, corrupt = _replay_jsonl(self.path)
        entries: "dict[str, dict]" = {
            entry["key"]: entry
            for entry in lines
            if isinstance(entry, dict) and isinstance(entry.get("key"), str)
        }
        self.corrupt_lines_skipped = corrupt
        if corrupt:
            warnings.warn(
                f"sweep journal {self.path}: skipped {corrupt} corrupt "
                "line(s) (torn writes from a kill mid-append); the "
                "affected specs will re-run",
                RuntimeWarning,
                stacklevel=2,
            )
        return entries

    def record(
        self, spec: ExperimentSpec, fingerprint: str, outcome: SpecOutcome
    ) -> dict:
        """Append one spec's outcome (see :func:`_append_jsonl`) and
        return the entry written, as :meth:`load` would read it back."""
        entry: dict = {
            "key": spec.cache_key(fingerprint),
            "label": spec.label,
            "status": "ok" if outcome.ok else "failed",
            # Harness telemetry for post-hoc `repro report`; resume
            # logic never reads these two fields.
            "source": outcome.source,
            "elapsed_sec": outcome.elapsed_sec,
        }
        if outcome.error is not None:
            entry["kind"] = outcome.error.kind
            entry["message"] = outcome.error.message
            if outcome.error.error_type is not None:
                entry["error_type"] = outcome.error.error_type
        _append_jsonl(self.path, entry)
        return entry

    def reset(self) -> None:
        """Start a fresh sweep: drop any previous checkpoint."""
        try:
            self.path.unlink()
        except OSError:
            pass


def _resolve_journal(
    journal: "SweepJournal | str | Path | None",
) -> "SweepJournal | None":
    if journal is None or isinstance(journal, SweepJournal):
        return journal
    return SweepJournal(journal)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _wall_sec() -> float:
    """Host wall-clock seconds for per-spec harness timing.

    This measures how long the *host* took to simulate, for progress
    output and the perf benchmarks; it never feeds virtual time.
    """
    import time

    # heterolint: disable-next-line=unseeded-random — harness telemetry
    return time.perf_counter()


class _SpecTimeout(ReproError):
    """Internal: raised by the SIGALRM handler inside a worker."""


def _timeout_supported() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def _run_one(
    spec: ExperimentSpec,
    timeout_sec: "float | None",
    capture_timeline: bool = False,
) -> "tuple[str, object, float]":
    """Run one spec under an optional SIGALRM budget.

    Returns ``(status, payload, elapsed_sec)`` where status is ``"ok"``
    (payload: RunResult), ``"timeout"``, or ``"error"`` (payload: str).
    When ``capture_timeline`` is set the run carries a fresh in-memory
    telemetry bus and the returned result has ``.timeline`` populated
    (``EpochSample`` is a plain dataclass, so timelines pickle cleanly
    across the worker boundary).
    """
    start = _wall_sec()
    use_alarm = timeout_sec is not None and _timeout_supported()
    if timeout_sec is not None and not use_alarm:
        # Graceful fallback: a spec run inline on a non-main thread (the
        # serve scheduler without fork) or a platform without SIGALRM runs
        # without a timeout rather than crashing.  warnings' per-location
        # registry dedups this to once per process.
        warnings.warn(
            f"per-spec timeout ({timeout_sec:g}s) unavailable here "
            "(SIGALRM needs the main thread); running without a timeout",
            RuntimeWarning,
            stacklevel=2,
        )
    previous = None
    previous_timer = (0.0, 0.0)
    if use_alarm:
        def _on_alarm(signum, frame):
            raise _SpecTimeout(
                f"spec exceeded its {timeout_sec:g}s budget"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        previous_timer = signal.setitimer(signal.ITIMER_REAL, timeout_sec)
    try:
        telemetry = Telemetry() if capture_timeline else None
        result = run_spec(spec, telemetry=telemetry)
        return ("ok", result, _wall_sec() - start)
    except _SpecTimeout as exc:
        return ("timeout", str(exc), _wall_sec() - start)
    except ReproError as exc:
        # A structured simulator error keeps its subclass name so the
        # parent-side SpecFailure can rehydrate the type.
        message = f"{type(exc).__name__}: {exc}"
        return ("error", (type(exc).__name__, message), _wall_sec() - start)
    except Exception as exc:  # noqa: BLE001 — surfaced as SpecFailure
        message = f"{type(exc).__name__}: {exc}"
        return ("error", (None, message), _wall_sec() - start)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(
                signal.SIGALRM,
                previous if previous is not None else signal.SIG_DFL,
            )
            # A pre-existing alarm (an embedder's watchdog) is re-armed
            # with whatever budget it had left, floored at a tick so it
            # still fires even if our spec consumed the remainder.
            remaining, interval = previous_timer
            if remaining > 0.0:
                elapsed = _wall_sec() - start
                signal.setitimer(
                    signal.ITIMER_REAL,
                    max(remaining - elapsed, 1e-6),
                    interval,
                )


def _outcome_from_status(
    spec: ExperimentSpec,
    status: "tuple[str, object, float]",
    source: str,
) -> SpecOutcome:
    kind, payload, elapsed = status
    if kind == "ok":
        return SpecOutcome(
            spec=spec, result=payload, source=source, elapsed_sec=elapsed
        )
    error_type = None
    if isinstance(payload, tuple):
        error_type, message = payload
    else:
        message = str(payload)
    return SpecOutcome(
        spec=spec,
        error=SpecFailure(
            kind=kind, message=str(message), error_type=error_type
        ),
        source=source,
        elapsed_sec=elapsed,
    )


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# Supervised worker pool (run_specs and the repro serve daemon)
# ----------------------------------------------------------------------


def _worker_main(conn, inherited, capture_timelines: bool) -> None:
    """Worker process loop: receive a spec, run it, send its status.

    Every worker has a pipe of its own to the parent and holds at most
    one task, so the parent always knows which spec a worker runs: a
    crash is attributed without any message from the worker, and no
    lock is shared between workers.  (A queue shared by all workers is
    guarded by a read lock that an idle worker holds while it waits;
    SIGKILL that worker and every other one blocks for good.)  A
    ``None`` task is the shutdown sentinel.  Pipe failures (the parent
    died) end the loop quietly: the supervisor owns all error
    reporting.

    The fork hands the worker the parent's end of its own pipe and of
    every other worker's pipe (``inherited``).  It closes them first.
    Otherwise the workers would keep each other's pipes open, and a
    parent killed without a chance to send sentinels (SIGKILL) would
    leave them blocked in ``recv()`` forever instead of seeing EOF.
    """
    for other in inherited:
        other.close()
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        spec, timeout_sec = item
        status = _run_one(spec, timeout_sec, capture_timelines)
        try:
            conn.send(status)
        except (EOFError, OSError):
            break


class WorkerSupervisor:
    """The crash-tolerant worker pool behind :func:`run_specs` and the
    ``repro serve`` scheduler.

    Protocol: :meth:`submit` queues ``(task_id, spec)`` under any
    hashable id the caller picks; :meth:`poll` returns finished
    ``(task_id, SpecOutcome)`` pairs and supervises the pool meanwhile:

    * **one task per worker** — each worker has its own pipe, and a
      task is sent only to an idle worker; the rest wait in a
      parent-side deque.  The parent always knows which worker owns
      which spec, and :meth:`submit` never blocks on a full pipe;
    * **crash detection + respawn** — a dead worker fails the task it
      held with the structured ``worker-crash`` kind and is replaced
      immediately (:attr:`respawns`);
    * **bounded crash retries + quarantine** — a crashed task re-runs
      until it has killed ``max_crashes`` workers, then surfaces as a
      final ``worker-crash`` failure, so one poisoned spec cannot
      serially kill every worker.  ``run_specs`` passes
      ``max_crashes=1``: every crash goes back to its own retry loop;
    * **inline execution** — with ``inline=True``, without ``fork``, or
      when the pool fails to start, :meth:`poll` runs one queued spec
      per call in the calling thread.  There is no process boundary
      then, so no crash isolation.  On a non-main thread (the daemon's
      scheduler) :func:`_run_one` warns once and runs without a
      timeout.

    Timeout failures come back un-retried: the caller owns the retry
    budget for timeouts.  Execution in a worker and inline is the same
    :func:`_run_one`, which is what keeps served, parallel and serial
    results bit-identical.
    """

    def __init__(
        self,
        max_workers: int = 1,
        timeout_sec: "float | None" = None,
        capture_timelines: bool = False,
        max_crashes: int = 2,
        inline: bool = False,
    ) -> None:
        if max_workers < 1:
            raise ServeError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if max_crashes < 1:
            raise ServeError(
                f"max_crashes must be >= 1, got {max_crashes}"
            )
        self.max_workers = int(max_workers)
        self.timeout_sec = timeout_sec
        self.capture_timelines = capture_timelines
        self.max_crashes = int(max_crashes)
        #: Workers respawned after a crash (a serve metrics series).
        self.respawns = 0
        #: task id -> crash count at the moment it was quarantined.
        self.quarantined: "dict[Hashable, int]" = {}
        self._serial = inline or not _fork_available()
        self._started = False
        self._stopping = False
        self._context = None
        #: parent end of a worker's pipe -> its process.
        self._workers: dict = {}
        #: parent end of a busy worker's pipe -> the task id it holds.
        self._running: dict = {}
        #: task id -> spec, for everything submitted but not finished.
        self._outstanding: "dict[Hashable, ExperimentSpec]" = {}
        #: Task ids submitted but not yet sent to a worker (or, when
        #: inline, not yet run), in submission order.
        self._pending: "collections.deque[Hashable]" = collections.deque()
        self._crashes: "dict[Hashable, int]" = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"forked"`` (supervised pool) or ``"serial"`` (inline)."""
        return "serial" if self._serial else "forked"

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self._serial:
            return
        import multiprocessing

        try:
            self._context = multiprocessing.get_context("fork")
            for _ in range(self.max_workers):
                self._spawn()
        except (OSError, NotImplementedError, ValueError):
            # The pool failed to start (process or descriptor limits,
            # an exotic platform): run inline, same execution path.
            for conn, process in self._workers.items():
                process.terminate()
                process.join(timeout=1.0)
                conn.close()
            self._workers = {}
            self._serial = True

    def _spawn(self) -> None:
        conn, child = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child, [conn, *self._workers], self.capture_timelines),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            conn.close()
            raise
        finally:
            child.close()
        self._workers[conn] = process

    def stop(self) -> None:
        """Shut the pool down; idempotent, never raises."""
        self._stopping = True
        if self._serial or not self._started:
            return
        for conn in self._workers:
            try:
                conn.send(None)
            except (OSError, ValueError):
                pass  # already dead: joined below
        for conn, process in self._workers.items():
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            conn.close()
        self._workers = {}
        self._running = {}

    # ------------------------------------------------------------------
    # Work
    # ------------------------------------------------------------------

    def submit(self, task_id: Hashable, spec: ExperimentSpec) -> None:
        """Queue one spec for execution under ``task_id``; never blocks
        and never runs the spec (that happens in :meth:`poll`)."""
        if not self._started or self._stopping:
            raise ServeError("supervisor is not running")
        self._outstanding[task_id] = spec
        self._pending.append(task_id)
        if not self._serial:
            self._feed()

    def poll(
        self, timeout_sec: float = 0.05
    ) -> "list[tuple[Hashable, SpecOutcome]]":
        """Collect finished tasks; supervise the pool while doing so.

        Inline, runs the next queued spec and returns its outcome.
        Forked, waits up to ``timeout_sec`` for results or worker
        deaths and handles every one that is ready.  Crash handling
        happens here: a dead worker fails the task it held, gets
        replaced, and the task either re-runs (crash count below
        ``max_crashes``) or surfaces as a quarantined ``worker-crash``
        failure.  Idle workers get their next tasks last.
        """
        if self._serial:
            if not self._pending:
                return []
            task_id = self._pending.popleft()
            spec = self._outstanding.pop(task_id)
            status = _run_one(spec, self.timeout_sec, self.capture_timelines)
            return [(task_id, _outcome_from_status(spec, status, "serial"))]
        if not self._started or self._stopping:
            return []
        from multiprocessing.connection import wait

        # A worker's sentinel turns ready as it exits, a little before
        # is_alive() turns false: reaping by sentinel never spins.
        sentinels = {
            process.sentinel: conn for conn, process in self._workers.items()
        }
        ready = wait([*self._running, *sentinels], max(0.0, timeout_sec))
        events: "list[tuple[Hashable, SpecOutcome]]" = []
        # Results first: a worker may send its result and then die.
        for conn in ready:
            if conn in self._running:
                events.extend(self._receive(conn))
        for sentinel in ready:
            conn = sentinels.get(sentinel)
            if conn is None or conn not in self._workers:
                continue
            if conn in self._running and conn.poll():
                events.extend(self._receive(conn))
            if conn in self._workers:
                events.extend(self._reap(conn))
        self._feed()
        return events

    def _feed(self) -> None:
        """Send queued tasks to idle workers, one task each."""
        for conn in self._workers:
            if not self._pending:
                return
            if conn in self._running:
                continue
            task_id = self._pending[0]
            try:
                conn.send((self._outstanding[task_id], self.timeout_sec))
            except OSError:
                continue  # died idle: its sentinel reports it
            self._running[conn] = self._pending.popleft()

    def _receive(self, conn) -> "list[tuple[Hashable, SpecOutcome]]":
        """Read a busy worker's result; reap it if it died first."""
        try:
            status = conn.recv()
        except (OSError, EOFError, pickle.UnpicklingError):
            return self._reap(conn)  # died before or while sending
        task_id = self._running.pop(conn)
        spec = self._outstanding.pop(task_id)
        return [(task_id, _outcome_from_status(spec, status, "parallel"))]

    def _reap(self, conn) -> "list[tuple[Hashable, SpecOutcome]]":
        """Replace a dead worker; re-run or quarantine its task."""
        process = self._workers.pop(conn)
        process.join()
        conn.close()
        task_id = self._running.pop(conn, None)
        if not self._stopping:
            self._spawn()
            self.respawns += 1
        if task_id is None:
            return []
        spec = self._outstanding[task_id]
        count = self._crashes.get(task_id, 0) + 1
        self._crashes[task_id] = count
        if count < self.max_crashes and not self._stopping:
            # A crash is re-runnable until this spec has proven
            # poisonous.
            self._pending.append(task_id)
            return []
        self.quarantined[task_id] = count
        del self._outstanding[task_id]
        return [
            (
                task_id,
                SpecOutcome(
                    spec=spec,
                    error=SpecFailure(
                        kind="worker-crash",
                        message=(
                            f"worker process died {count} time(s) "
                            "running this spec; quarantined"
                        ),
                    ),
                    source="parallel",
                ),
            )
        ]

    @property
    def outstanding(self) -> int:
        """Tasks submitted but not yet finished (queued + in flight)."""
        return len(self._outstanding)


ProgressFn = Callable[[SpecOutcome, int, int], None]


def _sleep_backoff(base_sec: float, attempt: int) -> None:
    """Exponential backoff before retrying transient failures."""
    import time

    delay = base_sec * (2 ** (attempt - 1))
    if delay > 0:
        time.sleep(delay)


def _retry_jitter_fraction(
    specs: "Sequence[ExperimentSpec]", fingerprint: str, attempt: int
) -> float:
    """Deterministic jitter fraction in ``[0, 1)`` for one retry round.

    Keyed off the retrying specs' cache keys (plus the attempt number),
    so a retried sweep reproduces its own backoff schedule bit-for-bit
    while distinct sweeps sharing a cache directory spread their retries
    instead of thundering-herding it.  No RNG: pure sha256.
    """
    digest = hashlib.sha256()
    for key in sorted(spec.cache_key(fingerprint) for spec in specs):
        digest.update(key.encode("ascii"))
    digest.update(str(attempt).encode("ascii"))
    return int.from_bytes(digest.digest()[:8], "big") / float(2 ** 64)


def run_specs(
    specs: "Iterable[ExperimentSpec]",
    max_workers: "int | None" = 1,
    cache: "ResultCache | str | Path | None" = None,
    timeout_sec: "float | None" = None,
    progress: "Optional[ProgressFn]" = None,
    fingerprint: "str | None" = None,
    capture_timelines: bool = False,
    retries: int = 0,
    retry_backoff_sec: float = 0.5,
    retry_jitter: float = 0.0,
    journal: "SweepJournal | str | Path | None" = None,
    recorder: "SweepRecorder | None" = None,
) -> "list[SpecOutcome]":
    """Execute a grid, returning one :class:`SpecOutcome` per input spec.

    Duplicate specs are simulated once and fanned back out.  Cache hits
    (when ``cache`` is given) skip simulation entirely.  Cache misses
    all go to one :class:`WorkerSupervisor`, started on the first miss
    and kept across retry rounds: ``max_workers`` above 1 forks that
    many workers (a crash fails only the spec that caused it), and
    ``None`` one per CPU this process may use (its affinity mask, where
    the platform has one); ``max_workers=1``, ``None`` in a process
    pinned to one CPU, or a platform without ``fork`` run the same code
    path inline.  ``timeout_sec``
    bounds each spec's wall-clock budget (enforced in the executing
    process via ``SIGALRM`` where available).  ``progress`` is invoked
    as ``progress(outcome, done, total)`` after every grid point.

    Host-side resilience: an unwritable cache directory degrades the
    whole sweep to uncached serial execution (with a warning) instead
    of failing; transient failures — timeouts and worker crashes, never
    deterministic simulation errors — are retried up to ``retries``
    times with exponential backoff (``retry_backoff_sec`` doubling per
    round, stretched by up to ``retry_jitter`` as a fraction —
    deterministically seeded from the retrying specs' cache keys, so
    backoff stays reproducible while concurrent sweeps sharing a cache
    directory de-synchronize instead of thundering-herding it); and a
    ``journal`` checkpoints every executed spec so an interrupted sweep
    can resume, skipping completed work.

    ``capture_timelines`` attaches an in-memory telemetry bus to every
    simulated spec so each ``RunResult`` carries its per-epoch timeline.
    Telemetry never enters the cache key; timelines persist as JSONL
    sidecars next to the pickled entry, and a cached entry without a
    sidecar simply re-runs.

    ``recorder`` (a :class:`~repro.obs.flight.SweepRecorder`) receives
    host-side execution telemetry — cache traffic, journal reuse,
    per-spec wall-clock, retries, fault roll-ups.  Like ``telemetry``
    on :func:`run_spec`, it is observation only: it stays in the parent
    process, never enters cache keys, and a recorder-on sweep returns
    results field-by-field identical to a recorder-off sweep
    (``tests/test_sweep_recorder.py``).
    """
    ordered = list(specs)
    resolved_cache = cache
    if cache is not None and not isinstance(cache, ResultCache):
        resolved_cache = ResultCache(cache)
    if resolved_cache is not None and not resolved_cache.writable():
        warnings.warn(
            f"sweep cache directory {resolved_cache.directory} is not "
            "writable; falling back to uncached serial execution",
            RuntimeWarning,
            stacklevel=2,
        )
        resolved_cache = None
        max_workers = 1
    resolved_journal = _resolve_journal(journal)
    if fingerprint is None and (
        resolved_cache is not None or resolved_journal is not None
    ):
        fingerprint = source_fingerprint()
    outcomes: "dict[int, SpecOutcome]" = {}
    done = 0

    def _record(index: int, outcome: SpecOutcome) -> None:
        nonlocal done
        outcomes[index] = outcome
        done += 1
        if progress is not None:
            progress(outcome, done, len(ordered))

    # Dedup: first index of each distinct spec does the work.
    pending: "dict[ExperimentSpec, list[int]]" = {}
    for index, spec in enumerate(ordered):
        pending.setdefault(spec, []).append(index)

    if max_workers is None and hasattr(os, "sched_getaffinity"):
        max_workers = len(os.sched_getaffinity(0))
    elif max_workers is None:
        max_workers = os.cpu_count() or 1
    if recorder is not None:
        recorder.sweep_started(
            total=len(ordered),
            distinct=len(pending),
            max_workers=max_workers,
            cache=resolved_cache,
        )

    # Cache pass (in the parent: workers never touch the cache, so a
    # broken worker cannot corrupt it).
    misses: "list[ExperimentSpec]" = []
    for spec, indexes in pending.items():
        cached = (
            resolved_cache.lookup(
                spec, fingerprint, with_timeline=capture_timelines
            )
            if resolved_cache is not None
            else None
        )
        if cached is not None:
            if recorder is not None:
                recorder.cache_hit(spec.label)
                recorder.outcome(
                    spec.label,
                    "cache",
                    "ok",
                    0.0,
                    fault_counts=cached.fault_counts,
                    copies=len(indexes),
                )
            for index in indexes:
                _record(
                    index, SpecOutcome(spec=spec, result=cached, source="cache")
                )
        else:
            if recorder is not None and resolved_cache is not None:
                recorder.cache_miss(spec.label)
            misses.append(spec)

    # Journal pass: a resumed sweep reuses journaled *deterministic*
    # failures (re-simulating reproduces the same error); transient
    # failures and journaled successes whose cache entry is gone re-run.
    if resolved_journal is not None and misses:
        journaled = resolved_journal.load()
        if recorder is not None:
            recorder.journal_corrupt_lines(
                resolved_journal.corrupt_lines_skipped
            )
        remaining: "list[ExperimentSpec]" = []
        for spec in misses:
            entry = journaled.get(spec.cache_key(fingerprint or ""))
            if entry is not None and entry.get("kind") == "error":
                failure = SpecFailure(
                    kind="error",
                    message=str(entry.get("message", "")),
                    error_type=entry.get("error_type"),
                )
                if recorder is not None:
                    recorder.journal_reused(spec.label)
                    recorder.outcome(
                        spec.label,
                        "journal",
                        "failed",
                        0.0,
                        failure_kind="error",
                        copies=len(pending[spec]),
                    )
                for index in pending[spec]:
                    _record(
                        index,
                        SpecOutcome(spec=spec, error=failure, source="journal"),
                    )
            else:
                remaining.append(spec)
        misses = remaining

    def _finish(spec: ExperimentSpec, outcome: SpecOutcome) -> None:
        if outcome.ok and resolved_cache is not None:
            resolved_cache.store(spec, fingerprint, outcome.result)
        if resolved_journal is not None:
            resolved_journal.record(spec, fingerprint or "", outcome)
        if recorder is not None:
            recorder.outcome(
                spec.label,
                outcome.source,
                "ok" if outcome.ok else "failed",
                outcome.elapsed_sec,
                fault_counts=(
                    outcome.result.fault_counts if outcome.ok else None
                ),
                failure_kind=(
                    outcome.error.kind if outcome.error is not None else None
                ),
                copies=len(pending[spec]),
            )
        for index in pending[spec]:
            _record(index, outcome)

    # Bounded-retry loop over one supervised pool: transient failures
    # (timeouts, worker crashes) re-run with exponential backoff;
    # everything else finishes on its first outcome.  Deterministic
    # errors never retry — the simulator would reproduce them
    # bit-for-bit.  max_workers > 1 always means worker-process
    # isolation (even for a single miss): a crashing simulation must
    # never take down the caller's process.  max_crashes=1 hands every
    # crash straight back to this loop, so ``retries`` covers both kinds.
    to_run = misses
    attempt = 0
    supervisor = None
    if to_run:  # a warm sweep forks nothing
        supervisor = WorkerSupervisor(
            max_workers=max(1, min(max_workers, len(to_run))),
            timeout_sec=timeout_sec,
            capture_timelines=capture_timelines,
            max_crashes=1,
            inline=max_workers <= 1,
        )
        supervisor.start()
    try:
        while to_run:
            for spec in to_run:
                supervisor.submit(pending[spec][0], spec)
            retryable: "list[ExperimentSpec]" = []
            while supervisor.outstanding:
                for _, outcome in supervisor.poll():
                    spec = outcome.spec
                    if (
                        attempt < retries
                        and outcome.error is not None
                        and outcome.error.transient
                    ):
                        if recorder is not None:
                            recorder.retry(
                                spec.label, outcome.error.kind, attempt + 1
                            )
                        retryable.append(spec)
                    else:
                        _finish(spec, outcome)
            if not retryable:
                break
            attempt += 1
            stretch = 1.0
            if retry_jitter > 0:
                stretch += retry_jitter * _retry_jitter_fraction(
                    retryable, fingerprint or "", attempt
                )
            _sleep_backoff(retry_backoff_sec * stretch, attempt)
            to_run = retryable
    finally:
        if supervisor is not None:
            supervisor.stop()
    if recorder is not None:
        recorder.sweep_finished(cache=resolved_cache)
    return [outcomes[i] for i in range(len(ordered))]
