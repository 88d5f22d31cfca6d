"""Wall-clock pin for the full static-analysis stack.

CI runs ``repro lint --deep`` on every PR for two Python versions, so
its runtime is part of the development loop.  This bench times
:data:`RUNS` cold runs (parse + index + the whole deep pass, each with
a fresh cache directory) and :data:`RUNS` warm runs (AST cache +
persisted effect fixpoint hit), and archives the medians, with every
sample, to ``benchmarks/_results/BENCH_lint.json`` so regressions show
up as a diff, not an anecdote.  A single run spreads too widely on a
shared host to show a change; the median of five spreads less.
The soft ceiling is generous — the point is catching an accidental
quadratic blow-up in the effect fixpoint, not shaving milliseconds.

The warm runs also pin the payload-v3 fixpoint persistence: with a
matching call-graph key the :class:`EffectAnalysis` is restored from
the cache, so the warm effect-stage time must beat the cold one.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

import repro
from repro.devtools.flow import deep_lint_paths

PACKAGE_DIR = pathlib.Path(repro.__file__).parent
RESULTS_DIR = pathlib.Path(__file__).parent / "_results"

#: Cold full-stack run over ~100 files; seconds.  Current boxes do it
#: in well under half this.
COLD_CEILING_SEC = 60.0

#: Timed runs per side (cold, warm); the bench records their medians.
RUNS = 5


def _timed_lint(cache_dir):
    start = time.perf_counter()
    report, _index = deep_lint_paths([PACKAGE_DIR], cache_dir=cache_dir)
    return report, time.perf_counter() - start


def _timed_effects_only(cache_dir):
    """Just index + effect analysis, isolating the fixpoint cost the
    persisted summaries are supposed to remove on warm runs."""
    from repro.devtools.effect import cached_effect_analysis
    from repro.devtools.flow import ProjectIndex, _parse_all
    from repro.devtools.flow.cache import AstCache

    start = time.perf_counter()
    cache = AstCache(cache_dir)
    _files, contexts = _parse_all([PACKAGE_DIR], cache)
    index = ProjectIndex.build([PACKAGE_DIR], contexts=contexts)
    cached_effect_analysis(index, cache)
    return time.perf_counter() - start


def test_bench_lint_deep_effects(tmp_path):
    cold = [_timed_lint(tmp_path / f"cold-{run}") for run in range(RUNS)]
    # The first cold run left a full cache behind; every warm run hits it.
    warm = [_timed_lint(tmp_path / "cold-0") for _run in range(RUNS)]

    for report, _sec in cold + warm:
        assert report.findings == [], report.format_human()
    cold_report = cold[0][0]
    assert {report.files_checked for report, _sec in warm} == {
        cold_report.files_checked
    }
    cold_runs = sorted(sec for _report, sec in cold)
    warm_runs = sorted(sec for _report, sec in warm)
    cold_sec = statistics.median(cold_runs)
    warm_sec = statistics.median(warm_runs)

    # Fixpoint persistence: a fresh cache pays the fixpoint, the second
    # run restores it by call-graph key.
    fixpoint_cache = tmp_path / "fixpoint-cache"
    effects_cold_sec = _timed_effects_only(fixpoint_cache)
    effects_warm_sec = _timed_effects_only(fixpoint_cache)
    assert effects_warm_sec < effects_cold_sec, (
        f"warm effect analysis ({effects_warm_sec:.2f}s) should beat "
        f"cold ({effects_cold_sec:.2f}s) via the persisted fixpoint"
    )

    payload = {
        "benchmark": "repro lint --deep src/repro",
        "files": cold_report.files_checked,
        "runs": RUNS,
        "cold_sec": round(cold_sec, 3),
        "warm_sec": round(warm_sec, 3),
        "cold_runs_sec": [round(sec, 3) for sec in cold_runs],
        "warm_runs_sec": [round(sec, 3) for sec in warm_runs],
        "effects_cold_sec": round(effects_cold_sec, 3),
        "effects_warm_sec": round(effects_warm_sec, 3),
        "suppressed": len(cold_report.suppressed),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_lint.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"\nlint --deep: {payload['files']} files, median of {RUNS}: "
        f"cold {cold_sec:.2f}s, warm {warm_sec:.2f}s, effect fixpoint "
        f"{effects_cold_sec:.2f}s -> {effects_warm_sec:.2f}s warm"
    )
    assert cold_sec < COLD_CEILING_SEC, (
        f"cold lint --deep took {cold_sec:.1f}s; "
        f"ceiling is {COLD_CEILING_SEC:.0f}s"
    )
