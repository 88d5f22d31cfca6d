"""Wall-clock pin for the full static-analysis stack.

CI runs ``repro lint --deep --effects`` on every PR for two Python
versions, so its runtime is part of the development loop.  This bench
times a cold run (parse + index + all analyses) and a warm run (AST
cache + persisted effect fixpoint hit), and archives everything to
``benchmarks/_results/BENCH_lint.json`` so regressions show up as a
diff, not an anecdote.  The soft ceiling is generous — the point is
catching an accidental quadratic blow-up in the effect fixpoint, not
shaving milliseconds.

The warm run also pins the payload-v3 fixpoint persistence: with a
matching call-graph key the :class:`EffectAnalysis` is restored from
the cache, so the warm effect-stage time must beat the cold one.
"""

from __future__ import annotations

import json
import pathlib
import time

import repro
from repro.devtools.flow import DEFAULT_BASELINE, Baseline, deep_lint_paths

PACKAGE_DIR = pathlib.Path(repro.__file__).parent
REPO_ROOT = PACKAGE_DIR.parent.parent
RESULTS_DIR = pathlib.Path(__file__).parent / "_results"

#: Cold full-stack run over ~100 files; seconds.  Current boxes do it
#: in well under half this.
COLD_CEILING_SEC = 60.0


def _timed_lint(cache_dir, **passes):
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    start = time.perf_counter()
    report, _index = deep_lint_paths(
        [PACKAGE_DIR],
        baseline=baseline,
        cache_dir=cache_dir,
        **passes,
    )
    return report, time.perf_counter() - start


def _timed_effects_only(cache_dir):
    """Just index + effect analysis, isolating the fixpoint cost the
    persisted summaries are supposed to remove on warm runs."""
    from repro.devtools.effect import cached_effect_analysis
    from repro.devtools.flow import ProjectIndex, _parse_all

    start = time.perf_counter()
    _files, contexts = _parse_all([PACKAGE_DIR], cache_dir)
    index = ProjectIndex.build([PACKAGE_DIR], contexts=contexts)
    cached_effect_analysis(index, cache_dir)
    return time.perf_counter() - start


def test_bench_lint_deep_effects(tmp_path):
    cache_dir = tmp_path / "cache"
    cold_report, cold_sec = _timed_lint(cache_dir, include_effects=True)
    warm_report, warm_sec = _timed_lint(cache_dir, include_effects=True)

    assert cold_report.findings == [], cold_report.format_human()
    assert warm_report.findings == []
    assert cold_report.files_checked == warm_report.files_checked

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
        "benchmark": "repro lint --deep --effects src/repro",
        "files": cold_report.files_checked,
        "cold_sec": round(cold_sec, 3),
        "warm_sec": round(warm_sec, 3),
        "effects_cold_sec": round(effects_cold_sec, 3),
        "effects_warm_sec": round(effects_warm_sec, 3),
        "suppressed": len(cold_report.suppressed),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_lint.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"\nlint --deep --effects: {payload['files']} files, "
        f"cold {cold_sec:.2f}s, warm {warm_sec:.2f}s, effect fixpoint "
        f"{effects_cold_sec:.2f}s -> {effects_warm_sec:.2f}s warm"
    )
    assert cold_sec < COLD_CEILING_SEC, (
        f"cold lint --deep --effects took {cold_sec:.1f}s; "
        f"ceiling is {COLD_CEILING_SEC:.0f}s"
    )
