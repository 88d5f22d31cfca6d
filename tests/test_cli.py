"""Command-line interface."""

import json

import pytest

from repro import experiments
from repro.cli import build_parser, main
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import CACHE_DIR_ENV


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "graphchi" in out
    assert "hetero-lru" in out


def test_run_command(capsys):
    code = main(["run", "nginx", "hetero-lru", "--epochs", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "runtime" in out
    assert "mpki" in out
    assert "ops-per-sec" in out


def test_run_command_platform_knobs(capsys):
    code = main(
        [
            "run", "nginx", "slowmem-only", "--epochs", "3",
            "--ratio", "0.5", "--latency-factor", "2",
            "--bandwidth-factor", "2", "--llc-mib", "48",
        ]
    )
    assert code == 0


def test_compare_command(capsys):
    code = main(["compare", "nginx", "--epochs", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "slowmem-only" in out
    assert "gain_pct" in out


def test_figure_command_static(capsys):
    assert main(["figure", "table6"]) == 0
    out = capsys.readouterr().out
    assert "t_page_move_us" in out


@pytest.mark.parametrize("name", ["fig6", "fig7", "fig13"])
def test_warm_figure_builds_no_engine(name, tmp_path, monkeypatch, capsys):
    """A second ``repro figure`` over a result cache prints the stored
    rows; without a cache nothing is written."""
    built = []
    init = SimulationEngine.__init__

    def counted_init(self, *args, **kwargs):
        built.append(name)
        init(self, *args, **kwargs)

    def render() -> str:
        built.clear()
        assert main(["figure", name]) == 0
        return capsys.readouterr().out

    monkeypatch.setattr(SimulationEngine, "__init__", counted_init)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    uncached = render()
    assert built and not any(tmp_path.iterdir())

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    cold = render()
    assert built
    warm = render()
    assert not built
    assert warm == cold == uncached


def test_figure_all_runs_every_grid_in_one_run_specs_call(monkeypatch):
    """``repro figure all`` hands the union of its grids to one
    ``run_specs`` call: 273 requests for 204 distinct specs, which
    ``run_specs`` simulates once each, on every CPU the process may
    use.  The call is stopped before anything runs."""
    calls = []

    class Stop(Exception):
        pass

    def recording_run_specs(specs, **kwargs):
        calls.append((list(specs), kwargs))
        raise Stop

    monkeypatch.setattr(experiments, "run_specs", recording_run_specs)
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    with pytest.raises(Stop):
        main(["figure", "all"])
    [(specs, kwargs)] = calls
    assert (len(specs), len(set(specs))) == (273, 204)
    assert kwargs == {"max_workers": None, "cache": None}


def test_figure_command_unknown(capsys):
    assert main(["figure", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_app_raises():
    with pytest.raises(Exception):
        main(["run", "doom", "hetero-lru", "--epochs", "1"])


def test_trace_command_emits_chrome_trace_and_jsonl(tmp_path, capsys):
    trace_path = tmp_path / "run.trace.json"
    code = main(
        [
            "trace", "redis", "hetero-coordinated",
            "--epochs", "4", "--out", str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "traced" in out
    assert "profile" in out  # host self-profile breakdown printed
    trace = json.loads(trace_path.read_text())
    assert trace["displayTimeUnit"] == "ms"
    assert any(e["ph"] == "X" for e in trace["traceEvents"])
    jsonl_path = trace_path.with_suffix(".jsonl")
    lines = [
        json.loads(line)
        for line in jsonl_path.read_text().splitlines()
    ]
    assert lines[0]["type"] == "header"
    assert lines[-1]["type"] == "summary"
    samples = [l for l in lines if l["type"] == "sample"]
    assert len(samples) == 4
    # Per-epoch runtime sums exactly to the summary's final runtime.
    total = 0.0
    for sample in samples:
        total += sample["runtime_ns"]
    assert total == lines[-1]["runtime_ns"]


def test_timeline_summary_command(tmp_path, capsys):
    trace_path = tmp_path / "run.trace.json"
    jsonl_path = tmp_path / "run.jsonl"
    main(
        [
            "trace", "redis", "hetero-lru", "--epochs", "3",
            "--out", str(trace_path), "--jsonl", str(jsonl_path),
            "--no-profile",
        ]
    )
    capsys.readouterr()
    assert main(["timeline", str(jsonl_path)]) == 0
    out = capsys.readouterr().out
    assert "epoch" in out


def _trace_jsonl(tmp_path, name, seed):
    jsonl_path = tmp_path / name
    main(
        [
            "trace", "redis", "random", "--epochs", "3",
            "--seed", str(seed),
            "--out", str(tmp_path / (name + ".trace.json")),
            "--jsonl", str(jsonl_path), "--no-profile",
        ]
    )
    return jsonl_path


def test_timeline_diff_reports_first_divergence(tmp_path, capsys):
    a = _trace_jsonl(tmp_path, "a.jsonl", seed=7)
    b = _trace_jsonl(tmp_path, "b.jsonl", seed=8)
    capsys.readouterr()
    code = main(["timeline", "--diff", str(a), str(b)])
    assert code == 1
    out = capsys.readouterr().out
    assert "first divergent epoch: 0" in out


def test_timeline_diff_identical_files_exit_zero(tmp_path, capsys):
    a = _trace_jsonl(tmp_path, "a.jsonl", seed=7)
    b = _trace_jsonl(tmp_path, "b2.jsonl", seed=7)
    capsys.readouterr()
    code = main(["timeline", "--diff", str(a), str(b)])
    assert code == 0
    assert "identical" in capsys.readouterr().out


def test_timeline_requires_path_or_diff(capsys):
    assert main(["timeline"]) == 2


# ---------------------------------------------------------------------------
# Sweep observability: --metrics / --trace-sweep / --live and `repro report`.
# ---------------------------------------------------------------------------


def _sweep_args(tmp_path, *extra):
    return [
        "sweep", "--apps", "nginx", "--policies", "heap-od",
        "--ratios", "0.25", "--epochs", "3",
        "--cache-dir", str(tmp_path / "cache"), *extra,
    ]


def test_cli_sweep_writes_metrics_and_trace(tmp_path, capsys):
    metrics_path = tmp_path / "sweep.metrics.json"
    trace_path = tmp_path / "sweep.trace.json"
    code = main(_sweep_args(
        tmp_path, "--metrics", str(metrics_path),
        "--trace-sweep", str(trace_path),
    ))
    assert code == 0
    captured = capsys.readouterr()
    assert "gain_pct" in captured.out
    assert str(metrics_path) in captured.err
    assert "ui.perfetto.dev" in captured.err
    snapshot = json.loads(metrics_path.read_text())
    assert snapshot["version"] == 1
    specs_total = snapshot["metrics"]["sweep_specs_total"]["series"]
    assert sum(s["value"] for s in specs_total) == 2  # policy + baseline
    trace = json.loads(trace_path.read_text())
    assert trace["displayTimeUnit"] == "ms"
    assert all(e["pid"] == 2 for e in trace["traceEvents"])


def test_cli_sweep_metrics_prometheus_by_suffix(tmp_path, capsys):
    metrics_path = tmp_path / "sweep.prom"
    code = main(_sweep_args(tmp_path, "--metrics", str(metrics_path)))
    assert code == 0
    capsys.readouterr()
    text = metrics_path.read_text()
    assert "# TYPE sweep_specs_total counter" in text
    assert 'sweep_specs_total{status="ok"} 2' in text


def test_cli_sweep_live_degrades_without_tty(tmp_path, capsys):
    # capsys' stderr is not a TTY, so --live falls back to plain
    # per-spec progress lines instead of ANSI repaints.
    code = main(_sweep_args(tmp_path, "--live"))
    assert code == 0
    err = capsys.readouterr().err
    assert "\x1b[" not in err
    assert "[2/2]" in err


def test_cli_report_from_cache_dir(tmp_path, capsys):
    metrics_path = tmp_path / "sweep.metrics.json"
    main(_sweep_args(tmp_path, "--metrics", str(metrics_path)))
    capsys.readouterr()
    code = main([
        "report", "--cache-dir", str(tmp_path / "cache"),
        "--metrics", str(metrics_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "specs    : 2 (ok=2)" in out
    assert "cache    :" in out


def test_cli_report_json_format(tmp_path, capsys):
    main(_sweep_args(tmp_path))
    capsys.readouterr()
    journal = tmp_path / "cache" / "sweep-journal.jsonl"
    code = main(["report", "--journal", str(journal), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["specs"] == 2
    assert payload["statuses"] == {"ok": 2}
    assert payload["sources"] == {"serial": 2}


def test_cli_report_without_journal_is_usage_error(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
    assert main(["report"]) == 2
    assert "--journal" in capsys.readouterr().err


def test_cli_report_missing_journal_file(tmp_path, capsys):
    code = main(["report", "--journal", str(tmp_path / "nope.jsonl")])
    assert code == 1
    assert "no journal" in capsys.readouterr().err


def test_cli_sweep_accepts_retry_jitter(tmp_path, capsys):
    code = main(
        [
            "sweep", "--apps", "redis", "--policies", "hetero-lru",
            "--epochs", "2", "--quiet", "--no-cache",
            "--retries", "1", "--retry-jitter", "0.5",
        ]
    )
    assert code == 0
    assert "hetero-lru" in capsys.readouterr().out


def test_cli_serve_parser_defaults():
    args = build_parser().parse_args(
        ["serve", "--cache-dir", "/tmp/x", "--port", "8123"]
    )
    assert args.cache_dir == "/tmp/x"
    assert args.port == 8123
    assert args.host == "127.0.0.1"
    assert args.workers == 1
    assert args.queue_limit == 16
    assert args.client_limit == 4
    assert args.max_crashes == 2
    assert args.retries == 1
    assert args.unix_socket is None


def test_cli_serve_without_root_is_usage_error(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
    assert main(["serve"]) == 2
    assert "--cache-dir" in capsys.readouterr().err
