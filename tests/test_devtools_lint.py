"""heterolint: one positive + one negative fixture per rule, plus
suppression, JSON output, registry, and CLI coverage."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.devtools import lint as lint_module
from repro.devtools.lint import (
    Finding,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    register,
)
from repro.errors import LintError


def rule_hits(source, relpath="src/repro/sim/snippet.py", rule_id=None):
    report = lint_source(source, relpath=relpath)
    if rule_id is None:
        return report.findings
    return [f for f in report.findings if f.rule_id == rule_id]


# ----------------------------------------------------------------------
# unseeded-random
# ----------------------------------------------------------------------


def test_unseeded_random_flags_global_rng():
    src = "import random\nx = random.random()\n"
    assert rule_hits(src, rule_id="unseeded-random")


def test_unseeded_random_flags_unseeded_instance_and_wall_clock():
    src = "import random, time\nr = random.Random()\nt = time.time()\n"
    hits = rule_hits(src, rule_id="unseeded-random")
    assert len(hits) == 2


def test_unseeded_random_allows_seeded_instance():
    src = "import random\nr = random.Random(7)\ny = r.random()\n"
    assert not rule_hits(src, rule_id="unseeded-random")


def test_unseeded_random_sees_through_module_alias():
    src = "import random as rnd\nx = rnd.random()\nr = rnd.Random()\n"
    assert len(rule_hits(src, rule_id="unseeded-random")) == 2


def test_unseeded_random_flags_from_imports():
    src = (
        "from random import randint, shuffle as mix\n"
        "from time import monotonic\n"
        "x = randint(0, 9)\n"
        "mix([1, 2])\n"
        "t = monotonic()\n"
    )
    assert len(rule_hits(src, rule_id="unseeded-random")) == 3


def test_unseeded_random_flags_from_imported_bare_random_class():
    src = "from random import Random\nr = Random()\nok = Random(7)\n"
    hits = rule_hits(src, rule_id="unseeded-random")
    assert len(hits) == 1
    assert hits[0].line == 2


def test_unseeded_random_descends_into_comprehensions_and_lambdas():
    src = (
        "import random\n"
        "xs = [random.random() for _ in range(4)]\n"
        "key = lambda item: random.gauss(0.0, 1.0)\n"
    )
    assert len(rule_hits(src, rule_id="unseeded-random")) == 2


def test_unseeded_random_ignores_unrelated_names():
    src = (
        "import numpy.random as nprand\n"
        "from mylib import randint\n"
        "x = nprand.random()\n"
        "y = randint(3)\n"
    )
    assert not rule_hits(src, rule_id="unseeded-random")


# ----------------------------------------------------------------------
# foreign-raise
# ----------------------------------------------------------------------


def test_foreign_raise_flags_builtin_exception():
    src = "def f():\n    raise RuntimeError('boom')\n"
    assert rule_hits(src, rule_id="foreign-raise")


def test_foreign_raise_allows_repro_errors_and_reraise():
    src = (
        "from repro.errors import AllocationError\n"
        "def f():\n"
        "    try:\n"
        "        raise AllocationError('x')\n"
        "    except AllocationError as err:\n"
        "        raise\n"
    )
    assert not rule_hits(src, rule_id="foreign-raise")


def test_foreign_raise_allows_units_style_validation_allowlist():
    src = "def f(n):\n    raise ValueError('bad')\n"
    assert rule_hits(src, relpath="src/repro/sim/x.py", rule_id="foreign-raise")
    assert not rule_hits(src, relpath="src/repro/units.py", rule_id="foreign-raise")


def test_foreign_raise_allows_local_reproerror_subclass():
    src = (
        "from repro.errors import ReproError\n"
        "class LocalError(ReproError):\n"
        "    pass\n"
        "class DeeperError(LocalError):\n"
        "    pass\n"
        "def f():\n"
        "    raise DeeperError('x')\n"
    )
    assert not rule_hits(src, rule_id="foreign-raise")


# ----------------------------------------------------------------------
# magic-number
# ----------------------------------------------------------------------


def test_magic_number_flags_byte_constants():
    src = "CAPACITY = 4096\nCHUNK = 1024\n"
    assert len(rule_hits(src, rule_id="magic-number")) == 2


def test_magic_number_allows_page_count_idiom_and_units_py():
    src = "batch = 64 * 1024\nshift = 1 << 1024\n"
    assert not rule_hits(src, rule_id="magic-number")
    assert not rule_hits(
        "KIB = 1024\nPAGE_SIZE = 4096\n",
        relpath="src/repro/units.py",
        rule_id="magic-number",
    )


# ----------------------------------------------------------------------
# float-time-eq
# ----------------------------------------------------------------------


def test_float_time_eq_flags_equality_on_time_values():
    src = "def f(a_ns, b):\n    return a_ns == b\n"
    assert rule_hits(src, rule_id="float-time-eq")


def test_float_time_eq_allows_ordering():
    src = "def f(a_ns, b_ns):\n    return a_ns < b_ns or a_ns >= b_ns\n"
    assert not rule_hits(src, rule_id="float-time-eq")


# ----------------------------------------------------------------------
# mutable-default
# ----------------------------------------------------------------------


def test_mutable_default_flags_literal_and_constructor():
    src = "def f(x=[], y=dict()):\n    return x, y\n"
    assert len(rule_hits(src, rule_id="mutable-default")) == 2


def test_mutable_default_allows_none():
    src = "def f(x=None, y=()):\n    return x, y\n"
    assert not rule_hits(src, rule_id="mutable-default")


# ----------------------------------------------------------------------
# bare-except
# ----------------------------------------------------------------------


def test_bare_except_flagged():
    src = "try:\n    pass\nexcept:\n    pass\n"
    assert rule_hits(src, rule_id="bare-except")


def test_typed_except_allowed():
    src = "try:\n    pass\nexcept ValueError:\n    pass\n"
    assert not rule_hits(src, rule_id="bare-except")


# ----------------------------------------------------------------------
# swallowed-repro-error
# ----------------------------------------------------------------------


def test_swallowed_repro_error_flags_empty_handler():
    src = "try:\n    f()\nexcept AllocationError:\n    pass\n"
    assert rule_hits(src, rule_id="swallowed-repro-error")


def test_swallowed_repro_error_flags_tuple_and_ellipsis():
    src = "try:\n    f()\nexcept (ValueError, MigrationError):\n    ...\n"
    hits = rule_hits(src, rule_id="swallowed-repro-error")
    assert hits and "MigrationError" in hits[0].message


def test_swallowed_repro_error_allows_handled_degradation():
    # A handler that accounts, falls back, or continues a loop is a
    # degradation, not a swallow.
    src = (
        "for item in items:\n"
        "    try:\n"
        "        f(item)\n"
        "    except AllocationError:\n"
        "        continue\n"
        "try:\n"
        "    g()\n"
        "except AllocationError:\n"
        "    cost += 1\n"
    )
    assert not rule_hits(src, rule_id="swallowed-repro-error")


def test_swallowed_repro_error_ignores_foreign_exceptions():
    src = "try:\n    f()\nexcept KeyError:\n    pass\n"
    assert not rule_hits(src, rule_id="swallowed-repro-error")


def test_swallowed_repro_error_suppressible():
    src = (
        "try:\n    f()\n"
        "except AllocationError:  "
        "# heterolint: disable=swallowed-repro-error\n    pass\n"
    )
    report = lint_source(src, relpath="src/repro/sim/snippet.py")
    assert not [
        f for f in report.findings if f.rule_id == "swallowed-repro-error"
    ]
    assert [
        f for f in report.suppressed if f.rule_id == "swallowed-repro-error"
    ]


# ----------------------------------------------------------------------
# layer-import
# ----------------------------------------------------------------------


def test_layer_import_flags_upward_import():
    src = "from repro.guestos.kernel import GuestKernel\n"
    assert rule_hits(src, relpath="src/repro/hw/bad.py", rule_id="layer-import")


def test_layer_import_flags_sibling_import():
    src = "import repro.workloads.base\n"
    assert rule_hits(
        src, relpath="src/repro/guestos/bad.py", rule_id="layer-import"
    )


def test_layer_import_allows_downward_and_type_checking():
    src = (
        "from typing import TYPE_CHECKING\n"
        "from repro.mem.frames import FrameRange\n"
        "if TYPE_CHECKING:\n"
        "    from repro.vmm.migration import MigrationEngine\n"
    )
    assert not rule_hits(
        src, relpath="src/repro/guestos/good.py", rule_id="layer-import"
    )


# ----------------------------------------------------------------------
# unordered-placement
# ----------------------------------------------------------------------


def test_unordered_placement_flags_max_over_dict_view():
    src = "def pick(ratios):\n    return max(ratios.items())\n"
    assert rule_hits(
        src, relpath="src/repro/core/bad.py", rule_id="unordered-placement"
    )


def test_unordered_placement_flags_dict_loop_with_break():
    src = (
        "def pick(extents):\n"
        "    for extent in extents.values():\n"
        "        if extent.hot:\n"
        "            break\n"
    )
    assert rule_hits(
        src, relpath="src/repro/vmm/bad.py", rule_id="unordered-placement"
    )


def test_unordered_placement_allows_sorted_and_other_layers():
    sorted_src = (
        "def pick(ratios):\n"
        "    return max(sorted(ratios.items()), key=lambda kv: kv[1])\n"
    )
    assert not rule_hits(
        sorted_src, relpath="src/repro/core/good.py",
        rule_id="unordered-placement",
    )
    loop_src = "def f(d):\n    return max(d.items())\n"
    assert not rule_hits(
        loop_src, relpath="src/repro/sim/fine.py",
        rule_id="unordered-placement",
    )


# ----------------------------------------------------------------------
# no-print
# ----------------------------------------------------------------------


def test_no_print_flags_library_code():
    src = "def f(x):\n    print(x)\n    return x\n"
    hits = rule_hits(src, rule_id="no-print")
    assert len(hits) == 1
    assert hits[0].line == 2


def test_no_print_exempts_cli_package():
    src = "def report(msg):\n    print(msg)\n"
    assert not rule_hits(
        src, relpath="src/repro/cli.py", rule_id="no-print"
    )
    assert not rule_hits(
        src, relpath="src/repro/__main__.py", rule_id="no-print"
    )


def test_no_print_suppressible():
    src = "print('debug')  # heterolint: disable=no-print\n"
    report = lint_source(src, relpath="src/repro/sim/s.py")
    assert not [f for f in report.findings if f.rule_id == "no-print"]
    assert any(s.rule_id == "no-print" for s in report.suppressed)


def test_no_print_ignores_shadowed_name():
    src = "def f(print):\n    return print\n"
    assert not rule_hits(src, rule_id="no-print")


# ----------------------------------------------------------------------
# metrics-confinement
# ----------------------------------------------------------------------


def test_metrics_confinement_flags_import_outside_allowlist():
    src = "from repro.obs.metrics import MetricsRegistry\n"
    hits = rule_hits(
        src, relpath="src/repro/core/policy.py",
        rule_id="metrics-confinement",
    )
    assert len(hits) == 1
    assert "sim/parallel.py" in hits[0].message


def test_metrics_confinement_flags_plain_and_reexport_imports():
    src = (
        "import repro.obs.flight\n"
        "from repro.obs import SweepRecorder\n"
    )
    hits = rule_hits(
        src, relpath="src/repro/experiments/sweep.py",
        rule_id="metrics-confinement",
    )
    assert [f.line for f in hits] == [1, 2]


def test_metrics_confinement_allows_harness_and_obs_itself():
    src = "from repro.obs.flight import SweepRecorder\n"
    for relpath in (
        "src/repro/sim/parallel.py",
        "src/repro/cli.py",
        "src/repro/obs/flight.py",
        "src/repro/obs/__init__.py",
    ):
        assert not rule_hits(
            src, relpath=relpath, rule_id="metrics-confinement"
        ), relpath


def test_metrics_confinement_ignores_non_metrics_obs_imports():
    # Telemetry and sinks are fair game everywhere obs is importable;
    # only the host-metrics surface is confined.
    src = "from repro.obs import Telemetry, JsonlSink\n"
    assert not rule_hits(
        src, relpath="src/repro/experiments/sweep.py",
        rule_id="metrics-confinement",
    )


def test_metrics_confinement_does_not_mistake_jobs_for_obs():
    src = "from repro.obs.metrics import Counter\n"
    hits = rule_hits(
        src, relpath="src/repro/jobs/runner.py",
        rule_id="metrics-confinement",
    )
    assert len(hits) == 1  # "jobs/" is not "obs/"


def test_metrics_confinement_allows_serve_package():
    # The daemon mounts the registry on /metrics and labels its own
    # serve-side series; the whole package is part of the metrics plane.
    src = "from repro.obs.metrics import MetricsRegistry\n"
    for relpath in (
        "src/repro/serve/server.py",
        "src/repro/serve/__init__.py",
    ):
        assert not rule_hits(
            src, relpath=relpath, rule_id="metrics-confinement"
        ), relpath


# ----------------------------------------------------------------------
# serve-confinement
# ----------------------------------------------------------------------


def test_serve_confinement_flags_http_outside_serve():
    src = (
        "import http.server\n"
        "import socketserver\n"
        "from http.server import BaseHTTPRequestHandler\n"
    )
    hits = rule_hits(
        src, relpath="src/repro/sim/parallel.py",
        rule_id="serve-confinement",
    )
    assert [f.line for f in hits] == [1, 2, 3]


def test_serve_confinement_allows_serve_package():
    src = (
        "import socketserver\n"
        "from http.server import ThreadingHTTPServer\n"
    )
    assert not rule_hits(
        src, relpath="src/repro/serve/server.py",
        rule_id="serve-confinement",
    )


def test_serve_confinement_ignores_http_client_lookalikes():
    # Only the server-side stdlib modules are confined; generic net
    # modules and a local package named "httputil" are fair game.
    src = "import httputil\nimport json\n"
    assert not rule_hits(
        src, relpath="src/repro/cli.py", rule_id="serve-confinement"
    )


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


def test_line_suppression():
    src = "x = 4096  # heterolint: disable=magic-number\n"
    report = lint_source(src, relpath="src/repro/sim/s.py")
    assert not report.findings
    assert len(report.suppressed) == 1


def test_disable_next_line_suppression():
    src = (
        "# heterolint: disable-next-line=magic-number\n"
        "x = 4096\n"
        "y = 4096\n"
    )
    report = lint_source(src, relpath="src/repro/sim/s.py")
    assert [f.line for f in report.findings] == [3]
    assert [f.line for f in report.suppressed] == [2]


def test_file_suppression_and_all_wildcard():
    src = (
        "# heterolint: disable-file=magic-number\n"
        "x = 4096\n"
        "try:\n"
        "    pass\n"
        "except:  # heterolint: disable=all\n"
        "    pass\n"
    )
    report = lint_source(src, relpath="src/repro/sim/s.py")
    assert not report.findings
    assert len(report.suppressed) == 2


# ----------------------------------------------------------------------
# Output formats + runner
# ----------------------------------------------------------------------


def test_json_output_round_trips():
    report = lint_source("x = 4096\n", relpath="src/repro/sim/s.py")
    payload = json.loads(report.to_json())
    assert payload["finding_count"] == 1
    assert payload["findings"][0]["rule"] == "magic-number"
    assert payload["findings"][0]["line"] == 1
    assert "4096" in payload["findings"][0]["message"]


def test_human_output_has_location_and_summary():
    report = lint_source("x = 4096\n", relpath="src/repro/sim/s.py")
    text = report.format_human()
    assert "src/repro/sim/s.py:1:" in text
    assert "finding(s)" in text


def test_parse_error_becomes_finding():
    report = lint_source("def broken(:\n", relpath="src/repro/sim/s.py")
    assert report.findings[0].rule_id == "parse-error"


def test_lint_paths_walks_directories(tmp_path):
    pkg = tmp_path / "repro" / "hw"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("x = 4096\n")
    (pkg / "good.py").write_text("x = 1\n")
    report = lint_paths([tmp_path])
    assert report.files_checked == 2
    assert [f.rule_id for f in report.findings] == ["magic-number"]


def test_lint_paths_missing_path_raises():
    with pytest.raises(LintError):
        lint_paths(["/no/such/heterolint/path"])


def test_unknown_rule_id_raises():
    with pytest.raises(LintError):
        lint_source("x = 1\n", rule_ids=["no-such-rule"])


# ----------------------------------------------------------------------
# Registry pluggability
# ----------------------------------------------------------------------


def test_registry_rejects_duplicates_and_accepts_plugins():
    assert len(all_rules()) >= 8

    class NoTodoRule(Rule):
        rule_id = "no-todo"
        rationale = "test plugin"

        def check(self, ctx):
            for lineno, line in enumerate(ctx.source.splitlines(), start=1):
                if "TODO" in line:
                    yield Finding(
                        self.rule_id, ctx.relpath, lineno, 0, "todo found"
                    )

    register(NoTodoRule)
    try:
        with pytest.raises(LintError):
            register(NoTodoRule)  # duplicate id
        report = lint_source("# TODO: later\n", rule_ids=["no-todo"])
        assert [f.rule_id for f in report.findings] == ["no-todo"]
    finally:
        lint_module._REGISTRY.pop("no-todo", None)


def test_rule_without_id_rejected():
    class Nameless(Rule):
        pass

    with pytest.raises(LintError):
        register(Nameless)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_lint_clean_and_dirty(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["lint", str(clean)]) == 0
    capsys.readouterr()

    dirty = tmp_path / "dirty.py"
    dirty.write_text("x = 4096\n")
    assert main(["lint", str(dirty)]) == 1
    assert "magic-number" in capsys.readouterr().out


def test_cli_lint_json_format(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("x = 4096\n")
    assert main(["lint", str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["finding_count"] == 1


def test_cli_lint_unknown_rule_is_usage_error(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text("x = 1\n")
    assert main(["lint", str(target), "--rules", "bogus"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in all_rules():
        assert rule_id in out
