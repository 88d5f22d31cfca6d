"""``repro lint --changed``: git-scoped runs for pre-commit latency.

The shallow pass lints only the files git reports as modified or
untracked; the deep pass still analyzes the whole tree (it is
whole-program) but reports only findings inside the changed files'
reverse call-graph closure, so a finding anchored in an *unchanged
caller* of changed code still surfaces while the rest of the tree's
noise does not.
"""

from __future__ import annotations

import subprocess
import textwrap

import pytest

from repro.cli import main
from repro.devtools.flow import (
    changed_python_files,
    deep_lint_paths,
    scope_to_changed,
)


def _git(*argv, cwd):
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
        cwd=cwd, check=True, capture_output=True,
    )


def _make_repo(tmp_path, files):
    root = tmp_path / "proj"
    for relpath, body in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body), encoding="utf-8")
    _git("init", "-q", cwd=root)
    _git("add", "-A", cwd=root)
    _git("commit", "-q", "-m", "seed", cwd=root)
    return root


def test_changed_python_files_outside_git_is_none(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert changed_python_files([tmp_path]) is None


def test_changed_python_files_sees_modified_and_untracked(
    tmp_path, monkeypatch
):
    root = _make_repo(
        tmp_path, {"pkg/a.py": "x = 1\n", "pkg/b.py": "y = 2\n"}
    )
    monkeypatch.chdir(root)
    assert changed_python_files([root]) == set()
    (root / "pkg" / "a.py").write_text("x = 3\n", encoding="utf-8")
    (root / "pkg" / "new.py").write_text("z = 4\n", encoding="utf-8")
    changed = changed_python_files([root])
    assert {p.name for p in changed} == {"a.py", "new.py"}
    # Scoping respects the requested roots, not just the repo.
    assert changed_python_files([root / "nowhere"]) == set()


def test_cli_changed_scopes_shallow_findings(tmp_path, monkeypatch, capsys):
    # Both files carry the same shallow finding (a magic page constant);
    # only the modified one is reported.
    root = _make_repo(
        tmp_path,
        {
            "core/touched.py": "a = 1\n",
            "core/untouched.py": "pages = 4096\n",
        },
    )
    monkeypatch.chdir(root)
    (root / "core" / "touched.py").write_text(
        "pages = 4096\n", encoding="utf-8"
    )
    assert main(["lint", "--changed", str(root)]) == 1
    out = capsys.readouterr().out
    assert "touched.py" in out
    assert "untouched.py" not in out


def test_cli_changed_clean_when_nothing_changed(
    tmp_path, monkeypatch, capsys
):
    root = _make_repo(tmp_path, {"core/a.py": "pages = 4096\n"})
    monkeypatch.chdir(root)
    assert main(["lint", "--changed", str(root)]) == 0
    assert "no changed Python files" in capsys.readouterr().out


def test_scope_to_changed_keeps_reverse_caller_closure(tmp_path):
    # vmm/scan.py changes; core/driver.py (unchanged) calls into it, and
    # core/bystander.py does not.  Deep findings survive scoping in the
    # changed file and its caller, but not in the bystander.
    files = {
        "vmm/scan.py": """\
            def scan_cost():
                return 1
        """,
        "core/driver.py": """\
            from repro.vmm.scan import scan_cost

            def drive():
                return scan_cost()
        """,
        "core/bystander.py": """\
            def idle():
                return 0
        """,
    }
    root = tmp_path / "src" / "repro"
    for relpath, body in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body), encoding="utf-8")
    report, index = deep_lint_paths([root])
    # Synthesize one finding per file so scoping is observable even on
    # a clean toy tree.
    from repro.devtools.lint import Finding

    for name in ("vmm/scan.py", "core/driver.py", "core/bystander.py"):
        report.findings.append(
            Finding(
                rule_id="flow-unordered-flow",
                path=str(root / name),
                line=1,
                col=0,
                message=f"synthetic finding in {name}",
            )
        )
    changed = {(root / "vmm" / "scan.py").resolve()}
    scoped = scope_to_changed(report, index, changed)
    kept = {finding.path.rsplit("/", 1)[-1] for finding in scoped.findings}
    assert kept == {"scan.py", "driver.py"}


def test_cli_changed_deep_runs(tmp_path, monkeypatch, capsys):
    root = _make_repo(
        tmp_path, {"src/repro/core/a.py": "def f():\n    return 1\n"}
    )
    monkeypatch.chdir(root)
    (root / "src" / "repro" / "core" / "a.py").write_text(
        "def f():\n    return 2\n", encoding="utf-8"
    )
    assert (
        main(
            [
                "lint", "--changed", "--deep",
                str(root / "src" / "repro"),
            ]
        )
        == 0
    )
    assert "0 finding(s)" in capsys.readouterr().out
