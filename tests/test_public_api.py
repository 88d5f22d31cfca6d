"""Every public name a package lists resolves, and the documented
imports work.

The packages re-export only what their users import through them, so
this pins the other direction: an ``__all__`` entry left behind when a
re-export goes is an ``AttributeError`` on ``from package import *``.
"""

import importlib
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def _packages() -> "list[str]":
    base = Path(repro.__file__).parent
    return sorted(
        ".".join(("repro",) + init.parent.relative_to(base).parts)
        for init in base.rglob("__init__.py")
    )


def test_every_listed_public_name_resolves():
    checked = 0
    for name in _packages():
        package = importlib.import_module(name)
        public = getattr(package, "__all__", None)
        if public is None:
            continue
        missing = [item for item in public if not hasattr(package, item)]
        assert missing == [], f"{name}.__all__ lists {missing}"
        checked += 1
    assert checked >= 10


def test_documented_imports_work():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"## Key APIs\s+```python\n(.*?)```", readme, re.S)
    assert match, "README.md has no Key APIs code block"
    exec(compile(match.group(1), "README.md", "exec"), {})
    from repro.obs import Telemetry  # noqa: F401  (docs/observability.md)
