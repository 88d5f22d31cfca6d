"""Correctness oracle: every op's result is digested and checked.

A digest is the sha256 of the canonical JSON of
``dataclasses.asdict(RunResult)`` without ``timeline`` (enum keys by
value, sorted keys), or of a figure driver's rendered table.  An op
fails when it raises, when its digest differs from the committed seed-7
golden file, or when it differs from the first digest seen under the
same key in this run: an earlier pass, the untraced pass of a traced
run, or the in-process reference a sweep or serve outcome must match.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_seed7.json")

#: The only seed the golden file covers.
GOLDEN_SEED = 7

#: Failure messages kept for the report (the count is always exact).
_KEPT_FAILURES = 10


def _canonical(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {
            str(_canonical(key)): _canonical(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """Digest of one ``RunResult``; the timeline is not part of it."""
    data = dataclasses.asdict(dataclasses.replace(result, timeline=None))
    del data["timeline"]
    return sha256_text(
        json.dumps(_canonical(data), sort_keys=True, separators=(",", ":"))
    )


def cell_key(app: str, policy: str, ratio: float, epochs=None) -> str:
    """Oracle key of one (app, policy, ratio) cell; seed is per run."""
    key = f"cell/{app}/{policy}/r{ratio:g}"
    return key if epochs is None else f"{key}/e{epochs}"


def figure_key(name: str) -> str:
    return f"figure/{name}"


def load_golden() -> "dict[str, str]":
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["digests"]


class Oracle:
    """Counts ops and failed ops for one workload run."""

    def __init__(self, golden: "dict[str, str] | None" = None) -> None:
        self.golden = golden or {}
        self.seen: "dict[str, str]" = {}
        self.ops = 0
        self.failed = 0
        self.failures: "list[str]" = []

    def check(self, key: str, digest: str) -> bool:
        """Record one op's digest; ``False`` (and a failure) on mismatch."""
        self.ops += 1
        expected = self.golden.get(key)
        if expected is not None and digest != expected:
            return self._fail(key, "digest differs from golden_seed7.json")
        first = self.seen.setdefault(key, digest)
        if digest != first:
            return self._fail(key, "digest differs from the first run of "
                                   "this op")
        return True

    def error(self, key: str, message: str) -> None:
        """Record one op that raised or reported a failure."""
        self.ops += 1
        self._fail(key, message)

    def _fail(self, key: str, message: str) -> bool:
        self.failed += 1
        if len(self.failures) < _KEPT_FAILURES:
            self.failures.append(f"{key}: {message}")
        return False
