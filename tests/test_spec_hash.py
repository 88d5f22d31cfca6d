"""ExperimentSpec hashing: stability, sensitivity, and invalidation.

The cache key is the reproducibility contract: two runs share a cached
result only when *every* spec field matches and the simulator source
tree is byte-identical.  These tests pin both directions — identical
specs collide (stability) and any single-field change separates
(sensitivity) — plus the source-fingerprint invalidation path.
"""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.hw.throttle import DEFAULT_SLOWMEM, ThrottleConfig
from repro.sim.parallel import (
    CACHE_KEY_EXCLUDED,
    ExperimentSpec,
    make_spec,
    run_spec,
    source_fingerprint,
)
from repro.vmm.hotness import HotnessConfig

FINGERPRINT = "test-fingerprint"

#: One representative mutation per ExperimentSpec field.
FIELD_MUTATIONS = {
    "app": {"app": "redis"},
    "policy": {"policy": "heap-od"},
    "fast_ratio": {"fast_ratio": 0.5},
    "epochs": {"epochs": 9},
    "slow_gib": {"slow_gib": 4.0},
    "throttle": {"throttle": (2.0, 2.0)},
    "llc_mib": {"llc_mib": 48},
    "seed": {"seed": 11},
    "slow_device": {"slow_device": "remote-dram"},
    "policy_args": {"policy_args": {"scan_interval_epochs": 3}},
    "hotness": {"hotness": {"hot_density": 2.0}},
    "faults": {
        "faults": {"seed": 3, "faults": [{"kind": "channel-drop"}]}
    },
}


def base_spec(**overrides) -> ExperimentSpec:
    kwargs = dict(
        app="graphchi", policy="vmm-exclusive", fast_ratio=0.25, epochs=5,
    )
    kwargs.update(overrides)
    return make_spec(**kwargs)


def test_mutations_cover_every_field():
    assert set(FIELD_MUTATIONS) == {
        field.name for field in dataclasses.fields(ExperimentSpec)
    }, "add a mutation for each new ExperimentSpec field"


def test_same_spec_same_key():
    assert base_spec() == base_spec()
    assert hash(base_spec()) == hash(base_spec())
    assert base_spec().cache_key(FINGERPRINT) == base_spec().cache_key(
        FINGERPRINT
    )


@pytest.mark.parametrize("field", sorted(FIELD_MUTATIONS))
def test_any_field_change_changes_key(field):
    mutated = base_spec(**FIELD_MUTATIONS[field])
    assert mutated != base_spec()
    assert mutated.cache_key(FINGERPRINT) != base_spec().cache_key(
        FINGERPRINT
    ), f"changing {field} must produce a new cache key"


def field_names(cls) -> "list[str]":
    return [field.name for field in dataclasses.fields(cls)]


def test_spec_inputs_mirror_the_spec_fields():
    assert set(inspect.signature(make_spec).parameters) == set(
        field_names(ExperimentSpec)
    )
    extras = set(inspect.signature(run_spec).parameters) - {"spec"}
    assert extras == set(CACHE_KEY_EXCLUDED), "run inputs outside the key"
    assert all(reason.strip() for reason in CACHE_KEY_EXCLUDED.values())


def test_canonical_forms_key_every_field():
    plan = FaultPlan(seed=3, faults=(FaultSpec("device-derate"),))
    for value in (base_spec(faults=plan), plan, plan.faults[0]):
        assert sorted(value.canonical()) == sorted(field_names(type(value)))


def other_value(value):
    """A different value the config's validation still accepts."""
    if not value:
        return 1
    return value // 2 if isinstance(value, int) else value / 2


#: (make_spec argument, a config value, one of its fields).
CONFIG_FIELDS = [
    ("throttle", ThrottleConfig(2.0, 2.0), name)
    for name in field_names(ThrottleConfig)
] + [("hotness", HotnessConfig(), name) for name in field_names(HotnessConfig)]


@pytest.mark.parametrize(
    "argument,config,field", CONFIG_FIELDS,
    ids=[f"{argument}.{name}" for argument, _, name in CONFIG_FIELDS],
)
def test_any_config_field_change_changes_key(argument, config, field):
    changed = dataclasses.replace(
        config, **{field: other_value(getattr(config, field))}
    )
    assert base_spec(**{argument: changed}).cache_key(FINGERPRINT) != (
        base_spec(**{argument: config}).cache_key(FINGERPRINT)
    )


def test_fingerprint_change_changes_key():
    spec = base_spec()
    assert spec.cache_key("code-v1") != spec.cache_key("code-v2")


def test_canonical_form_is_json_stable():
    spec = base_spec(
        throttle=DEFAULT_SLOWMEM,
        policy_args={"b": 2, "a": 1},
        hotness=HotnessConfig(),
    )
    first = json.dumps(spec.canonical(), sort_keys=True)
    second = json.dumps(base_spec(
        throttle=(DEFAULT_SLOWMEM.latency_factor,
                  DEFAULT_SLOWMEM.bandwidth_factor),
        policy_args={"a": 1, "b": 2},
        hotness=dataclasses.asdict(HotnessConfig()),
    ).canonical(), sort_keys=True)
    assert first == second, (
        "ThrottleConfig/dict/HotnessConfig inputs must normalize to one "
        "canonical form"
    )


def test_normalization_sorts_mappings():
    one = make_spec("nginx", "hetero-lru", policy_args={"x": 1, "y": 2})
    two = make_spec("nginx", "hetero-lru", policy_args={"y": 2, "x": 1})
    assert one == two


def test_source_fingerprint_tracks_content(tmp_path):
    (tmp_path / "module.py").write_text("VALUE = 1\n")
    first = source_fingerprint(tmp_path)
    assert first == source_fingerprint(tmp_path), "memoized and stable"

    changed = tmp_path / "changed"
    changed.mkdir()
    (changed / "module.py").write_text("VALUE = 2\n")
    assert source_fingerprint(changed) != first, (
        "editing simulator source must change the fingerprint"
    )

    added = tmp_path / "added"
    added.mkdir()
    (added / "module.py").write_text("VALUE = 1\n")
    (added / "extra.py").write_text("")
    assert source_fingerprint(added) != first, (
        "adding a module must change the fingerprint"
    )

    renamed = tmp_path / "renamed"
    renamed.mkdir()
    (renamed / "other.py").write_text("VALUE = 1\n")
    assert source_fingerprint(renamed) != first, (
        "the fingerprint covers file paths, not just contents"
    )


def test_default_fingerprint_covers_simulator_package():
    fingerprint = source_fingerprint()
    assert len(fingerprint) == 64
    assert fingerprint == source_fingerprint(), "process-lifetime memo"


def test_unknown_device_preset_rejected():
    from repro.errors import SweepError

    with pytest.raises(SweepError, match="unknown slow-device preset"):
        make_spec("nginx", "hetero-lru", slow_device="quantum-foam")
