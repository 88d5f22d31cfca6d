"""Figure 2: the sensitivity sweep on the Intel NVM emulator (48 MB LLC).

"The Intel emulator platform has a 3x larger LLC (48 MB) ... As a result,
the application slowdown factor is lower for the same workloads."
"""

from conftest import once

from repro.experiments import run_figure


def test_fig2_nvm_emulator(benchmark, show):
    rows = once(benchmark, run_figure, name="fig2", epochs=60)
    show(rows, "Figure 2: NVM-emulator (48MB LLC) sensitivity")

    small_llc = {
        row["app"]: row
        for row in run_figure("fig1", epochs=60, include_remote_numa=False)
    }
    by_app = {row["app"]: row for row in rows}
    sweep = ["L:2,B:2", "L:5,B:5", "L:5,B:7", "L:5,B:9", "L:5,B:12"]
    for app, row in by_app.items():
        # Same qualitative trends as Figure 1 ...
        values = [row[c] for c in sweep]
        assert all(b >= a - 0.02 for a, b in zip(values, values[1:])), app
        # ... but the larger cache absorbs more traffic, so slowdowns are
        # never materially worse and are strictly lower for the apps with
        # cache-fittable hot sets.
        for config in sweep:
            assert row[config] <= small_llc[app][config] * 1.03, (app, config)
    assert by_app["leveldb"]["L:5,B:12"] < small_llc["leveldb"]["L:5,B:12"]
    assert by_app["redis"]["L:5,B:12"] < small_llc["redis"]["L:5,B:12"]
