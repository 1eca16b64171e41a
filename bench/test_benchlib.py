"""Tests of the benchmark's own logic: span arithmetic, the percentile rule,
seeded input generation and the metric list in BENCHMARK.json."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
for path in (BENCH_DIR, REPO / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import benchstats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_direct_children_only():
    # 0 contains 1 and 3; 1 contains 2.
    parents = [-1, 0, 1, 0]
    durations = [10.0, 6.0, 2.0, 3.0]
    assert tracing.self_times(parents, durations) == [1.0, 4.0, 2.0, 3.0]


def test_tracer_nested_spans_with_fake_clock():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    calls, self_s = tracer.drain()
    assert calls == {"outer": 1, "inner": 2}
    assert self_s == {"outer": 5.0, "inner": 5.0}
    assert tracer.drain() == ({}, {})


def test_paused_tracer_records_nothing():
    tracer = tracing.Tracer()
    f = tracer.wrap("f", lambda x: x + 1)
    with tracer.paused():
        assert f(1) == 2
    assert tracer.drain()[0] == {}


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert benchstats.tail_percentile(n) == expected


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(3)
    xs = list(rng.exponential(size=37))
    for p in (0.0, 25.0, 50.0, 90.0, 100.0):
        assert benchstats.percentile(xs, p) == pytest.approx(np.percentile(xs, p), rel=1e-12)


def test_tomography_tables_repeat_for_a_seed():
    for i in range(6):
        a, b = workloads.make_table(7, i), workloads.make_table(7, i)
        assert a.counts == b.counts and a.exact == b.exact
        assert np.array_equal(a.rho, b.rho) and a.accidentals == b.accidentals
    assert workloads.make_table(7, 0).counts != workloads.make_table(8, 0).counts


def test_tomography_tables_span_the_count_scales():
    totals = [sum(row[2] for row in workloads.make_table(1, i).counts) / 16.0 for i in range(3)]
    for total, scale in zip(totals, workloads.COUNT_SCALES):
        assert 0.5 * scale < total < 2.0 * scale
    sparse = workloads.make_table(1, 0).counts
    assert any(row[2] == 0.0 for t in range(0, 30, 3) for row in workloads.make_table(1, t).counts)
    assert [(r[0], r[1]) for r in sparse] == list(workloads.SETTINGS)


def test_preset_sweep_seed_list_repeats(tmp_path):
    seeds = [workloads.op_seed(5, i) for i in range(12)]
    assert seeds == [workloads.op_seed(5, i) for i in range(12)]
    assert len(set(seeds)) == len(seeds)
    assert seeds != [workloads.op_seed(6, i) for i in range(12)]
    sweep = workloads.PresetSweep(5, tmp_path)
    ops = [sweep.prepare(i)["argv"] for i in range(12)]
    assert [argv[1] for argv in ops] == list(sweep.presets) * 2
    assert [int(argv[3]) for argv in ops] == seeds


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(tracing.LAYER_METRICS)


def test_traced_cli_run_counts_writers_and_restores_patches(tmp_path):
    from fiberlink import cli, polcore

    original = polcore.rotation_about
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = tracer.wrap("cli.main", cli.main)(["run", "teleport_ideal", "--out", str(tmp_path), "--quiet"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert polcore.rotation_about is original
    calls, _ = tracer.drain()
    outputs = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
    assert tracing.files_written(calls) == len(outputs) + 1
    assert calls["output.sha256_file"] == len(outputs)
    assert calls["protocols.run_teleport"] == 1
    report = tracing.layer_report(tracer, overhead_ratio=1.0)
    assert report["cli.main.calls"]["value"] == 1
