import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fiberlink import cli, config, protocols, seeding, stabilizer
from fiberlink.output import read_csv_rows, sha256_file
from fiberlink.protocols import PROTOCOLS, RUNNERS, run_protocol

from conftest import on_arm_b_oracle


MINIMAL = """
[scenario]
protocol = delay-drift
seed = 111

[protocol]
days = 0.2
series_period_s = 600
"""


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def test_labeled_streams_are_deterministic_and_independent():
    a1 = seeding.stream(42, "channel.drift").normal(size=5)
    a2 = seeding.stream(42, "channel.drift").normal(size=5)
    b = seeding.stream(42, "polarimeter").normal(size=5)
    c = seeding.stream(43, "channel.drift").normal(size=5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_child_seed_is_stable():
    assert seeding.child_seed(1, "x") == seeding.child_seed(1, "x")
    assert seeding.child_seed(1, "x") != seeding.child_seed(1, "y")


# ---------------------------------------------------------------------------
# configuration parsing and validation
# ---------------------------------------------------------------------------

def test_minimal_scenario_parses_with_defaults():
    scn = config.loads(MINIMAL, name="mini")
    assert scn.protocol == "delay-drift"
    assert scn.seed == 111
    assert scn.name == "mini"
    assert scn[("channel", "pdl_db")] == 0.08
    assert scn[("stabilizer", "fp_threshold")] == 0.99


def test_missing_protocol_is_invalid():
    with pytest.raises(config.ConfigInvalid):
        config.loads("[scenario]\nseed = 3\n")


def test_threshold_out_of_bounds_names_field(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nprotocol = stabilize\n\n[stabilizer]\nfp_threshold = 1.2\n")
    issues = config.validate_file(path)
    assert len(issues) == 1
    issue = issues[0]
    assert issue.section == "stabilizer" and issue.key == "fp_threshold"
    assert "(0, 1]" in issue.message
    assert issue.line is not None


# Keys that no run reads are not in the schema, so `validate` rejects them.
@pytest.mark.parametrize("section, key, value", [
    ("instruments", "detector_efficiency", "0.8"),
    ("instruments", "detector_dark_rate_per_s", "0.5"),
    ("instruments", "detector_jitter_s", "5e-11"),
    ("channel", "background_rate_per_s", "19.7"),
    ("channel", "loss_budget", "link_q:10.4"),
    ("stabilizer", "drift_during_run", "true"),
    ("channel", "reference_frequency_hz", "3e14"),
    ("channel", "gate_time_s", "0.5"),
])
def test_deleted_key_is_unknown(tmp_path, section, key, value):
    path = tmp_path / "old.ini"
    path.write_text(MINIMAL + f"\n[{section}]\n{key} = {value}\n")
    issues = config.validate_file(path)
    assert [(i.section, i.key, i.message) for i in issues] == [(section, key, "unknown key")]


def test_trials_key_is_a_declared_field():
    assert all(p.trials_key is None or p.trials_key in p.fields for p in PROTOCOLS.values())


_ROOT = Path(__file__).resolve().parents[1]
# Where a reference counts: the package, the benchmark and the release
# criteria. A helper that only unit tests use belongs in tests/.
_REACHING = (
    sorted((_ROOT / "src" / "fiberlink").glob("*.py"))
    + sorted((_ROOT / "bench").glob("*.py"))
    + [_ROOT / "tests" / "test_acceptance.py"]
)


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced_names(node) -> set[str]:
    """Names, attributes and dot-separated parts of string constants under node.

    The string parts count because the benchmark patches by dotted name
    (`"PiezoController.rotation"`).
    """
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.split("."))
    return names


def _units(stmt) -> list[ast.AST]:
    """The parts of a top-level statement whose references count apart: a
    class's header and each statement of its body, else the statement."""
    if isinstance(stmt, ast.ClassDef):
        return [*stmt.decorator_list, *stmt.bases, *stmt.keywords, *stmt.body]
    return [stmt]


def test_every_definition_is_reached():
    # A top-level definition of the package passes when some statement
    # other than its own definition and `__all__` refers to it by name. A
    # method other than a dunder passes when something outside its own
    # body does, its class's other methods included.
    definitions = []  # (dotted name, name, the statement or method defining it)
    references: dict[str, list[tuple[ast.stmt, ast.AST]]] = {}
    for path in _REACHING:
        for stmt in ast.parse(path.read_text()).body:
            defined = _defined_names(stmt)
            if defined == ["__all__"]:
                continue
            package = path.parent.name == "fiberlink"
            if package:
                definitions += [(f"{path.stem}.{name}", name, stmt) for name in defined]
            for unit in _units(stmt):
                if (package and unit is not stmt and isinstance(unit, ast.FunctionDef)
                        and not unit.name.startswith("__")):
                    definitions.append((f"{path.stem}.{stmt.name}.{unit.name}", unit.name, unit))
                for name in _referenced_names(unit):
                    references.setdefault(name, []).append((stmt, unit))
    unreached = [
        dotted for dotted, name, where in definitions
        if all(where is stmt or where is unit for stmt, unit in references.get(name, []))
    ]
    assert unreached == []


def test_config_names_no_protocol():
    # config checks the shared sections; each protocol's own checks live in
    # its PROTOCOLS entry, so no protocol name appears in config
    tree = ast.parse((_ROOT / "src" / "fiberlink" / "config.py").read_text())
    named = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in PROTOCOLS]
    assert named == []


def _readme_reads() -> dict[str, set[tuple[str, str]]]:
    """The README's table of the shared keys each protocol's run reads; a
    section's `all` is each of its keys, `all but a, b` each but a and b."""
    table = {}
    for line in (_ROOT / "README.md").read_text().splitlines():
        row = re.fullmatch(r"\| `([a-z-]+)` \| (.+) \|", line)
        if row is None:
            continue
        keys = table.setdefault(row[1], set())
        for part in row[2].split("; ") if row[2] != "none" else ():
            section, names = re.fullmatch(r"`\[(\w+)\]` (.+)", part).groups()
            every = [key for s, key in config._FIELDS if s == section]
            if names == "all":
                names = every
            elif names.startswith("all but "):
                left_out = names.removeprefix("all but ").split(", ")
                assert set(left_out) <= set(every), part
                names = [key for key in every if key not in left_out]
            else:
                names = names.split(", ")
            keys.update((section, key) for key in names)
    return table


def test_readme_lists_the_keys_each_protocol_reads():
    assert _readme_reads() == {name: set(p.reads) for name, p in PROTOCOLS.items()}


# Inputs that `run` cannot use fail validation (exit 2) instead of crashing `run`.
@pytest.mark.parametrize("head, section, key, value", [
    ("[scenario]\nprotocol = teleport\n", "protocol", "input_states", "H,V,X,R"),
    ("[scenario]\nprotocol = drift-characterize\n", "channel", "day_start_hms", "banana"),
    ("[scenario]\nprotocol = stabilize\n", "channel", "pdl_axis", "0,0,0"),
    ("[scenario]\nprotocol = stabilize\n", "instruments", "piezo_limit_v", "1.0"),
    # the default trace_period_s = 10 and shortest tau_grid_s lag of 10 s
    ("[scenario]\nprotocol = drift-characterize\n", "protocol", "total_s", "5"),
    ("[scenario]\nprotocol = drift-characterize\n", "protocol", "tau_grid_s", "10,inf"),
    # exact counts from no pairs: every table empty, fidelity of I/4
    ("[scenario]\nprotocol = distribute-entanglement\n"
     "[protocol]\nintervals_s = 5\ntotal_per_interval_s = 5\n", "source", "pair_rate_per_s", "0"),
    # a search step wider than the range leaves `gradient` no in-range probe
    ("[scenario]\nprotocol = stabilize\n[protocol]\nn_trials = 1\n", "stabilizer", "du0_v", "10.5"),
    # a PDL spread that overflows 10 ** (-mean_db / 20) (OverflowError)
    ("[scenario]\nprotocol = pdl-characterize\n", "protocol", "det_pdl_sigma_db", "1e15"),
    ("[scenario]\nprotocol = pdl-characterize\n", "protocol", "det_pdl_sigma_db", "1e300"),
], ids=["input_states", "day_start_hms", "pdl_axis", "piezo_limit_v", "total_s", "non_finite",
        "no_pairs", "du0_v", "pdl_sigma_1e15", "pdl_sigma_1e300"])
def test_validate_rejects_what_run_would_crash_on(tmp_path, capsys, head, section, key, value):
    path = tmp_path / "bad.ini"
    text = head + f"\n[{section}]\n{key} = {value}\n"
    path.write_text(text)
    issues = config.validate_file(path)
    assert [(i.section, i.key, i.line) for i in issues] == [
        (section, key, text.splitlines().index(f"{key} = {value}") + 1)
    ]
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and key in err
    assert not (out / "manifest.json").exists()


# tau_grid_s entries the drift-characterize runner would drop or count twice
_DRIFT = "[scenario]\nprotocol = drift-characterize\n[protocol]\n"


@pytest.mark.parametrize("lines, messages", [
    # lag 40 > 100 s / 10 s: the 400 s row went missing without a word
    ("total_s = 100\ntau_grid_s = 10,20,400", ["entry 400 is a lag of 40 trace periods"]),
    ("tau_grid_s = -10,10", ["entry -10 must be > 0"]),
    ("tau_grid_s = 0,20", ["entry 0 must be > 0"]),
    # 10 s and 12 s are both lag 1: the lag-1 samples were counted twice
    ("tau_grid_s = 10,12", ["entries 10 and 12 both round to a lag of 1"]),
    ("total_s = 4000\ntau_grid_s = -10,10,12",
     ["entry -10 must be > 0", "entries 10 and 12 both round to a lag of 1"]),
    # round(inf) raised OverflowError inside `validate`
    ("total_s = 1e-299\ntrace_period_s = 1e-300\ntau_grid_s = 1e300",
     ["entry 1e+300 is a lag of inf trace periods; total_s covers 10"]),
    # the lag was printed as a 308-digit integer
    ("tau_grid_s = 10,1e308", ["entry 1e+308 is a lag of 1e+307 trace periods; total_s covers 400"]),
], ids=["lag_beyond_total", "negative", "zero", "same_lag", "issue_reproducer", "lag_overflow",
        "huge_lag"])
def test_validate_rejects_tau_grid_the_run_would_drop_or_repeat(tmp_path, capsys, lines, messages):
    path = tmp_path / "bad.ini"
    text = _DRIFT + lines + "\n"
    path.write_text(text)
    issues = config.validate_file(path)
    line = next(i for i, t in enumerate(text.splitlines(), 1) if t.startswith("tau_grid_s"))
    assert [(i.section, i.key, i.line) for i in issues] == [("protocol", "tau_grid_s", line)] * len(messages)
    for issue, message in zip(issues, messages):
        assert issue.message.startswith(message)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


# `run` walks total_s / trace_period_s drift steps; `validate` bounds that
# count. None of these scenarios is run: at the bound it is 10**6 steps.
@pytest.mark.parametrize("total_s, trace_period_s, rejected", [
    # the step count overflowed int() inside `validate` itself
    ("1e10", "1e-300", True),
    # passed `validate`, then asked `run` for 4e12 rotations
    ("4000", "1e-9", True),
    ("1e7", "10", False),
], ids=["overflow", "4e12_steps", "at_bound"])
def test_validate_bounds_the_drift_trace_length(tmp_path, capsys, total_s, trace_period_s, rejected):
    path = tmp_path / "trace.ini"
    text = _DRIFT + f"total_s = {total_s}\ntrace_period_s = {trace_period_s}\n"
    path.write_text(text)
    if not rejected:
        assert float(total_s) / float(trace_period_s) == protocols._MAX_TRACE_STEPS
    line = text.splitlines().index(f"trace_period_s = {trace_period_s}") + 1
    issues = config.validate_file(path)
    assert [(i.section, i.key, i.line) for i in issues] == (
        [("protocol", "trace_period_s", line)] if rejected else []
    )
    assert cli.main(["validate", str(path)]) == (2 if rejected else 0)
    assert "Traceback" not in capsys.readouterr().err


# `run` holds trace points - lag fidelities per tau_grid_s entry for its
# quantile surface; `validate` bounds their sum. None of these scenarios is
# run: 2,000 taus over 10**6 periods would hold 2e9 fidelities.
@pytest.mark.parametrize("taus, rejected", [
    (range(1, 11), False),  # 9,999,955 fidelities
    (range(1, 12), True),
    (range(1, 2001), True),
], ids=["at_bound", "past_bound", "2000_taus"])
def test_validate_bounds_the_drift_samples_held(tmp_path, capsys, taus, rejected):
    path = tmp_path / "taus.ini"
    text = _DRIFT + f"total_s = 1000000\ntrace_period_s = 1\ntau_grid_s = {','.join(map(str, taus))}\n"
    path.write_text(text)
    held = sum(10**6 + 1 - lag for lag in taus)
    assert (held > protocols._MAX_DRIFT_SAMPLES) == rejected
    issues = config.validate_file(path)
    assert [(i.section, i.key, i.line, i.message) for i in issues] == ([(
        "protocol", "tau_grid_s", 6,
        f"sum over tau_grid_s of (trace points - lag) = {held} samples; at most 10000000 per run",
    )] if rejected else [])
    assert cli.main(["validate", str(path)]) == (2 if rejected else 0)
    assert "Traceback" not in capsys.readouterr().err


# The stabilizer's iterations are a run length too. Neither value is run.
@pytest.mark.parametrize("iterations, rejected", [(10**6, False), (10**6 + 1, True)],
                         ids=["at_bound", "past_bound"])
def test_validate_bounds_max_iterations(tmp_path, capsys, iterations, rejected):
    path = tmp_path / "iterations.ini"
    path.write_text(f"[scenario]\nprotocol = stabilize\n[stabilizer]\nmax_iterations = {iterations}\n")
    issues = config.validate_file(path)
    assert [(i.section, i.key, i.line) for i in issues] == (
        [("stabilizer", "max_iterations", 4)] if rejected else []
    )
    assert cli.main(["validate", str(path)]) == (2 if rejected else 0)
    assert "Traceback" not in capsys.readouterr().err


# A stabilization reads at most 10 * max_iterations + 1 probe pairs, each
# after a piezo settle. A latency that made that time infinite exited 0 with
# duration_s = inf and "mean_duration_s": Infinity. Neither value is run.
@pytest.mark.parametrize("protocol, key, value, rejected", [
    ("stabilize", "polarimeter_latency_s", "1e308", True),
    ("stabilize", "piezo_settle_s", "1e308", True),
    # 2001 * 2 * (8e307 + 0.045) overflows
    ("distribute-entanglement", "switch_latency_s", "8e307", True),
    ("stabilize", "polarimeter_latency_s", "1e300", False),
], ids=["read", "settle", "distribute_switch", "finite"])
def test_validate_bounds_the_stabilization_time(tmp_path, capsys, protocol, key, value, rejected):
    path = tmp_path / "slow.ini"
    path.write_text(f"[scenario]\nprotocol = {protocol}\nseed = 1\n[instruments]\n{key} = {value}\n"
                    + ("[protocol]\nn_trials = 2\n" if protocol == "stabilize" else ""))
    issues = config.validate_file(path)
    assert [(i.section, i.key, i.line) for i in issues] == (
        [("instruments", key, 5)] if rejected else []
    )
    assert cli.main(["validate", str(path)]) == (2 if rejected else 0)
    err = capsys.readouterr().err
    assert "Traceback" not in err and ("must be finite" in err) == rejected


# A run sums up to n_trials stabilization times (stabilize) or one per window
# of an interval (distribute-entanglement) for their mean. Here each takes at
# least 8e307 s and at most 8.8e307 s, so three or five overflow the sum: the
# duty cycle exited 0 with duty_ratio 0.0, the stabilize run 3 after writing
# its trials CSV.
@pytest.mark.parametrize("protocol, runs, rejected", [
    ("stabilize", "n_trials = 2", False),
    ("stabilize", "n_trials = 3", True),
    ("distribute-entanglement", "intervals_s = 20\ntotal_per_interval_s = 40", False),
    ("distribute-entanglement", "intervals_s = 20\ntotal_per_interval_s = 100", True),
], ids=["two_trials", "three_trials", "two_windows", "five_windows"])
def test_validate_bounds_the_summed_stabilization_time(tmp_path, capsys, protocol, runs, rejected):
    path = tmp_path / "slow.ini"
    path.write_text(f"[scenario]\nprotocol = {protocol}\nseed = 1\n[instruments]\n"
                    "polarimeter_latency_s = 4e306\n[stabilizer]\nmax_iterations = 1\n"
                    f"fp_threshold = 0.999999\n[protocol]\n{runs}\n")
    issues = config.validate_file(path)
    assert [(i.section, i.key, i.line) for i in issues] == (
        [("instruments", "polarimeter_latency_s", 5)] if rejected else []
    )
    out = tmp_path / "out"
    code = cli.main(["run", str(path), "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert "Traceback" not in err and ("must be finite" in err) == rejected
    if rejected:
        assert code == 2 and not out.exists()
    elif protocol == "stabilize":
        assert code == 0
        mean = json.loads((out / "stabilize_summary.json").read_text())["mean_duration_s"]
        assert 8e307 <= mean < math.inf
    else:
        assert code == 0
        _, (row,) = read_csv_rows(out / "dutycycle_summary.csv")
        assert int(row[5]) == 2 and 0.0 < float(row[6]) < 1e-306  # n_stabilizations, duty_ratio


_DELAY = "[scenario]\nprotocol = delay-drift\n[protocol]\n"
_DISTRIBUTE = "[scenario]\nprotocol = distribute-entanglement\n"


# `validate` counts an interval's windows with the window plan `duty_cycle_run`
# walks. It took ceil(2.1 / 0.7) = 4 windows where the run walks 3, and
# rejected a run whose three stabilizations take a finite 1.65e308 s at most.
def test_validate_counts_the_windows_duty_cycle_run_walks(tmp_path, capsys):
    path = tmp_path / "windows.ini"
    path.write_text(_DISTRIBUTE + "seed = 1\n[instruments]\npolarimeter_latency_s = 2.5e306\n"
                    "[stabilizer]\nmax_iterations = 1\n[protocol]\nintervals_s = 0.7\ntotal_per_interval_s = 2.1\n")
    assert config.validate_file(path) == []
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    _, rows = read_csv_rows(out / "dutycycle.csv")
    assert [row[1] for row in rows] == ["0", "1", "2"]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


# Both delay series stay within the swing of zero, and the correlation squares
# their deviations: at temp_amplitude_k = 1e307 the run printed numpy overflow
# warnings and exited 3 after writing delay_series.csv. The default link
# turns a kelvin into 95.5944 ps of loop delay, so an amplitude of 5e147 K
# swings the delays by 9.6e149 ps, inside the 1e150 ps bound, and 6e147 K
# past it.
@pytest.mark.parametrize("extra, key, rejected", [
    ("temp_amplitude_k = 5e147\n", None, False),
    ("temp_amplitude_k = 6e147\n", "temp_amplitude_k", True),
    ("temp_amplitude_k = 1e307\n", "temp_amplitude_k", True),
    ("temp_trend_k_per_day = -2e149\n", "temp_trend_k_per_day", True),
    ("temp_noise_k = 1e148\n", "temp_noise_k", True),
    ("measurement_noise_ps = 2e149\n", "measurement_noise_ps", True),
    ("measurement_noise_ps = 9e148\n", None, False),
], ids=["amplitude_inside", "amplitude_past", "amplitude_overflow", "trend", "temp_noise",
        "measurement_noise", "measurement_noise_inside"])
def test_validate_bounds_the_delay_swing(tmp_path, capsys, extra, key, rejected):
    text = _DELAY + "days = 0.1\n" + extra
    path = tmp_path / "hot.ini"
    path.write_text(text)
    issues = config.validate_file(path)
    assert [(i.section, i.key, i.line) for i in issues] == (
        [("protocol", key, 5)] if rejected else []
    )
    out = tmp_path / "out"
    code = cli.main(["run", str(path), "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    if rejected:
        assert code == 2 and "at most 1e+150 ps" in err and not out.exists()
        return
    assert code == 0
    summary = json.loads((out / "delay_summary.json").read_text())
    assert all(math.isfinite(v) for v in summary.values())
    _, rows = read_csv_rows(out / "delay_series.csv")
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_validate_requires_a_finite_delay_scale(tmp_path):
    path = tmp_path / "scale.ini"
    path.write_text(_DELAY + "days = 0.1\n[channel]\noverhead_km = 1e200\n"
                    "temp_sensitivity_ps_per_km_k = 1e200\n")
    assert [(i.section, i.key, i.line) for i in config.validate_file(path)] == [
        ("channel", "temp_sensitivity_ps_per_km_k", 7)]
    assert cli.main(["validate", str(path)]) == 2


# Each run holds or walks its series samples, drift steps, loss samples or
# trials one by one; `validate` bounds their count. None of these is run.
@pytest.mark.parametrize("text, key, rejected", [
    # OverflowError from int(days * 86400 / series_period_s) in `run`
    (_DELAY + "days = 1e10\nseries_period_s = 1e-300\n", "series_period_s", True),
    # MemoryError: 1.7e14 samples at the default days
    (_DELAY + "series_period_s = 1e-9\n", "series_period_s", True),
    (_DELAY + "days = 10\nseries_period_s = 0.864\n", "series_period_s", False),
    # 5e9 windows
    (_DISTRIBUTE + "[protocol]\nintervals_s = 1e-9\ntotal_per_interval_s = 5\n",
     "total_per_interval_s", True),
    # 5e9 drift steps
    (_DISTRIBUTE + "[channel]\ndrift_dt_s = 1e-9\n[protocol]\nintervals_s = 5\n"
     "total_per_interval_s = 5\n", "total_per_interval_s", True),
    # 500,000 drift steps of 1 s per interval
    (_DISTRIBUTE + "[protocol]\nintervals_s = 5,20\ntotal_per_interval_s = 500000\n",
     "total_per_interval_s", False),
    ("[scenario]\nprotocol = pdl-characterize\n[protocol]\nn_samples = 1000001\n", "n_samples", True),
    ("[scenario]\nprotocol = stabilize\n[protocol]\nn_trials = 1000001\n", "n_trials", True),
    # one window of 1e9 drift steps of 1 s, which a count of
    # total_per_interval_s / min(interval, drift_dt_s) = 5 steps let through
    (_DISTRIBUTE + "[protocol]\nintervals_s = 1e9\ntotal_per_interval_s = 5\n",
     "total_per_interval_s", True),
], ids=["delay_overflow", "delay_memory", "delay_at_bound", "distribute_windows",
        "distribute_drift_steps", "distribute_at_bound", "pdl_samples", "stabilize_trials",
        "distribute_one_long_window"])
def test_validate_bounds_the_run_length(tmp_path, capsys, text, key, rejected):
    path = tmp_path / "long.ini"
    path.write_text(text)
    line = next(i for i, t in enumerate(text.splitlines(), 1) if t.startswith(key))
    issues = config.validate_file(path)
    assert [(i.section, i.key, i.line) for i in issues] == (
        [("protocol", key, line)] if rejected else []
    )
    assert cli.main(["validate", str(path)]) == (2 if rejected else 0)
    assert "Traceback" not in capsys.readouterr().err


_PDL = "[scenario]\nprotocol = pdl-characterize\n[protocol]\n"


# Row i of pdl_series.csv has t_s = i * sample_period_s; `validate` requires
# the last, (n_samples - 1) * sample_period_s, to be finite.
@pytest.mark.parametrize("n_samples, period, rejected", [
    # exited 0 with t_s = inf in the third row
    ("3", "1e308", True),
    ("1000000", "1e303", True),
    ("3", "8e307", False),
], ids=["inf_third_row", "inf_last_row", "finite"])
def test_validate_requires_finite_pdl_sample_times(tmp_path, capsys, n_samples, period, rejected):
    path = tmp_path / "pdl.ini"
    text = _PDL + f"n_samples = {n_samples}\nsample_period_s = {period}\n"
    path.write_text(text)
    line = text.splitlines().index(f"sample_period_s = {period}") + 1
    issues = config.validate_file(path)
    assert [(i.section, i.key, i.line) for i in issues] == (
        [("protocol", "sample_period_s", line)] if rejected else []
    )
    out = tmp_path / "out"
    code = cli.main(["run", str(path), "--out", str(out), "--quiet"])
    assert "Traceback" not in capsys.readouterr().err
    if rejected:
        assert code == 2 and not (out / "manifest.json").exists()
    else:
        assert code == 0
        _, rows = read_csv_rows(out / "pdl_series.csv")
        assert [float(row[1]) for row in rows] == [0.0, 8e307, 1.6e308]


# Each PDL mean and spread is at most 100 dB (a link mean of 1e15 dB exited 0
# on a 1e15 dB fiber estimate); at that bound every output stays finite.
def test_validate_bounds_the_pdl_means_and_spreads(tmp_path):
    path = tmp_path / "pdl.ini"
    keys = ("link_pdl_mean_db", "link_pdl_sigma_db", "det_pdl_mean_db", "det_pdl_sigma_db")
    for key in keys:
        path.write_text(_PDL + f"{key} = 100.5\n")
        assert [(i.section, i.key) for i in config.validate_file(path)] == [("protocol", key)]
    path.write_text(_PDL + "n_samples = 100000\n" + "".join(f"{key} = 100\n" for key in keys))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
    _, rows = read_csv_rows(out / "pdl_series.csv")
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    assert all(math.isfinite(v) for v in json.loads((out / "pdl_summary.json").read_text()).values())


# A run is held to numpy's overflow, invalid and divide-by-zero errors, and
# an ArithmeticError ends it with exit 3 and one line, not a traceback or an
# inf or nan in its outputs.
@pytest.mark.parametrize("fail", [
    lambda: np.exp(np.array([1e3])),
    lambda: np.array([0.0]) / 0.0,
    lambda: np.array([1.0]) / 0.0,
    lambda: 10.0 ** 1e3,  # a Python float's OverflowError
], ids=["numpy_overflow", "numpy_invalid", "numpy_divide", "python_overflow"])
def test_run_ends_an_arithmetic_error_with_exit_3(tmp_path, capsys, monkeypatch, fail):
    monkeypatch.setitem(RUNNERS, "pdl-characterize", lambda scn, out: [fail()])
    out = tmp_path / "out"
    assert cli.main(["run", "pdl_characterize", "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("protocol failed: ")
    assert not (out / "manifest.json").exists()


# `validate` counts a distribute-entanglement run's drift steps with the window
# plan that `duty_cycle_run` walks. Small grids keep every run cheap.
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(intervals=st.lists(st.sampled_from(("0.7", "1", "2.5", "5")), min_size=1, max_size=3, unique=True),
       total=st.sampled_from(("1e-300", "0.5", "1", "2.1", "7.5")),
       drift_dt=st.sampled_from(("0.3", "1", "2", "10")))
def test_validate_counts_the_drift_steps_duty_cycle_run_walks(intervals, total, drift_dt):
    scn = config.loads(_DISTRIBUTE + f"[channel]\ndrift_dt_s = {drift_dt}\n[stabilizer]\nmax_iterations = 1\n"
                       f"[protocol]\nintervals_s = {','.join(intervals)}\ntotal_per_interval_s = {total}\n")
    steps = 0
    for interval in scn.protocol_value("intervals_s"):
        _, _, spiked = stabilizer.duty_cycle_run(
            scn.make_channel(), scn.make_piezo(), scn.make_polarimeter(), scn.make_stabilizer_config(),
            transmit_window_s=interval, total_s=scn.protocol_value("total_per_interval_s"),
            drift_dt_s=scn[("channel", "drift_dt_s")],
        )
        steps += spiked.size
    assert protocols._duty_cycle_steps(scn.values) == steps


# Each intervals_s entry labels its random streams with six significant
# digits; two entries that share a label drew the same drift, polarimeter
# and count streams, so `validate` rejects them and names both entries.
@pytest.mark.parametrize("intervals, shared", [
    ("5,5.0000001", ("5.0", "5.0000001")),
    ("20,5,20", ("20.0", "20.0")),
    ("5,5.00001", None),
], ids=["six_digits", "repeated", "distinct"])
def test_validate_rejects_intervals_that_share_stream_labels(tmp_path, capsys, intervals, shared):
    path = tmp_path / "intervals.ini"
    text = _DISTRIBUTE + f"[protocol]\nintervals_s = {intervals}\ntotal_per_interval_s = 20\n"
    path.write_text(text)
    issues = config.validate_file(path)
    if shared is None:
        assert issues == []
        return
    (issue,) = issues
    assert (issue.section, issue.key, issue.line) == ("protocol", "intervals_s", 4)
    assert issue.message.startswith(f"entries {shared[0]} and {shared[1]} both label their random streams")
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"entries {shared[0]} and {shared[1]}" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


# `--trials` is held to the same bounds as the key it sets, run length included.
@pytest.mark.parametrize("argv", [
    ["ppe_dutycycle", "--trials", "1000000000000"],
    ["stabilize_demo", "--trials", "1000001"],
    ["pdl_characterize", "--trials", "1000001"],
], ids=["drift_steps", "n_trials", "n_samples"])
def test_cli_trials_override_is_held_to_the_run_length(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main(["run", *argv, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err and f"{argv[1]} {argv[2]}" in err
    assert not (out / "manifest.json").exists()


# teleport sends counts_per_basis shots along each axis: 0.5 sent none and
# divided by zero, 100.5 sent 100, 1e19 overflowed numpy's C long. The other
# two protocols draw Poisson counts of any mean; ion-photon's draw at 0.5 per
# basis and seed 7 has no count in HH, HV, VH and VV, so its run fails cleanly.
@pytest.mark.parametrize("protocol, value, rejected", [
    ("teleport", "0.5", True),
    ("teleport", "1e19", True),
    ("teleport", "1", False),
    ("teleport", "100.5", True),
    ("ion-photon", "0.5", False),
])
def test_teleport_counts_per_basis_are_whole_shots(tmp_path, capsys, protocol, value, rejected):
    path = tmp_path / "counts.ini"
    text = (f"[scenario]\nprotocol = {protocol}\nseed = 7\n[protocol]\n"
            f"apply_link_to_arm_b = false\ncounts_per_basis = {value}\n")
    path.write_text(text)
    issues = config.validate_file(path)
    assert [(i.key, i.line) for i in issues] == ([("counts_per_basis", 6)] if rejected else [])
    out = tmp_path / "out"
    code = cli.main(["run", str(path), "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if protocol == "ion-photon":
        assert code == 3 and "no counts in the HH, HV, VH and VV settings" in err
    else:
        assert code == (2 if rejected else 0)


def test_percent_sign_in_a_value_is_literal(tmp_path):
    path = tmp_path / "pct.ini"
    path.write_text("[scenario]\nprotocol = stabilize\nname = 100%\n")
    assert config.validate_file(path) == []
    assert config.load(path).name == "100%"


def test_unknown_protocol_leaves_protocol_section_unread():
    # the [protocol] keys depend on the protocol, so only the protocol is reported
    issues = config._collect("[scenario]\nprotocol = quantum-leap\n[protocol]\ndays = -1\nfoo = 2\n")[1]
    assert [(i.section, i.key, i.line) for i in issues] == [("scenario", "protocol", 2)]
    assert "violates bound one of" in issues[0].message


def test_validate_accepts_every_tau_grid_lag_the_run_covers(tmp_path):
    path = tmp_path / "ok.ini"
    path.write_text(_DRIFT + "total_s = 100\ntau_grid_s = 4,20,100\n")
    assert config.validate_file(path) == []
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    _, rows = read_csv_rows(tmp_path / "out" / "quantile_curves.csv")
    assert [float(r[0]) for r in rows] == [10.0, 20.0, 100.0]


# Candidate values per key: edges of the declared bounds, one value past an
# edge, and the default. Each protocol's size keys take values that keep every
# run cheap, or that `validate` must reject.
_GENERIC = {
    str: ("run", "100%"),
    int: ("0", "1", "3"),
    float: ("0", "-1e-9", "1e-9", "1", "1e3"),
    bool: ("true", "false"),
    "vec3": ("0,0,0", "0,0,1", "1,1,1"),
    "hms": ("00:00", "06:00", "22:00", "24:00"),
    "labels": ("H,H,H,H", "X,V"),
}
_SIZES = {
    "pdl-characterize": {"n_samples": ("1", "2", "3", "500", "1000001")},
    "drift-characterize": {
        "total_s": ("0", "5", "10", "40", "4000"),
        "trace_period_s": ("-1", "1", "10", "40"),
        "tau_grid_s": ("10", "1,20", "100", "10,inf", "10,20,40,80,160"),
    },
    "stabilize": {"n_trials": ("0", "1", "3", "1000001")},
    "distribute-entanglement": {
        "intervals_s": ("5", "1,5", "0", "1e-9", "5,20,60,160"),
        "total_per_interval_s": ("0", "1", "5", "1e10"),
        "counts_per_basis": ("0", "0.001", "0.5", "2", "1e3", "1e19"),
    },
    "ion-photon": {"counts_per_basis": ("0", "0.001", "0.5", "2", "1e3", "1e19")},
    "teleport": {"counts_per_basis": ("0", "0.5", "1", "2", "1e19")},
    "delay-drift": {
        "days": ("0", "0.01", "2", "1e10"),
        "series_period_s": ("-1", "600", "1e-9", "1e-300"),
    },
}


def _candidates(spec, sizes=None):
    kind, default = spec[:2]
    return sizes or _GENERIC.get(kind, ()) + (str(default),)


# protocol -> (section, key) -> candidate values: the [scenario] keys, the
# shared keys the protocol reads and its own [protocol] keys
_CANDIDATES = {
    name: {
        **{k: _candidates(spec) for k, spec in config._FIELDS.items()
           if k in protocol.reads or k[0] == "scenario" and k[1] != "protocol"},
        **{("protocol", key): _candidates(spec, _SIZES[name].get(key))
           for key, spec in protocol.fields.items()},
    }
    for name, protocol in PROTOCOLS.items()
}
# protocol -> the cheapest settings of its size keys
_CHEAP = {
    "pdl-characterize": {},
    "drift-characterize": {("protocol", "total_s"): "10", ("protocol", "tau_grid_s"): "10"},
    "stabilize": {("protocol", "n_trials"): "1", ("stabilizer", "max_iterations"): "3"},
    "distribute-entanglement": {("protocol", "intervals_s"): "5",
                                ("protocol", "total_per_interval_s"): "5",
                                ("stabilizer", "max_iterations"): "3"},
    "ion-photon": {("stabilizer", "max_iterations"): "3"},
    "teleport": {("stabilizer", "max_iterations"): "3"},
    "delay-drift": {("protocol", "days"): "0.01"},
}


def _scenario_text(protocol, values, base=_CHEAP) -> str:
    sections = {"scenario": {"protocol": protocol, "seed": "1"}}
    for (section, key), value in {**base[protocol], **values}.items():
        sections.setdefault(section, {})[key] = value
    return "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
        for section, entries in sections.items()
    )


@st.composite
def _values(draw, protocol):
    candidates = _CANDIDATES[protocol]
    chosen = draw(st.lists(st.sampled_from(list(candidates)), unique=True, max_size=4))
    return {k: draw(st.sampled_from(candidates[k])) for k in chosen}


# Each example runs one scenario per protocol. Each @example after the first
# five is a scenario that `validate` passed and whose run then raised or
# exited 0 with an estimate from an empty count table, or that made `validate`
# itself raise; the protocols it does not apply to reject it.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(values=st.data(), trials=st.sampled_from((None, -1, 0, 1, 2, 10**12)))
@example(values={("ion", "decay_per_s"): "0"}, trials=None)  # read by ion-photon and teleport only
@example(values={("channel", "pdl_axis"): "0,0,0"}, trials=None)
@example(values={("instruments", "piezo_limit_v"): "1"}, trials=None)
@example(values={("protocol", "total_s"): "5"}, trials=None)
@example(values={}, trials=0)
@example(values={("protocol", "counts_per_basis"): "0.5"}, trials=None)
@example(values={("protocol", "counts_per_basis"): "1e19"}, trials=None)
# ion-photon: no count at all, then counts only outside HH, HV, VH and VV
@example(values={("protocol", "counts_per_basis"): "0.001"}, trials=None)
@example(values={("protocol", "counts_per_basis"): "2"}, trials=None)
@example(values={("protocol", "counts_per_basis"): "2", ("scenario", "seed"): "3"}, trials=None)
@example(values={("protocol", "days"): "1e10", ("protocol", "series_period_s"): "1e-300"},
         trials=None)
@example(values={("protocol", "series_period_s"): "1e-9"}, trials=None)
@example(values={("protocol", "intervals_s"): "1e-9"}, trials=None)
@example(values={("channel", "drift_dt_s"): "1e-9"}, trials=None)
@example(values={}, trials=10**12)
@example(values={("scenario", "name"): "100%"}, trials=None)
@example(values={("protocol", "total_s"): "1e-299", ("protocol", "trace_period_s"): "1e-300",
                 ("protocol", "tau_grid_s"): "1e300"}, trials=None)
def test_valid_scenario_runs_or_fails_cleanly(values, trials):
    for protocol in sorted(PROTOCOLS):
        # a dict in an @example, else the st.data() to draw one from
        drawn = values if isinstance(values, dict) else values.draw(_values(protocol), label=protocol)
        unread = [k for k in drawn
                  if k[0] not in ("scenario", "protocol") and k not in PROTOCOLS[protocol].reads]
        _runs_or_fails_cleanly(_scenario_text(protocol, drawn), trials, unread)


def _runs_or_fails_cleanly(text, trials, unread=()):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.ini"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["validate", str(path), "--quiet"])  # raises nothing
        if unread:  # an @example's shared keys that the protocol does not read: one line each
            lines = err.getvalue().splitlines()
            assert code == 2 and len(lines) == len(unread), text + err.getvalue()
            assert all("not read by protocol" in line for line in lines), err.getvalue()
            return
        if code != 0:
            assert code == 2 and err.getvalue(), text
            return
        argv = ["run", str(path), "--out", str(Path(tmp) / "out"), "--quiet"]
        if trials is not None:
            argv += ["--trials", str(trials)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code == 0 or (code in (2, 3) and len(err.getvalue().splitlines()) == 1), (
            text + err.getvalue())
        if code == 0:
            _check_estimates(Path(tmp) / "out", text)


# Each float key a protocol reads, set alone to an extreme on the protocol's
# cheap scenario, runs or fails cleanly; det_pdl_sigma_db = 1e15 and 1e300
# raised OverflowError before the PDL bounds.
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_extreme_float_keys_run_or_fail_cleanly(protocol):
    fields = {**config._FIELDS, **{("protocol", k): v for k, v in PROTOCOLS[protocol].fields.items()}}
    for key in _CANDIDATES[protocol]:
        if fields[key][0] in (float, "floats"):
            for value in ("1e15", "1e300", "1e-300"):
                _runs_or_fails_cleanly(_scenario_text(protocol, {key: value}), None)


def _check_estimates(out, text):
    """Every number a run wrote to a CSV is finite, every fidelity and purity
    is in [0, 1], and each state tomography it wrote came from counts in HH,
    HV, VH and VV."""
    values = []
    for path in out.glob("*.csv"):
        header, rows = read_csv_rows(path)
        bad = [(c, cell) for row in rows for c, cell in zip(header, row) if cell.lstrip("-") in ("inf", "nan")]
        assert not bad, f"{text}{path.name}: {bad[:3]}"
        values += [(path.name, c, row[i]) for i, c in enumerate(header)
                   if "fidelity" in c or "purity" in c for row in rows]
    for path in out.glob("*.json"):
        values += [(path.name, k, v) for k, v in json.loads(path.read_text()).items()
                   if "fidelity" in k or "purity" in k]
    for name, key, value in values:
        assert 0.0 <= float(value) <= 1.0, f"{text}{name}: {key} = {value}"
    if (out / "tomo_counts.csv").exists():
        _, rows = read_csv_rows(out / "tomo_counts.csv")
        assert sum(float(n) for a, b, n, _ in rows if a in "HV" and b in "HV") > 0.0, text


# A value per shared key that moves some output of every protocol that reads
# the key, from the small scenario of that protocol below.
_PERTURBED = {
    ("channel", "day_rate_rad2_per_s"): "1e-4",
    ("channel", "night_rate_rad2_per_s"): "1e-4",
    ("channel", "day_start_hms"): "07:29",
    ("channel", "day_end_hms"): "07:31",
    ("channel", "start_clock_s"): "0",
    ("channel", "drift_dt_s"): "0.5",
    ("channel", "pdl_db"): "0.5",
    ("channel", "pdl_axis"): "0,1,0",
    ("channel", "spike_rate_per_s"): "0",
    ("channel", "spike_extra_db"): "3",
    ("channel", "spike_duration_s"): "5",
    ("channel", "overhead_km"): "2",
    ("channel", "temp_sensitivity_ps_per_km_k"): "40",
    ("instruments", "polarimeter_sigma"): "0.01",
    ("instruments", "polarimeter_latency_s"): "0.1",
    ("instruments", "switch_latency_s"): "0.01",
    ("instruments", "piezo_gain_rad_per_v"): "0.6",
    ("instruments", "piezo_limit_v"): "3.2",
    ("instruments", "piezo_settle_s"): "0.01",
    ("stabilizer", "fp_threshold"): "0.99999",
    ("stabilizer", "fp_crossover"): "0.5",
    ("stabilizer", "d0"): "1",
    ("stabilizer", "d1"): "0.2",
    ("stabilizer", "du0_v"): "0.3",
    ("stabilizer", "du1_v"): "0.05",
    ("stabilizer", "max_iterations"): "2",
    ("source", "phase_rad"): "0.3",
    ("source", "noise_p"): "0.1",
    ("source", "pair_rate_per_s"): "100",
    ("ion", "exposure_window_us"): "200",
    ("ion", "decay_per_s"): "1000",
}
# protocol -> a small scenario whose drift crosses the 07:30 edge of the day
# window (with loss spikes on where the run reads them), and whose exact
# counts see the pair rate through the accidentals
_CROSSING = {("channel", "start_clock_s"): "26990", ("channel", "spike_rate_per_s"): "0.05"}
_SMALL = {
    "pdl-characterize": {},
    "drift-characterize": {("channel", "start_clock_s"): _CROSSING[("channel", "start_clock_s")],
                           ("protocol", "total_s"): "200", ("protocol", "tau_grid_s"): "10"},
    "stabilize": {("protocol", "n_trials"): "1"},
    "distribute-entanglement": {**_CROSSING, ("protocol", "intervals_s"): "20",
                                ("protocol", "total_per_interval_s"): "100",
                                ("protocol", "accidental_rate_a_per_s"): "1000",
                                ("protocol", "accidental_rate_b_per_s"): "1000"},
    "ion-photon": {},
    "teleport": {},
    "delay-drift": {("protocol", "days"): "0.01"},
}


def _output_hashes(protocol, values) -> dict[str, str]:
    scn = config.loads(_scenario_text(protocol, values, _SMALL))
    with tempfile.TemporaryDirectory() as tmp:
        return {f.name: sha256_file(f) for f in run_protocol(scn, tmp)}


# protocol -> label -> a setting of the [protocol] keys that switch reads off
_SWITCHED = {name: {"local-": {("protocol", "apply_link_to_arm_b"): "false"}}
             for name, p in PROTOCOLS.items() if "apply_link_to_arm_b" in p.fields}


def _accepted(protocol, setting) -> list[tuple[str, str]]:
    """The shared keys a file may set under `setting`: those the protocol
    reads and does not then ignore."""
    values = config.loads(_scenario_text(protocol, setting, _SMALL)).values
    ignored = {(section, key) for section, key, _ in PROTOCOLS[protocol].ignores(values)}
    return [k for k in PROTOCOLS[protocol].reads if k not in ignored]


@pytest.mark.parametrize("protocol, setting, key", [
    pytest.param(name, setting, key, id=f"{name}-{label}{key[1]}")
    for name in PROTOCOLS
    for label, setting in {"": {}, **_SWITCHED.get(name, {})}.items()
    for key in _accepted(name, setting)
])
def test_every_read_key_moves_an_output(protocol, setting, key):
    assert (_output_hashes(protocol, {**setting, key: _PERTURBED[key]})
            != _output_hashes(protocol, setting))


# A local arm B (apply_link_to_arm_b = false) meets no link: `validate` and
# `run` reject each loss and stabilization key the file sets, with its line.
@pytest.mark.parametrize("preset, protocol, edits", [
    ("teleport_ideal", "teleport", {}),
    ("ion_photon", "ion-photon", {"apply_link_to_arm_b = true": "apply_link_to_arm_b = false"}),
], ids=["teleport_ideal", "ion_photon_local"])
def test_local_arm_b_rejects_the_link_keys(tmp_path, capsys, preset, protocol, edits):
    text = _edited(preset, edits) + "\n[stabilizer]\nfp_threshold = 0.99999\n\n[channel]\npdl_db = 3\n"
    path = tmp_path / "local.ini"
    path.write_text(text)
    lines = text.splitlines()
    condition = f"not read by protocol {protocol!r} when apply_link_to_arm_b = false"
    assert sorted((i.section, i.key, i.message, i.line) for i in config.validate_file(path)) == [
        ("channel", "pdl_db", condition, lines.index("pdl_db = 3") + 1),
        ("stabilizer", "fp_threshold", condition, lines.index("fp_threshold = 0.99999") + 1),
    ]
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 2 and "Traceback" not in err
    assert not out.exists()


# Each shared key a protocol does not read is rejected with its line, whether
# its value is one that moves a protocol that reads it or one that would not
# parse: the key is reported once and its value is never parsed.
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_unread_key_is_rejected(tmp_path, capsys, protocol):
    unread = [k for k in config._FIELDS if k[0] != "scenario" and k not in PROTOCOLS[protocol].reads]
    for (section, key), value in [(k, v) for k in unread for v in (_PERTURBED[k], "banana")]:
        path = tmp_path / "unread.ini"
        text = _scenario_text(protocol, {(section, key): value})
        path.write_text(text)
        line = text.splitlines().index(f"{key} = {value}") + 1
        assert [(i.section, i.key, i.message, i.line) for i in config.validate_file(path)] == [
            (section, key, f"not read by protocol {protocol!r}", line)
        ]
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err and key in err
        assert not out.exists()


# Drawn counts (counts_per_basis > 0) take counts_per_basis pairs per basis
# and never read the pair rate: `validate` and `run` reject a file that sets
# it, with its line, and a file that leaves it unset runs.
def test_drawn_counts_reject_the_pair_rate(tmp_path, capsys):
    preset = (cli._preset_dir() / "ppe_dutycycle.ini").read_text()
    assert preset.count("counts_per_basis = 0\n") == 1
    drawn = preset.replace("counts_per_basis = 0\n", "counts_per_basis = 50\n")
    path = tmp_path / "drawn.ini"
    path.write_text(drawn)
    assert config.validate_file(path) == []
    assert cli.main(["run", str(path), "--out", str(tmp_path / "unset"), "--trials", "5", "--quiet"]) == 0

    text = drawn + "\n[source]\npair_rate_per_s = 1000\n"
    path.write_text(text)
    line = text.splitlines().index("pair_rate_per_s = 1000") + 1
    assert [(i.section, i.key, i.message, i.line) for i in config.validate_file(path)] == [
        ("source", "pair_rate_per_s",
         "not read by protocol 'distribute-entanglement' when counts_per_basis > 0", line)
    ]
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--trials", "5", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"line {line}: [source] pair_rate_per_s" in err
    assert not out.exists()


def test_override_rejects_a_set_key_the_protocol_then_ignores():
    # the file sets the pair rate; an override to drawn counts would leave it unread
    preset = (cli._preset_dir() / "ppe_dutycycle.ini").read_text()
    scn = config.loads(preset + "\n[source]\npair_rate_per_s = 1000\n", name="exact")
    before = (scn.values, scn.set_keys)
    with pytest.raises(ValueError, match=r"^\[source\] pair_rate_per_s: not read by protocol "
                       "'distribute-entanglement' when counts_per_basis > 0$"):
        scn.override("protocol", "counts_per_basis", "50")
    assert scn.values is before[0] and scn.set_keys is before[1]  # unchanged
    scn.override("source", "pair_rate_per_s", "2000")  # exact counts read it
    assert scn[("source", "pair_rate_per_s")] == 2000.0

    # an override sets its key too: the pair rate, once drawn counts are set
    drawn = config.loads(preset, name="drawn")
    drawn.override("protocol", "counts_per_basis", "50")
    with pytest.raises(ValueError, match="^not read by protocol 'distribute-entanglement'"):
        drawn.override("source", "pair_rate_per_s", "1000")
    assert drawn[("source", "pair_rate_per_s")] == 144.4
    # a key the file does not set stays free to leave unread
    assert config.loads(preset).set_keys >= {("protocol", "counts_per_basis")}
    assert ("source", "pair_rate_per_s") not in config.loads(preset).set_keys


def test_day_window_is_parsed_at_validate_time():
    scn = config.loads("[scenario]\nprotocol = drift-characterize\n\n"
                       "[channel]\nday_start_hms = 6:15\nday_end_hms = 20\n")
    schedule = scn.make_channel().schedule
    assert (schedule.day_start_s, schedule.day_end_s) == (6.25 * 3600.0, 20 * 3600.0)


@pytest.mark.parametrize("value", ["07:90", "07:-30", "-0:30", "7.5", "7:5", "007:30", "24:30", "+7"])
def test_day_window_takes_only_a_time_of_day(value):
    # H, HH, H:MM or HH:MM with the minute in 00-59, up to 24:00
    text = f"[scenario]\nprotocol = drift-characterize\n\n[channel]\nday_start_hms = {value}\n"
    with pytest.raises(config.ConfigInvalid, match="day_start_hms"):
        config.loads(text)


@pytest.mark.parametrize("value, seconds", [("0", 0.0), ("9", 9 * 3600.0), ("23:59", 86340.0),
                                            ("24", 86400.0), ("24:00", 86400.0)])
def test_day_window_accepts_each_time_of_day_form(value, seconds):
    scn = config.loads(f"[scenario]\nprotocol = drift-characterize\n\n[channel]\nday_end_hms = {value}\n")
    assert scn[("channel", "day_end_hms")] == seconds


def test_unknown_key_is_flagged(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(MINIMAL + "\n[channel]\npdl_deciBels = 1\n")
    issues = config.validate_file(path)
    assert any(i.key == "pdl_deciBels" and "unknown" in i.message for i in issues)


def test_unknown_protocol_value():
    with pytest.raises(config.ConfigInvalid):
        config.loads("[scenario]\nprotocol = quantum-leap\n")


def test_protocol_key_scoping(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[scenario]\nprotocol = delay-drift\n\n"
        "[protocol]\ndays = 0.2\nintervals_s = 5,20\n"
    )
    issues = config.validate_file(path)
    assert any(i.key == "intervals_s" and "not a parameter" in i.message for i in issues)


def test_crossover_must_be_below_threshold():
    text = "[scenario]\nprotocol = stabilize\n\n[stabilizer]\nfp_threshold = 0.9\nfp_crossover = 0.95\n"
    issues = config._collect(text)[1]
    assert any(i.key == "fp_crossover" for i in issues)
    assert [i.line for i in issues if i.key == "fp_crossover"] == [
        text.splitlines().index("fp_crossover = 0.95") + 1
    ]


def test_missing_file_reported():
    issues = config.validate_file("/nonexistent/scenario.ini")
    assert issues and "no such file" in issues[0].message


def test_undecodable_scenario_file_exits_2(tmp_path, capsys):
    # a scenario file is read as UTF-8; a byte that does not decode is an
    # issue with the file, not a traceback
    path = tmp_path / "binary.ini"
    path.write_bytes(b"[scenario]\nprotocol = stabilize\nname = \xff\n")
    issues = config.validate_file(path)
    assert [(i.section, i.key) for i in issues] == [("scenario", "(file)")]
    assert "utf-8" in issues[0].message
    with pytest.raises(config.ConfigInvalid):
        config.load(path)
    for command in ("validate", "run"):
        assert cli.main([command, str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_all_presets_validate():
    names = cli.list_presets()
    assert {"teleport_ideal", "ppe_dutycycle", "ion_photon", "delay_drift"} <= set(names)
    for name in names:
        path = cli._resolve(name)
        assert path is not None
        assert config.validate_file(path) == []


@pytest.mark.parametrize("name", ["pdl_characterize", "drift_characterize",
                                  "stabilize_demo", "ion_photon",
                                  "teleport_ideal", "teleport_noisy", "delay_drift"])
def test_fast_presets_run(tmp_path, name):
    scn = config.load(cli._resolve(name))
    files = run_protocol(scn, tmp_path / name)
    assert files
    for f in files:
        assert Path(f).is_file() and Path(f).stat().st_size > 0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_validate_ok(capsys):
    assert cli.main(["validate", "teleport_ideal"]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_validate_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nprotocol = teleport\n[stabilizer]\nfp_threshold = 2\n")
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "fp_threshold" in err


def test_cli_missing_scenario(capsys):
    assert cli.main(["run", "does_not_exist"]) == 2


def test_cli_presets_list(capsys):
    assert cli.main(["presets", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert "ppe_dutycycle" in out


# Runs, validations, a listing, a note, a bound failure and argparse's own
# exits (a bad flag, --version), each exiting 0 or 2.
_CLI_SEQUENCE = (
    ["run", "pdl_characterize", "--trials", "50", "--seed", "7", "--out", "pdl"],
    ["run", "teleport_ideal", "--trials", "3", "--out", "tele"],
    ["validate", "teleport_noisy"],
    ["presets", "list"],
    ["run", "pdl_characterize", "--bogus"],
    ["run", "pdl_characterize", "--trials", "1", "--out", "short"],
    ["validate", "--quiet", "stabilize_demo"],
    ["--version"],
)


def _out_hashes(root: Path, argv) -> dict:
    """Hash of each file the call wrote under `root`, by name."""
    if "--out" not in argv:
        return {}
    out = root / argv[argv.index("--out") + 1]
    return {p.name: sha256_file(p) for p in sorted(out.iterdir())} if out.is_dir() else {}


def test_cli_main_called_repeatedly_matches_fresh_processes(tmp_path, monkeypatch):
    fresh_dir, reused_dir = tmp_path / "fresh", tmp_path / "reused"
    fresh_dir.mkdir()
    reused_dir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    fresh = {}
    for argv in _CLI_SEQUENCE:
        proc = subprocess.run([sys.executable, "-m", "fiberlink.cli", *argv], cwd=fresh_dir,
                              env=env, capture_output=True, text=True, check=False)
        fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr,
                              _out_hashes(fresh_dir, argv))
    monkeypatch.chdir(reused_dir)
    # twice through, the second time in reverse, all on one parser
    for argv in [*_CLI_SEQUENCE, *reversed(_CLI_SEQUENCE)]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        got = (code, stdout.getvalue(), stderr.getvalue(), _out_hashes(reused_dir, argv))
        assert got == fresh[tuple(argv)], argv
    assert {fresh[tuple(argv)][0] for argv in _CLI_SEQUENCE} == {0, 2}


def test_cli_run_writes_manifest(tmp_path):
    out = tmp_path / "run1"
    assert cli.main(["run", "teleport_ideal", "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["protocol"] == "teleport"
    assert manifest["seed"] == 31415
    assert set(manifest["outputs"]) == {
        "chi_phi_minus.json", "chi_phi_plus.json",
        "teleport_summary.csv", "teleport_meta.json",
    }
    for name, digest in manifest["outputs"].items():
        assert sha256_file(out / name) == digest


def test_cli_run_same_seed_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "delay_drift", "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["run", "delay_drift", "--out", str(out2), "--quiet"]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1 == sorted(p.name for p in out2.iterdir())
    for name in files1:
        assert sha256_file(out1 / name) == sha256_file(out2 / name), name


def test_cli_seed_override_changes_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "pdl_characterize", "--out", str(out1), "--quiet"])
    cli.main(["run", "pdl_characterize", "--out", str(out2), "--seed", "999", "--quiet"])
    assert sha256_file(out1 / "pdl_series.csv") != sha256_file(out2 / "pdl_series.csv")
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["seed"] == 999


def test_library_seed_override_runs_at_the_new_seed(tmp_path):
    # every stream draws from the overridden seed, as from a file that sets it
    preset = cli._preset_dir() / "pdl_characterize.ini"
    scn = config.load(preset)
    scn.override("scenario", "seed", "5")
    assert scn.seed == 5
    reseeded = tmp_path / "seed5.ini"
    reseeded.write_text(preset.read_text().replace("seed = 81231", "seed = 5"))
    files = run_protocol(scn, tmp_path / "override")
    want = run_protocol(config.load(reseeded), tmp_path / "file")
    assert [f.name for f in files] == [f.name for f in want]
    for got, expected in zip(files, want):
        assert sha256_file(got) == sha256_file(expected), got.name


def test_library_override_of_name_and_out_dir_is_read_back():
    scn = config.load(cli._preset_dir() / "pdl_characterize.ini")
    scn.override("scenario", "out_dir", "elsewhere")
    scn.override("scenario", "name", "renamed")
    assert (scn.name, scn.out_dir) == ("renamed", "elsewhere")
    scn.override("scenario", "out_dir", "")
    assert scn.out_dir == "runs/renamed"
    unnamed = config.loads(MINIMAL, name="mini")
    assert (unnamed.name, unnamed.out_dir) == ("mini", "runs/mini")


def test_library_override_keeps_the_protocol():
    # the protocol chooses the schema every other key was checked against
    scn = config.load(cli._preset_dir() / "pdl_characterize.ini")
    with pytest.raises(ValueError, match="protocol"):
        scn.override("scenario", "protocol", "teleport")
    assert scn.protocol == scn[("scenario", "protocol")] == "pdl-characterize"


def test_cli_trials_override(tmp_path):
    out = tmp_path / "t"
    cli.main(["run", "pdl_characterize", "--out", str(out), "--trials", "64", "--quiet"])
    lines = (out / "pdl_series.csv").read_text().splitlines()
    assert len(lines) == 65  # header + 64 samples


# Overrides are held to the bounds of the keys they replace: exit 2, one line.
@pytest.mark.parametrize("argv", [
    ["stabilize_demo", "--trials", "0"],
    ["stabilize_demo", "--trials", "-3"],
    ["pdl_characterize", "--trials", "1"],
    ["pdl_characterize", "--seed", "-1"],
], ids=["trials_0", "trials_negative", "n_samples_1", "seed_negative"])
def test_cli_override_out_of_bounds_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main(["run", *argv, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err and f"{argv[1]} {argv[2]}" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["a_file", "below_a_file"])
def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "F"
    blocker.write_text("kept\n")
    out = blocker / below
    assert cli.main(["run", "teleport_ideal", "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert str(out) in err and "Traceback" not in err
    assert blocker.read_text() == "kept\n"


def test_manifest_replays_trials_override(tmp_path):
    out1 = tmp_path / "a"
    assert cli.main(["run", "pdl_characterize", "--out", str(out1), "--trials", "3", "--quiet"]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["trials"] == 3
    replay = tmp_path / "replay.ini"
    replay.write_text(manifest["config_text"])
    out2 = tmp_path / "b"
    argv = ["run", str(replay), "--out", str(out2), "--seed", str(manifest["seed"]),
            "--trials", str(manifest["trials"]), "--quiet"]
    assert cli.main(argv) == 0
    assert json.loads((out2 / "manifest.json").read_text())["outputs"] == manifest["outputs"]
    # an override the protocol has no use for changes nothing and is not recorded
    out3 = tmp_path / "c"
    assert cli.main(["run", "delay_drift", "--out", str(out3), "--trials", "3", "--quiet"]) == 0
    assert "trials" not in json.loads((out3 / "manifest.json").read_text())


def test_manifest_config_text_reruns_identically(tmp_path):
    out1 = tmp_path / "a"
    cli.main(["run", "delay_drift", "--out", str(out1), "--quiet"])
    manifest = json.loads((out1 / "manifest.json").read_text())
    replay = tmp_path / "replay.ini"
    replay.write_text(manifest["config_text"])
    out2 = tmp_path / "b"
    cli.main(["run", str(replay), "--out", str(out2), "--quiet"])
    assert sha256_file(out1 / "delay_series.csv") == sha256_file(out2 / "delay_series.csv")


def test_analysis_consumes_runner_outputs(tmp_path):
    # the delay series written by the runner feeds the correlation analysis
    # and reproduces the summary figure exactly
    from fiberlink import analysis
    from fiberlink.output import read_csv_rows

    out = tmp_path / "dd"
    cli.main(["run", "delay_drift", "--out", str(out), "--quiet"])
    header, rows = read_csv_rows(out / "delay_series.csv")
    assert header == ["t_s", "temp_k", "predicted_ps", "measured_ps"]
    t = [float(r[0]) for r in rows]
    predicted = list(zip(t, (float(r[2]) for r in rows)))
    measured = list(zip(t, (float(r[3]) for r in rows)))
    r_coeff, _ = analysis.delay_correlation(measured, predicted)
    summary = json.loads((out / "delay_summary.json").read_text())
    assert r_coeff == pytest.approx(summary["pearson_r"], abs=1e-12)


def _matrix_from_payload(payload):
    """Inverse of `matrix_payload`."""
    flat = np.array([re + 1.0j * im for re, im in payload["data"]])
    return flat.reshape(tuple(payload["shape"]))


def test_matrix_payload_round_trip(rng):
    from fiberlink.output import matrix_payload

    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(_matrix_from_payload(matrix_payload(m)), m, atol=1e-15)


def _old_fmt(value):
    """The per-cell formatter `write_csv` used before it handed rows to csv.writer."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def test_write_csv_cells_match_repr_contract(tmp_path, rng):
    from fiberlink.output import write_csv

    specials = [1e16, 1e-5, -0.0, 0.0, 5e-324, -5e-324, float("nan"), float("inf"),
                float("-inf"), 0.1, 1e22, 1.7976931348623157e308, 2.2250738585072014e-308]
    floats = specials + rng.normal(size=200).tolist() + (10.0 ** rng.uniform(-320, 308, 400)).tolist()
    ints = [0, -1, 7, 2**63 - 1, -(2**63), 10**30]
    rows = [(x, np.float64(x), -x, np.float64(-x)) for x in floats]
    rows += [(i, np.int64(i) if abs(i) < 2**63 else i, "H", "label, with comma") for i in ints]
    path = write_csv(tmp_path / "cells.csv", ("a", "b", "c", "d"), rows)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(("a", "b", "c", "d"))
    for row in rows:
        writer.writerow([_old_fmt(x) for x in row])
    assert path.read_text() == expected.getvalue()


def test_write_json_refuses_non_finite_numbers(tmp_path):
    from fiberlink.output import write_json

    for value in (math.nan, math.inf, -math.inf):
        path = tmp_path / "summary.json"
        with pytest.raises(ValueError, match=re.escape(f"{path}: Out of range float")):
            write_json(path, {"ok": 1.0, "bad": [value]})
        assert not path.exists()


# delay-drift at temp_amplitude_k = 1e307 overflowed the delays it correlates,
# and the run exited 0 with "pearson_r": NaN in delay_summary.json. `validate`
# now bounds the delay swing, so a stand-in correlation gives the NaN here.
def test_run_with_a_non_finite_json_value_exits_3(tmp_path, capsys, monkeypatch):
    path = tmp_path / "hot.ini"
    path.write_text("[scenario]\nprotocol = delay-drift\nseed = 1\n[protocol]\ndays = 0.1\n")
    assert config.validate_file(path) == []
    monkeypatch.setattr(protocols.analysis, "delay_correlation", lambda measured, predicted: (math.nan, 0.0))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"protocol failed: {out / 'delay_summary.json'}: Out of range float"), line
    assert not (out / "delay_summary.json").exists() and not (out / "manifest.json").exists()


SAMPLED_PPE = """
[scenario]
protocol = distribute-entanglement
seed = 4242

[channel]
pdl_db = 0.02
night_rate_rad2_per_s = 1e-6
day_rate_rad2_per_s = 1e-6

[instruments]
polarimeter_sigma = 0.0

[protocol]
intervals_s = 20
total_per_interval_s = 200
counts_per_basis = 20000
accidental_rate_a_per_s = 2000
accidental_rate_b_per_s = 1000
coincidence_window_s = 1e-6
"""


def test_distribute_entanglement_sampled_counts(tmp_path):
    # finite statistics plus injected accidentals: corrected fidelity beats
    # raw and approaches the channel-limited value
    scn = config.loads(SAMPLED_PPE, name="sampled")
    run_protocol(scn, tmp_path)
    # the Poisson branch of the count table, pinned
    assert sha256_file(tmp_path / "dutycycle.csv") == (
        "1661c24b40e40613e04661b790976eb6097d7768e5cf9d31d7501028952ceef0"
    )
    lines = (tmp_path / "dutycycle_summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert int(row["n_windows"]) == 10
    raw = float(row["mean_fidelity_raw"])
    corrected = float(row["mean_fidelity_corrected"])
    assert raw < corrected
    assert corrected > 0.95
    assert 0.7 < raw < 0.9  # source admixture dominates the raw value


SPIKY_PPE = """
[scenario]
protocol = distribute-entanglement
seed = 5150

[channel]
pdl_db = 0.3
spike_rate_per_s = 0.05
spike_extra_db = 2.0
spike_duration_s = 4
night_rate_rad2_per_s = 1e-4
day_rate_rad2_per_s = 1e-4

[instruments]
polarimeter_sigma = 0.0

[stabilizer]
fp_threshold = 0.999

[protocol]
intervals_s = 20
total_per_interval_s = 200
"""


def test_distribute_window_superoperator_matches_per_step_sum(tmp_path, monkeypatch):
    # each window's state is built once from the summed link superoperator
    # and the window's compensator C; it must equal the per-step sum
    # sum_t (C K_t) rho (C K_t)^dag on a lossy link with loss spikes
    from fiberlink import channel as chmod
    from fiberlink import polcore, quantum

    scn = config.loads(SPIKY_PPE, name="spiky")
    rho_src = quantum.spdc_state(scn.make_source())
    real_duty_cycle_run = stabilizer.duty_cycle_run
    real_window_counts = protocols._window_counts
    runs, window_states = [], []

    def duty_cycle_run(*args, **kwargs):
        runs.append(real_duty_cycle_run(*args, **kwargs))
        return runs[-1]

    def window_counts(rho, *args):
        window_states.append(rho)
        return real_window_counts(rho, *args)

    monkeypatch.setattr(stabilizer, "duty_cycle_run", duty_cycle_run)
    monkeypatch.setattr(protocols, "_window_counts", window_counts)
    run_protocol(scn, tmp_path)

    header, rows = read_csv_rows(tmp_path / "dutycycle.csv")
    ((records, rotations, spiked),) = runs
    assert len(rows) == len(window_states) == len(records) == 10
    # a spike inside a window: two loss elements in one window
    assert any(0 < s.sum() < s.size for s in spiked)
    ch = scn.make_channel()
    losses = {False: ch.pdl, True: ch.spike_pdl()}
    n_steps = 20
    for window, (row, rho_bar, rec) in enumerate(zip(rows, window_states, records)):
        assert int(row[header.index("window")]) == window
        comp = polcore.su2_of_rotation(rec.compensator)
        state_sum, trace_sum = np.zeros((4, 4), dtype=complex), 0.0
        for rotation, s in zip(rotations[window], spiked[window].tolist()):
            term = on_arm_b_oracle(rho_src, comp @ chmod.transmit_qubit_kraus(rotation, losses[s].operator()))
            state_sum += term
            trace_sum += float(np.trace(term).real)
        success = float(row[header.index("success_prob")])
        assert success < 1.0
        assert abs(success * n_steps - trace_sum) <= 1e-12
        assert np.max(np.abs(rho_bar * (success * n_steps) - state_sum)) <= 1e-12


# `dutycycle_summary.csv` counts the windows that stabilized and divides the
# transmit window by their mean stabilization time, from the records
# `duty_cycle_run` returns; the ratio is -1 where no window stabilized or
# the runs took no time.
@pytest.mark.parametrize("edits, case", [
    ({}, "ratio"),
    # every window starts above the threshold
    ({"fp_threshold = 0.999": "fp_threshold = 0.02\nfp_crossover = 0.01"}, "none_stabilized"),
    # the polarimeter, switch and piezo take no time
    ({"polarimeter_sigma = 0.0": "polarimeter_sigma = 0.0\npolarimeter_latency_s = 0"}, "no_time"),
], ids=["ratio", "none_stabilized", "no_time"])
def test_duty_cycle_summary_recounts_the_returned_records(tmp_path, monkeypatch, edits, case):
    text = SPIKY_PPE
    for old, new in edits.items():
        text = text.replace(old, new)
    real_duty_cycle_run = stabilizer.duty_cycle_run
    returned = []

    def duty_cycle_run(*args, **kwargs):
        returned.append(real_duty_cycle_run(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(stabilizer, "duty_cycle_run", duty_cycle_run)
    run_protocol(config.loads(text, name="summary"), tmp_path)
    header, (row,) = read_csv_rows(tmp_path / "dutycycle_summary.csv")
    ((records, _, _),) = returned
    runs = [r.stab_duration_s for r in records if r.stab_iterations > 0]
    assert row[header.index("n_windows")] == str(len(records)) == "10"
    assert row[header.index("n_stabilizations")] == str(len(runs))
    ratio = float(row[header.index("duty_ratio")])
    if case == "ratio":
        assert len(runs) >= 2 and ratio == 20.0 / (sum(runs) / len(runs))
    else:
        assert (runs == []) == (case == "none_stabilized") and sum(runs) == 0.0
        assert ratio == -1.0


# No shipped preset has loss spikes or a zero drift rate, so the golden
# hashes never see `walk` draw spike uniforms or skip a zero-rate step;
# these outputs pin both.
_ZERO_NIGHT_PPE = """
[scenario]
protocol = distribute-entanglement
seed = 99

[channel]
start_clock_s = 26400
night_rate_rad2_per_s = 0
day_rate_rad2_per_s = 1e-4
pdl_db = 0.2

[stabilizer]
fp_threshold = 0.999

[protocol]
intervals_s = 60,300
total_per_interval_s = 1800
"""


@pytest.mark.parametrize("text, dutycycle, summary", [
    (SPIKY_PPE, "ef4cb01c761330890715b6e5ba94abaf1df7575ccaa921f227613c08d03f950e",
     "1ae90886b7331bf150a386f4acd1b688f7cc048886a02e8f04cf4116252fc7d2"),
    (_ZERO_NIGHT_PPE, "b72895bf64febfa8e6fd3f449a9f3753cec64611344290e427f081f6b5c8929e",
     "20cf1746dae1af19ba59b2840d1a859613b7a09b5589dbc3ed9c97817ec3d116"),
], ids=["spikes", "zero_night_rate"])
def test_unshipped_drift_outputs_are_pinned(tmp_path, text, dutycycle, summary):
    run_protocol(config.loads(text, name="pinned"), tmp_path)
    assert sha256_file(tmp_path / "dutycycle.csv") == dutycycle
    assert sha256_file(tmp_path / "dutycycle_summary.csv") == summary


# Every shipped preset reads its probes at switch latency 0; these outputs
# pin the stabilization times at nonzero switch, read and settle latencies.
_LATENCIES = """
[instruments]
polarimeter_latency_s = 0.1
switch_latency_s = 0.0137
piezo_settle_s = 0.003
"""


@pytest.mark.parametrize("text, name, digest", [
    ("[scenario]\nprotocol = stabilize\nseed = 4242\n" + _LATENCIES + "[protocol]\nn_trials = 5\n",
     "stabilize_trials.csv", "527ce22f05f5768f4ad52fd659337e82fc10cae02ef121ea2e4a87d638ccf0ed"),
    ("[scenario]\nprotocol = distribute-entanglement\nseed = 4243\n"
     "[channel]\nnight_rate_rad2_per_s = 1e-4\nday_rate_rad2_per_s = 1e-4\n" + _LATENCIES +
     "[stabilizer]\nfp_threshold = 0.999\n[protocol]\nintervals_s = 20\ntotal_per_interval_s = 200\n",
     "dutycycle.csv", "ae1d80c2a0b4b7601b3c1b01d4da049a14d7b653b46b350ed9db012de6ee08d4"),
], ids=["stabilize", "distribute"])
def test_nonzero_latency_outputs_are_pinned(tmp_path, text, name, digest):
    run_protocol(config.loads(text, name="latencies"), tmp_path)
    assert sha256_file(tmp_path / name) == digest


def test_dutycycle_runs_no_window_past_total(tmp_path):
    # 2.1 s of 0.7 s windows is three windows; summing window starts in
    # floats ran a fourth, transmitting from 2.1 s to 2.8 s
    text = (cli._resolve("ppe_dutycycle").read_text()
            .replace("intervals_s = 5,20,60,160", "intervals_s = 0.7,0.1")
            .replace("total_per_interval_s = 6400", "total_per_interval_s = 2.1"))
    path = tmp_path / "short.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
    rows = [line.split(",") for line in (out / "dutycycle.csv").read_text().splitlines()[1:]]
    windows = {}
    for row in rows:
        windows.setdefault(float(row[0]), []).append(int(row[1]))
    assert windows == {0.7: [0, 1, 2], 0.1: list(range(21))}


def test_dutycycle_runs_one_window_when_total_over_interval_underflows(tmp_path):
    # 1e-300 / 1e30 is 0.0 in floats: the run exited 0 with no window and
    # nan means in dutycycle_summary.csv
    path = tmp_path / "tiny.ini"
    path.write_text(_DISTRIBUTE + "[channel]\ndrift_dt_s = 1e30\n"
                    "[protocol]\nintervals_s = 1e30\ntotal_per_interval_s = 1e-300\n")
    assert config.validate_file(path) == []
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
    header, rows = read_csv_rows(out / "dutycycle_summary.csv")
    summary = dict(zip(header, rows[0]))
    assert len(rows) == 1 and summary["n_windows"] == "1"
    for key in ("mean_fp_after", "mean_fidelity_raw", "mean_fidelity_corrected"):
        assert math.isfinite(float(summary[key]))


def test_ion_photon_sampled_counts_pinned(tmp_path):
    # no preset samples counts; pin the Poisson branch of the count table
    text = (cli._resolve("ion_photon").read_text()
            .replace("counts_per_basis = 0", "counts_per_basis = 5000"))
    run_protocol(config.loads(text, name="ion_photon"), tmp_path)
    assert {name: sha256_file(tmp_path / name)
            for name in ("tomo_counts.csv", "ion_photon_summary.json")} == {
        "tomo_counts.csv": "370956220f7f3e02393c91a426a8bfa9f0517c73adce8833c06925ff27b5f380",
        "ion_photon_summary.json":
            "ae2aff835be4165aa343e1b04701ebd64ca031624b5efb7ddb8fad8a681347c3",
    }


def test_teleport_sampled_branches_pinned(tmp_path):
    # no preset samples teleport shots; pin the binomial branch estimates
    text = (cli._resolve("teleport_noisy").read_text()
            .replace("counts_per_basis = 0", "counts_per_basis = 500")
            .replace("input_states = H,V,D,R", "input_states = H,V,D,A,R,L"))
    assert {f.name: sha256_file(f) for f in run_protocol(config.loads(text), tmp_path)} == {
        "chi_phi_minus.json": "f83d4eaf78a7481f2603593e0cde358005f5ec0763fd4e4a28e26caaff2f0c9b",
        "chi_phi_plus.json": "82759fe87a99b850dac0ed80ac2b3a445514ccdf3aaf1d962c3c946a2784c9d6",
        "teleport_summary.csv": "e44800ce10f7881a8e7a2697f04bbafde558dbdd2dfc065da20fcfe6ffce0bd7",
        "teleport_meta.json": "8ec720e0b7bec66184d564fb6f54b4fc2218a178b113c92e2d4b784dd40475c6",
    }


# Without counts in HH, HV, VH and VV, the trace of a tomography estimate is
# rounding residue (or <= 0, and the estimate I/4): each of these runs exited 0.
_DRAWN = "counts_per_basis = 0"
_SHORT = {"intervals_s = 5,20,60,160": "intervals_s = 5", "total_per_interval_s = 6400": ""}
# one drawn pair per setting under 3.125 expected accidentals
_ACCIDENTALS = ("counts_per_basis = 1\ntotal_per_interval_s = 5\n"
                "accidental_rate_a_per_s = 1e5\naccidental_rate_b_per_s = 1e5")


def _edited(preset, edits) -> str:
    text = cli._resolve(preset).read_text()
    for old, new in edits.items():
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize("preset, seed, edits, message", [
    ("ion_photon", 1, {_DRAWN: _DRAWN + ".001"}, "the raw count table (0 counts"),
    ("ion_photon", 1, {_DRAWN: "counts_per_basis = 2"}, "the raw count table (9 counts"),
    ("ion_photon", 3, {_DRAWN: "counts_per_basis = 2"}, "the raw count table (5 counts"),
    ("ppe_dutycycle", None, {**_SHORT, _DRAWN: _DRAWN + ".001\ntotal_per_interval_s = 40"},
     "interval 5 s, window 0: the raw count table (0 counts"),
    ("ppe_dutycycle", 13, {**_SHORT, _DRAWN: _ACCIDENTALS},
     "interval 5 s, window 0: the corrected count table (16 counts"),
], ids=["ion_no_counts", "ion_seed1", "ion_seed3", "ppe_no_counts", "ppe_accidentals"])
def test_run_on_a_count_table_without_hv_counts_exits_3(tmp_path, capsys, preset, seed, edits,
                                                       message):
    path = tmp_path / "empty.ini"
    path.write_text(_edited(preset, edits))
    assert config.validate_file(path) == []
    out = tmp_path / "out"
    argv = ["run", str(path), "--out", str(out), "--quiet"]
    assert cli.main(argv + (["--seed", str(seed)] if seed else [])) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.replace(" has no counts in the HH, HV, VH and VV settings", "").startswith(
        f"protocol failed: {message}"), line
    assert not (out / "manifest.json").exists()


# The background correction takes noise_p of the HH, HV, VH and VV total for
# white noise; at noise_p = 1 it takes all of it. ion_photon then exited 0
# with fidelity_corrected 0.25000000000001193 from what the link's loss left.
_WHITE = "\n[source]\nnoise_p = 1\n"
_UNCORRECTED = {"correct_background = true": "correct_background = false"}


@pytest.mark.parametrize("preset, edits, rejected", [
    ("ion_photon", {}, True),
    ("ion_photon", {"arm_b = true": "arm_b = false"}, True),
    ("ppe_dutycycle", {**_SHORT, _DRAWN: _DRAWN + "\ntotal_per_interval_s = 5"}, True),
    ("ppe_dutycycle", {**_SHORT, **_UNCORRECTED, _DRAWN: _DRAWN + "\ntotal_per_interval_s = 5"},
     False),
    ("teleport_noisy", {}, False),
], ids=["ion_white", "ion_local_white", "ppe_white", "ppe_uncorrected_white", "teleport_white"])
def test_white_noise_is_rejected_where_the_background_is_corrected(tmp_path, capsys, preset, edits,
                                                                  rejected):
    path = tmp_path / "white.ini"
    text = _edited(preset, edits) + _WHITE
    path.write_text(text)
    line = len(text.splitlines())
    out = tmp_path / "out"
    code = cli.main(["run", str(path), "--out", str(out), "--quiet"])
    if not rejected:
        assert code == 0 and config.validate_file(path) == []
        return
    assert [(i.section, i.key, i.line) for i in config.validate_file(path)] == [
        ("source", "noise_p", line)]
    assert code == 2 and not out.exists()
    (err,) = capsys.readouterr().err.splitlines()
    assert f"line {line}: [source] noise_p: must be < 1" in err


@pytest.mark.parametrize("counts_per_basis", [0, 2000])
def test_cli_run_incomplete_teleport_inputs_exit_3(tmp_path, capsys, counts_per_basis):
    path = tmp_path / "hhhh.ini"
    path.write_text(
        "[scenario]\nprotocol = teleport\nseed = 7\n"
        f"[protocol]\ncounts_per_basis = {counts_per_basis}\n"
        "apply_link_to_arm_b = false\ninput_states = H,H,H,H\n"
    )
    assert cli.main(["validate", str(path), "--quiet"]) == 0
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err and "operator space" in err
    assert not (out / "manifest.json").exists()
