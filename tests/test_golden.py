"""Golden-output gate: every shipped preset, run through the CLI at its own
seed, reproduces the SHA-256 of each output file recorded in
`golden/preset_hashes.json`, and every output ends its lines with LF only.
`golden/compare.py`, which checks a moved golden number by number, is
tested on synthetic trees.

`ppe_dutycycle` is left out here: acceptance criterion 10 already runs it
and checks its two CSV files against the same record.
"""

import json

import pytest

from fiberlink import cli
from fiberlink.output import sha256_file

from conftest import GOLDEN_HASHES, golden_hashes
from golden import compare

PRESETS = [p for p in cli.list_presets() if p != "ppe_dutycycle"]


def test_golden_covers_every_preset():
    assert sorted(json.loads(GOLDEN_HASHES.read_text())) == cli.list_presets()
    assert len(PRESETS) == 7
    for preset in cli.list_presets():
        assert "manifest.json" in golden_hashes(preset)


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_outputs_match_golden_hashes(preset, tmp_path):
    out = tmp_path / preset
    assert cli.main(["run", preset, "--out", str(out), "--quiet"]) == 0
    got = {p.name: sha256_file(p) for p in sorted(out.iterdir())}
    assert got == golden_hashes(preset)
    for p in out.iterdir():
        assert b"\r" not in p.read_bytes(), p.name


def _tree(root, cell, number):
    """A preset-like output tree with one text cell and one moving number."""
    root.mkdir()
    (root / "table.csv").write_text(f"basis,counts\n{cell},{number!r}\nV,2.5\n")
    (root / "summary.json").write_text(f'{{"fidelity": {number!r}, "rows": [1, 2]}}\n')
    (root / "manifest.json").write_text(f'{{"outputs": {{"table.csv": "{number!r}"}}, "seed": 3}}\n')
    return str(root)


@pytest.mark.parametrize("cell, number, moved, breaches", [
    ("H", 0.75 + 5e-13, 1, 0),   # within 1e-12 of max(1, |a|, |b|) = 1
    ("H", 0.75 + 2e-12, 1, 2),   # past it, in the CSV and the JSON file
    ("D", 0.75, 0, 1),           # a text cell changed, no number moved
])
def test_compare_checks_every_number_and_text_cell(tmp_path, capsys, cell, number, moved, breaches):
    old = _tree(tmp_path / "old", "H", 0.75)
    new = _tree(tmp_path / "new", cell, number)
    assert compare.main([old, new]) == int(breaches > 0)
    out = capsys.readouterr().out
    # the manifest's `outputs` hash differs, and is skipped
    assert "manifest.json: 0 moved, worst scaled difference 0\n" in out
    assert f"summary.json: {moved} moved" in out
    assert f"table.csv: {moved} moved" in out
    assert ("breach: row 1: 'H' is now 'D'" in out) == (cell == "D")
    assert out.count("breach:") == breaches
