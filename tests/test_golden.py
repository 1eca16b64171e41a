"""Golden-output gate: every shipped preset, run through the CLI at its own
seed, reproduces the SHA-256 of each output file recorded in
`golden/preset_hashes.json`, and every output ends its lines with LF only.

`ppe_dutycycle` is left out here: acceptance criterion 10 already runs it
and checks its two CSV files against the same record.
"""

import json

import pytest

from fiberlink import cli
from fiberlink.output import sha256_file

from conftest import GOLDEN_HASHES, golden_hashes

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
