"""Rewrite `preset_hashes.json`: the SHA-256 of every output file of every
shipped preset, `manifest.json` included, at the preset's own seed.

    python3 tests/golden/regen.py [--keep DIR]

Run it from any directory; the package is imported from `src/` of this
checkout. Only a change that means to alter preset outputs regenerates the
file, and it says why in CHANGES.md. Each `preset/file` whose hash differs
from the record being overwritten (or that is new or gone) is printed, so
the change can list exactly what it altered. Running all eight presets
takes about 1.5 s on a two-core Intel Xeon, most of it `ppe_dutycycle`.

`--keep DIR` leaves the outputs in DIR, which must not exist yet, one folder
per preset. A change that moves golden bits runs `regen.py --keep A` at its
parent and `regen.py --keep B` at itself, then checks the moved numbers
with `compare.py A B`.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "preset_hashes.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite the golden preset hashes.")
    parser.add_argument("--keep", metavar="DIR", type=Path,
                        help="leave the preset outputs in DIR, which must not exist")
    keep = parser.parse_args(argv).keep
    if keep is not None and keep.exists():
        print(f"error: {keep} exists", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    from fiberlink import cli
    from fiberlink.output import sha256_file

    old = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for preset in cli.list_presets():
            out = (keep or Path(tmp)) / preset
            rc = cli.main(["run", preset, "--out", str(out), "--quiet"])
            if rc != 0:
                print(f"error: {preset} exited with code {rc}", file=sys.stderr)
                return 1
            golden[preset] = {p.name: sha256_file(p) for p in sorted(out.iterdir())}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    for preset in sorted(golden.keys() | old.keys()):
        new_hashes, old_hashes = golden.get(preset, {}), old.get(preset, {})
        for name in sorted(new_hashes.keys() | old_hashes.keys()):
            if new_hashes.get(name) != old_hashes.get(name):
                print(f"changed: {preset}/{name}")
    print(f"wrote {GOLDEN} ({len(golden)} presets)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
