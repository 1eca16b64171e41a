"""Compare two trees of preset outputs number by number: the check a change
that moves golden bits makes against its parent's outputs.

    python3 tests/golden/compare.py OLD_DIR NEW_DIR

Both trees must hold the same files. A CSV file must keep its header, its
row count and every non-numeric cell; a JSON file its keys, list lengths and
non-numeric values (`outputs` of a `manifest.json`, the hashes, is skipped);
any other file its bytes. Every pair of numbers a, b must satisfy
|a - b| <= 1e-12 * max(1, |a|, |b|). Each file's count of moved numbers and
its worst scaled difference are printed; the exit code is 1 on any breach.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

TOLERANCE = 1e-12


def _scaled_delta(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _csv_cell(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _pairs_csv(old: Path, new: Path, breaches: list[str]):
    """Yield each pair of numeric cells; append a breach for any other change."""
    old_rows, new_rows = (list(csv.reader(p.read_text().splitlines())) for p in (old, new))
    if old_rows[:1] != new_rows[:1]:
        breaches.append(f"header {old_rows[:1]} is now {new_rows[:1]}")
    if len(old_rows) != len(new_rows):
        breaches.append(f"{len(old_rows) - 1} rows, now {len(new_rows) - 1}")
        return
    for row, (a_cells, b_cells) in enumerate(zip(old_rows[1:], new_rows[1:]), 1):
        if len(a_cells) != len(b_cells):
            breaches.append(f"row {row}: {len(a_cells)} cells, now {len(b_cells)}")
            continue
        for a, b in zip(a_cells, b_cells):
            x, y = _csv_cell(a), _csv_cell(b)
            if x is None or y is None:
                if a != b:
                    breaches.append(f"row {row}: {a!r} is now {b!r}")
            else:
                yield x, y


def _pairs_json(old, new, where: str, breaches: list[str]):
    """Yield each pair of numbers at the same place in two JSON values."""
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        yield float(old), float(new)
    elif isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            breaches.append(f"{where}: keys {sorted(old)} are now {sorted(new)}")
            return
        for key in old:
            yield from _pairs_json(old[key], new[key], f"{where}.{key}", breaches)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            breaches.append(f"{where}: {len(old)} entries, now {len(new)}")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _pairs_json(a, b, f"{where}[{i}]", breaches)
    elif old != new:
        breaches.append(f"{where}: {old!r} is now {new!r}")


def compare_file(old: Path, new: Path) -> tuple[int, float, list[str]]:
    """(moved numbers, worst scaled difference, breaches) of one file."""
    breaches: list[str] = []
    if old.suffix == ".csv":
        pairs = _pairs_csv(old, new, breaches)
    elif old.suffix == ".json":
        a, b = json.loads(old.read_text()), json.loads(new.read_text())
        if old.name == "manifest.json":
            a.pop("outputs", None)
            b.pop("outputs", None)
        pairs = _pairs_json(a, b, "", breaches)
    else:
        pairs = ()
        if old.read_bytes() != new.read_bytes():
            breaches.append("bytes differ")
    moved, worst = 0, 0.0
    for a, b in pairs:
        delta = _scaled_delta(a, b)
        moved += a != b
        worst = max(worst, delta)
        if not delta <= TOLERANCE:
            breaches.append(f"{a!r} is now {b!r} (scaled difference {delta:.3g})")
    return moved, worst, breaches


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_root, new_root = (Path(a) for a in argv)
    files = [sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
             for root in (old_root, new_root)]
    failed = files[0] != files[1]
    for name in sorted(set(files[0]) ^ set(files[1])):
        print(f"{name}: only in {old_root if name in files[0] else new_root}")
    for name in sorted(set(files[0]) & set(files[1])):
        moved, worst, breaches = compare_file(old_root / name, new_root / name)
        print(f"{name}: {moved} moved, worst scaled difference {worst:.3g}")
        for breach in breaches:
            print(f"  breach: {breach}")
        failed |= bool(breaches)
    print("FAIL" if failed else f"ok: every number within {TOLERANCE:g} scaled")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
