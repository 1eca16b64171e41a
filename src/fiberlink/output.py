"""Deterministic output writers shared by the protocol runners.

Floats are written with repr (shortest round-trip form) and JSON keys are
sorted, so a fixed scenario and seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

__all__ = [
    "write_csv",
    "write_json",
    "matrix_payload",
    "read_csv_rows",
    "sha256_file",
]


def write_csv(path, header, rows) -> Path:
    """Write header and rows; a float cell is written as repr(float(x)).

    The csv module writes a Python float with `repr` and any other cell
    with `str`, which for a numpy float64 is repr(float(x)) and for an int
    or numpy integer its decimal digits.
    """
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_json(path, payload) -> Path:
    """Write `payload` as JSON; a NaN or infinity in it raises ValueError
    naming `path`, and nothing is written."""
    path = Path(path)
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def matrix_payload(m: np.ndarray) -> dict:
    """Row-major (re, im) pair serialization of a complex matrix."""
    m = np.asarray(m, dtype=complex)
    return {
        "shape": list(m.shape),
        "data": [[float(x.real), float(x.imag)] for x in m.reshape(-1)],
    }


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    """Header and raw string rows of a CSV file written by `write_csv`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = list(next(reader))
        return header, [list(row) for row in reader]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
