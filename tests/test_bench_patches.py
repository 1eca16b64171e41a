"""The benchmark's tracer (`bench/tracing.py`) replaces fiberlink functions
in place. Each name it patches must stay where it looks, or a traced
benchmark run crashes."""

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402


def test_every_traced_name_resolves_on_its_owner():
    # the lookup of `Tracer.install` and `Tracer._replace`: attributes down
    # the path, then the last name in `vars()` of its owner
    missing = []
    for module, path, _ in tracing.PATCHES:
        owner = importlib.import_module(f"fiberlink.{module}")
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        if not callable(vars(owner).get(attr) if owner is not None else None):
            missing.append(f"{module}.{path}")
    assert missing == []
