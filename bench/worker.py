"""One benchmark process: set up a workload, run it, check it, report.

Started by run_bench.py with the thread environment already pinned. It
prints one JSON report as the last line of its standard output.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace --out-root DIR

`setup` stops after set-up (import, scenario load and validation, input
generation) and reports only its duration. `run` executes operations in a
closed loop (one client, each operation starts when the previous one has
been checked) for S seconds, and at least the workload's `min_ops`. `trace`
runs each of the first `min_ops` operations once untraced and once with
every layer traced, whatever S is, so that its counts repeat exactly for a
seed; it reports the per-layer totals of the traced runs.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _import_package(src: Path):
    sys.path.insert(0, str(src))
    import fiberlink

    if Path(fiberlink.__file__).resolve().parent != (src / "fiberlink").resolve():
        raise ImportError(f"fiberlink imported from {fiberlink.__file__}, not from {src}")
    return fiberlink


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("THREADS")},
    }


# The host runs other tenants' work on the sibling hardware threads, which
# slows this process by up to ~1.9x for stretches of 0.2-3 s. Each timed
# operation is bracketed by a fixed reference probe, and its time is scaled
# by PROBE_NOMINAL_S / (mean probe time): the time the operation would take
# when the probe runs in its nominal time.
PROBE_NOMINAL_S = 1.5e-3
_PROBE_ROUNDS = 200


def reference_probe() -> float:
    """Seconds for a fixed mix of small numpy calls and interpreter work."""
    import numpy as np

    r = np.array([[0.36, -0.48, 0.8], [0.8, 0.6, 0.0], [-0.48, 0.64, 0.6]])
    m = np.eye(3)
    t0 = time.perf_counter()
    for _ in range(_PROBE_ROUNDS):
        m = r @ m
        m /= np.linalg.norm(m)
        float(np.trace(m))
    return time.perf_counter() - t0


class Runner:
    """Runs operations of one workload and keeps the tallies of the report.

    `op_s` holds the probe-scaled time of each successful operation and
    `raw_s` its measured wall time.
    """

    def __init__(self, workload, main=None):
        self.wl = workload
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.op_s: list[float] = []
        self.raw_s: list[float] = []
        self.items = 0
        self.digests: dict[int, bytes] = {}

    def run_op(self, index: int, tracer=None):
        """Prepare, time, check one operation; returns its OpResult or None on failure."""
        self.attempted += 1
        try:
            op = self.wl.prepare(index)
            probe_before = reference_probe()
            t0 = time.perf_counter()
            raw = self.wl.execute(op, self.main)
            elapsed = time.perf_counter() - t0
            speed = 0.5 * (probe_before + reference_probe()) / PROBE_NOMINAL_S
            with tracer.paused() if tracer else contextlib.nullcontext():
                result = self.wl.check(op, raw)
        except Exception:  # noqa: BLE001 - every failure is counted and reported
            self.failed += 1
            print(f"operation {index} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        self.op_s.append(elapsed / speed)
        self.raw_s.append(elapsed)
        self.items += result.items
        self.digests[index] = hashlib.sha256(result.digest).digest()
        return result

    def digest(self, n_ops: int) -> str:
        """Digest over the outputs of operations 0..n_ops-1, or 'incomplete'."""
        if any(i not in self.digests for i in range(n_ops)):
            return "incomplete"
        h = hashlib.sha256()
        for i in range(n_ops):
            h.update(self.digests[i])
        return h.hexdigest()


def _passes(op_s: list[float], size: int) -> list[float]:
    return [sum(op_s[i:i + size]) for i in range(0, len(op_s) - size + 1, size)]


def run_timed(wl, seconds: float) -> dict:
    import benchstats

    runner = Runner(wl)
    start = time.perf_counter()
    index = 0
    while index < wl.min_ops or time.perf_counter() - start < seconds:
        runner.run_op(index)
        index += 1
    op_ms = [t * 1e3 for t in runner.op_s]
    passes = _passes(runner.op_s, wl.pass_size)
    ok = runner.attempted - runner.failed
    metrics = {
        "wall_s": (benchstats.median(passes) if passes else 0.0, "s"),
        "items_per_s": (runner.items / sum(runner.op_s) if runner.op_s else 0.0, "1/s"),
        "op_ms.p50": (benchstats.percentile(op_ms, 50.0) if op_ms else 0.0, "ms"),
        "op_ms.p90": (benchstats.percentile(op_ms, 90.0) if op_ms else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (ok / runner.attempted, "ratio"),
    }
    info = {
        "ops": runner.attempted,
        "passes": len(passes),
        "items": runner.items,
        "tail_percentile": benchstats.tail_percentile(len(op_ms)),
        "raw_op_ms.p50": benchstats.percentile(runner.raw_s, 50.0) * 1e3 if op_ms else 0.0,
        "raw_items_per_s": runner.items / sum(runner.raw_s) if op_ms else 0.0,
        "digest": runner.digest(wl.min_ops),
        "digest_ops": wl.min_ops,
    }
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    return {"metrics": metrics, "info": info, "correct": runner.failed == 0,
            "attempted": runner.attempted, "failed": runner.failed}


def _self_check(index: int, result, calls, tracer) -> list[str]:
    """Compare traced call counts with the counts the outputs imply."""
    import tracing

    tracer.counters["output.bytes_written"] += result.bytes_written
    expected = dict(result.expected_calls)
    problems = []
    if "files" in expected:
        got, want = tracing.files_written(calls), expected.pop("files")
        if got != want:
            problems.append(f"op {index}: writers produced {got} files, manifest lists {want}")
    for name, want in expected.items():
        if calls.get(name, 0) != want:
            problems.append(f"op {index}: {name} called {calls.get(name, 0)} times, expected {want}")
    return problems


def run_traced(wl) -> dict:
    import tracing
    from fiberlink import cli

    n = wl.min_ops
    tracer = tracing.Tracer()
    untraced = Runner(wl)
    traced = Runner(wl, main=tracer.wrap("cli.main", cli.main))
    mismatches = []
    for i in range(n):
        # Each operation runs once untraced and once traced, alternating
        # which goes first so that warm-up does not favour either side.
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.run_op(i)
                continue
            tracer.install()
            try:
                result = traced.run_op(i, tracer)
            finally:
                tracer.uninstall()
            calls, _ = tracer.drain()
            if result is not None:
                mismatches += _self_check(i, result, calls, tracer)
    for line in mismatches:
        print(f"trace self-check: {line}", file=sys.stderr)

    wall_untraced = sum(untraced.op_s)
    wall_traced = sum(traced.op_s)
    complete = untraced.failed == 0 and traced.failed == 0
    overhead = wall_traced / wall_untraced if complete and wall_untraced > 0 else 0.0
    metrics = tracing.layer_report(tracer, overhead)
    digest = traced.digest(n)
    info = {
        "ops": n,
        "wall_s_untraced": wall_untraced,
        "wall_s_traced": wall_traced,
        "raw_wall_s_untraced": sum(untraced.raw_s),
        "raw_wall_s_traced": sum(traced.raw_s),
        "self_check_mismatches": len(mismatches),
        "digest": digest,
        "digest_untraced": untraced.digest(n),
        "digest_ops": n,
    }
    correct = complete and not mismatches and digest == untraced.digest(n)
    return {"metrics": metrics, "info": info, "correct": correct,
            "attempted": untraced.attempted + traced.attempted,
            "failed": untraced.failed + traced.failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out-root", required=True)
    args = parser.parse_args(argv)

    _import_package(Path.cwd() / "src")
    import workloads

    out_root = Path(args.out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_root)
    wl.setup()
    setup_s = time.perf_counter() - _T0
    report = {"setup_s": setup_s}
    if args.mode != "setup":
        body = run_timed(wl, args.seconds) if args.mode == "run" else run_traced(wl)
        body["info"]["environment"] = environment()
        report.update(body)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
