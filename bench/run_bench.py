"""fiberlink benchmark: one workload, one seed, one JSON result line.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. Workloads: dutycycle, stabilize_campaign, tomography_mc,
preset_sweep (see bench/README.md). With `--trace 0` the last line of
standard output holds the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of a traced run. The line before it records the seed,
the output digest, the environment and the run's sample counts.

This launcher pins the BLAS/OpenMP thread pools of its child processes to
one thread, runs set-up alone in `SETUP_PROBES` fresh processes, then runs
the workload in one more process, and reports the median set-up time over
all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import benchstats

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("dutycycle", "stabilize_campaign", "tomography_mc", "preset_sweep")
SETUP_PROBES = 6
DEADLINE_S = 170.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerFailed(RuntimeError):
    pass


def _worker(args, mode: str, out_root: Path, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--out-root", str(out_root),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed("out of time before starting the worker")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker exceeded the {DEADLINE_S:g} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fiberlink benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "fiberlink" / "__init__.py").is_file():
        print(f"error: no fiberlink sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED_ENV)
    bench_out = root / ".bench_out"
    out_root = bench_out / f"{args.workload}-{args.seed}-{os.getpid()}"
    mode = "trace" if args.trace else "run"
    try:
        # The traced run reports no set-up time, so it needs no set-up probes.
        probes = 0 if args.trace else SETUP_PROBES
        setups = [_worker(args, "setup", out_root, env, deadline)["setup_s"] for _ in range(probes)]
        report = _worker(args, mode, out_root, env, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        if bench_out.is_dir() and not any(bench_out.iterdir()):
            bench_out.rmdir()
    setups.append(report["setup_s"])

    metrics = report["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": benchstats.median(setups), "unit": "s"}, **metrics}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s_samples": setups,
        **report["info"],
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
