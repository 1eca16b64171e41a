"""Command-line scenario runner.

    fiberlink run <scenario.ini | preset-name> [--seed N] [--out DIR]
                  [--trials N] [--quiet]
    fiberlink validate <scenario.ini | preset-name>
    fiberlink presets list

`run` executes the scenario protocol and writes a manifest.json (scenario
name, seed, config hash and full text, package version, output hashes, and
the `--trials` value when one was applied) next to the protocol outputs; the
manifest alone suffices to reproduce the run bit-identically. Exit codes:
0 success, 2 invalid configuration or an output directory that cannot be
created or written, 3 protocol failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from importlib import resources
from pathlib import Path

from . import __version__, config
from .output import sha256_file, write_json
from .protocols import PROTOCOLS, ProtocolFailed, run_protocol

__all__ = ["main"]


def _preset_dir():
    return resources.files("fiberlink.presets")


def list_presets() -> list[str]:
    names = []
    for entry in _preset_dir().iterdir():
        if entry.name.endswith(".ini"):
            names.append(entry.name[:-4])
    return sorted(names)


def _resolve(target: str) -> Path | None:
    p = Path(target)
    if p.is_file():
        return p
    candidate = _preset_dir() / f"{target}.ini"
    if candidate.is_file():
        return Path(str(candidate))
    return None


def _cmd_validate(args) -> int:
    path = _resolve(args.scenario)
    if path is None:
        print(f"error: no scenario file or preset named {args.scenario!r}", file=sys.stderr)
        return 2
    issues = config.validate_file(path)
    if not issues:
        if not args.quiet:
            print(f"{path}: valid")
        return 0
    for issue in issues:
        print(f"{path}: {issue}", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    path = _resolve(args.scenario)
    if path is None:
        print(f"error: no scenario file or preset named {args.scenario!r}", file=sys.stderr)
        return 2
    try:
        scn = config.load(path)
    except config.ConfigInvalid as exc:
        for issue in exc.issues:
            print(f"{path}: {issue}", file=sys.stderr)
        return 2

    trials_key = PROTOCOLS[scn.protocol].trials_key
    if args.trials is not None and trials_key is None and not args.quiet:
        print(f"note: --trials has no effect on protocol {scn.protocol}")
    # each override is held to the bound of the scenario key it replaces
    for flag, raw, section, key in (("--seed", args.seed, "scenario", "seed"),
                                    ("--trials", args.trials, "protocol", trials_key)):
        if raw is None or key is None:
            continue
        try:
            scn.override(section, key, str(raw))
        except ValueError as exc:
            print(f"error: {flag} {raw}: [{section}] {key}: {exc}", file=sys.stderr)
            return 2
    out_dir = Path(args.out) if args.out else Path(scn.out_dir)

    try:
        files = run_protocol(scn, out_dir)
    except (ProtocolFailed, ValueError, ArithmeticError) as exc:
        print(f"protocol failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: output directory {out_dir}: {exc}", file=sys.stderr)
        return 2

    manifest = {
        "scenario": scn.name,
        "protocol": scn.protocol,
        "seed": scn.seed,
        "config_sha256": hashlib.sha256(scn.text.encode()).hexdigest(),
        "config_text": scn.text,
        "package_version": __version__,
        "outputs": {f.name: sha256_file(f) for f in sorted(files)},
    }
    if args.trials is not None and trials_key is not None:
        manifest["trials"] = args.trials
    write_json(out_dir / "manifest.json", manifest)
    if not args.quiet:
        print(f"{scn.name}: wrote {len(files) + 1} files to {out_dir}")
        for f in sorted(files):
            print(f"  {f.name}")
    return 0


def _cmd_presets(args) -> int:
    for name in list_presets():
        print(name)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberlink",
        description="Polarization quantum-channel scenario runner",
    )
    parser.add_argument("--version", action="version", version=f"fiberlink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file or preset")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--trials", type=int, default=None, help="override the protocol size knob")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario without running")
    p_val.add_argument("scenario")
    p_val.add_argument("--quiet", action="store_true")
    p_val.set_defaults(func=_cmd_validate)

    p_pre = sub.add_parser("presets", help="manage built-in scenarios")
    p_pre.add_argument("action", choices=["list"])
    p_pre.set_defaults(func=_cmd_presets)
    return parser


# Built once per process: each `main` call parses into a fresh namespace.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
