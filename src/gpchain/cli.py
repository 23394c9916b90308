"""Command-line front end: gpchain verify-derivation | simulate | study.

This module imports only the standard library and `config`: it parses
the arguments, validates the config and answers `--dry-run` and every
error that validation finds before numpy or the rest of the library is
loaded.  A real run then imports `commands`, whose runners do the work.

Exit codes: 0 success, 1 a check/run failed (derivation mismatch,
convergence slope outside its band, non-finite blow-up), 2 bad usage
or configuration.  Outputs are plain CSV and JSON, written without
timestamps so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import config as config_mod
from .config import ConfigError


@functools.cache  # one parser per process: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpchain",
        description="Spin-chain coherent-state dynamics and its continuum limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("verify-derivation", "run the symbolic and matrix consistency checks"),
        ("simulate", "integrate one of the lattice or continuum equations"),
        ("study", "run a convergence study and check its slope"),
    ):
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output directory (default: current)")
        sp.add_argument("--dry-run", action="store_true",
                        help="print the resolved plan and exit")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = config_mod.load_config(args.config) if args.config else {}
        cfg = config_mod.validate_config(raw, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or cfg.get("out") or "."

    if args.dry_run:
        plan = {"command": args.command, "out": out_dir, "config": cfg}
        print(json.dumps(plan, indent=2, sort_keys=True))
        return 0

    from . import commands  # numpy and the library: a real run only

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"config error: out: {exc}", file=sys.stderr)
        return 2
    try:
        return commands.RUNNERS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
