"""Command line front end: runs a JSON run configuration.

Subcommands:

    simulate-local   certified perturbed-map run, CSV + summary report
    simulate-global  certified slow traversal of a map family

Exit codes: 0 on success / verdict pass, 2 when a certified property
fails to hold (no certificate on the lattice, failed verdict, violated
precondition), 1 on malformed configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CertificateError, ConfigError, TotalEscapeError
from . import experiments


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cmd_simulate(args, runner) -> int:
    cfg = _load_config(args.config)
    result = runner(cfg)
    paths = experiments.emit_report(result, args.out)
    print(f"wrote {paths['csv']} and {paths['summary']}")
    for k, v in sorted(result.flags.items()):
        print(f"  {k}: {'ok' if v else 'FAIL'}")
    print(f"verdict: {'pass' if result.passed else 'FAIL'}")
    return 0 if result.passed else 2


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="opendyn",
        description="certified memory loss for sequential open dynamics")
    sub = p.add_subparsers(dest="command")

    def add(name, func, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to a JSON configuration")
        sp.add_argument("--out", required=True,
                        help="directory for the CSV and summary")
        sp.set_defaults(func=func)

    add("simulate-local",
        lambda a: _cmd_simulate(a, experiments.run_local),
        "run a certified perturbed-map experiment")
    add("simulate-global",
        lambda a: _cmd_simulate(a, experiments.run_global),
        "run a certified map-family traversal")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report those as config errors
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 1
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (CertificateError, TotalEscapeError) as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
