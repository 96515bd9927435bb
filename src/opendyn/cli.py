"""Command line front end.

Subcommands:

    simulate-local   certified perturbed-map run, CSV + summary report
    simulate-global  certified slow traversal of a map family
    certify-mixing   mixing time of a map on a partition
    certify-ly       uniform Lasota-Yorke certificate for a schedule
    select-params    cone parameters from a certificate
    constants        projective-metric rate constants from cone parameters

Exit codes: 0 on success / verdict pass, 2 when a certified property
fails to hold (no certificate on the lattice, failed verdict, violated
precondition), 1 on malformed configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

import numpy as np

from .errors import CertificateError, ConfigError, TotalEscapeError
from .phase import (Grid, config_count, config_integer, config_parameter,
                    config_record, config_seed, dyadic_partition, dyadic_pool)
from .maps import MapSequence, map_from_config
from .seminorm import SeminormSpec, estimate_LY
from .cone import ConeParams, birkhoff_factor, rate_constants, \
    select_parameters
from .mixing import certify_mixing
from .transfer import build_closed, schedule_operators
from . import experiments


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _emit(obj: dict, out_dir, name: str) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text + "\n")


def _cmd_simulate(args, runner) -> int:
    cfg = _load_config(args.config)
    result = runner(cfg)
    paths = experiments.emit_report(result, args.out)
    print(f"wrote {paths['csv']} and {paths['summary']}")
    for k, v in sorted(result.flags.items()):
        print(f"  {k}: {'ok' if v else 'FAIL'}")
    print(f"verdict: {'pass' if result.passed else 'FAIL'}")
    return 0 if result.passed else 2


def _cmd_certify_mixing(args) -> int:
    cfg = _load_config(args.config)
    grid = Grid.from_config(config_record(cfg, "grid", {}))
    mapspec = map_from_config(cfg["map"])
    Q = dyadic_partition(grid, config_integer(
        config_record(cfg, "partition", {}), "level", 4))
    cert = certify_mixing(mapspec, Q, config_parameter(cfg, "zeta1"),
                          config_parameter(cfg, "zeta2"),
                          config_count(cfg, "i_max", 24))
    _emit(cert.to_config(), args.out, "mixing_certificate.json")
    print(f"mixing time E = {cert.E}")
    return 0


def _cmd_certify_ly(args) -> int:
    cfg = _load_config(args.config)
    grid = Grid.from_config(config_record(cfg, "grid", {}))
    T1 = config_count(cfg, "T1", 1)
    k_max = config_count(cfg, "k_max", 4)
    seed = config_seed(cfg, "seed", 0)
    sem = SeminormSpec.from_config(
        config_record(cfg, "seminorm", {"kind": "tv"}))
    if "maps" in cfg:
        if not isinstance(cfg["maps"], list):
            raise ConfigError("config key 'maps' must be a list of map "
                              f"records, got {cfg['maps']!r}")
        seq = MapSequence(tuple(map_from_config(r) for r in cfg["maps"]))
    else:
        seq = MapSequence.constant(map_from_config(cfg["map"]), k_max * T1)
    rng = np.random.default_rng(seed)
    holes = experiments.hole_schedule(
        config_record(cfg, "holes", {"kind": "none"}), len(seq.maps),
        grid.dimension, rng)
    ops = schedule_operators(seq, holes, k_max * T1, grid)
    cert = estimate_LY(ops, T1, sem, config_count(cfg, "ensemble_size", 24),
                       seed=seed)
    _emit(cert.to_config(), args.out, "ly_certificate.json")
    print(f"theta = {cert.theta}, C = {cert.C}")
    return 0


def _cmd_select_params(args) -> int:
    cfg = _load_config(args.config)
    sem = SeminormSpec.from_config(
        config_record(cfg, "seminorm", {"kind": "tv"}))
    grid = Grid.from_config(config_record(cfg, "grid", {}))
    base = build_closed(map_from_config(cfg["map"]), grid)
    pool = dyadic_pool(grid, config_count(cfg, "max_level", 8))
    num = partial(config_parameter, cfg)
    cp = select_parameters(num("zeta1"), num("zeta2"), num("theta"), num("C"),
                           config_count(cfg, "T1", 1), sem, pool, base,
                           num("sigma", 0.5), config_count(cfg, "i_max", 24))
    _emit(cp.to_config(), args.out, "cone_params.json")
    print(f"a = {cp.a}, T = {cp.T}, d = {cp.d}, E = {cp.E}")
    return 0


def _cmd_constants(args) -> int:
    cfg = _load_config(args.config)
    cp = ConeParams.from_config(config_record(cfg, "cone_params", cfg))
    if cp.zeta1 - cp.zeta2 * cp.adM <= 0.0:
        raise ConfigError(
            "config key 'd' must lie below zeta1*M/(zeta2*a) = "
            f"{cp.zeta1 * cp.M / (cp.zeta2 * cp.a):.6g}, got {cp.d!r}")
    rate = rate_constants(cp)
    out = {"delta0": rate.delta0, "c_lip": rate.c_lip, "lambda": rate.lam,
           "c0": rate.c0, "birkhoff_factor": birkhoff_factor(rate.delta0),
           "T": cp.T, "a": cp.a, "sigma": cp.sigma}
    _emit(out, args.out, "constants.json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="opendyn",
        description="certified memory loss for sequential open dynamics")
    sub = p.add_subparsers(dest="command")

    def add(name, func, help_text, needs_out=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to a JSON configuration")
        if needs_out:
            sp.add_argument("--out", required=True,
                            help="directory for the CSV and summary")
        else:
            sp.add_argument("--out", default=None,
                            help="optional directory for the JSON artifact")
        sp.set_defaults(func=func)
        return sp

    add("simulate-local",
        lambda a: _cmd_simulate(a, experiments.run_local),
        "run a certified perturbed-map experiment", needs_out=True)
    add("simulate-global",
        lambda a: _cmd_simulate(a, experiments.run_global),
        "run a certified map-family traversal", needs_out=True)
    add("certify-mixing", _cmd_certify_mixing,
        "find the mixing time of a map on a dyadic partition")
    add("certify-ly", _cmd_certify_ly,
        "estimate a uniform Lasota-Yorke certificate")
    add("select-params", _cmd_select_params,
        "select cone parameters from a certificate")
    add("constants", _cmd_constants,
        "evaluate rate constants from cone parameters")
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
    except (ConfigError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
