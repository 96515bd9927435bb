"""Experiment orchestration: certified memory-loss runs and reports.

Both regimes run one pipeline, `_run`: certify, draw the hole schedule,
build the run's operators once, grow T until every open block mixes,
audit the cone, push both densities, then budget, fit and report.  A
regime only supplies a plan: its per-sample certificates, its map
schedule and its own flags, constants and certificates once T is final.
A local run perturbs one base map; a global run traverses a map curve
slowly enough that per-sample certificates chain along it.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (CertificateError, ConfigError, ParameterError,
                     TotalEscapeError)
from .phase import (Grid, config_integer, config_number, config_record,
                    dyadic_pool)
from .maps import (MapSequence, MapSpec, doubling_map, full_branch_map,
                   map_from_config, perturbation_distance)
from .holes import HoleSequence, HoleSpec, hole_from_config
from .transfer import (MASS_FLOOR, GridDensity, OperatorCache, normalize,
                       push, schedule_operators)
from .seminorm import LYCertificate, SeminormSpec, cone_member, estimate_LY
from .cone import ConeParams, RateConstants, rate_constants, select_parameters
from .mixing import (default_perturbation, random_hole, ratio_profile,
                     stability_check)

FIT_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# map families for global traversals

def _slopes_2_to_3(u: float) -> MapSpec:
    """Full-branch three-branch family: branch slopes (2,4,4) at u=0
    moving to (3,3,3) at u=1, all members Lebesgue-preserving."""
    l1 = 0.5 - u / 6.0
    l2 = 0.25 + u / 12.0
    return full_branch_map([l1, l1 + l2])


FAMILIES = {
    "slopes_2_to_3": _slopes_2_to_3,
    "constant_doubling": lambda u: doubling_map(),
}


# ---------------------------------------------------------------------------
# configuration

_DEF_CERT = {"ensemble_size": 24, "k_max": 4, "i_max": 16, "max_level": 8,
             "ly_seed": 11, "stability_samples": 8}


@dataclass
class ExperimentConfig:
    kind: str
    grid: Grid
    horizon: int
    seed: int
    zeta1: float
    zeta2: float
    sigma: float
    T1: int
    seminorm: SeminormSpec
    delta: float
    holes: dict
    psi: dict
    map_rec: dict = field(default_factory=dict)      # local base map
    family: dict = field(default_factory=dict)       # global curve
    certificates: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentConfig":
        try:
            kind = cfg["kind"]
            if kind not in ("local", "global"):
                raise ConfigError(f"unknown experiment kind {kind!r}")
            g = config_record(cfg, "grid", {})
            grid = Grid(g.get("dimension", 1), g.get("n", 4096))
            horizon = config_integer(cfg, "horizon")
            if horizon < 2:
                raise ConfigError("horizon must be at least 2")
            sem = SeminormSpec.from_config(
                config_record(cfg, "seminorm", {"kind": "tv"}))
            cert = dict(_DEF_CERT)
            cert.update(config_record(cfg, "certificates", {}))
            cert.update((key, config_integer(cert, key)) for key in _DEF_CERT)
            out = ExperimentConfig(
                kind=kind, grid=grid, horizon=horizon,
                seed=config_integer(cfg, "seed", 0),
                zeta1=config_number(cfg, "zeta1", 0.8),
                zeta2=config_number(cfg, "zeta2", 1.2),
                sigma=config_number(cfg, "sigma", 0.5),
                T1=config_integer(cfg, "T1", 1), seminorm=sem,
                delta=config_number(cfg, "delta", 0.0),
                holes=config_record(cfg, "holes", {"kind": "none"}),
                psi=config_record(cfg, "psi", {"kind": "cosine_bump",
                                               "amplitude": 0.15}),
                map_rec=config_record(cfg, "map", {}),
                family=config_record(cfg, "family", {}),
                certificates=cert, raw=cfg)
            if kind == "local" and not out.map_rec:
                raise ConfigError("local run needs a 'map' entry")
            if kind == "global" and not out.family:
                raise ConfigError("global run needs a 'family' entry")
            return out
        except KeyError as exc:
            raise ConfigError(f"missing config key {exc}") from exc


@dataclass
class RunResult:
    records: list           # dicts: m, mass_phi, mass_psi, l1_distance
    fit: tuple              # (C_fit, lambda_fit, r2)
    constants: dict
    certificates: dict
    flags: dict
    budget: list
    config_echo: dict
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.flags.values())


# ---------------------------------------------------------------------------
# schedule construction

def hole_schedule(rec: dict, m: int, dimension: int, rng) -> HoleSequence:
    kind = rec.get("kind", "none")
    if kind == "none":
        return HoleSequence.closed(m)
    try:
        if kind == "static":
            seq = HoleSequence.static(hole_from_config(rec["hole"]), m)
        elif kind == "drifting_interval":
            w = config_number(rec, "measure")
            c0 = config_number(rec, "center", 0.3)
            v = config_number(rec, "velocity", 0.137)
            holes = []
            for k in range(m):
                c = (c0 + k * v) % 1.0
                holes.append(HoleSpec(1, intervals=(((c - w / 2) % 1.0,
                                                     (c + w / 2) % 1.0),)))
            seq = HoleSequence(tuple(holes))
        elif kind == "random_intervals":
            eps = config_number(rec, "epsilon")
            seq = HoleSequence(tuple(random_hole(dimension, eps, rng)
                                     for _ in range(m)))
        else:
            raise ConfigError(f"unknown hole schedule kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"{kind} hole schedule missing key {exc}") from exc
    cap = hole_cap(rec)
    for h in seq.holes:
        if h is not None and h.measure() > cap + 1e-12:
            raise ConfigError("hole exceeds the declared measure cap")
    return seq


def hole_cap(rec: dict) -> float:
    """Largest hole measure a schedule may use: its epsilon_cap, else its
    measure or epsilon, else the static hole's measure, else 0 (no holes)."""
    for key in ("epsilon_cap", "measure", "epsilon"):
        if key in rec:
            return config_number(rec, key)
    if rec.get("kind") == "static":
        return hole_from_config(rec["hole"]).measure()
    return 0.0


def build_density(rec: dict, grid: Grid, rng) -> GridDensity:
    kind = rec.get("kind", "uniform")
    if kind == "uniform":
        return GridDensity.uniform(grid)
    if kind == "cosine_bump":
        amp = config_number(rec, "amplitude", 0.5)
        phase = config_number(rec, "phase", 0.0)
        x = grid.centers()
        if grid.dimension == 1:
            v = 1.0 + amp * np.cos(2.0 * np.pi * (x - phase))
        else:
            v = 1.0 + amp * np.cos(2.0 * np.pi * (x[:, 0] - phase)) \
                * np.cos(2.0 * np.pi * x[:, 1])
        return GridDensity(grid, v)
    if kind == "sawtooth":
        # eigenfunction of the doubling transfer operator (eigenvalue 1/2):
        # useful when a pure cosine would be annihilated in one step
        amp = config_number(rec, "amplitude", 0.3)
        x = grid.centers()
        if grid.dimension != 1:
            raise ConfigError("sawtooth density is one-dimensional")
        return GridDensity(grid, 1.0 + amp * (x - 0.5))
    if kind == "blocks":
        nb = config_integer(rec, "blocks", 16)
        if not 1 <= nb <= grid.total_cells:
            raise ConfigError("config key 'blocks' must lie in "
                              f"1..{grid.total_cells}, got {nb}")
        heights = rng.uniform(0.25, 2.0, nb)
        v = np.repeat(heights, grid.total_cells // nb)
        v = np.r_[v, np.full(grid.total_cells - v.size, heights[-1])]
        return normalize(GridDensity(grid, v))
    raise ConfigError(f"unknown density kind {kind!r}")


# ---------------------------------------------------------------------------
# certification pipeline

def _certify(base: MapSpec, grid: Grid, cfg: ExperimentConfig, cache) -> dict:
    cert = cfg.certificates
    closed = cache.get(base, None, grid)
    ly = estimate_LY([closed] * (cert["k_max"] * cfg.T1), cfg.T1,
                     cfg.seminorm, cert["ensemble_size"], seed=cert["ly_seed"])
    pool = dyadic_pool(grid, cert["max_level"])
    cp = select_parameters(cfg.zeta1, cfg.zeta2, ly.theta, ly.C, cfg.T1,
                           cfg.seminorm, pool, closed, cfg.sigma,
                           cert["i_max"])
    return {"ly": ly, "cp": cp, "mixing": cp.mixing}


def _bump_T_for_blocks(cp: ConeParams, ops: list, cfg: ExperimentConfig,
                       ly: LYCertificate) -> ConeParams:
    """Grow the block length until every open block of the run's
    operators keeps its pair ratios inside the mixing window."""
    for _ in range(8):
        if all(cfg.zeta1 < lo and hi < cfg.zeta2 for lo, hi in (
                ratio_profile(ops[b * cp.T:(b + 1) * cp.T], cp.Q)[-1]
                for b in range(cfg.horizon // cp.T))):
            fails = cp.audit(ly.theta, ly.C, cfg.T1)
            if fails:
                raise CertificateError("; ".join(fails))
            return cp
        cp = dataclasses.replace(cp, T=cp.T + cfg.T1)
    raise CertificateError("open blocks never satisfied the mixing window")


# ---------------------------------------------------------------------------
# evolution core

def _execute(ops: list, phi0: GridDensity, psi0: GridDensity,
             sem: SeminormSpec):
    """Push phi and psi as one block and record masses, normalized L1 and
    the seminorm peak per step.  Exact power-of-two rescaling of each
    column (exponent carried) keeps long runs from underflowing."""
    peak = max(sem.value(normalize(phi0)), sem.value(normalize(psi0)))
    V = np.column_stack([phi0.values, psi0.values])
    mass_in = np.array([phi0.mass, psi0.mass])
    exponent = np.zeros(2, dtype=int)
    records, peaks = [], []
    for k, V in enumerate(push(ops, V, phi0.grid), start=1):
        W = np.ascontiguousarray(V.T)
        mass = W.mean(axis=1)
        if (mass <= MASS_FLOOR * mass_in).any():
            raise TotalEscapeError(
                f"total escape at step {k}: a density kept at most "
                f"{MASS_FLOOR:.3g} of its mass")
        W /= mass[:, None]
        peak = max(peak, float(sem.rows(W, phi0.grid).max()))
        mass_phi, mass_psi = np.ldexp(mass, exponent).tolist()
        records.append({"m": k, "mass_phi": mass_phi, "mass_psi": mass_psi,
                        "l1_distance": float(np.abs(W[0] - W[1]).mean())})
        peaks.append(peak)
        mass_in, shift = np.frexp(mass)
        V *= np.ldexp(1.0, -shift)
        exponent += shift
    return records, peaks


def _grid_budget(records, peaks, grid: Grid, c_lip_val: float) -> list:
    """Reported discretization budget: each projection step displaces a
    seminorm-V density by at most V*h/2 in L1, and normalization is
    c_lip-Lipschitz, compounding linearly over the horizon."""
    h = grid.spacing
    return [c_lip_val * r["m"] * h * v * 0.5 for r, v in zip(records, peaks)]


def _flags_and_fit(records, budget, rate, fit_r2_min: float = 0.95):
    series = [(r["m"], r["l1_distance"]) for r in records]
    fit = fit_exponential(series)
    bound_ok = all(
        r["l1_distance"] <= rate.c0 * rate.lam ** r["m"] + b + 1e-12
        for r, b in zip(records, budget))
    fit_ok = fit[2] >= fit_r2_min and fit[1] < 1.0
    return fit, bound_ok, fit_ok


# ---------------------------------------------------------------------------
# runs

def _run(config, kind: str, plan) -> RunResult:
    """The certified pipeline both regimes share.

    plan(cfg, rng, cache) returns the regime's per-sample _certify
    results (the first one sets the cone), a function from the block
    length T to its map schedule, and a callback that, given the final
    cone parameters, returns the regime's own (flags, constants,
    certificates).  Holes and psi are drawn from rng after the plan's own
    draws.
    """
    cfg = config if isinstance(config, ExperimentConfig) \
        else ExperimentConfig.from_dict(config)
    if cfg.kind != kind:
        raise ConfigError(f"run_{kind} needs a {kind} config")
    rng = np.random.default_rng(cfg.seed)
    grid, cache = cfg.grid, OperatorCache()
    samples, schedule, finish = plan(cfg, rng, cache)
    hseq = hole_schedule(cfg.holes, cfg.horizon, grid.dimension, rng)

    first = samples[0]
    cp, mseq = first["cp"], None
    # the map schedule may depend on the block length (a traversal's speed
    # limit); T only grows, so rebuild and re-check until the schedule the
    # blocks were checked on is the one for the final T
    while (nxt := schedule(cp.T)) != mseq:
        mseq = nxt
        ops = schedule_operators(mseq, hseq, cfg.horizon, grid, cache)
        cp = _bump_T_for_blocks(cp, ops, cfg, first["ly"])
    if cfg.horizon < 2 * cp.T:
        raise ConfigError(f"horizon must be at least 2T = {2 * cp.T}")
    # price every sample at the block length the run uses, then take the
    # worst value of each constant
    rates = [dataclasses.astuple(rate_constants(
        dataclasses.replace(c["cp"], T=cp.T))) for c in samples]
    rate = RateConstants(*map(max, zip(*rates)))

    phi0 = GridDensity.uniform(grid)
    psi0 = build_density(cfg.psi, grid, rng)
    for dens in (phi0, psi0):
        if not cone_member(dens, cp.a, cp.Q, cfg.seminorm).ok:
            raise ConfigError("initial densities fail the cone audit")
    own_flags, own_constants, own_certificates = finish(cp)

    records, peaks = _execute(ops, phi0, psi0, cfg.seminorm)
    budget = _grid_budget(records, peaks, grid, rate.c_lip)
    fit, bound_ok, fit_ok = _flags_and_fit(records, budget, rate)

    flags = {"bound_dominated": bound_ok, "fit_ok": fit_ok, **own_flags}
    constants = {"delta0": rate.delta0, "lambda": rate.lam, "c0": rate.c0,
                 "c_lip": rate.c_lip, "a": cp.a, "sigma": cp.sigma, "T": cp.T,
                 "zeta1": cp.zeta1, "zeta2": cp.zeta2, "grid_n": grid.n,
                 "budget_formula": "c_lip*m*h*peak_seminorm/2",
                 **own_constants}
    certificates = {"cone_params": cp.to_config(), **own_certificates}
    return RunResult(records, fit, constants, certificates, flags, budget,
                     cfg.raw)


def _local_plan(cfg: ExperimentConfig, rng, cache):
    base = map_from_config(cfg.map_rec)
    certs = _certify(base, cfg.grid, cfg, cache)
    mseq = MapSequence(tuple(default_perturbation(base, cfg.delta, rng)
                             for _ in range(cfg.horizon)))

    def finish(cp: ConeParams):
        stab = stability_check(base, cp.Q, cfg.zeta1, cfg.zeta2, cp.T,
                               cfg.delta, hole_cap(cfg.holes),
                               cfg.certificates["stability_samples"],
                               seed=cfg.seed + 1, cache=cache)
        mix = certs["mixing"]
        return ({"stability": stab.ok}, {"d": cp.d, "M": cp.M}, {
            "ly": json.loads(certs["ly"].to_json()),
            "mixing": {"E": mix.E, "ratio_min": mix.ratio_min,
                       "ratio_max": mix.ratio_max,
                       "i_checked": list(mix.i_checked)},
            "stability": json.loads(stab.to_json())})

    return [certs], lambda T: mseq, finish


def run_local(config) -> RunResult:
    """Certified local-theorem run: perturbations of one base map with a
    hole schedule, two cone densities, renormalized distance tracking."""
    return _run(config, "local", _local_plan)


def _stability_radius(family, u: float, u_lo: float, u_hi: float,
                      delta: float) -> float:
    """Largest parameter increment keeping the family member within the
    certified perturbation distance of the sample point."""
    base = family(u)

    def within(du: float) -> bool:
        for v in (max(u - du, u_lo), min(u + du, u_hi)):
            if v != u:
                d = perturbation_distance(base, family(v))
                if d is None or d > delta:
                    return False
        return True

    span = u_hi - u_lo
    if span == 0.0 or within(span):
        return span if span > 0.0 else 1.0
    lo, hi = 0.0, span
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if within(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _global_plan(cfg: ExperimentConfig, rng, cache):
    fam_rec = cfg.family
    name = fam_rec.get("name")
    if name not in FAMILIES:
        raise ConfigError(f"unknown family {name!r}")
    family = FAMILIES[name]
    u0 = config_number(fam_rec, "u_start", 0.0)
    u1 = config_number(fam_rec, "u_end", 1.0)
    n_samples = max(config_integer(fam_rec, "cert_samples", 5), 2)
    step_rec = fam_rec.get("step", "auto")
    if step_rec != "auto":
        step_rec = config_number(fam_rec, "step")
    sample_us = [float(s) for s in np.linspace(u0, u1, n_samples)]
    samples = [_certify(family(s), cfg.grid, cfg, cache) for s in sample_us]
    xis = [_stability_radius(family, s, u0, u1, cfg.delta) for s in sample_us]

    def speed(T: int) -> tuple:
        """(speed limit, step) at block length T: a block of T steps moves
        the parameter by at most half the smallest certified radius."""
        limit = min(xis) / (2.0 * T)
        step = limit if step_rec == "auto" else step_rec
        if u1 > u0 and step > limit + 1e-15:
            raise ConfigError(
                f"parameter step {step:.4g} exceeds the speed limit "
                f"{limit:.4g} at block length T = {T}")
        return limit, step

    def schedule(T: int) -> MapSequence:
        step = speed(T)[1]
        us = [min(u1, u0 + k * step) if u1 >= u0 else u0
              for k in range(cfg.horizon)]
        return MapSequence(tuple(family(u) for u in us))

    def finish(cp: ConeParams):
        sigma_estimate, step = speed(cp.T)
        moves = step * cp.T <= min(xis) / 2.0 + 1e-15
        return ({"speed_limit": u1 <= u0 or moves}, {
            "sigma_estimate": sigma_estimate, "step": step,
            "xi_samples": xis, "sample_points": sample_us}, {
            "per_sample": [{
                "u": s,
                "ly": json.loads(c["ly"].to_json()),
                "mixing": {"E": c["mixing"].E,
                           "ratio_min": c["mixing"].ratio_min,
                           "ratio_max": c["mixing"].ratio_max},
                "T": c["cp"].T, "a": c["cp"].a,
            } for s, c in zip(sample_us, samples)]})

    return samples, schedule, finish


def run_global(config) -> RunResult:
    """Certified quasi-static traversal of a map curve: per-sample
    certificates, the speed limit at the run's final block length, then
    the shared evolution core."""
    return _run(config, "global", _global_plan)


# ---------------------------------------------------------------------------
# fitting and reporting

def fit_exponential(series) -> tuple:
    """(C_fit, Lambda_fit, R2) from least squares on log d_m against m,
    ignoring entries at or below the 1e-14 floor."""
    pts = [(float(m), float(d)) for m, d in series if d > FIT_FLOOR]
    if len(pts) < 3:
        raise ParameterError("need at least 3 points above the fit floor")
    mm = np.array([p[0] for p in pts])
    dd = np.log(np.array([p[1] for p in pts]))
    if np.ptp(dd) == 0.0:
        return float(np.exp(dd[0])), 1.0, 1.0
    slope, intercept = np.polyfit(mm, dd, 1)
    pred = slope * mm + intercept
    ss_res = float(((dd - pred) ** 2).sum())
    ss_tot = float(((dd - dd.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(np.exp(intercept)), float(np.exp(slope)), float(r2)


def emit_report(result: RunResult, out_dir: str, prefix: str = "report") -> dict:
    """Write the CSV distance series and the structured summary.

    CSV schema: m,mass_phi,mass_psi,l1_distance with full-precision
    floats.  Summary sections: config_echo, certificates, constants,
    fit, verdict.  Identical results produce byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{prefix}.csv")
    with open(csv_path, "w") as fh:
        fh.write("m,mass_phi,mass_psi,l1_distance\n")
        for r in result.records:
            fh.write(f"{r['m']},{float(r['mass_phi'])!r},"
                     f"{float(r['mass_psi'])!r},{float(r['l1_distance'])!r}\n")
    summary = {
        "config_echo": result.config_echo,
        "certificates": result.certificates,
        "constants": dict(result.constants, grid_budget=result.budget),
        "fit": {"C_fit": result.fit[0], "lambda_fit": result.fit[1],
                "r2": result.fit[2]},
        "verdict": {"flags": result.flags, "pass": result.passed,
                    "notes": result.notes},
    }
    summary_path = os.path.join(out_dir, f"{prefix}_summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"csv": csv_path, "summary": summary_path}
