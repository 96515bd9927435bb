"""Experiment orchestration: certified memory-loss runs and reports.

Both regimes run one pipeline, `_run`: certify, draw the hole schedule,
grow T, while two blocks fit the horizon, until every block of the run's
schedule for T mixes, audit the cone, push both densities, then budget,
fit and report.  A regime only supplies a plan: its per-sample
certificates, its map schedule for each T with the constants that T
sets, and its own constants and certificates.
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
from .phase import (Grid, config_count, config_integer, config_number,
                    config_record, config_seed, dyadic_pool)
from .maps import (MapSequence, MapSpec, doubling_map, full_branch_map,
                   is_perturbation, map_from_config)
from .holes import HoleSequence, HoleSpec, hole_from_config
from .transfer import (MASS_FLOOR, GridDensity, OperatorCache, normalize,
                       push, schedule_operators)
from .seminorm import SeminormSpec, cone_member, estimate_LY
from .cone import RateConstants, rate_constants, select_parameters
from .mixing import default_perturbation, random_hole, ratio_profile

FIT_FLOOR = 1e-14
FIT_R2_MIN = 0.95  # least r2 of the decay fit for the fit flag
# the certification recipe every run uses: LY ensemble size, block count
# and seed, mixing horizon, and dyadic partition pool depth
ENSEMBLE_SIZE = 24
K_MAX = 4
LY_SEED = 11
I_MAX = 16
MAX_LEVEL = 8


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

def _check(ok: bool, key: str, rule: str, value) -> None:
    """ConfigError naming the key and its rule unless ok."""
    if not ok:
        raise ConfigError(f"config key {key!r} must {rule}, got {value!r}")


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
    raw: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentConfig":
        try:
            kind = cfg["kind"]
            if kind not in ("local", "global"):
                raise ConfigError(f"unknown experiment kind {kind!r}")
            grid = Grid.from_config(config_record(cfg, "grid", {}))
            horizon = config_integer(cfg, "horizon")
            if horizon < 2:
                raise ConfigError("horizon must be at least 2")
            T1 = config_count(cfg, "T1", 1)
            delta = config_number(cfg, "delta", 0.0)
            _check(delta >= 0.0, "delta", "be non-negative", delta)
            sem = SeminormSpec.from_config(
                config_record(cfg, "seminorm", {"kind": "tv"}))
            out = ExperimentConfig(
                kind=kind, grid=grid, horizon=horizon,
                seed=config_seed(cfg, "seed", 0),
                zeta1=config_number(cfg, "zeta1", 0.8),
                zeta2=config_number(cfg, "zeta2", 1.2),
                sigma=config_number(cfg, "sigma", 0.5),
                T1=T1, seminorm=sem, delta=delta,
                holes=config_record(cfg, "holes", {"kind": "none"}),
                psi=config_record(cfg, "psi", {"kind": "cosine_bump",
                                               "amplitude": 0.15}),
                map_rec=config_record(cfg, "map", {}),
                family=config_record(cfg, "family", {}), raw=cfg)
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
            w = _hole_size(rec, "measure")
            c0 = config_number(rec, "center", 0.3)
            v = config_number(rec, "velocity", 0.137)
            holes = []
            for k in range(m):
                c = (c0 + k * v) % 1.0
                holes.append(HoleSpec(1, intervals=(((c - w / 2) % 1.0,
                                                     (c + w / 2) % 1.0),)))
            seq = HoleSequence(tuple(holes))
        elif kind == "random_intervals":
            eps = _hole_size(rec, "epsilon")
            seq = HoleSequence(tuple(random_hole(dimension, eps, rng)
                                     for _ in range(m)))
        else:
            raise ConfigError(f"unknown hole schedule kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"{kind} hole schedule missing key {exc}") from exc
    return seq


def _hole_size(rec: dict, key: str) -> float:
    """A hole schedule's measure or epsilon; ConfigError naming the key
    unless it lies in [0, 1)."""
    size = config_number(rec, key)
    _check(0.0 <= size < 1.0, key, "lie in [0, 1)", size)
    return size


def build_density(rec: dict, grid: Grid, rng) -> GridDensity:
    kind = rec.get("kind", "uniform")
    if kind == "uniform":
        return GridDensity.uniform(grid)
    if kind == "cosine_bump":
        amp = config_number(rec, "amplitude", 0.5)
        x = grid.centers()
        if grid.dimension == 1:
            v = 1.0 + amp * np.cos(2.0 * np.pi * x)
        else:
            v = 1.0 + amp * np.cos(2.0 * np.pi * x[:, 0]) \
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

def _certify(base: MapSpec, grid: Grid, cfg: ExperimentConfig, cache) -> tuple:
    """(LY certificate, cone parameters) of the closed base operator."""
    closed = cache.get(base, None, grid)
    ly = estimate_LY([closed] * (K_MAX * cfg.T1), cfg.T1, cfg.seminorm,
                     ENSEMBLE_SIZE, seed=LY_SEED)
    cp = select_parameters(cfg.zeta1, cfg.zeta2, ly.theta, ly.C, cfg.T1,
                           cfg.seminorm, dyadic_pool(grid, MAX_LEVEL), closed,
                           cfg.sigma, I_MAX)
    return ly, cp


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


def _flags_and_fit(records, budget, rate):
    series = [(r["m"], r["l1_distance"]) for r in records]
    fit = fit_exponential(series)
    bound_ok = all(
        r["l1_distance"] <= rate.c0 * rate.lam ** r["m"] + b + 1e-12
        for r, b in zip(records, budget))
    fit_ok = fit[2] >= FIT_R2_MIN and fit[1] < 1.0
    return fit, bound_ok, fit_ok


# ---------------------------------------------------------------------------
# runs

def _run(config, kind: str, plan) -> RunResult:
    """The certified pipeline both regimes share.

    plan(cfg, rng, cache) returns the regime's per-sample _certify
    results (the first one sets the cone), a function from the block
    length T to its map schedule and the constants that T sets, and the
    regime's own constants and certificates.  The report takes the
    constants of the last schedule, the one at the final T.  Holes and
    psi are drawn from rng after the plan's own draws.
    """
    cfg = config if isinstance(config, ExperimentConfig) \
        else ExperimentConfig.from_dict(config)
    if cfg.kind != kind:
        raise ConfigError(f"run_{kind} needs a {kind} config")
    rng = np.random.default_rng(cfg.seed)
    grid, cache = cfg.grid, OperatorCache()
    samples, schedule, own_constants, own_certificates = \
        plan(cfg, rng, cache)
    hseq = hole_schedule(cfg.holes, cfg.horizon, grid.dimension, rng)

    # the block length is the smallest T, growing from the selected one in
    # steps of T1 while two blocks still fit the horizon, at which every
    # block of the run's own schedule for that T (a traversal's speed
    # limit depends on T) keeps its pair ratios inside the mixing window
    ly, cp = samples[0]
    if cfg.horizon < 2 * cp.T:
        raise ConfigError(f"horizon must be at least 2T = {2 * cp.T}")
    while True:
        maps, schedule_constants = schedule(cp.T)
        ops = schedule_operators(maps, hseq, cfg.horizon, grid, cache)
        if all(cfg.zeta1 < lo and hi < cfg.zeta2 for lo, hi in (
                ratio_profile(ops[b * cp.T:(b + 1) * cp.T], cp.Q)[-1]
                for b in range(cfg.horizon // cp.T))):
            break
        if cfg.horizon < 2 * (cp.T + cfg.T1):
            raise CertificateError(
                f"open blocks never satisfied the mixing window up to "
                f"T = {cp.T}; two blocks of T = {cp.T + cfg.T1} exceed "
                f"the horizon {cfg.horizon}")
        cp = dataclasses.replace(cp, T=cp.T + cfg.T1)
    fails = cp.audit(ly.theta, ly.C, cfg.T1)
    if fails:
        raise CertificateError("; ".join(fails))
    # price every sample at the block length the run uses, then take the
    # worst value of each constant
    rates = [dataclasses.astuple(rate_constants(
        dataclasses.replace(c, T=cp.T))) for _, c in samples]
    rate = RateConstants(*map(max, zip(*rates)))

    phi0 = GridDensity.uniform(grid)
    psi0 = build_density(cfg.psi, grid, rng)
    for dens in (phi0, psi0):
        if not cone_member(dens, cp.a, cp.Q, cfg.seminorm).ok:
            raise ConfigError("initial densities fail the cone audit")

    records, peaks = _execute(ops, phi0, psi0, cfg.seminorm)
    budget = _grid_budget(records, peaks, grid, rate.c_lip)
    fit, bound_ok, fit_ok = _flags_and_fit(records, budget, rate)

    flags = {"bound_dominated": bound_ok, "fit_ok": fit_ok}
    constants = {"delta0": rate.delta0, "lambda": rate.lam, "c0": rate.c0,
                 "c_lip": rate.c_lip, "a": cp.a, "sigma": cp.sigma, "T": cp.T,
                 "zeta1": cp.zeta1, "zeta2": cp.zeta2, "grid_n": grid.n,
                 "budget_formula": "c_lip*m*h*peak_seminorm/2",
                 **own_constants, **schedule_constants}
    certificates = {"cone_params": cp.to_config(), **own_certificates}
    return RunResult(records, fit, constants, certificates, flags, budget,
                     cfg.raw)


def _local_plan(cfg: ExperimentConfig, rng, cache):
    base = map_from_config(cfg.map_rec)
    ly, base_cp = _certify(base, cfg.grid, cfg, cache)
    mseq = MapSequence(tuple(default_perturbation(base, cfg.delta, rng)
                             for _ in range(cfg.horizon)))
    mix = base_cp.mixing
    certificates = {"ly": ly.to_config(),
                    "mixing": {"E": mix.E, "ratio_min": mix.ratio_min,
                               "ratio_max": mix.ratio_max,
                               "i_checked": list(mix.i_checked)}}
    return ([(ly, base_cp)], lambda T: (mseq, {}),
            {"d": base_cp.d, "M": base_cp.M}, certificates)


def run_local(config) -> RunResult:
    """Certified local-theorem run: perturbations of one base map with a
    hole schedule, two cone densities, renormalized distance tracking."""
    return _run(config, "local", _local_plan)


def _stability_radius(family, u: float, u_lo: float, u_hi: float,
                      delta: float) -> float:
    """Largest parameter increment, to 24 bisection steps, keeping the
    family members at u +- du delta-perturbations of the sample point."""
    base = family(u)

    def within(du: float) -> bool:
        return all(is_perturbation(base, family(v), delta)
                   for v in (max(u - du, u_lo), min(u + du, u_hi)) if v != u)

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
    _check(0.0 <= u0 <= 1.0, "u_start", "lie in [0, 1]", u0)
    _check(u0 <= u1 <= 1.0, "u_end", f"lie in [u_start = {u0!r}, 1]", u1)
    n_samples = config_integer(fam_rec, "cert_samples", 5)
    _check(n_samples >= 2, "cert_samples", "be at least 2", n_samples)
    step_rec = fam_rec.get("step", "auto")
    if step_rec != "auto":
        step_rec = config_number(fam_rec, "step")
        _check(step_rec > 0.0, "step", "be positive", step_rec)
    sample_us = [float(s) for s in np.linspace(u0, u1, n_samples)]
    samples = [_certify(family(s), cfg.grid, cfg, cache) for s in sample_us]
    xis = [_stability_radius(family, s, u0, u1, cfg.delta) for s in sample_us]

    def schedule(T: int) -> tuple:
        """The traversal at block length T, with its speed limit and step:
        a block of T steps moves the parameter by at most half the
        smallest certified radius."""
        limit = min(xis) / (2.0 * T)
        step = limit if step_rec == "auto" else step_rec
        if u1 > u0 and step > limit + 1e-15:
            raise ConfigError(
                f"parameter step {step:.4g} exceeds the speed limit "
                f"{limit:.4g} at block length T = {T}")
        us = [min(u1, u0 + k * step) for k in range(cfg.horizon)]
        maps = MapSequence(tuple(family(u) for u in us))
        return maps, {"sigma_estimate": limit, "step": step}

    certificates = {"per_sample": [{
        "u": s, "ly": ly.to_config(),
        "mixing": {"E": c.mixing.E, "ratio_min": c.mixing.ratio_min,
                   "ratio_max": c.mixing.ratio_max},
        "T": c.T, "a": c.a,
    } for s, (ly, c) in zip(sample_us, samples)]}
    return (samples, schedule,
            {"xi_samples": xis, "sample_points": sample_us}, certificates)


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


def emit_report(result: RunResult, out_dir: str) -> dict:
    """Write the CSV distance series to out_dir/report.csv and the
    structured summary to out_dir/report_summary.json.

    CSV schema: m,mass_phi,mass_psi,l1_distance with full-precision
    floats.  Summary sections: config_echo, certificates, constants,
    fit, verdict.  Identical results produce byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.csv")
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
        "verdict": {"flags": result.flags, "pass": result.passed},
    }
    summary_path = os.path.join(out_dir, "report_summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"csv": csv_path, "summary": summary_path}
