"""Experiment orchestration: certified memory-loss runs and reports.

Both regimes run one pipeline, `_run`: draw the hole schedule and psi,
certify every base map, then climb the run's one ladder of cone
parameters (`parameter_ladder`, from the bases' worst LY constants) rung
by rung, while two blocks fit the horizon: cone-audit the initial
densities at the rung, walk its schedule a block of T steps at a time,
window-checking each full block, pushing both densities through it and
discarding its open operators, and stop at the first rung whose full
blocks all mix; audit the parameters, then price the final rung, budget,
fit and report.  A regime only supplies a plan: its base maps and, for
each rung, its map schedule with the constants and certificates it
reports.  A local run perturbs one base map; a global run traverses a
map curve slowly enough that certificates at sample points chain along it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CertificateError, ConfigError, TotalEscapeError
from .phase import (Grid, config_check, config_choice, config_integer,
                    config_keys, config_number, config_record, dyadic_pool)
from .maps import (MapSequence, MapSpec, doubling_map, full_branch_map,
                   is_perturbation, map_from_config)
from .holes import HoleSequence, HoleSpec, hole_from_config
from .transfer import (MASS_FLOOR, GridDensity, OperatorCache, normalize,
                       push)
from .seminorm import SeminormSpec, cone_member, estimate_LY
from .cone import parameter_ladder, rate_constants
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
        if not isinstance(cfg, dict):
            raise ConfigError(f"a run config must be a JSON object, "
                              f"got {cfg!r}")
        kind = config_choice(cfg, "kind", ("local", "global"))
        # a certificates record is accepted and ignored: every run
        # certifies with one fixed recipe
        config_keys(cfg, "kind", "grid", "horizon", "seed", "T1", "delta",
                    "zeta1", "zeta2", "sigma", "seminorm", "holes", "psi",
                    "map", "family", "certificates")
        # a local run perturbs its map, a global run traverses its family
        config_record(cfg, "map" if kind == "local" else "family")
        grid = Grid.from_config(config_record(cfg, "grid", {}))
        horizon = config_integer(cfg, "horizon")
        config_check(horizon >= 2, "horizon", "be at least 2", horizon)
        seed = config_integer(cfg, "seed", 0)
        config_check(seed >= 0, "seed", "be a non-negative integer", seed)
        T1 = config_integer(cfg, "T1", 1)
        config_check(T1 >= 1, "T1", "be at least 1", T1)
        delta = config_number(cfg, "delta", 0.0)
        config_check(delta >= 0.0, "delta", "be non-negative", delta)
        zeta1 = config_number(cfg, "zeta1", 0.8)
        config_check(0.0 < zeta1 < 1.0, "zeta1", "lie in (0, 1)", zeta1)
        zeta2 = config_number(cfg, "zeta2", 1.2)
        config_check(zeta2 > 1.0, "zeta2", "exceed 1", zeta2)
        sigma = config_number(cfg, "sigma", 0.5)
        config_check(0.0 < sigma < 1.0, "sigma", "lie in (0, 1)", sigma)
        sem = SeminormSpec.from_config(
            config_record(cfg, "seminorm", {"kind": "tv"}))
        return ExperimentConfig(
            kind=kind, grid=grid, horizon=horizon, seed=seed, zeta1=zeta1,
            zeta2=zeta2, sigma=sigma, T1=T1, seminorm=sem, delta=delta,
            holes=config_record(cfg, "holes", {"kind": "none"}),
            psi=config_record(cfg, "psi", {"kind": "cosine_bump",
                                           "amplitude": 0.15}),
            map_rec=config_record(cfg, "map", {}),
            family=config_record(cfg, "family", {}), raw=cfg)


@dataclass
class RunResult:
    records: list           # dicts: m, mass_phi, mass_psi, l1_distance
    fit: tuple | None       # (C_fit, lambda_fit, r2); None below the floor
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
    kind = config_choice(rec, "kind", ("none", "static", "drifting_interval",
                                       "random_intervals"), "none")
    if kind == "none":
        config_keys(rec, "kind")
        return HoleSequence.closed(m)
    if kind == "static":
        config_keys(rec, "kind", "hole")
        hole = hole_from_config(config_record(rec, "hole"))
        config_check(hole.dimension == dimension, "dimension",
                     f"equal the grid's dimension {dimension}",
                     hole.dimension)
        return HoleSequence.static(hole, m)
    if kind == "drifting_interval":
        config_keys(rec, "kind", "measure", "center", "velocity")
        w = config_number(rec, "measure")
        config_check(0.0 <= w < 1.0, "measure", "lie in [0, 1)", w)
        c0 = config_number(rec, "center", 0.3)
        v = config_number(rec, "velocity", 0.137)
        holes = []
        for k in range(m):
            c = (c0 + k * v) % 1.0
            holes.append(HoleSpec(1, intervals=(((c - w / 2) % 1.0,
                                                 (c + w / 2) % 1.0),)))
        return HoleSequence(tuple(holes))
    config_keys(rec, "kind", "epsilon")
    eps = config_number(rec, "epsilon")
    config_check(0.0 <= eps < 1.0, "epsilon", "lie in [0, 1)", eps)
    return HoleSequence(tuple(random_hole(dimension, eps, rng)
                              for _ in range(m)))


def build_density(rec: dict, grid: Grid, rng) -> GridDensity:
    """The second initial density psi; the first, phi, is uniform."""
    kind = config_choice(rec, "kind", ("cosine_bump", "sawtooth", "blocks"))
    if kind in ("cosine_bump", "sawtooth"):
        config_keys(rec, "kind", "amplitude")
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
    config_keys(rec, "kind", "blocks")
    nb = config_integer(rec, "blocks", 16)
    config_check(1 <= nb <= grid.total_cells, "blocks",
                 f"lie in 1..{grid.total_cells}", nb)
    heights = rng.uniform(0.25, 2.0, nb)
    v = np.repeat(heights, grid.total_cells // nb)
    v = np.r_[v, np.full(grid.total_cells - v.size, heights[-1])]
    return normalize(GridDensity(grid, v))


# ---------------------------------------------------------------------------
# certification pipeline

def _certify(bases, grid: Grid, cfg: ExperimentConfig, cache) -> tuple:
    """The LY certificate of each base map's closed operator and the run's
    one ladder of cone parameters (`parameter_ladder`), built from their
    worst constants theta = max theta_s and C = max C_s on the first
    base's closed operator: (LY certificates, theta, C, rungs).  Each base's
    inequality implies the one with these constants, so the ladder's
    cone serves every map the run applies."""
    closed = [cache.get(base, None, grid) for base in bases]
    lys = [estimate_LY([op] * (K_MAX * cfg.T1), cfg.T1, cfg.seminorm,
                       ENSEMBLE_SIZE, seed=LY_SEED) for op in closed]
    theta, C = max(ly.theta for ly in lys), max(ly.C for ly in lys)
    rungs = parameter_ladder(cfg.zeta1, cfg.zeta2, theta, C, cfg.T1,
                             cfg.seminorm, dyadic_pool(grid, MAX_LEVEL),
                             closed[0], cfg.sigma, I_MAX)
    return lys, theta, C, rungs


# ---------------------------------------------------------------------------
# evolution core

def _grid_budget(records, peaks, grid: Grid, c_lip_val: float) -> list:
    """Reported discretization budget: each projection step displaces a
    seminorm-V density by at most V*h/2 in L1, and normalization is
    c_lip-Lipschitz, compounding linearly over the horizon."""
    h = grid.spacing
    return [c_lip_val * r["m"] * h * v * 0.5 for r, v in zip(records, peaks)]


def _flags_and_fit(records, budget, rate):
    """The decay fit and the two verdict flags.  With fewer than 3
    distances above FIT_FLOOR the fit is None, and fit_ok holds when none
    after the second step is: the run forgot faster than a fit resolves."""
    series = [(r["m"], r["l1_distance"]) for r in records]
    bound_ok = all(
        r["l1_distance"] <= rate.c0 * rate.lam ** r["m"] + b + 1e-12
        for r, b in zip(records, budget))
    try:
        fit = fit_exponential(series)
    except ConfigError:
        return None, bound_ok, all(d <= FIT_FLOOR for _, d in series[2:])
    fit_ok = fit[2] >= FIT_R2_MIN and fit[1] < 1.0
    return fit, bound_ok, fit_ok


# ---------------------------------------------------------------------------
# runs

def _walk(cfg: ExperimentConfig, cp, maps, hseq, cache: OperatorCache,
          phi0: GridDensity, psi0: GridDensity):
    """One walk over the run's schedule at block length cp.T, a block of
    T steps at a time: take the block's operators from the cache, check
    the mixing window on a full block (`ratio_profile` of its element
    indicators), push phi and psi through it as one two-column block,
    then discard the block's open operators that the next block does not
    request.  So a run holds at most one block of open operators, and a
    step repeated in the next block is assembled once.  The steps after
    the last full block are pushed but not window-checked.

    Every step records the masses, the normalized L1 distance and the
    seminorm peak so far; an exact power-of-two rescaling of each column
    (exponent carried) keeps long runs from underflowing.  Returns
    (records, peaks), or None at the first block outside the window,
    whose open operators are all discarded; raises TotalEscapeError at
    the step where a density keeps at most MASS_FLOOR of its mass."""
    grid, sem, T = cfg.grid, cfg.seminorm, cp.T
    peak = max(sem.value(normalize(phi0)), sem.value(normalize(psi0)))
    V = np.column_stack([phi0.values, psi0.values])
    mass_in = np.array([phi0.mass, psi0.mass])
    exponent = np.zeros(2, dtype=int)
    records, peaks = [], []
    blocks = [[(maps.at(i), hseq.at(i))
               for i in range(start + 1, min(start + T, cfg.horizon) + 1)]
              for start in range(0, cfg.horizon, T)]
    for steps, later in zip(blocks, blocks[1:] + [[]]):
        ops = cache.get_many(steps, grid)
        if len(ops) == T:
            lo, hi = ratio_profile(ops, cp.Q)[-1]
            if not (cfg.zeta1 < lo and hi < cfg.zeta2):
                cache.discard(steps, grid)
                return None
        for V in push(ops, V, grid):
            k = len(records) + 1
            W = np.ascontiguousarray(V.T)
            mass = W.mean(axis=1)
            if (mass <= MASS_FLOOR * mass_in).any():
                raise TotalEscapeError(
                    f"total escape at step {k}: a density kept at most "
                    f"{MASS_FLOOR:.3g} of its mass")
            W /= mass[:, None]
            peak = max(peak, float(sem.rows(W, grid).max()))
            mass_phi, mass_psi = np.ldexp(mass, exponent).tolist()
            records.append({
                "m": k, "mass_phi": mass_phi, "mass_psi": mass_psi,
                "l1_distance": float(np.abs(W[0] - W[1]).mean())})
            peaks.append(peak)
            mass_in, shift = np.frexp(mass)
            V *= np.ldexp(1.0, -shift)
            exponent += shift
        # drop the block before the next one is assembled, so no two
        # blocks of open operators are alive at once
        del ops
        cache.discard(set(steps).difference(later), grid)
    return records, peaks


def _run(config, kind: str, plan) -> RunResult:
    """The certified pipeline both regimes share.

    plan(cfg, rng) returns the regime's base maps and a function from a
    rung's cone parameters and the bases' LY certificates to the map
    schedule, constants and certificates the run reports at that rung.
    Holes and psi are drawn from rng after the plan's own draws and
    before certification, which draws nothing, so a malformed record is
    refused before any operator is built.

    The run has one cone: it climbs the one ladder `_certify` builds.
    After the horizon check at the first rung, at each rung it
    cone-audits the initial densities at the rung's (a, Q) and walks the
    rung's schedule (`_walk`), a block of T steps at a time; a block
    outside the window sends it to the next rung while two of its blocks
    fit the horizon, and a total escape ends the run at its step.  The
    final rung is audited with the ladder's LY constants and prices the
    run, which reports them as its LY certificate: the first base's,
    with theta = max theta_s and C = max C_s.
    """
    cfg = config if isinstance(config, ExperimentConfig) \
        else ExperimentConfig.from_dict(config)
    if cfg.kind != kind:
        raise ConfigError(f"run_{kind} needs a {kind} config")
    rng = np.random.default_rng(cfg.seed)
    grid, cache = cfg.grid, OperatorCache()
    bases, schedule = plan(cfg, rng)
    hseq = hole_schedule(cfg.holes, cfg.horizon, grid.dimension, rng)
    phi0 = GridDensity.uniform(grid)
    psi0 = build_density(cfg.psi, grid, rng)

    lys, theta, C, rungs = _certify(bases, grid, cfg, cache)
    cp = next(rungs)
    config_check(cfg.horizon >= 2 * cp.T, "horizon",
                 f"be at least 2T = {2 * cp.T}", cfg.horizon)
    while True:
        for dens in (phi0, psi0):
            if not cone_member(dens, cp.a, cp.Q, cfg.seminorm).ok:
                raise ConfigError("initial densities fail the cone audit")
        maps, schedule_constants, certificates = schedule(cp, lys)
        walked = _walk(cfg, cp, maps, hseq, cache, phi0, psi0)
        if walked is not None:
            break
        T, cp = cp.T, next(rungs)
        if cfg.horizon < 2 * cp.T:
            raise CertificateError(
                f"open blocks never satisfied the mixing window up to "
                f"T = {T}; two blocks of T = {cp.T} exceed the horizon "
                f"{cfg.horizon}")
    fails = cp.audit(theta, C, cfg.T1)
    if fails:
        raise CertificateError("; ".join(fails))
    rate = rate_constants(cp)

    records, peaks = walked
    budget = _grid_budget(records, peaks, grid, rate.c_lip)
    fit, bound_ok, fit_ok = _flags_and_fit(records, budget, rate)

    flags = {"bound_dominated": bound_ok, "fit_ok": fit_ok}
    constants = {"delta0": rate.delta0, "lambda": rate.lam, "c0": rate.c0,
                 "c_lip": rate.c_lip, "a": cp.a, "sigma": cp.sigma, "T": cp.T,
                 "zeta1": cp.zeta1, "zeta2": cp.zeta2, "d": cp.d, "M": cp.M,
                 "grid_n": grid.n,
                 "budget_formula": "c_lip*m*h*peak_seminorm/2",
                 **schedule_constants}
    mix = cp.mixing
    certificates = {"cone_params": cp.to_config(),
                    "ly": replace(lys[0], theta=theta, C=C).to_config(),
                    "mixing": {"E": mix.E, "ratio_min": mix.ratio_min,
                               "ratio_max": mix.ratio_max,
                               "i_checked": list(mix.i_checked)},
                    **certificates}
    return RunResult(records, fit, constants, certificates, flags, budget,
                     cfg.raw)


def _local_plan(cfg: ExperimentConfig, rng):
    base = map_from_config(cfg.map_rec)
    config_check(base.dimension == cfg.grid.dimension, "kind",
                 f"name a map of the grid's dimension {cfg.grid.dimension}",
                 cfg.map_rec["kind"])
    mseq = MapSequence(tuple(default_perturbation(base, cfg.delta, rng)
                             for _ in range(cfg.horizon)))

    def schedule(cp, lys) -> tuple:
        """The drawn maps at every rung."""
        return mseq, {}, {}
    return [base], schedule


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


def _global_plan(cfg: ExperimentConfig, rng):
    fam_rec = cfg.family
    family = FAMILIES[config_choice(fam_rec, "name", FAMILIES)]
    config_keys(fam_rec, "name", "u_start", "u_end", "cert_samples", "step")
    u0 = config_number(fam_rec, "u_start", 0.0)
    u1 = config_number(fam_rec, "u_end", 1.0)
    config_check(0.0 <= u0 <= 1.0, "u_start", "lie in [0, 1]", u0)
    config_check(u0 <= u1 <= 1.0, "u_end", f"lie in [u_start = {u0!r}, 1]",
                 u1)
    n_samples = config_integer(fam_rec, "cert_samples", 5)
    config_check(n_samples >= 2, "cert_samples", "be at least 2", n_samples)
    step_rec = fam_rec.get("step", "auto")
    if step_rec != "auto":
        step_rec = config_number(fam_rec, "step")
        config_check(step_rec > 0.0, "step", "be positive", step_rec)
    sample_us = [float(s) for s in np.linspace(u0, u1, n_samples)]
    xis = [_stability_radius(family, s, u0, u1, cfg.delta) for s in sample_us]

    def schedule(cp, lys) -> tuple:
        """The traversal at the rung's block length T, with its speed
        limit and step: a block of T steps moves the parameter by at most
        half the smallest certified radius."""
        limit = min(xis) / (2.0 * cp.T)
        step = limit if step_rec == "auto" else step_rec
        if u1 > u0 and step > limit + 1e-15:
            raise ConfigError(
                f"parameter step {step:.4g} exceeds the speed limit "
                f"{limit:.4g} at block length T = {cp.T}")
        us = [min(u1, u0 + k * step) for k in range(cfg.horizon)]
        maps = MapSequence(tuple(family(u) for u in us))
        return maps, {"sigma_estimate": limit, "step": step,
                      "xi_samples": xis, "sample_points": sample_us}, \
            {"per_sample": [{"u": s, "ly": ly.to_config()}
                            for s, ly in zip(sample_us, lys)]}
    return [family(s) for s in sample_us], schedule


def run_global(config) -> RunResult:
    """Certified quasi-static traversal of a map curve: one cone for
    every sample point, the speed limit at the run's final block length,
    then the shared evolution core."""
    return _run(config, "global", _global_plan)


# ---------------------------------------------------------------------------
# fitting and reporting

def fit_exponential(series) -> tuple:
    """(C_fit, Lambda_fit, R2) from least squares on log d_m against m,
    ignoring entries at or below the 1e-14 floor."""
    pts = [(float(m), float(d)) for m, d in series if d > FIT_FLOOR]
    if len(pts) < 3:
        raise ConfigError("need at least 3 points above the fit floor")
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
    fit (null without one), verdict.  Identical results produce
    byte-identical files.
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
        "fit": None if result.fit is None else dict(
            zip(("C_fit", "lambda_fit", "r2"), result.fit)),
        "verdict": {"flags": result.flags, "pass": result.passed},
    }
    summary_path = os.path.join(out_dir, "report_summary.json")
    with open(summary_path, "w") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return {"csv": csv_path, "summary": summary_path}
