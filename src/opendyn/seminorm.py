"""Strong seminorms and the estimates built on them.

Total variation (1D, cyclic) and the oscillation seminorm (sup over a
dyadic ladder of scales of the averaged oscillation over metric balls)
measure density regularity; each is evaluated for every row of a
(k, cells) block at once.  On top of them: conditional expectations,
cone membership, the conditional-expectation control bounds for a
certified block, and empirical Lasota-Yorke certification.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import CertificateError, ConfigError, DegenerateParametersWarning
from .mixing import ratio_profile
from .phase import (Grid, PartitionSpec, config_keys, config_number,
                    diam_lambda, metric_diam)
from .transfer import GridDensity, push

NONNEG_TOL = 1e-12  # float dust allowed below zero after matrix products


# ---------------------------------------------------------------------------
# seminorms: each reduces along the contiguous last axis of a (k, cells)
# array, so a row gives the same bits as the same density on its own

def _tv_rows(V: np.ndarray, grid: Grid) -> np.ndarray:
    # the cyclic differences are written by slices into one buffer laid out
    # like V, so each row sums the same |jumps| in the same order as the
    # formula with a rolled copy, |V - roll(V)|, without making that copy
    if grid.dimension == 1:
        D = np.empty_like(V)
        np.subtract(V[:, :-1], V[:, 1:], out=D[:, :-1])
        np.subtract(V[:, -1], V[:, 0], out=D[:, -1])
        return np.abs(D, out=D).sum(axis=1)
    k, n = V.shape[0], grid.n
    W = V.reshape(k, n, n)
    D = np.empty_like(W)
    tv = 0
    for Wa, Da in ((W, D), (W.swapaxes(1, 2), D.swapaxes(1, 2))):
        np.subtract(Wa[:, 1:], Wa[:, :-1], out=Da[:, 1:])
        np.subtract(Wa[:, 0], Wa[:, -1], out=Da[:, 0])
        tv = tv + np.abs(D, out=D).reshape(k, -1).sum(axis=1)
    return tv / n


def total_variation(phi: GridDensity) -> float:
    """Cyclic total variation.  1D: sum of |jumps| around the circle.
    2D: jumps across cell edges weighted by edge length."""
    return float(_tv_rows(phi.values[None], phi.grid)[0])


@dataclass(frozen=True)
class OscParams:
    """Oscillation-seminorm parameters: Hölder exponent and scale bound."""

    alpha: float
    eps0: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must lie in (0, 1]")
        if self.eps0 <= 0.0:
            raise ConfigError("eps0 must be positive")


def _osc_rows(V: np.ndarray, grid: Grid, p: OscParams) -> tuple:
    """(ladder scales eps, eps^(-alpha) * mean oscillation: rows x scales).

    The ladder stops at the first scale whose window spans the grid:
    there every cell's oscillation is the global range, so each larger
    scale only divides it by a larger eps^alpha."""
    # imported here: ndimage pulls in scipy.special, and only osc needs it
    from scipy import ndimage
    h, diam = grid.spacing, grid.cell_diameter
    if p.eps0 < diam - 1e-12:
        raise ConfigError("eps0 below one cell diameter")
    k, dim = V.shape[0], grid.dimension
    W = V.reshape((k,) + (grid.n,) * dim)
    scales, cols = [], []
    eps, width = diam, 0
    while eps <= p.eps0 * (1.0 + 1e-12) and width < grid.n:
        # cells overlapping the open ball of radius eps around a cell center
        width = 2 * int(math.floor(eps / h + 0.5 - 1e-12)) + 1
        size = (1,) + (width,) * dim
        osc = ndimage.maximum_filter(W, size=size, mode="wrap") \
            - ndimage.minimum_filter(W, size=size, mode="wrap")
        scales.append(eps)
        cols.append(osc.reshape(k, -1).mean(axis=1) / eps ** p.alpha)
        eps *= 2.0
    return scales, np.column_stack(cols)


def oscillation_seminorm(phi: GridDensity, p: OscParams,
                         return_profile: bool = False):
    """sup over the ladder eps in {cell_diameter * 2^j} of
    eps^(-alpha) * integral of osc(phi, B_eps(x)) dx.

    Balls have radius eps; on the grid a ball is the set of cells it
    overlaps (a square window in 2D).  The ladder realizes the supremum
    up to the documented scale discretization.
    """
    scales, vals = _osc_rows(phi.values[None], phi.grid, p)
    value = float(vals[0].max())
    return (value, list(zip(scales, vals[0].tolist()))) if return_profile \
        else value


@dataclass(frozen=True)
class SeminormSpec:
    """Which strong seminorm is in use, with its constants.

    The control-lemma constant M and the partition diameter rule go with
    the seminorm: TV uses M = 1 and the measure diameter; the oscillation
    seminorm uses M = (metric diam Q)^(1-alpha) and the metric diameter.
    """

    kind: str                     # "tv" | "osc"
    osc: OscParams | None = None

    def __post_init__(self):
        if self.kind not in ("tv", "osc"):
            raise ConfigError("seminorm kind must be 'tv' or 'osc'")
        if self.kind == "osc" and self.osc is None:
            raise ConfigError("oscillation seminorm needs OscParams")

    def rows(self, V: np.ndarray, grid: Grid) -> np.ndarray:
        """The seminorm of each row of a (k, cells) array."""
        if self.kind == "tv":
            return _tv_rows(V, grid)
        return _osc_rows(V, grid, self.osc)[1].max(axis=1)

    def value(self, phi: GridDensity) -> float:
        return float(self.rows(phi.values[None], phi.grid)[0])

    def diam(self, Q: PartitionSpec) -> float:
        return diam_lambda(Q) if self.kind == "tv" else metric_diam(Q)

    def M(self, Q: PartitionSpec) -> float:
        if self.kind == "tv":
            return 1.0
        return metric_diam(Q) ** (1.0 - self.osc.alpha)

    def to_config(self) -> dict:
        if self.kind == "tv":
            return {"kind": "tv"}
        return {"kind": "osc", "alpha": self.osc.alpha, "eps0": self.osc.eps0}

    @staticmethod
    def from_config(rec: dict) -> "SeminormSpec":
        kind = rec["kind"]
        if kind == "tv":
            config_keys(rec, "kind")
            return SeminormSpec("tv")
        if kind == "osc":
            config_keys(rec, "kind", "alpha", "eps0")
            return SeminormSpec("osc", OscParams(config_number(rec, "alpha"),
                                                 config_number(rec, "eps0")))
        raise ConfigError(f"config key 'kind' must be 'tv' or 'osc', "
                          f"got {kind!r}")


# ---------------------------------------------------------------------------
# element averages and the cone

def element_expectations(phi: GridDensity, Q: PartitionSpec) -> np.ndarray:
    """Average of phi over each element of Q."""
    return (Q.indicator @ phi.values) / [cells.size for cells in Q.elements]


class ConeCheck(NamedTuple):
    ok: bool
    margin: float
    seminorm_value: float
    min_expectation: float


def cone_member(phi: GridDensity, a: float, Q: PartitionSpec,
                sem: SeminormSpec) -> ConeCheck:
    """Membership in the cone {phi >= 0, phi not a.e. 0, |phi|_s <= a E[phi|Q]}
    (the per-element form: the seminorm is dominated by a times the
    smallest conditional expectation).  Margin = a*minE - |phi|_s."""
    if a <= 0.0:
        raise ConfigError("aperture a must be positive")
    vmin = float(phi.values.min())
    sval = sem.value(phi)
    emin = float(element_expectations(phi, Q).min())
    margin = a * emin - sval
    ok = vmin >= -NONNEG_TOL and phi.mass > 0.0 and margin >= 0.0
    return ConeCheck(ok, margin, sval, emin)


# ---------------------------------------------------------------------------
# control bounds for a certified block

class ControlReport(NamedTuple):
    lower_ok: bool
    upper_ok: bool
    e_min: float
    e_max: float
    lower_bound: float
    upper_bound: float


def control_bounds_check(ops: list, Q: PartitionSpec, zeta1: float,
                         zeta2: float, a: float, M: float, phi: GridDensity,
                         sem: SeminormSpec) -> ControlReport:
    """Two-sided bound on E[L_block phi | Q] for a cone density phi:

        (zeta1 - zeta2*(a/M)*d) * mass <= E[...] <= zeta2*(1 + (a/M)*d) * mass

    with d the partition diameter in the seminorm's convention.  The
    block is the operator list ops.  Preconditions: phi in the cone, and
    the block mixes on Q within (zeta1, zeta2)."""
    check = cone_member(phi, a, Q, sem)
    if not check.ok:
        raise CertificateError(f"phi not in the cone: margin {check.margin:.3g}")
    rmin, rmax = ratio_profile(ops, Q)[-1]
    if not (zeta1 < rmin and rmax < zeta2):
        raise CertificateError(
            f"block ratios [{rmin:.4g}, {rmax:.4g}] escape ({zeta1}, {zeta2})")
    d = sem.diam(Q)
    lo_coef = zeta1 - zeta2 * (a / M) * d
    if lo_coef <= 0.0:
        warnings.warn("lower control bound is vacuous (zeta1 <= zeta2*a*d/M)",
                      DegenerateParametersWarning)
    mass = phi.mass
    for v in push(ops, phi.values, phi.grid):
        pass
    e = element_expectations(GridDensity(phi.grid, v), Q)
    lower = lo_coef * mass
    upper = zeta2 * (1.0 + (a / M) * d) * mass
    return ControlReport(bool(e.min() >= lower - NONNEG_TOL),
                         bool(e.max() <= upper + NONNEG_TOL),
                         float(e.min()), float(e.max()), lower, upper)


# ---------------------------------------------------------------------------
# empirical Lasota-Yorke certification

@dataclass(frozen=True)
class LYCertificate:
    """Certified (theta, C) for |L_{F_{kT1}} phi|_s <= theta^{kT1} |phi|_s + C ||phi||,
    verified on a seeded ensemble for k = 1..max_k."""

    T1: int
    theta: float
    C: float
    seminorm: dict
    ensemble: dict          # size, seed, grid dimension and n, member kinds
    max_k: int

    def to_config(self) -> dict:
        return asdict(self)


ENSEMBLE_KINDS = ("constant", "step", "blocks")


def ly_ensemble(grid: Grid, size: int, seed: int) -> list:
    """Deterministic density ensemble with a spread of seminorm values:
    constants, two-level steps, and random piecewise-constant profiles."""
    if size < 1:
        raise ConfigError("ensemble size must be >= 1")
    rng = np.random.default_rng(seed)
    members = []
    total = grid.total_cells
    for j in range(size):
        kind = ENSEMBLE_KINDS[j % len(ENSEMBLE_KINDS)]
        if kind == "constant":
            v = np.full(total, float(rng.uniform(0.2, 3.0)))
        elif kind == "step":
            v = np.full(total, float(rng.uniform(0.0, 0.5)))
            start = int(rng.integers(0, total))
            width = int(rng.integers(1, total // 2 + 1))
            idx = (start + np.arange(width)) % total
            v[idx] += float(rng.uniform(0.5, 4.0))
        else:
            nblocks = int(rng.integers(2, 64))
            heights = rng.uniform(0.0, 4.0, nblocks)
            v = np.repeat(heights, total // nblocks)
            v = np.r_[v, np.full(total - v.size, heights[-1])]
        members.append(GridDensity(grid, v))
    return members


THETA_LATTICE = np.round(np.arange(0.005, 1.0, 0.005), 6)


def _c_lattice_value(c_needed: float) -> float:
    """Smallest lattice constant 1e-12 * 2^t covering the needed C (C > 0)."""
    if c_needed <= 1e-12:
        return 1e-12
    t = math.ceil(math.log2(c_needed / 1e-12))
    return 1e-12 * 2.0 ** t


def _ly_replay(ops: list, T1: int, sem: SeminormSpec, members: list) -> tuple:
    """(s0, mass0, svals): each member's seminorm and mass, and its
    seminorm after k*T1 operators of ops in column k-1."""
    grid = ops[0].grid
    W = np.array([phi.values for phi in members])
    svals = np.column_stack([
        sem.rows(np.ascontiguousarray(V.T), grid)
        for step, V in enumerate(push(ops, W.T, grid), 1) if step % T1 == 0])
    return sem.rows(W, grid), W.mean(axis=1), svals


def _ly_excess(s0, mass0, svals, T1: int, theta, C: float) -> np.ndarray:
    """How far each replayed seminorm exceeds theta^(kT1) |phi|_s + C ||phi||.

    theta is one value, giving a (members, k) array, or a 1D array of
    candidates, giving one such array per candidate along a leading axis;
    either way each entry is the same floating-point expression.  A NaN in
    s0, mass0 or svals stays NaN in the excess of every candidate."""
    kpow = np.arange(1, svals.shape[1] + 1) * T1
    theta = np.asarray(theta)[..., None]
    # one exponent per entry: numpy squares instead of calling pow when an
    # exponent 2 is broadcast over the candidates, which can move a last bit
    powers = (theta ** np.tile(kpow, theta.shape))[..., None, :]
    return svals - (s0[:, None] * powers + C * mass0[:, None])


def _ly_needed(lattice, mass0) -> np.ndarray:
    """The constant each candidate needs: the worst excess per unit mass
    over (member, k) of its C = 0 lattice excess, at least +0.0.

    np.maximum keeps a NaN, so a NaN replay makes the candidate's constant
    NaN; it may also return -0.0 for an excess of -0.0, which adding 0.0
    makes +0.0, as the scalar max(0.0, x) of a per-candidate loop gives."""
    return np.maximum(0.0, (lattice / mass0[:, None]).max(axis=(1, 2))) + 0.0


def estimate_LY(ops: list, T1: int, sem: SeminormSpec, ensemble_size: int,
                seed: int = 0) -> LYCertificate:
    """Smallest lattice (theta, C) making the block inequality hold for
    every ensemble member after every k*T1 operators of ops, k >= 1.

    The constant each THETA_LATTICE candidate needs is the worst excess
    per unit mass at C = 0, taken for all candidates in one broadcast over
    (theta, member, k).  Selection minimizes the additive constant first,
    then takes the smallest theta achieving it (the frontier point closest
    to a pure power bound).  Raises CertificateError with a witness if no
    theta below 1 admits a finite constant, which includes any replay with
    a NaN seminorm or mass: a non-finite excess certifies nothing.
    """
    if T1 < 1 or not ops or len(ops) % T1:
        raise ConfigError(
            f"{len(ops)} operators are not a positive multiple of T1 = {T1}")
    grid = ops[0].grid
    s0, mass0, svals = _ly_replay(ops, T1, sem,
                                  ly_ensemble(grid, ensemble_size, seed))
    c_needed = _ly_needed(
        _ly_excess(s0, mass0, svals, T1, THETA_LATTICE, 0.0), mass0)
    c_star = c_needed.min()
    if not np.isfinite(c_star) or c_star > 1e9:
        j_bad = int(np.unravel_index(np.argmax(svals), svals.shape)[0])
        raise CertificateError(
            f"no admissible (theta, C); worst ensemble member index {j_bad}")
    t_sel = int(np.argmax(c_needed <= c_star + 1e-12))
    theta = float(THETA_LATTICE[t_sel])
    C = _c_lattice_value(c_needed[t_sel])

    # replay audit before certifying
    excess = _ly_excess(s0, mass0, svals, T1, theta, C)
    if (~(excess <= 1e-9)).any():
        j_bad, k_bad = np.unravel_index(np.argmax(excess), excess.shape)
        raise CertificateError(
            f"selected (theta={theta}, C={C}) fails replay at member {j_bad}, "
            f"k={k_bad + 1}")
    return LYCertificate(
        T1, theta, C, sem.to_config(),
        {"size": ensemble_size, "seed": seed, "dimension": grid.dimension,
         "n": grid.n, "kinds": list(ENSEMBLE_KINDS)}, len(ops) // T1)


def verify_ly(cert: LYCertificate, ops: list):
    """Replay a certificate through exactly its max_k * T1 operators on its
    own stored ensemble.  Returns (ok, violations) where violations list
    (member, k, excess); a NaN excess is a violation."""
    if not ops or len(ops) != cert.max_k * cert.T1:
        raise ConfigError(f"the certificate covers {cert.max_k * cert.T1} "
                          f"operators, got {len(ops)}")
    members = ly_ensemble(ops[0].grid, cert.ensemble["size"],
                          cert.ensemble["seed"])
    sem = SeminormSpec.from_config(cert.seminorm)
    s0, mass0, svals = _ly_replay(ops, cert.T1, sem, members)
    excess = _ly_excess(s0, mass0, svals, cert.T1, cert.theta, cert.C)
    violations = [(int(j), int(k) + 1, float(excess[j, k]))
                  for j, k in np.argwhere(~(excess <= 1e-9))]
    return len(violations) == 0, violations
