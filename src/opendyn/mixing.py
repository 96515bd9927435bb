"""Mixing-partition verification and the perturbation samplers.

The mixing condition asks that lambda(J1 intersect F^-i J2)/(lambda(J1)
lambda(J2)) stay inside (zeta1, zeta2) for all element pairs once i
reaches the mixing time E.  Intersection measures come from pushing the
block of element indicator densities through the Ulam operators, which
is exact for aligned affine maps.  A local run draws its map schedule
(delta-perturbations of one base map; a full-branch draw is kept only
when the yes/no test `maps.is_perturbation` accepts it) and its random
holes from the samplers here, then checks the window on the blocks of
the operators it applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, ConfigError
from .maps import (Branch1D, MapSpec, full_branch_map, is_perturbation,
                   matrix_map)
from .holes import HoleSpec
from .phase import PartitionSpec
from .transfer import UlamOperator, build_closed, push


def ratio_profile(operators, Q: PartitionSpec) -> np.ndarray:
    """(min, max) of the pair ratio after each step of an operator product.

    Row k holds the extremes over element pairs of
    lambda(J1 intersect F_1^-1 ... F_{k+1}^-1 J2)/(lambda(J1) lambda(J2))
    for the first k+1 operators.  The block of element indicators is
    pushed through one operator at a time, so no product is formed.
    """
    if not operators:
        raise ConfigError("need at least one operator")
    cm = Q.grid.cell_measure
    sizes = np.array([cells.size for cells in Q.elements])
    if (sizes == 0).any():
        raise ConfigError("partition element of zero measure")
    lam = sizes * cm
    out = np.empty((len(operators), 2))
    for k, V in enumerate(push(operators, Q.indicator.T.toarray(), Q.grid)):
        R = (Q.indicator @ V) * cm / (lam[None, :] * lam[:, None])
        out[k] = R.min(), R.max()
    return out


def mixing_ratios(mapspec: MapSpec, Q: PartitionSpec, i: int = 1) -> tuple:
    """Extremes of the pair ratio of the closed map at time i."""
    if i < 1:
        raise ConfigError("i must be >= 1")
    profile = ratio_profile([build_closed(mapspec, Q.grid)] * i, Q)
    return tuple(profile[-1].tolist())


def find_mixing_time(mapspec: MapSpec, Q: PartitionSpec, zeta1: float,
                     zeta2: float, i_max: int = 24):
    """Smallest E <= i_max with all pair ratios inside (zeta1, zeta2) for
    every E <= i <= i_max, or None when the window never stabilizes."""
    try:
        return certify_mixing(mapspec, Q, zeta1, zeta2, i_max).E
    except CertificateError:
        return None


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class MixingCertificate:
    zeta1: float
    zeta2: float
    partition: PartitionSpec
    E: int
    ratio_min: float       # observed at i = E
    ratio_max: float
    i_checked: tuple       # (first, last) iterate examined

    def to_config(self) -> dict:
        return {"zeta1": self.zeta1, "zeta2": self.zeta2,
                "partition": self.partition.to_config(), "E": self.E,
                "ratio_min": self.ratio_min, "ratio_max": self.ratio_max,
                "i_checked": list(self.i_checked)}


def closed_certificate(closed: UlamOperator, Q: PartitionSpec, zeta1: float,
                       zeta2: float, i_max: int = 24) -> MixingCertificate:
    """The mixing certificate of a closed operator on Q; CertificateError
    when the ratio profile over steps 1..i_max ends outside (zeta1,
    zeta2).  E is the first step after the last one whose ratios leave
    the window."""
    if not (0.0 < zeta1 < 1.0 < zeta2):
        raise ConfigError("need 0 < zeta1 < 1 < zeta2")
    profile = ratio_profile([closed] * i_max, Q)
    ok = (zeta1 < profile[:, 0]) & (profile[:, 1] < zeta2)
    bad = np.flatnonzero(~ok)
    E = int(bad.max()) + 2 if bad.size else 1
    if E > i_max:
        raise CertificateError(
            f"no mixing time within i_max = {i_max} for ({zeta1}, {zeta2})")
    rmin, rmax = profile[E - 1].tolist()
    return MixingCertificate(zeta1, zeta2, Q, E, rmin, rmax, (1, i_max))


def certify_mixing(mapspec: MapSpec, Q: PartitionSpec, zeta1: float,
                   zeta2: float, i_max: int = 24) -> MixingCertificate:
    return closed_certificate(build_closed(mapspec, Q.grid), Q, zeta1, zeta2,
                              i_max)


# ---------------------------------------------------------------------------
# perturbation samplers

def _is_full_branch(m: MapSpec) -> bool:
    """Piecewise-affine with every branch onto the circle: the family
    perturb_full_branch draws from."""
    return m.kind == "affine_1d" and all(
        abs(b.image[1] - b.image[0] - 1.0) < 1e-9 for b in m.branches)


def perturb_full_branch(base: MapSpec, delta: float, rng) -> MapSpec:
    """Random full-branch delta-perturbation of the base: interior cuts
    jitter and slopes/offsets follow to keep every branch onto the
    circle.  The jitter is scaled by delta * 2^-k for k = 3..10 until a
    draw passes the exact `is_perturbation` check."""
    if delta == 0.0:
        return base
    cuts = np.asarray(base.cuts, dtype=float)
    jitter = rng.uniform(-1.0, 1.0, cuts.size)
    for k in range(3, 11):
        cand = np.sort(cuts + math.ldexp(delta, -k) * jitter)
        if cand.size and (cand[0] <= 1e-3 or cand[-1] >= 1.0 - 1e-3
                          or np.diff(np.r_[0.0, cand, 1.0]).min() <= 1e-3):
            continue
        g = full_branch_map(list(cand))
        if is_perturbation(base, g, delta):
            return g
    raise ConfigError("cannot realize a delta-perturbation in this family")


def perturb_offsets(base: MapSpec, delta: float, rng) -> MapSpec:
    """Random translation jitter of every branch (same continuity
    partition, same slopes), or of the offset vector of a torus map,
    always within delta in sup norm."""
    if delta == 0.0:
        return base
    if base.dimension == 2:
        shift = rng.uniform(-0.45 * delta, 0.45 * delta, 2)
        offset = tuple(float(o + s) for o, s in zip(base.offset, shift))
        return matrix_map(base.matrix, offset, base.check_expanding)
    shift = rng.uniform(-0.45 * delta, 0.45 * delta, len(base.branches))
    branches = tuple(
        Branch1D(b.lo, b.hi, (b.coeffs[0] + s,) + tuple(b.coeffs[1:]))
        for b, s in zip(base.branches, shift))
    return MapSpec(1, base.kind, branches)


def default_perturbation(base: MapSpec, delta: float, rng) -> MapSpec:
    if _is_full_branch(base) and base.cuts:
        return perturb_full_branch(base, delta, rng)
    return perturb_offsets(base, delta, rng)


def random_hole(dimension: int, epsilon: float, rng):
    """Random hole of measure at most epsilon (None when epsilon is 0)."""
    if epsilon == 0.0:
        return None
    if dimension == 1:
        width = epsilon * float(rng.uniform(0.5, 1.0))
        lo = float(rng.uniform(0.0, 1.0))
        return HoleSpec(1, intervals=((lo, (lo + width) % 1.0),))
    area = epsilon * float(rng.uniform(0.5, 1.0))
    # a width in [area, 1] keeps both sides at most 1, so no side wraps
    # onto itself and the rectangle's measure is the drawn area
    w = min(max(float(np.sqrt(area) * rng.uniform(0.5, 1.5)), area), 1.0)
    h = area / w
    x0, y0 = rng.uniform(0.0, 1.0, 2)
    return HoleSpec(2, rects=(_arc(x0, w) + _arc(y0, h),))


def _arc(lo: float, side: float) -> tuple:
    """The arc [lo, lo + side) of the circle for a side in (0, 1]; a full
    side is (0, 1), since (lo, lo) would be the empty arc."""
    return (0.0, 1.0) if side == 1.0 else (lo, (lo + side) % 1.0)
