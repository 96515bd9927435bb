"""Mixing-partition verification and its stability under perturbation.

The mixing condition asks that lambda(J1 intersect F^-i J2)/(lambda(J1)
lambda(J2)) stay inside (zeta1, zeta2) for all element pairs once i
reaches the mixing time E.  Intersection measures come from pushing the
block of element indicator densities through the Ulam operators, which
is exact for aligned affine maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, ConfigError, ParameterError
from .maps import (Branch1D, MapSpec, MapSequence, full_branch_map,
                   matrix_map, perturbation_distance)
from .holes import HoleSpec, HoleSequence
from .phase import PartitionSpec
from .transfer import UlamOperator, build_closed, push, schedule_operators


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
    cert = closed_certificate(build_closed(mapspec, Q.grid), Q, zeta1, zeta2,
                              i_max)
    return None if cert is None else cert.E


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

    def to_json(self) -> str:
        return json.dumps({
            "zeta1": self.zeta1, "zeta2": self.zeta2,
            "partition": json.loads(self.partition.to_json()),
            "E": self.E, "ratio_min": self.ratio_min,
            "ratio_max": self.ratio_max, "i_checked": list(self.i_checked)})

    @staticmethod
    def from_json(text: str) -> "MixingCertificate":
        rec = json.loads(text)
        part = PartitionSpec.from_json(json.dumps(rec["partition"]))
        return MixingCertificate(rec["zeta1"], rec["zeta2"], part, rec["E"],
                                 rec["ratio_min"], rec["ratio_max"],
                                 tuple(rec["i_checked"]))


def closed_certificate(closed: UlamOperator, Q: PartitionSpec, zeta1: float,
                       zeta2: float, i_max: int = 24):
    """The mixing certificate of a closed operator on Q, or None when the
    ratio profile over steps 1..i_max ends outside (zeta1, zeta2).  E is
    the first step after the last one whose ratios leave the window."""
    if not (0.0 < zeta1 < 1.0 < zeta2):
        raise ParameterError("need 0 < zeta1 < 1 < zeta2")
    profile = ratio_profile([closed] * i_max, Q)
    ok = (zeta1 < profile[:, 0]) & (profile[:, 1] < zeta2)
    bad = np.flatnonzero(~ok)
    E = int(bad.max()) + 2 if bad.size else 1
    if E > i_max:
        return None
    rmin, rmax = profile[E - 1].tolist()
    return MixingCertificate(zeta1, zeta2, Q, E, rmin, rmax, (1, i_max))


def certify_mixing(mapspec: MapSpec, Q: PartitionSpec, zeta1: float,
                   zeta2: float, i_max: int = 24) -> MixingCertificate:
    cert = closed_certificate(build_closed(mapspec, Q.grid), Q, zeta1, zeta2,
                              i_max)
    if cert is None:
        raise CertificateError(
            f"no mixing time within i_max = {i_max} for ({zeta1}, {zeta2})")
    return cert


# ---------------------------------------------------------------------------
# perturbation samplers

def _is_full_branch(m: MapSpec) -> bool:
    """Piecewise-affine with every branch onto the circle: the family
    perturb_full_branch draws from."""
    return m.kind == "affine_1d" and all(
        abs(b.image[1] - b.image[0] - 1.0) < 1e-9 for b in m.branches)


def perturb_full_branch(base: MapSpec, delta: float, rng) -> MapSpec:
    """Random full-branch map within perturbation distance delta of the
    base: interior cuts jitter and slopes/offsets follow to keep every
    branch onto the circle.  Each draw is checked with the exact
    `perturbation_distance`, and the jitter is halved until one lands
    within delta."""
    if delta == 0.0:
        return base
    cuts = np.asarray(base.cuts, dtype=float)
    jitter = rng.uniform(-1.0, 1.0, cuts.size)
    scale = delta / 8.0
    for _ in range(8):
        cand = np.sort(cuts + scale * jitter)
        if cand.size and (cand[0] <= 1e-3 or cand[-1] >= 1.0 - 1e-3
                          or np.diff(np.r_[0.0, cand, 1.0]).min() <= 1e-3):
            scale *= 0.5
            continue
        g = full_branch_map(list(cand))
        dist = perturbation_distance(base, g)
        if dist is not None and dist <= delta:
            return g
        scale *= 0.5
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
    w = float(np.sqrt(area) * rng.uniform(0.5, 1.5))
    h = area / w
    x0, y0 = rng.uniform(0.0, 1.0, 2)
    return HoleSpec(2, rects=((x0, (x0 + w) % 1.0, y0, (y0 + h) % 1.0),))


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    violations: list        # (sample index, ratio_min, ratio_max)
    samples: int
    seed: int
    delta: float
    epsilon: float
    S: int

    def to_json(self) -> str:
        return json.dumps({"ok": self.ok, "violations": self.violations,
                           "samples": self.samples, "seed": self.seed,
                           "delta": self.delta, "epsilon": self.epsilon,
                           "S": self.S})


def stability_check(g: MapSpec, Q: PartitionSpec, zeta1: float, zeta2: float,
                    S: int, delta: float, epsilon: float, samples: int,
                    seed: int = 0, cache=None) -> StabilityReport:
    """Sampled falsification of mixing stability: random length-S
    schedules of delta-perturbations of g with holes of measure at most
    epsilon, each checked for the block pair-ratio window.

    Per-sample RNG streams are spawned from the recorded seed, so a
    report replays exactly.
    """
    if not (0.0 < zeta1 < 1.0 < zeta2):
        raise ParameterError("need 0 < zeta1 < 1 < zeta2")
    if S < 1 or samples < 1:
        raise ConfigError("need S >= 1 and samples >= 1")
    streams = [np.random.default_rng(s) for s in
               np.random.SeedSequence(seed).spawn(samples)]
    violations = []
    for j, rng in enumerate(streams):
        maps = MapSequence(tuple(default_perturbation(g, delta, rng)
                                 for _ in range(S)))
        holes = HoleSequence(tuple(random_hole(g.dimension, epsilon, rng)
                                   for _ in range(S)))
        ops = schedule_operators(maps, holes, S, Q.grid, cache)
        rmin, rmax = ratio_profile(ops, Q)[-1].tolist()
        if not (zeta1 < rmin and rmax < zeta2):
            violations.append((j, rmin, rmax))
    return StabilityReport(len(violations) == 0, violations, samples, seed,
                           delta, epsilon, S)
