"""Cone analytics: aperture/block-length selection, Hilbert-metric
distance bounds, the Birkhoff contraction factor, and the derived rate
constants (Delta_0, Lambda, C_0, C_Lip).

The cone with aperture a consists of nonnegative nonzero densities whose
strong seminorm is at most a times their smallest conditional
expectation on a reference partition Q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CertificateError, ConfigError
from .phase import Grid, PartitionSpec
from .mixing import MixingCertificate, closed_certificate
from .seminorm import (SeminormSpec, cone_member, element_expectations)
from .transfer import GridDensity, UlamOperator, push


@dataclass(frozen=True)
class ConeParams:
    """Aperture, contraction target, block length, and partition data.

    `d` is always the diameter of a partition, the selected Q's in a
    rung of `parameter_ladder`.  Q is None only in a record built
    by hand, which prices rate constants but checks no cone membership.
    E is the certified mixing time of the reference map on Q, and
    `mixing` the certificate selection computed it in.
    """

    a: float
    sigma: float
    T: int
    zeta1: float
    zeta2: float
    seminorm: SeminormSpec
    Q: PartitionSpec | None = None
    d: float = 0.0
    M: float = 1.0
    E: int | None = None
    mixing: MixingCertificate | None = field(default=None, compare=False,
                                             repr=False)

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ConfigError("sigma must lie in (0, 1)")
        if self.a <= 0.0 or self.T < 1:
            raise ConfigError("need a > 0 and T >= 1")
        if not (0.0 < self.zeta1 < 1.0 < self.zeta2):
            raise ConfigError("need 0 < zeta1 < 1 < zeta2")
        if self.d < 0.0 or self.M <= 0.0:
            raise ConfigError("need d >= 0 and M > 0")

    @property
    def adM(self) -> float:
        """The recurring combination a * d / M."""
        return self.a * self.d / self.M

    def audit(self, theta_LY: float, C_LY: float, T1: int) -> list:
        """Replay the three parameter inequalities; returns failure strings."""
        fails = []
        if self.T % T1 != 0:
            fails.append("(P2) T not a positive multiple of T1")
        if self.E is not None and self.T < self.E:
            fails.append(f"(P2) T={self.T} below mixing time E={self.E}")
        lo = self.zeta1 - self.zeta2 * self.adM
        if lo <= 0.0:
            fails.append("(P3) zeta1 - zeta2*a*d/M not positive")
        elif (self.a * theta_LY ** self.T + C_LY) / lo > self.sigma * self.a * (1 + 1e-12):
            fails.append("(P3) (a*theta^T + C)/(zeta1 - zeta2*a*d/M) exceeds sigma*a")
        return fails

    def to_config(self) -> dict:
        return {"a": self.a, "sigma": self.sigma, "T": self.T,
                "zeta1": self.zeta1, "zeta2": self.zeta2,
                "seminorm": self.seminorm.to_config(), "d": self.d,
                "M": self.M, "E": self.E,
                "Q": None if self.Q is None else self.Q.to_config()}


@dataclass(frozen=True)
class RateConstants:
    delta0: float
    lam: float
    c0: float
    c_lip: float


# ---------------------------------------------------------------------------
# parameter selection

def parameter_ladder(zeta1: float, zeta2: float, theta_LY: float,
                     C_LY: float, T1: int, sem: SeminormSpec,
                     partition_family, base: UlamOperator,
                     sigma: float = 0.5, i_max: int = 24):
    """The cone parameters at every admissible block length, shortest
    first: one selection rule applied at each T it visits.

    T starts at the theta floor, the first multiple of T1 with
    theta^T/(zeta1/2) < sigma.  At each T the aperture is the smallest
    with (a*theta^T + C)/(zeta1/2) <= sigma*a, the closed form
    a(T) = max(C/(sigma*zeta1/2 - theta^T), 1), and Q(T) is the first
    partition in the family with zeta2*a*d/M <= zeta1/2.  A T below the
    mixing time E of the base map on Q(T) jumps to the next multiple of
    T1 at or past E; an admissible T yields its ConeParams, carrying
    Q(T)'s mixing certificate (`mixing`), and the ladder goes on at
    T + T1.  It never ends: the caller stops climbing.

    The family is any iterable of partitions, coarsest first, such as the
    generator `dyadic_pool`.  a(T) never grows with T, so the family is
    drawn only up to the first partition the first aperture admits.
    Each distinct partition's closed mixing is certified once.  `base`
    is the closed base-map operator on the family's grid.  No admissible
    selection raises CertificateError: theta_LY too close to 1 for T to
    settle, a family with no partition the aperture admits, or a
    selected partition without a mixing time within i_max.
    """
    if not 0.0 < theta_LY < 1.0:
        raise ConfigError("theta_LY must lie in (0, 1)")
    if C_LY < 0.0:
        raise ConfigError("C_LY must be nonnegative")
    if not (0.0 < zeta1 < 1.0 < zeta2):
        raise ConfigError("need 0 < zeta1 < 1 < zeta2")
    if not 0.0 < sigma < 1.0:
        raise ConfigError("sigma must lie in (0, 1)")
    if T1 < 1:
        raise ConfigError("T1 must be at least 1")

    half = zeta1 / 2.0
    T = T1
    while theta_LY ** T / half >= sigma:
        T += T1
        if T > 10_000 * T1:
            raise CertificateError("theta_LY too close to 1: T diverges")

    pool, drawn = iter(partition_family), []    # (Q, d, M) as drawn
    certify = functools.cache(lambda i: closed_certificate(
        base, drawn[i][0], zeta1, zeta2, i_max))
    while True:
        a = max(C_LY / (sigma * half - theta_LY ** T), 1.0)
        while not drawn or zeta2 * a * drawn[-1][1] / drawn[-1][2] > half:
            Q = next(pool, None)
            if Q is None:
                raise CertificateError(
                    f"partition family exhausted: need zeta2*a*d/M <= "
                    f"{half:.4g} with a = {a:.4g}")
            if base.grid != Q.grid:
                raise ConfigError("the base operator must act on the "
                                  "partition family's grid")
            drawn.append((Q, sem.diam(Q), sem.M(Q)))
        i = next(i for i, (_, d, M) in enumerate(drawn)
                 if zeta2 * a * d / M <= half)
        (Q, d, M), mix = drawn[i], certify(i)
        if T >= mix.E:
            yield ConeParams(a, sigma, T, zeta1, zeta2, sem, Q, d, M,
                             mix.E, mix)
        T = max(T + T1, T1 * math.ceil(mix.E / T1))


def select_parameters(zeta1: float, zeta2: float, theta_LY: float, C_LY: float,
                      T1: int, sem: SeminormSpec, partition_family,
                      base: UlamOperator, sigma: float = 0.5,
                      i_max: int = 24) -> ConeParams:
    """The first rung of `parameter_ladder`: the shortest admissible block
    length T, its aperture a(T), partition Q(T) and mixing time E."""
    return next(parameter_ladder(zeta1, zeta2, theta_LY, C_LY, T1, sem,
                                 partition_family, base, sigma, i_max))


# ---------------------------------------------------------------------------
# constants

def _lower(cp: ConeParams) -> float:
    """The lower control coefficient zeta1 - zeta2*a*d/M; ConfigError
    unless it is positive."""
    lo = cp.zeta1 - cp.zeta2 * cp.adM
    if lo <= 0.0:
        raise ConfigError("zeta1 - zeta2*a*d/M must be positive")
    return lo


def delta0(cp: ConeParams) -> float:
    """Diameter bound for the image cone inside the full cone."""
    return 2.0 * math.log((1.0 + cp.sigma) / (1.0 - cp.sigma)) \
        + 2.0 * math.log(cp.zeta2 * (1.0 + cp.adM) / _lower(cp))


def birkhoff_factor(delta: float) -> float:
    """Contraction factor tanh(delta/4) of a positive map with image
    diameter delta; an infinite diameter contracts nothing."""
    if delta < 0.0:
        raise ConfigError("delta must be nonnegative")
    if math.isinf(delta):
        return 1.0
    return math.tanh(delta / 4.0)


def c_lip(cp: ConeParams) -> float:
    """Lipschitz constant of the normalized block operator in L1."""
    return 2.0 / _lower(cp)


def rate_constants(cp: ConeParams) -> RateConstants:
    """Delta_0, per-step rate Lambda = tanh(Delta_0/4)^(1/T), C_Lip, and
    the prefactor C_0 = C_Lip * max(Delta_0, 1) * e^Delta_0 / tanh^2(Delta_0/4)."""
    d0 = delta0(cp)
    tq = birkhoff_factor(d0)
    lam = tq ** (1.0 / cp.T)
    cl = c_lip(cp)
    c0 = cl * max(d0, 1.0) * math.exp(d0) * tq ** (-2.0)
    return RateConstants(d0, lam, c0, cl)


def hilbert_distance_bound(phi_star: GridDensity, psi_star: GridDensity,
                           cp: ConeParams) -> float:
    """Upper bound on the projective distance between two images of a
    certified block, from the spread of their conditional-expectation
    ratios:  2 log((1+sigma)/(1-sigma)) + log sup(r) - log inf(r)."""
    if cp.Q is None:
        raise ConfigError("hilbert_distance_bound needs a selected partition")
    for name, phi in (("phi", phi_star), ("psi", psi_star)):
        chk = cone_member(phi, cp.sigma * cp.a, cp.Q, cp.seminorm)
        if not chk.ok:
            raise CertificateError(
                f"{name} not in the contracted cone: margin {chk.margin:.3g}")
    e_phi = element_expectations(phi_star, cp.Q)
    e_psi = element_expectations(psi_star, cp.Q)
    if (e_phi <= 0.0).any() or (e_psi <= 0.0).any():
        raise CertificateError("zero conditional expectation on an element")
    r = e_psi / e_phi
    return 2.0 * math.log((1.0 + cp.sigma) / (1.0 - cp.sigma)) \
        + math.log(float(r.max())) - math.log(float(r.min()))


# ---------------------------------------------------------------------------
# sampled contraction verification

def sample_cone_density(grid: Grid, Q: PartitionSpec, a: float,
                        sem: SeminormSpec, rng) -> GridDensity:
    """Random density in the aperture-a cone: a piecewise-constant
    perturbation of the uniform density with 2..63 blocks, scaled so the
    seminorm stays a definite fraction of the cone budget."""
    total = grid.total_cells
    nblocks = int(rng.integers(2, 64))
    heights = rng.uniform(0.0, 1.0, nblocks)
    u = np.repeat(heights, total // nblocks)
    u = np.r_[u, np.full(total - u.size, heights[-1])]
    u -= u.mean()
    base = GridDensity(grid, u + 1.0)
    su = sem.value(GridDensity(grid, u))
    if su == 0.0:
        return GridDensity(grid, np.ones(total))
    e_u = element_expectations(GridDensity(grid, u), Q)
    t = float(rng.uniform(0.2, 0.9))
    c_cone = t * a / (su - t * a * float(e_u.min()))
    c_pos = 0.99 / abs(float(u.min())) if u.min() < 0.0 else np.inf
    c = min(c_cone, c_pos)
    phi = GridDensity(grid, 1.0 + c * u)
    check = cone_member(phi, a, Q, sem)
    if not check.ok:
        raise CertificateError(f"sampled density not in the aperture-{a:.4g}"
                               f" cone: margin {check.margin:.3g}")
    return phi


class ContractionReport(NamedTuple):
    ok: bool
    worst_ratio: float
    violations: list


def verify_cone_contraction(ops: list, cp: ConeParams, samples: int = 100,
                            seed: int = 0, *, theta_LY: float, C_LY: float,
                            T1: int) -> ContractionReport:
    """Sampled check, after `cp.audit` passes, that the block ops, cp.T
    operators long, maps the aperture-a cone into the sigma*a cone.  Reports
    the worst |L phi|_s/(a minE) ratio; contraction means it stays <= sigma."""
    if cp.Q is None or samples < 1:
        raise ConfigError("verify_cone_contraction needs a selected "
                          "partition and samples >= 1")
    if len(ops) != cp.T:
        raise ConfigError(f"block of {len(ops)} operators, need T = {cp.T}")
    fails = cp.audit(theta_LY, C_LY, T1)
    if fails:
        raise CertificateError("; ".join(fails))
    rng = np.random.default_rng(seed)
    grid = cp.Q.grid
    V = np.column_stack([sample_cone_density(grid, cp.Q, cp.a, cp.seminorm,
                                             rng).values
                         for _ in range(samples)])
    for V in push(ops, V, grid):
        pass
    worst = 0.0
    violations = []
    for j, img in enumerate(np.ascontiguousarray(V.T)):
        chk = cone_member(GridDensity(grid, img), cp.sigma * cp.a, cp.Q,
                          cp.seminorm)
        if chk.min_expectation > 0.0:
            worst = max(worst, chk.seminorm_value / (cp.a * chk.min_expectation))
        if not chk.ok:
            violations.append((j, chk.margin))
    return ContractionReport(len(violations) == 0, worst, violations)
