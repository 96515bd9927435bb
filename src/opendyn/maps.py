"""Piecewise-expanding maps of the circle and integer matrix maps of the torus.

A map is a finite list of branches, each injective on its half-open
domain with a closed-form inverse, so transfer-operator entries can be
computed by exact interval overlap.  Supported branch formulas: affine
and monotone quadratic in 1D, integer-matrix affine on the 2-torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .phase import (_lookup, config_check, config_choice, config_keys,
                    config_number, config_numbers, finite_float, torus_delta)


# ---------------------------------------------------------------------------
# branches

@dataclass(frozen=True)
class Branch1D:
    """One monotone branch y = c0 + c1*x + c2*x^2 on [lo, hi)."""

    lo: float
    hi: float
    coeffs: tuple  # (c0, c1) or (c0, c1, c2)

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ConfigError("branch domain must satisfy 0 <= lo < hi <= 1")
        if len(self.coeffs) not in (2, 3):
            raise ConfigError("coeffs must be (c0, c1) or (c0, c1, c2)")
        d0, d1 = self.deriv(self.lo), self.deriv(self.hi)
        if d0 * d1 <= 0.0:
            raise ConfigError("branch derivative must not change sign")

    def value(self, x):
        c = self.coeffs
        y = c[0] + c[1] * np.asarray(x, dtype=float)
        if len(c) == 3:
            y = y + c[2] * np.asarray(x, dtype=float) ** 2
        return y

    def deriv(self, x):
        c = self.coeffs
        if len(c) == 2:
            return c[1] * np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else c[1]
        return c[1] + 2.0 * c[2] * np.asarray(x, dtype=float)

    def inverse(self, y):
        """Closed-form inverse on the branch image (y unwrapped, not mod 1)."""
        c = self.coeffs
        y = np.asarray(y, dtype=float)
        if len(c) == 2 or c[2] == 0.0:
            return (y - c[0]) / c[1]
        # quadratic formula in the form free of cancellation (roots q/a2
        # and a0/q), root selection by branch domain
        a2, a1, a0 = c[2], c[1], c[0] - y
        disc = np.sqrt(np.maximum(a1 * a1 - 4.0 * a2 * a0, 0.0))
        q = -0.5 * (a1 + np.copysign(disc, a1))
        with np.errstate(all="ignore"):
            r1, r2 = q / a2, a0 / q
        mid = 0.5 * (self.lo + self.hi)
        # a double root (q = 0) leaves r2 undefined and is r1
        return np.where(np.abs(r2 - mid) < np.abs(r1 - mid), r2, r1)

    @property
    def s_branch(self) -> float:
        """Backward contraction sup 1/|h'| (derivative is monotone)."""
        return 1.0 / min(abs(float(self.deriv(self.lo))),
                         abs(float(self.deriv(self.hi))))

    @property
    def image(self) -> tuple:
        """Unwrapped image interval (lo', hi')."""
        ya, yb = float(self.value(self.lo)), float(self.value(self.hi))
        return (ya, yb) if ya <= yb else (yb, ya)


# ---------------------------------------------------------------------------
# map specification

@dataclass(frozen=True)
class MapSpec:
    """A piecewise-expanding map of T^1 or an integer-matrix map of T^2.

    `check_expanding` may be disabled in Python to evaluate maps that
    fail the backward-contraction requirement s < 1; a config record
    cannot disable it.
    """

    dimension: int
    kind: str                       # "affine_1d" | "quadratic_1d" | "affine_2d"
    branches: tuple = ()            # Branch1D tuple (1D kinds)
    matrix: tuple = ()              # ((a,b),(c,d)) integer entries (2D)
    offset: tuple = (0.0, 0.0)
    check_expanding: bool = True

    def __post_init__(self):
        if self.dimension == 1:
            if not self.branches:
                raise ConfigError("1D map needs at least one branch")
            # the perturbation family is chosen by the label
            if self.kind == "affine_1d" and any(
                    len(b.coeffs) == 3 and b.coeffs[2] != 0.0
                    for b in self.branches):
                raise ConfigError("config key 'kind' must be 'quadratic_1d' "
                                  "for branches with a quadratic term, got "
                                  "'affine_1d'")
            br = tuple(sorted(self.branches, key=lambda b: b.lo))
            object.__setattr__(self, "branches", br)
            if abs(br[0].lo) > 1e-12 or abs(br[-1].hi - 1.0) > 1e-12:
                raise ConfigError("branch domains must cover [0, 1)")
            for a, b in zip(br, br[1:]):
                if abs(a.hi - b.lo) > 1e-12:
                    raise ConfigError("branch domains must tile [0, 1) without gaps")
                # injectivity into the circle needs image length <= 1
            for b in br:
                im = b.image
                if im[1] - im[0] > 1.0 + 1e-12:
                    raise ConfigError("branch image longer than the circle")
        elif self.dimension == 2:
            A = np.asarray(self.matrix, dtype=float)
            if A.shape != (2, 2) or not np.allclose(A, np.round(A)):
                raise ConfigError("2D maps need an integer 2x2 matrix")
            if abs(np.linalg.det(A)) < 0.5:
                raise ConfigError("matrix must be invertible")
        else:
            raise ConfigError("dimension must be 1 or 2")
        # not s < 1 rather than s >= 1: a NaN s is not expanding either
        if self.check_expanding and not self.s < 1.0:
            raise ConfigError(f"map is not uniformly expanding: s = {self.s:.6g}")

    # -- basic data ---------------------------------------------------------

    @property
    def cuts(self) -> tuple:
        """Interior continuity-partition boundaries (1D)."""
        return tuple(b.lo for b in self.branches[1:])

    @property
    def s(self) -> float:
        """Backward contraction bound for the whole map."""
        if self.dimension == 1:
            # np.max, unlike max(), keeps a NaN wherever it sits
            return float(np.max([b.s_branch for b in self.branches]))
        A = np.asarray(self.matrix, dtype=float)
        return float(1.0 / np.linalg.svd(A, compute_uv=False).min())

    @property
    def n_branches(self) -> int:
        if self.dimension == 1:
            return len(self.branches)
        return int(round(abs(np.linalg.det(np.asarray(self.matrix)))))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x):
        """Apply the map; points land in [0, 1).  A cut point, or one whose
        x % 1 rounds to 1, takes the branch to its right on the circle."""
        if self.dimension == 1:
            xv = np.asarray(x, dtype=float) % 1.0
            idx = np.searchsorted(self.cuts, xv % 1.0, side="right")
            y = np.empty_like(xv)
            for k, b in enumerate(self.branches):
                mask = idx == k
                if mask.any():
                    y[mask] = b.value(xv[mask])
            y %= 1.0
            return y if np.ndim(x) else float(y)
        A = np.asarray(self.matrix, dtype=float)
        xv = np.atleast_2d(np.asarray(x, dtype=float)) % 1.0
        y = (xv @ A.T + np.asarray(self.offset)) % 1.0
        return y if np.ndim(x) > 1 else y[0]

    def to_config(self) -> dict:
        if self.dimension == 1:
            return {"kind": self.kind,
                    "branches": [[b.lo, b.hi, list(b.coeffs)] for b in self.branches]}
        return {"kind": self.kind, "matrix": [list(r) for r in self.matrix],
                "offset": list(self.offset)}


# ---------------------------------------------------------------------------
# families

def affine_map(cuts: Sequence[float], slopes: Sequence[float],
               offsets: Sequence[float], check_expanding: bool = True) -> MapSpec:
    """Piecewise-affine circle map from interior cuts, slopes, offsets."""
    bounds = [0.0] + list(cuts) + [1.0]
    if len(slopes) != len(bounds) - 1 or len(offsets) != len(slopes):
        raise ConfigError("need one slope and offset per branch")
    branches = tuple(Branch1D(bounds[k], bounds[k + 1], (float(offsets[k]), float(slopes[k])))
                     for k in range(len(slopes)))
    return MapSpec(1, "affine_1d", branches, check_expanding=check_expanding)


def full_branch_map(cuts: Sequence[float]) -> MapSpec:
    """Lebesgue-preserving full-branch map: each piece maps onto [0, 1).
    ConfigError naming `cuts` unless they increase strictly inside (0, 1)."""
    bounds = [0.0] + list(cuts) + [1.0]
    if not all(lo < hi for lo, hi in zip(bounds, bounds[1:])):
        raise ConfigError("config key 'cuts' must increase strictly inside "
                          f"(0, 1), got {list(cuts)!r}")
    slopes = [1.0 / (bounds[k + 1] - bounds[k]) for k in range(len(bounds) - 1)]
    offsets = [-bounds[k] * slopes[k] for k in range(len(slopes))]
    return affine_map(cuts, slopes, offsets)


def doubling_map() -> MapSpec:
    return full_branch_map([0.5])


def tripling_map() -> MapSpec:
    return full_branch_map([1.0 / 3.0, 2.0 / 3.0])


def beta_map(beta: float) -> MapSpec:
    """x -> beta*x mod 1 with the usual ceil(beta) branches."""
    config_check(beta > 1.0, "beta", "exceed 1", beta)
    nb = int(math.ceil(beta))
    cuts = [k / beta for k in range(1, nb) if k / beta < 1.0]
    slopes = [beta] * (len(cuts) + 1)
    offsets = [-float(k) for k in range(len(cuts) + 1)]
    return affine_map(cuts, slopes, offsets)


def quadratic_full_branch(eps: float, cut: float = 0.5) -> MapSpec:
    """Smooth two-branch map with curvature eps, reducing to doubling at 0.

    Each branch is the monotone quadratic q(t) = (c1*t + eps*t^2)/L with
    q(L) = 1 on a domain of length L, so branches stay full and inverses
    stay closed-form.
    """
    branches = []
    for lo, hi in ((0.0, cut), (cut, 1.0)):
        L = hi - lo
        c2 = eps
        c1 = (1.0 - c2 * L * L) / L
        if c1 <= 1.0:
            raise ConfigError("eps too large for an expanding branch")
        # y = c1*(x-lo) + c2*(x-lo)^2 expanded in x
        branches.append(Branch1D(lo, hi, (c1 * (-lo) + c2 * lo * lo, c1 - 2.0 * c2 * lo, c2)))
    return MapSpec(1, "quadratic_1d", tuple(branches))


def matrix_map(matrix, offset=(0.0, 0.0), check_expanding: bool = True) -> MapSpec:
    return MapSpec(2, "affine_2d", matrix=tuple(map(tuple, matrix)),
                   offset=tuple(offset), check_expanding=check_expanding)


def map_from_config(rec: dict) -> MapSpec:
    config_check(isinstance(rec, dict), "map", "be an object", rec)
    kind = config_choice(rec, "kind", ("affine_1d", "quadratic_1d",
                                       "full_branch_1d", "beta_1d",
                                       "affine_2d"))
    if kind == "full_branch_1d":
        config_keys(rec, "kind", "cuts")
        return full_branch_map(config_numbers(rec, "cuts"))
    if kind == "beta_1d":
        config_keys(rec, "kind", "beta")
        return beta_map(config_number(rec, "beta"))
    if kind == "affine_2d":
        config_keys(rec, "kind", "matrix", "offset")
        return matrix_map(config_numbers(rec, "matrix", width=2),
                          config_numbers(rec, "offset", (0.0, 0.0)))
    config_keys(rec, "kind", "branches")
    value = _lookup(rec, "branches")        # [lo, hi, [c0, c1(, c2)]] each
    try:
        if not all(isinstance(r, list) and len(r) == 3
                   and isinstance(r[2], list) for r in value):
            raise TypeError("not a list of branch rows")
        rows = [(finite_float(lo), finite_float(hi),
                 tuple(map(finite_float, co))) for lo, hi, co in value]
    except (TypeError, ValueError) as exc:
        raise ConfigError("config key 'branches' must be a list of "
                          "[lo, hi, [coefficients]] rows of finite numbers, "
                          f"got {value!r}") from exc
    return MapSpec(1, kind, tuple(Branch1D(*r) for r in rows))


# ---------------------------------------------------------------------------
# sequences

@dataclass(frozen=True)
class MapSequence:
    """Finite nonstationary schedule; `at(step)` is 1-based like F_m."""

    maps: tuple

    def __post_init__(self):
        if not self.maps:
            raise ConfigError("empty map sequence")
        dims = {m.dimension for m in self.maps}
        if len(dims) != 1:
            raise ConfigError("mixed dimensions in one sequence")
        object.__setattr__(self, "maps", tuple(self.maps))

    def __len__(self) -> int:
        return len(self.maps)

    def at(self, step: int) -> MapSpec:
        if not 1 <= step <= len(self.maps):
            raise ConfigError(f"step {step} outside schedule of length {len(self.maps)}")
        return self.maps[step - 1]

    @staticmethod
    def constant(m: MapSpec, length: int) -> "MapSequence":
        return MapSequence((m,) * length)


# ---------------------------------------------------------------------------
# complexity-expansion balance

def unit_ball_volume(N: int) -> float:
    """Volume of the N-dimensional Euclidean unit ball."""
    return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)


def balance_check(s_T: float, kappa_T: float, alpha: float, N: int) -> tuple:
    """Value and verdict of the complexity-expansion balance inequality

        s_T^alpha + (4 s_T kappa_T / (1 - s_T)) * xi_{N-1}/xi_N  <  1.
    """
    if not 0.0 < s_T < 1.0:
        raise ConfigError("need 0 < s_T < 1")
    if kappa_T < 0 or N < 1 or not 0.0 < alpha <= 1.0:
        raise ConfigError("bad kappa, alpha, or dimension")
    value = s_T ** alpha + (4.0 * s_T * kappa_T / (1.0 - s_T)) \
        * unit_ball_volume(N - 1) / unit_ball_volume(N)
    return value, value < 1.0


# ---------------------------------------------------------------------------
# distance in the map topology

def _quadratic_size(q: tuple, a: float, b: float) -> float:
    """Exact C^0 + C^1 + Lipschitz size of q(x) = q0 + q1*x + q2*x^2 on
    (a, b), with the C^0 term measured on the circle (distance to Z).

    The range of q is spanned by its values at a, b and an interior
    vertex; distance to Z peaks at 1/2 on half-integers and otherwise at
    an end of the range.  q' is affine, so |q'| peaks at an endpoint and
    its Lipschitz constant is |q''|.
    """
    q0, q1, q2 = q
    ys = [q0 + x * (q1 + x * q2) for x in (a, b)]
    if q2 != 0.0 and a < -q1 / (2.0 * q2) < b:
        ys.append(q0 - q1 * q1 / (4.0 * q2))
    y_lo, y_hi = min(ys), max(ys)
    if math.floor(y_hi - 0.5) + 0.5 >= y_lo:
        c0 = 0.5
    else:
        c0 = max(abs(y - round(y)) for y in (y_lo, y_hi))
    c1 = max(abs(q1 + 2.0 * q2 * a), abs(q1 + 2.0 * q2 * b))
    return c0 + c1 + abs(2.0 * q2)


def is_perturbation(f: MapSpec, g: MapSpec, delta: float) -> bool:
    """Whether g is a delta-perturbation of f.

    Torus maps with one matrix are delta-close when their offsets differ
    by at most delta.  A circle map g is delta-close to f when every
    branch domain endpoint moves by less than delta and, for each branch
    pair, the exact C^{1,1} size of the difference f_k - g_k (see
    `_quadratic_size`) on the common domain minus a delta-neighborhood of
    its ends is below delta.  Equal maps are delta-close for every
    delta >= 0; maps of different kind, dimension or branch count never
    are.
    """
    if f.dimension != g.dimension or f.kind != g.kind \
            or f.n_branches != g.n_branches:
        return False
    if f.dimension == 2:
        return f.matrix == g.matrix and float(np.max(torus_delta(
            np.asarray(f.offset), np.asarray(g.offset)))) <= delta
    if f.branches == g.branches:
        return delta >= 0.0
    # element Hausdorff distance equals the largest endpoint displacement
    # for arcs; the interior endpoints are the cuts
    for bf, bg in zip(f.branches, g.branches):
        if max(float(torus_delta(bf.lo, bg.lo)),
               float(torus_delta(bf.hi % 1.0, bg.hi % 1.0))) >= delta:
            return False
        # both partitions' boundaries nearest to a point of [lo, hi) are
        # lo and hi, so the points delta away from them form (lo+d, hi-d)
        lo = max(bf.lo, bg.lo) + delta
        hi = min(bf.hi, bg.hi) - delta
        cf, cg = (tuple(b.coeffs) + (0.0,) * (3 - len(b.coeffs))
                  for b in (bf, bg))
        q = tuple(float(u - v) for u, v in zip(cf, cg))
        if lo < hi and _quadratic_size(q, lo, hi) >= delta:
            return False
    return True
