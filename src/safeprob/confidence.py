"""Continuous one-dimensional confidence distributions.

For a scalar parametric family whose statistic CDF is continuous,
strictly increasing in the statistic and strictly decreasing in the
parameter, the data-dependent distribution with CDF

    F(theta | v) = 1 - F_theta(v)

is a valid CDF in theta whose credible intervals have exact frequentist
coverage: under the true parameter, F(theta0 | V) is uniform, so the
event ``a <= F(theta0 | V) <= b`` has probability exactly ``b - a``.
This module constructs those distributions, extracts credible intervals
by bisection, and verifies coverage by seeded Monte Carlo.

A raw-pivot adapter is included for families specified instead by a
pivot's common law and a per-statistic monotone map.

numpy and scipy are imported inside the functions that use them, so the
exact modules of the package load without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import BracketingFailure, DomainError, EquivalenceViolation, ValidationError

_BISECT_TOL = 1e-10
_EXPANSION_CAP = 60
_BOUNDARY_GUARD = 1e-9


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to well below 1e-12 on [-8, 8]."""
    if isinstance(x, float) and math.isnan(x):
        raise DomainError("normal_cdf is undefined at nan")
    return 0.5 * (1.0 + math.erf(float(x) / math.sqrt(2.0)))


def gamma_reg(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma, relative error <= 1e-10."""
    if not shape > 0:
        raise DomainError(f"gamma_reg needs shape > 0, got {shape}")
    if not x >= 0:
        raise DomainError(f"gamma_reg needs x >= 0, got {x}")
    from scipy.special import gammainc

    return float(gammainc(shape, x))


@dataclass(frozen=True)
class ParametricFamily1D:
    """Scalar model with statistic CDF monotone decreasing in the
    parameter.

    ``cdf(theta, v)`` must accept array ``v``; ``sampler(theta, rng,
    size)`` draws statistics under the parameter; ``center(v)`` supplies
    a bracketing seed for root finding (the natural point estimate).
    """

    name: str
    theta_domain: tuple[float, float]
    statistic_domain: tuple[float, float]
    n: int
    cdf: Callable
    sampler: Callable
    center: Callable

    def confidence_cdf(self, theta: float, v):
        return 1.0 - self.cdf(theta, v)


@dataclass(frozen=True)
class PivotFamily1D:
    """Family specified by a pivot: a map of (parameter, statistic) with
    a known common law, monotone in the parameter at each statistic.

    The confidence CDF is the pivot's CDF composed with the map, flipped
    when the map decreases in the parameter.
    """

    name: str
    theta_domain: tuple[float, float]
    statistic_domain: tuple[float, float]
    n: int
    pivot_cdf: Callable
    pivot_map: Callable
    increasing_in_theta: bool
    sampler: Callable
    center: Callable

    def confidence_cdf(self, theta: float, v):
        raw = self.pivot_cdf(self.pivot_map(theta, v))
        return raw if self.increasing_in_theta else 1.0 - raw


def normal_location(n: int) -> ParametricFamily1D:
    """Mean of a unit-variance normal; statistic is the sample mean."""
    if n <= 0:
        raise ValidationError("sample size must be positive")
    root_n = math.sqrt(n)

    def cdf(theta, v):
        import numpy as np
        from scipy.special import ndtr

        return ndtr((np.asarray(v, dtype=float) - theta) * root_n)

    return ParametricFamily1D(
        name=f"normal-location(n={n})",
        theta_domain=(-math.inf, math.inf),
        statistic_domain=(-math.inf, math.inf),
        n=n,
        cdf=cdf,
        sampler=lambda theta, rng, size: rng.normal(theta, 1.0 / root_n, size),
        center=lambda v: float(v),
    )


def exponential_mean(n: int) -> ParametricFamily1D:
    """Mean of an exponential; statistic is the sum of n observations."""
    if n <= 0:
        raise ValidationError("sample size must be positive")

    def cdf(theta, v):
        import numpy as np
        from scipy.special import gammainc

        return gammainc(n, np.asarray(v, dtype=float) / theta)

    return ParametricFamily1D(
        name=f"exponential-mean(n={n})",
        theta_domain=(0.0, math.inf),
        statistic_domain=(0.0, math.inf),
        n=n,
        cdf=cdf,
        sampler=lambda theta, rng, size: rng.gamma(n, theta, size),
        center=lambda v: float(v) / n,
    )


@dataclass(frozen=True)
class CredibleInterval:
    """Parameter interval with prescribed credible levels at each end."""

    lower: float
    upper: float
    a: float
    b: float


def _check_domains(family, v: float, theta: Optional[float] = None) -> None:
    lo, hi = family.statistic_domain
    if not (lo < v < hi):
        raise DomainError(f"statistic {v} outside open domain ({lo}, {hi})")
    if theta is not None:
        tlo, thi = family.theta_domain
        if not (tlo < theta < thi):
            raise DomainError(f"parameter {theta} outside open domain ({tlo}, {thi})")


def confidence_cdf(family, v: float, theta: float) -> float:
    """F(theta | v): the confidence distribution's CDF at the parameter."""
    _check_domains(family, v, theta)
    value = float(family.confidence_cdf(theta, v))
    return min(1.0, max(0.0, value))


def _expand_toward(center: float, bound: float, step: int) -> float:
    """Geometric expansion from center toward a (possibly infinite) bound."""
    if math.isinf(bound):
        return center - 2.0 ** step if bound < 0 else center + 2.0 ** step
    return bound + (center - bound) / 2.0 ** step


def _solve_level(family, v: float, level: float) -> float:
    """theta with F(theta | v) = level, by bisection after bracketing."""
    tlo, thi = family.theta_domain
    if level <= 0.0:
        return tlo
    if level >= 1.0:
        return thi
    center = family.center(v)

    def f(theta: float) -> float:
        return float(family.confidence_cdf(theta, v)) - level

    lo = None
    for step in range(_EXPANSION_CAP + 1):
        cand = _expand_toward(center, tlo, step)
        if cand > tlo and f(cand) <= 0.0:
            lo = cand
            break
    hi = None
    for step in range(_EXPANSION_CAP + 1):
        cand = _expand_toward(center, thi, step)
        if cand < thi and f(cand) >= 0.0:
            hi = cand
            break
    if lo is None or hi is None:
        raise BracketingFailure(
            f"no sign change for level {level} within 2^{_EXPANSION_CAP} of {center}"
        )
    for _ in range(500):
        if hi - lo <= _BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def credible_interval(family, v: float, a: float, b: float) -> CredibleInterval:
    """Endpoints solving F(. | v) = a and = b to 1e-10 in the parameter.

    Levels 0 and 1 yield the open domain ends.
    """
    if not (0.0 <= a < b <= 1.0):
        raise ValidationError(f"need 0 <= a < b <= 1, got a={a}, b={b}")
    _check_domains(family, v)
    lower = _solve_level(family, v, a)
    upper = _solve_level(family, v, b)
    return CredibleInterval(lower=lower, upper=upper, a=a, b=b)


def seeded_generator(seed: int):
    """numpy's counter-based Philox generator keyed by ``seed``, which
    must lie in [0, 2**128)."""
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed must lie in [0, 2**128), got {seed}")
    import numpy as np

    return np.random.Generator(np.random.Philox(key=seed))


def coverage_estimate(
    family, theta0: float, a: float, b: float, samples: int, seed: int
) -> dict:
    """Monte Carlo frequentist coverage of the credible interval.

    Draws statistics under ``theta0`` with a counter-based generator
    keyed by ``seed``, counts how often the parameter's confidence level
    lies in [a, b] (equivalent to interval membership by monotonicity,
    cross-checked on one percent of draws against explicit endpoints),
    and returns the estimate with its binomial standard error.
    """
    if samples <= 0:
        raise ValidationError("samples must be positive")
    if not (0.0 <= a < b <= 1.0):
        raise ValidationError(f"need 0 <= a < b <= 1, got a={a}, b={b}")
    tlo, thi = family.theta_domain
    if not (tlo < theta0 < thi):
        raise DomainError(f"parameter {theta0} outside open domain ({tlo}, {thi})")
    import numpy as np

    rng = seeded_generator(seed)
    draws = np.asarray(family.sampler(theta0, rng, samples), dtype=float)
    levels = np.asarray(family.confidence_cdf(theta0, draws), dtype=float)
    covered = (levels >= a) & (levels <= b)
    coverage = float(np.mean(covered))
    stderr = math.sqrt(max(coverage * (1.0 - coverage), 0.0) / samples)

    for i in range(0, samples, 100):  # endpoint cross-check on 1% of draws
        level = levels[i]
        if min(abs(level - a), abs(level - b)) < _BOUNDARY_GUARD:
            continue
        interval = credible_interval(family, float(draws[i]), a, b)
        inside = interval.lower <= theta0 <= interval.upper
        if inside != bool(covered[i]):
            raise EquivalenceViolation(
                f"fast-path coverage disagrees with interval endpoints at draw {i}"
            )
    return {"coverage": coverage, "stderr": stderr}
