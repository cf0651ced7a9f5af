"""Scalar decay factor of the exponential-memory channel.

The flipped Bloch components of a qubit under a Pauli channel with memory
kernel A*exp(-gamma*t) carry a common factor p(t) solving

    p'' + (2a + gamma) p' + 2aA p = 0,    p(0) = 1, p'(0) = 0,

equivalently the integro-differential form

    p'(t) = -2a * int_0^t k(u) exp(-2au) p(t-u) du.

This module provides the closed form in all damping regimes, the Markovian
baseline exp(-2at), two independent numerical oracles, and root finding on
|p(t)|.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AccuracyError

ODE_MAX_STEP = 0.01  # in units of 1/a
CONVOLUTION_MAX_STEP = 0.005  # in units of 1/a


@dataclass(frozen=True)
class KernelParams:
    """Markovian rate a and exponential-kernel amplitude A / width gamma."""

    a: float
    A: float
    gamma: float

    def __post_init__(self):
        # chained comparisons, so that a NaN fails each check too
        if not 0 < self.a < np.inf:
            raise ValueError(f"decay rate a must be positive and finite, got {self.a}")
        if not 0 < self.A < np.inf:
            raise ValueError(
                f"kernel amplitude A must be positive and finite, got {self.A}")
        if not 0 <= self.gamma < np.inf:
            raise ValueError(
                f"kernel width gamma must be >= 0 and finite, got {self.gamma}")
        # the discriminant's two terms must be finite too: ((2a + gamma)/2) ** 2
        # raises OverflowError past ~1.3e154, and 2aA = inf makes p(t) NaN
        half_damping = (2 * self.a + self.gamma) / 2
        if not half_damping * half_damping < np.inf:
            name = "kernel width gamma" if self.gamma > 2 * self.a else "decay rate a"
            raise ValueError(
                f"{name} too large: ((2a + gamma)/2)^2 overflows, "
                f"got a = {self.a}, gamma = {self.gamma}")
        if not 2 * self.a * self.A < np.inf:
            raise ValueError(
                f"kernel amplitude A too large: 2aA overflows, "
                f"got a = {self.a}, A = {self.A}")

    @cached_property
    def _regime(self) -> tuple[str, float, float]:
        """(tag, omega0^2, omega), worked out once per kernel, as decay_factor
        reads it on every call. The tag is decided on omega0^2 / a^2 = 2A/a -
        ((2 + gamma/a)/2)^2, which does not underflow at tiny rates where
        omega0^2 does; there omega = sqrt|omega0^2| is a sqrt|omega0^2 / a^2|."""
        w2 = 2 * self.a * self.A - ((2 * self.a + self.gamma) / 2) ** 2
        half = (2 + self.gamma / self.a) / 2
        scaled = 2 * self.A / self.a - half * half
        if math.isnan(scaled):  # both terms overflow; omega0^2 itself cannot
            scaled = math.copysign(math.inf, w2)
        if scaled > 0:
            tag = "oscillatory"
        elif scaled < 0:
            tag = "overdamped"
        else:
            tag = "critical"
        if abs(w2) >= sys.float_info.min:
            omega = np.sqrt(abs(w2))
        else:
            omega = self.a * math.sqrt(abs(scaled))
        return tag, w2, omega


def damping_regime(k: KernelParams) -> tuple[str, float]:
    """(tag, omega0^2): "oscillatory", "critical" or "overdamped", and the
    discriminant 2aA - ((2a + gamma)/2)^2 of the damped-oscillator equation.
    The tag is the sign of omega0^2 / a^2, so it holds however small the
    rates are; "critical" only where that is exactly 0, as the oscillatory
    and hyperbolic forms stay accurate for any omega0 > 0."""
    tag, w2, _ = k._regime
    return tag, w2


def decay_factor(k: KernelParams, t):
    """Closed-form p(t); accepts a scalar or an array of times t >= 0.

    The overdamped branch is the cosh/sinh analytic continuation of the
    oscillatory form; the critical branch is its omega0 -> 0 limit. A scalar
    t is evaluated as a Python float through the same expressions, so the
    root search's scalar calls skip numpy's array path and return the bits
    that t as a one-element array gives.
    """
    scalar = np.ndim(t) == 0
    t = float(t) if scalar else np.asarray(t, dtype=float)
    b = (2 * k.a + k.gamma) / 2
    tag, _, w = k._regime
    if tag == "oscillatory":
        out = np.exp(-b * t) * (np.cos(w * t) + (b / w) * np.sin(w * t))
    elif tag == "overdamped":
        if w < 1e-3 * b:
            # near-critical: the hyperbolic form is accurate. Past w*t = 1,
            # b*t > 1000 and exp(-b*t) is already 0, the true limit; capping
            # w*t there keeps cosh/sinh from overflowing to inf (inf * 0 is
            # NaN) and changes no other value
            wt = np.minimum(w * t, 1.0)
            out = np.exp(-b * t) * (np.cosh(wt) + (b / w) * np.sinh(wt))
        else:
            # same continuation through decaying exponentials (0 < w < b),
            # so large w*t cannot overflow cosh/sinh. The slow rate b - w is
            # 2aA/(b + w): where 2aA lies below the last bit of b^2, w
            # rounds to b and the difference would be 0. a/(b + w) <= 1, so
            # the product neither underflows at tiny rates nor overflows
            slow = 2 * k.A * (k.a / (b + w))
            out = 0.5 * (1 + b / w) * np.exp(-slow * t) - 0.5 * (
                slow / w
            ) * np.exp(-(b + w) * t)
    else:
        out = np.exp(-b * t) * (1 + b * t)
    return float(out) if scalar else out


def markovian_decay_factor(a: float, t):
    """Delta-kernel baseline exp(-2at)."""
    out = np.exp(-2 * a * np.asarray(t, dtype=float))
    return float(out) if np.ndim(t) == 0 else out


def _check_grid(grid: np.ndarray, max_step: float, a: float) -> float:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("time grid must be a 1-D array with at least two points")
    if grid[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    steps = np.diff(grid)
    h = float(steps[0])
    if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * h:
        raise ValueError("time grid must be uniform and increasing")
    if h > max_step / a * (1 + 1e-9):
        raise AccuracyError(
            f"step {h:.3e} exceeds {max_step}/a = {max_step / a:.3e}; "
            "result would not meet the accuracy contract"
        )
    return h


def decay_factor_ode(k: KernelParams, t_grid) -> np.ndarray:
    """RK4 integration of the local second-order form; 4th-order accurate.

    Requires a uniform grid starting at 0 with step h <= 0.01/a. Integrates
    in units of 1/a, p'' + (2 + gamma/a) p' + 2(A/a) p = 0 in s = a*t, so
    that at tiny rates the restoring term 2aA does not underflow.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    h = _check_grid(t_grid, ODE_MAX_STEP, k.a) * k.a
    damp = 2 + k.gamma / k.a
    spring = 2 * (k.A / k.a)

    def rhs(p, q):
        return q, -damp * q - spring * p

    out = np.empty(t_grid.size)
    p, q = 1.0, 0.0
    out[0] = p
    for i in range(1, t_grid.size):
        k1p, k1q = rhs(p, q)
        k2p, k2q = rhs(p + 0.5 * h * k1p, q + 0.5 * h * k1q)
        k3p, k3q = rhs(p + 0.5 * h * k2p, q + 0.5 * h * k2q)
        k4p, k4q = rhs(p + h * k3p, q + h * k3q)
        p += h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        q += h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        out[i] = p
    return out


def decay_factor_convolution(k: KernelParams, t_grid) -> np.ndarray:
    """Direct discretization of the memory-integral form.

    Trapezoidal convolution with an implicit-trapezoid (predictor-corrector
    solved exactly, the update is linear in the new value) time step; second
    order accurate. Requires a uniform grid starting at 0 with step
    h <= 0.005/a.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    h = _check_grid(t_grid, CONVOLUTION_MAX_STEP, k.a)
    # integrand weight g(u) = k(u) exp(-2au), k(u) = A exp(-gamma u)
    g = k.A * np.exp(-k.gamma * t_grid) * np.exp(-2 * k.a * t_grid)

    n = t_grid.size
    p = np.empty(n)
    p[0] = 1.0
    f_prev = 0.0  # p'(0) = 0: the memory integral is empty
    a = k.a
    for m in range(1, n):
        tail = 0.5 * g[m] * p[0]
        if m > 1:
            tail += float(np.dot(g[1:m], p[m - 1:0:-1]))
        tail *= h
        # trapezoid step: p_m = p_{m-1} + h/2 (f_{m-1} + f_m) with
        # f_m = -2a (h/2 g_0 p_m + tail) linear in p_m -> solve directly
        denom = 1.0 + 0.5 * a * h * h * g[0]
        p[m] = (p[m - 1] + 0.5 * h * f_prev - a * h * tail) / denom
        f_prev = -2 * a * (0.5 * h * g[0] * p[m] + tail)
    return p


def _bisect_abs_crossing(f, hi: float) -> float:
    """Bisection on [0, hi] holding the invariant f(lo) > 0 >= f(hi); 1e-10
    relative.

    hi may instead be the exact zero of p, where the float f(hi) can read
    above 0: every mid then moves lo, and the result lands next to hi."""
    lo = 0.0
    for _ in range(200):
        if hi - lo <= 1e-10 * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisect_abs_crossings(k: KernelParams, targets, hi) -> np.ndarray:
    """_bisect_abs_crossing for many targets in lockstep, one decay_factor
    call per step; each target stops on its own, at the scalar rule."""
    lo, hi = np.zeros(hi.size), hi.copy()
    live = np.arange(targets.size)
    for _ in range(200):
        lo_live, hi_live = lo[live], hi[live]
        mid = 0.5 * (lo_live + hi_live)
        go = ~((hi_live - lo_live <= 1e-10 * hi_live)
               | (mid == lo_live) | (mid == hi_live))
        live, mid = live[go], mid[go]
        if live.size == 0:
            break
        above = np.abs(decay_factor(k, mid)) - targets[live] > 0
        lo[live[above]] = mid[above]
        hi[live[~above]] = mid[~above]
    return 0.5 * (lo + hi)


def _log_quotient(num, den):
    """np.log(num / den), den > 0, bit for bit where the quotient is finite;
    log(num) - log(den) where only it overflows, as for a subnormal den. A
    scalar goes there only then, so a scalar root pays one comparison."""
    out = np.log(num / den)
    if out.shape or not out < np.inf:
        out = np.where(out < np.inf, out, np.log(num) - np.log(den))
    return out


def _bracket_end(k: KernelParams, targets: np.ndarray) -> np.ndarray:
    """A time t_hi with |p| falling to each target in (0, t_hi], from p's
    closed form; the same numpy expression for a 0-d or an n-d array, so
    scalar and array roots share their brackets' bits.

    Oscillatory: p falls monotonically from 1 to its first zero
    z0 = (pi - arctan(omega0/b))/omega0, and on [0, z0] it stays below
    exp(-b t)(1 + b t) <= 2 exp(-b t/2), so t_hi is the smaller of z0 and
    the time that puts that bound at target/2, which stays finite where z0
    overflows. Overdamped: p stays below its slow exponential
    (1 + b/omega0)/2 * exp(-s t), s = 2aA/(b + omega0); and at critical
    damping below 2 exp(-b t/2). t_hi puts those bounds at target/2, finite
    also for a subnormal target. An overflowing t_hi is inf, without a
    warning."""
    b = (2 * k.a + k.gamma) / 2
    tag, _, w = k._regime
    with np.errstate(over="ignore", divide="ignore"):
        if tag == "overdamped":
            return _log_quotient(1 + b / w, targets) / (2 * k.A * (k.a / (b + w)))
        ends = (2 / b) * _log_quotient(4, targets)
        if tag == "oscillatory":
            return np.minimum((np.pi - np.arctan(w / b)) / w, ends)
        return ends


def solve_decay_time(k: KernelParams, target,
                     markovian: bool = False) -> float | np.ndarray:
    """Smallest t > 0 with |p(t)| = target, for target in (0, 1).

    `target` is a scalar (the root is returned as a float) or an array of
    targets (an array of roots of the same shape is returned). The Markovian
    root is -ln(target)/(2a). Otherwise each root is bracketed on
    [0, t_hi] in closed form (see _bracket_end): a time where |p| <= target/2,
    or p's first zero when p oscillates and that comes first. A scalar target
    is then bisected with scalar decay_factor calls, and an array in
    lockstep, one array call per step; both stop at the same rule, so an
    array's roots equal the scalar roots bit for bit. ValueError is raised,
    before any decay_factor call, when a bracket end or a Markovian root
    overflows.
    """
    targets = np.asarray(target, dtype=float)
    flat = targets.ravel()
    outside = ~((0.0 < flat) & (flat < 1.0))
    if outside.any():
        raise ValueError(
            f"target must lie strictly in (0, 1), got {float(flat[outside][0])}")
    if markovian:
        with np.errstate(over="ignore"):
            ends = -np.log(targets) / (2 * k.a)
    else:
        ends = _bracket_end(k, targets)
    overflow = ~(ends < np.inf)
    if overflow.any():
        raise ValueError(
            f"decay-time search for |p(t)| = {float(targets[overflow].flat[0])} "
            f"overflows at a = {k.a}, A = {k.A}")
    if markovian:
        return float(ends) if targets.ndim == 0 else ends
    if targets.ndim == 0:
        x = float(targets)
        return float(_bisect_abs_crossing(lambda t: abs(decay_factor(k, t)) - x,
                                          float(ends)))
    return _bisect_abs_crossings(k, flat, ends.ravel()).reshape(targets.shape)
