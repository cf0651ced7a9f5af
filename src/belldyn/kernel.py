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

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import AccuracyError, RootNotFoundError

REGIME_REL_TOL = 1e-12
ODE_MAX_STEP = 0.01  # in units of 1/a
CONVOLUTION_MAX_STEP = 0.005  # in units of 1/a
SEARCH_WINDOW = 50.0  # root search horizon in units of 1/a


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
        # omega0_squared's two terms must be finite too: ((2a + gamma)/2) ** 2
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


class DampingRegime(NamedTuple):
    tag: str  # "oscillatory" | "critical" | "overdamped"
    omega0_squared: float


def omega0_squared(k: KernelParams) -> float:
    """Discriminant 2aA - ((2a + gamma)/2)^2 of the damped-oscillator equation."""
    return 2 * k.a * k.A - ((2 * k.a + k.gamma) / 2) ** 2


def damping_regime(k: KernelParams) -> DampingRegime:
    w2 = omega0_squared(k)
    band = REGIME_REL_TOL * k.a * k.a
    if w2 > band:
        tag = "oscillatory"
    elif w2 < -band:
        tag = "overdamped"
    else:
        tag = "critical"
    return DampingRegime(tag, w2)


def decay_factor(k: KernelParams, t):
    """Closed-form p(t); accepts a scalar or an array of times t >= 0.

    The overdamped branch is the cosh/sinh analytic continuation of the
    oscillatory form; the critical branch is its omega0 -> 0 limit.
    """
    t_arr = np.asarray(t, dtype=float)
    b = (2 * k.a + k.gamma) / 2
    tag, w2 = damping_regime(k)
    if tag == "oscillatory":
        w = np.sqrt(w2)
        out = np.exp(-b * t_arr) * (np.cos(w * t_arr) + (b / w) * np.sin(w * t_arr))
    elif tag == "overdamped":
        w = np.sqrt(-w2)
        if w < 1e-3 * b:
            # near-critical: the hyperbolic form is accurate. Past w*t = 1,
            # b*t > 1000 and exp(-b*t) is already 0, the true limit; capping
            # w*t there keeps cosh/sinh from overflowing to inf (inf * 0 is
            # NaN) and changes no other value
            wt = np.minimum(w * t_arr, 1.0)
            out = np.exp(-b * t_arr) * (np.cosh(wt) + (b / w) * np.sinh(wt))
        else:
            # same continuation through decaying exponentials (0 < w < b),
            # so large w*t cannot overflow cosh/sinh
            out = 0.5 * (1 + b / w) * np.exp(-(b - w) * t_arr) + 0.5 * (
                1 - b / w
            ) * np.exp(-(b + w) * t_arr)
    else:
        out = np.exp(-b * t_arr) * (1 + b * t_arr)
    return float(out) if np.ndim(t) == 0 else out


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

    Requires a uniform grid starting at 0 with step h <= 0.01/a.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    h = _check_grid(t_grid, ODE_MAX_STEP, k.a)
    damp = 2 * k.a + k.gamma
    spring = 2 * k.a * k.A

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


def decay_factor_convolution(
    k: KernelParams,
    t_grid,
    kernel_values: np.ndarray | Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Direct discretization of the memory-integral form.

    Trapezoidal convolution with an implicit-trapezoid (predictor-corrector
    solved exactly, the update is linear in the new value) time step; second
    order accurate. Requires a uniform grid starting at 0 with step
    h <= 0.005/a. `kernel_values` may tabulate an arbitrary kernel k(t) on
    the grid (testing facility); default is the exponential kernel.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    h = _check_grid(t_grid, CONVOLUTION_MAX_STEP, k.a)
    if kernel_values is None:
        kern = k.A * np.exp(-k.gamma * t_grid)
    elif callable(kernel_values):
        kern = np.asarray(kernel_values(t_grid), dtype=float)
    else:
        kern = np.asarray(kernel_values, dtype=float)
        if kern.shape != t_grid.shape:
            raise ValueError("tabulated kernel must match the time grid")
    # integrand weight g(u) = k(u) exp(-2au)
    g = kern * np.exp(-2 * k.a * t_grid)

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


def _oscillation_zeros(k: KernelParams, t_end: float) -> np.ndarray:
    """Times where the oscillatory p(t) vanishes, up to t_end."""
    b = (2 * k.a + k.gamma) / 2
    w = np.sqrt(omega0_squared(k))
    first = (np.pi - np.arctan(w / b)) / w
    if first > t_end:
        return np.empty(0)
    count = int((t_end * w - (np.pi - np.arctan(w / b))) // np.pi) + 1
    return first + np.arange(count) * np.pi / w


def _bisect_abs_crossing(f, lo: float, hi: float) -> float:
    """Bisection holding the invariant f(lo) > 0 >= f(hi); 1e-10 relative."""
    for _ in range(200):
        if hi - lo <= 1e-10 * max(hi, 1e-12):
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_decay_time(k: KernelParams, target: float, markovian: bool = False) -> float:
    """Smallest t > 0 with |p(t)| = target, for target in (0, 1).

    In the oscillatory regime the scan resolves pi/(8 omega0) and additionally
    visits the zeros of p so dips of |p| below target between scan points
    cannot be skipped.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie strictly in (0, 1), got {target}")
    if markovian:
        return -np.log(target) / (2 * k.a)

    def f(t):
        return abs(decay_factor(k, t)) - target

    tag, w2 = damping_regime(k)
    t_end = SEARCH_WINDOW / k.a
    if tag == "oscillatory":
        w = np.sqrt(w2)
        step = np.pi / (8 * w)
        scan = np.arange(0.0, t_end + step, step)
        scan = np.unique(np.concatenate([scan, _oscillation_zeros(k, t_end)]))
        prev_t, prev_f = 0.0, 1.0 - target
        for t in scan[1:]:
            ft = f(t)
            if prev_f > 0 >= ft:
                return _bisect_abs_crossing(f, prev_t, t)
            prev_t, prev_f = t, ft
        raise RootNotFoundError(
            f"|p(t)| never crosses {target} within t <= {t_end:g}"
        )
    # monotone decay from 1 toward 0: bracket by doubling
    hi = 1.0 / k.a
    for _ in range(64):
        if f(hi) <= 0:
            return _bisect_abs_crossing(f, 0.0, hi)
        hi *= 2
        if hi > t_end * 1e6:
            break
    raise RootNotFoundError(f"|p(t)| never crosses {target}")
