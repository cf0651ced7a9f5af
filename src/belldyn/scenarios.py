"""Initial-state families, time trajectories, and sudden-change analysis."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channels import correlation_multipliers
from .correlations import correlation_ledger
from .errors import AccuracyError
from .kernel import (KernelParams, _log_quotient, decay_factor, markovian_decay_factor,
                     solve_decay_time)
from .states import BellCoefficients, bell_eigenvalues, require_physical

FAMILY_TAGS = ("synchronized", "proportional", "sudden_change")


class InitialFamily(NamedTuple):
    """One of the three special families; sign selects the +/- branch."""

    tag: str
    params: tuple
    sign: int = 1


class Evolution(NamedTuple):
    """Struct of arrays over a time grid; row i is the state at t[i]."""

    t: np.ndarray  # (N,)
    p: np.ndarray  # (N,) decay factor
    c: np.ndarray  # (N, 3) coefficient triples
    spectrum: np.ndarray  # (N, 4) Bell eigenvalues, in bell_eigenvalues order
    I: np.ndarray
    C: np.ndarray
    D: np.ndarray
    lambda_max: np.ndarray
    # index into correlations.AXES; a sudden change lies between two rows
    # whose axes differ in exponent group (switch_brackets)
    axis: np.ndarray


def make_family_state(family: InitialFamily) -> BellCoefficients:
    """Coefficient triple of a family member, validated for physicality.

    synchronized(x):  (x, x^2, -x)   [sign=-1: (x, -x^2, x)]
    proportional(x):  (x, x, -1)     [sign=-1: (x, -x, 1)]
    sudden_change(cx, cy): (cx, cy, cx)  [sign=-1: (cx, cy, -cx)]
    """
    tag, params, sign = family
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if tag not in FAMILY_TAGS:
        raise ValueError(f"unknown family {tag!r}; expected one of {FAMILY_TAGS}")
    count = 2 if tag == "sudden_change" else 1
    if len(params) != count:
        raise ValueError(f"family {tag} takes {count} parameter{'s' * (count > 1)}, "
                         f"got {len(params)}")
    if tag == "synchronized":
        (x,) = params
        c = BellCoefficients(x, sign * x * x, -sign * x)
    elif tag == "proportional":
        (x,) = params
        c = BellCoefficients(x, sign * x, -sign * 1.0)
    else:
        cx, cy = params
        c = BellCoefficients(cx, cy, sign * cx)
    return require_physical(c)


def evolve(
    c0,
    k: KernelParams,
    t_grid,
    axis_a: str = "x",
    axis_b: str = "z",
    markovian: bool = False,
) -> Evolution:
    """Evolve c0 over the whole grid at once, with its correlation ledger.

    p(t) is the memory-kernel decay factor, or exp(-2at) when `markovian`.
    Each c_alpha(t) is c_alpha times the product of the two local channels'
    factors (1 or p) from correlation_multipliers. c0 is checked once; |p| <= 1
    and the evolved Bell spectrum are checked once over the grid.
    """
    c0 = np.array(require_physical(c0))
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1:
        raise ValueError("time grid must be a 1-D array")
    p = markovian_decay_factor(k.a, t) if markovian else decay_factor(k, t)
    c = np.stack(correlation_multipliers(axis_a, axis_b, p), axis=-1) * c0
    return Evolution(t, p, c, bell_eigenvalues(c), *correlation_ledger(c))


def closed_form_characteristic_time(ratio, a: float = 1.0):
    """ln[(1 + sqrt(1 - r)) / r] / a, valid for the kernel with A = a = gamma.

    Accepts a scalar ratio (returns a float) or an array of ratios."""
    r = np.asarray(ratio, dtype=float)
    if not np.all((0.0 < r) & (r < 1.0)):
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    with np.errstate(over="ignore"):  # a subnormal r overflows the quotient
        out = _log_quotient(1 + np.sqrt(1 - r), r) / a
    return float(out) if np.ndim(ratio) == 0 else out


def _is_equal_kernel(k: KernelParams) -> bool:
    return abs(k.A - k.a) <= 1e-12 * k.a and abs(k.gamma - k.a) <= 1e-12 * k.a


def _check_closed_form(k: KernelParams, ratio, t) -> None:
    """For the A = a = gamma kernel, require each root t to match the closed
    form to 1e-8, compared as a*t so that the check holds at every rate a."""
    if not _is_equal_kernel(k):
        return
    closed = np.atleast_1d(closed_form_characteristic_time(ratio))
    t = np.atleast_1d(t)
    off = np.flatnonzero(np.abs(k.a * t - closed) > 1e-8 * np.maximum(1.0, closed))
    if off.size:
        i = off[0]
        raise AccuracyError(f"root finder a*t={float(k.a * t[i])!r} disagrees "
                            f"with closed form {float(closed[i])!r}")


def characteristic_time_curve(cx: float, cy, k: KernelParams) -> np.ndarray:
    """characteristic_time of each state (cx, cy, -cx) over the array cy,
    where every cy > cx > 0, so that |cy| dominates and each state switches:
    one lockstep root solve of |p| = cx/cy, with the closed-form check."""
    ratio = cx / np.asarray(cy, dtype=float)
    t_c = solve_decay_time(k, ratio)
    _check_closed_form(k, ratio, t_c)
    return t_c


def branch_switch_ratio(c0) -> float | None:
    """max(|cx|, |cz|) / |cy|: the |p| at which the dominant coefficient
    switches branch, or None when no switch occurs: a switch needs |cy| >
    max(|cx|, |cz|) > 0 at t = 0."""
    cx, cy, cz = c0
    ratio_num = max(abs(cx), abs(cz))
    if ratio_num == 0.0 or abs(cy) <= ratio_num:
        return None
    return ratio_num / abs(cy)


def characteristic_time(c0, k: KernelParams, markovian: bool = False) -> float | None:
    """First time where the dominant-coefficient branch switches.

    Solves |p(t)| = branch_switch_ratio(c0); None when that is None, which
    is unless |cy| > max(|cx|, |cz|) > 0. For the A = a = gamma kernel a*t
    is cross-checked against the closed form to 1e-8.
    """
    ratio = branch_switch_ratio(require_physical(c0))
    if ratio is None:
        return None
    t = solve_decay_time(k, ratio, markovian=markovian)
    if not markovian:
        _check_closed_form(k, ratio, t)
    return t


def switch_brackets(run: Evolution, axis_a: str = "x", axis_b: str = "z") -> np.ndarray:
    """(K, 2) times (t_i, t_j), one row per sudden change of an `evolve` run
    over channels on (axis_a, axis_b): consecutive rows with lambda_max > 0
    whose dominant axes differ in exponent group k = [alpha != axis_a] +
    [alpha != axis_b], as c_alpha scales as p^k (the multiplier at p = 1/2 is
    2^-k). A tie within a group, or p underflowing every c to 0, is no switch.
    """
    group = np.array(correlation_multipliers(axis_a, axis_b, 0.5))[run.axis]
    kept = np.flatnonzero(run.lambda_max > 0)
    at = np.flatnonzero(np.diff(group[kept]))
    return np.column_stack([run.t[kept[at]], run.t[kept[at + 1]]])
