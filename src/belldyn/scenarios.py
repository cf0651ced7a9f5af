"""Initial-state families, time trajectories, and sudden-change analysis."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channels import correlation_multipliers
from .correlations import correlation_ledger
from .errors import AccuracyError
from .kernel import KernelParams, decay_factor, markovian_decay_factor, solve_decay_time
from .states import BellCoefficients, bell_eigenvalues, require_physical

FAMILY_TAGS = ("synchronized", "proportional", "sudden_change")

KINK_THRESHOLD = 5.0  # spike vs. median second-difference magnitude
MIN_KINK_POINTS = 100


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
    axis: np.ndarray  # index into correlations.AXES


def make_family_state(family: InitialFamily) -> BellCoefficients:
    """Coefficient triple of a family member, validated for physicality.

    synchronized(x):  (x, x^2, -x)   [sign=-1: (x, -x^2, x)]
    proportional(x):  (x, x, -1)     [sign=-1: (x, -x, 1)]
    sudden_change(cx, cy): (cx, cy, cx)  [sign=-1: (cx, cy, -cx)]
    """
    tag, params, sign = family
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if tag == "synchronized":
        (x,) = params
        c = BellCoefficients(x, sign * x * x, -sign * x)
    elif tag == "proportional":
        (x,) = params
        c = BellCoefficients(x, sign * x, -sign * 1.0)
    elif tag == "sudden_change":
        cx, cy = params
        c = BellCoefficients(cx, cy, sign * cx)
    else:
        raise ValueError(f"unknown family {tag!r}; expected one of {FAMILY_TAGS}")
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
    multipliers = np.broadcast_arrays(*correlation_multipliers(axis_a, axis_b, p))
    c = np.stack(multipliers, axis=-1) * c0
    return Evolution(t, p, c, bell_eigenvalues(c), *correlation_ledger(c))


def closed_form_characteristic_time(ratio: float, a: float = 1.0) -> float:
    """ln[(1 + sqrt(1 - r)) / r] / a, valid for the kernel with A = a = gamma."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    return float(np.log((1 + np.sqrt(1 - ratio)) / ratio)) / a


def _is_equal_kernel(k: KernelParams) -> bool:
    return abs(k.A - k.a) <= 1e-12 * k.a and abs(k.gamma - k.a) <= 1e-12 * k.a


def characteristic_time(c0, k: KernelParams, markovian: bool = False) -> float | None:
    """First time where the dominant-coefficient branch switches.

    Solves |p(t)| = max(|cx|, |cz|) / |cy|. Returns None when no switch can
    occur (|cy| does not dominate at t=0). For the A = a = gamma kernel the
    root is cross-checked against the closed form to 1e-8.
    """
    cx, _, cz = c0 = require_physical(c0)
    ratio_num = max(abs(cx), abs(cz))
    cy_mag = abs(c0.cy)
    if ratio_num < 1e-15 or cy_mag <= ratio_num:
        return None
    ratio = ratio_num / cy_mag
    t = solve_decay_time(k, ratio, markovian=markovian)
    if not markovian and _is_equal_kernel(k):
        closed = closed_form_characteristic_time(ratio, k.a)
        if abs(t - closed) > 1e-8 * max(1.0, closed):
            raise AccuracyError(
                f"root finder t={t!r} disagrees with closed form {closed!r}"
            )
    return t


def detect_kink(t, C, threshold: float = KINK_THRESHOLD) -> float | None:
    """Time of the first sudden slope change in C(t), or None if C is smooth.

    t and C are the time grid and classical correlation of an Evolution,
    as in `detect_kink(run.t, run.C)`. A kink shows as a localized spike in
    the second differences of C: the candidate must exceed `threshold` times
    both the global and a windowed local median of |d2C| (plus an eps-scale
    floor), so smoothly varying curvature never triggers. With several kinks
    (oscillatory kernels) the first cluster wins. Resolution is one grid
    step; small kinks need a dense grid since the spike scales with the step
    while the smooth background scales with its square.
    """
    c_vals = np.asarray(C, dtype=float)
    if c_vals.size < MIN_KINK_POINTS:
        raise ValueError(f"need at least {MIN_KINK_POINTS} trajectory points")
    d2 = np.abs(c_vals[2:] - 2 * c_vals[1:-1] + c_vals[:-2])
    n = d2.size
    global_median = float(np.median(d2))
    if float(np.max(d2)) <= threshold * global_median:
        return None
    floor = 64 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(c_vals))))
    half = max(4, n // 150)
    candidates = []
    for i in np.nonzero((d2 > threshold * global_median) & (d2 > floor))[0]:
        lo, hi = max(0, i - half), min(n, i + half + 1)
        window = np.concatenate([d2[lo : max(lo, i - 1)], d2[min(hi, i + 2) : hi]])
        if window.size < 4:
            continue
        if d2[i] > threshold * max(float(np.median(window)), floor):
            candidates.append(int(i))
    if not candidates:
        return None
    cluster = [candidates[0]]
    for i in candidates[1:]:
        if i - cluster[-1] <= 2:
            cluster.append(i)
        else:
            break
    peak = max(cluster, key=lambda i: d2[i])
    return float(t[peak + 1])


class FigureTable(NamedTuple):
    columns: tuple
    rows: np.ndarray
    params: dict


_PANEL_KERNELS = {
    "a": lambda a: KernelParams(a, a, a),
    "b": lambda a: KernelParams(a, 10 * a, a / 100),
}
_PANEL_SPANS = {"a": 10.0, "b": 3.0}  # in units of 1/a
_FIGURE_FAMILIES = {
    1: InitialFamily("synchronized", (0.6,)),
    2: InitialFamily("proportional", (0.6,)),
    3: InitialFamily("sudden_change", (0.1, 0.16)),
}
GRID_POINTS = 2000


def figure_data(figure: int, panel: str, a: float = 1.0) -> FigureTable:
    """Data table behind one figure panel.

    Panels a/b emit (a*t, p, I, C, D, C_markov, D_markov) for the captioned
    state; panel 3c emits (c_y, a*t_c) for cx = cz = 0.1 over cy in (0.1, 1].
    """
    if figure not in (1, 2, 3):
        raise ValueError(f"figure must be 1, 2 or 3, got {figure}")
    valid_panels = ("a", "b", "c") if figure == 3 else ("a", "b")
    if panel not in valid_panels:
        raise ValueError(f"figure {figure} has panels {valid_panels}, got {panel!r}")

    if figure == 3 and panel == "c":
        k = _PANEL_KERNELS["a"](a)
        cx = 0.1
        cy_grid = np.linspace(0.105, 1.0, 180)
        # cz = -cx branch: physical over all cy <= 1, and t_c only depends
        # on |cx|/|cy|
        t_c = [characteristic_time((cx, cy, -cx), k) for cy in cy_grid.tolist()]
        rows = np.column_stack([cy_grid, a * np.array(t_c)])
        params = {
            "figure": figure,
            "panel": panel,
            "a": a,
            "A": k.A,
            "gamma": k.gamma,
            "cx": cx,
            "cz": -cx,
        }
        return FigureTable(("c_y", "a_t_c"), rows, params)

    family = _FIGURE_FAMILIES[figure]
    c0 = make_family_state(family)
    k = _PANEL_KERNELS[panel](a)
    span = _PANEL_SPANS[panel]
    t_grid = np.linspace(0.0, span / a, GRID_POINTS)
    run = evolve(c0, k, t_grid)
    twin = evolve(c0, k, t_grid, markovian=True)
    rows = np.column_stack([a * run.t, run.p, run.I, run.C, run.D, twin.C, twin.D])
    params = {
        "figure": figure,
        "panel": panel,
        "a": a,
        "A": k.A,
        "gamma": k.gamma,
        "c0": tuple(c0),
        "t_max": span,
        "t_steps": GRID_POINTS,
    }
    return FigureTable(
        ("a_t", "p", "I", "C", "D", "C_markov", "D_markov"), rows, params
    )
