"""Closed forms the benchmark checks belldyn's outputs against.

Everything here is written from the model equations, not from belldyn's
code, so a check passes only when the program agrees with an independent
derivation. Arrays are float64; the reference is evaluated at full
precision and compared with the program's printed digits.
"""

from __future__ import annotations

import numpy as np

CHANNEL_AXES = {"bitflip": "x", "bitphase": "y", "phaseflip": "z"}


def decay(a: float, A: float, gamma: float, t):
    """p(t) solving p'' + (2a + gamma) p' + 2aA p = 0, p(0) = 1, p'(0) = 0.

    With characteristic roots r+- = -b +- d, b = a + gamma/2 and
    d = sqrt(b^2 - 2aA) (imaginary when the kernel oscillates),
    p = (r+ exp(r- t) - r- exp(r+ t)) / (r+ - r-). A double root (d = 0)
    gives exp(-bt)(1 + bt).
    """
    t = np.asarray(t, dtype=float)
    b = a + gamma / 2
    d2 = b * b - 2 * a * A
    if d2 == 0.0:
        return np.exp(-b * t) * (1 + b * t)
    d = np.sqrt(complex(d2))
    rp, rm = -b + d, -b - d
    return ((rp * np.exp(rm * t) - rm * np.exp(rp * t)) / (rp - rm)).real


def markovian_decay(a: float, t):
    return np.exp(-2 * a * np.asarray(t, dtype=float))


def multipliers(axis_a: str, axis_b: str, p) -> np.ndarray:
    """Per-axis factors, shape (..., 3): a Pauli channel along one axis keeps
    that axis and scales the other two Bloch components by p; a correlation
    picks up one factor per qubit."""
    p = np.asarray(p, dtype=float)
    one = np.ones_like(p)
    return np.stack(
        [(one if ax == axis_a else p) * (one if ax == axis_b else p) for ax in "xyz"],
        axis=-1,
    )


def family_state(tag: str, params, sign: int) -> tuple[float, float, float]:
    """The paper's three initial-state families; sign picks the mirror branch."""
    if tag == "synchronized":
        (x,) = params
        return (x, sign * x * x, -sign * x)
    if tag == "proportional":
        (x,) = params
        return (x, sign * x, -sign * 1.0)
    if tag == "sudden_change":
        cx, cy = params
        return (cx, cy, sign * cx)
    raise ValueError(f"unknown family {tag!r}")


def bell_spectrum(c) -> np.ndarray:
    """Eigenvalues (Psi+, Phi+, Phi-, Psi-) of (II + sum c_k s_k s_k) / 4."""
    c = np.asarray(c, dtype=float)
    cx, cy, cz = c[..., 0], c[..., 1], c[..., 2]
    return 0.25 * np.stack(
        [1 + cx + cy - cz, 1 + cx - cy + cz, 1 - cx + cy + cz, 1 - cx - cy - cz],
        axis=-1,
    )


def _xlog2x(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, None)
    out = np.zeros_like(x)
    live = x > 0
    out[live] = x[live] * np.log2(x[live])
    return out


def ledger(c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mutual information, classical correlation and discord, in bits.

    I = 2 - S(spectrum); C = 1 - H2((1 + m)/2) with m = max |c_k|; D = I - C.
    """
    c = np.asarray(c, dtype=float)
    info = 2.0 + np.sum(_xlog2x(bell_spectrum(c)), axis=-1)
    m = np.max(np.abs(c), axis=-1)
    classical = 0.5 * (_xlog2x(1 + m) + _xlog2x(1 - m))
    return info, classical, info - classical


def closed_form_tc(ratio: float, a: float) -> float:
    """Switch time for the kernel A = a = gamma, where p = 2e^{-at} - e^{-2at}
    reaches r at a*t = ln[(1 + sqrt(1 - r)) / r]."""
    return float(np.log((1 + np.sqrt(1 - ratio)) / ratio)) / a
