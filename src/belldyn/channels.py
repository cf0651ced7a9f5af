"""Local Pauli channels on a two-qubit state.

A single-qubit channel along axis k mixes the identity with conjugation by
sigma_k, weights (1+p)/2 and (1-p)/2. On the Bloch sphere this keeps the
k component and multiplies the two orthogonal components by p; the mixture
is completely positive for |p| <= 1, including negative p (needed when the
memory kernel makes p(t) oscillate through zero).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonCPTPError
from .states import (
    ID2,
    PAULI,
    BellCoefficients,
    as_bell,
    require_valid_state,
)

CHANNEL_AXES = ("x", "y", "z")  # bit flip, bit-phase flip, phase flip


class LocalChannel(NamedTuple):
    axis: str
    p: float


def _require_axis(axis: str) -> str:
    if axis not in CHANNEL_AXES:
        raise ValueError(f"channel axis must be one of {CHANNEL_AXES}, got {axis!r}")
    return axis


def _require_retention(p):
    """p, a float or an array of retention parameters, once every |p| <= 1."""
    worst = float(np.max(np.abs(p), initial=0.0))
    if not worst <= 1 + 1e-12:  # a NaN fails too
        raise NonCPTPError(f"retention parameter |p| <= 1 required, got |p| = {worst}")
    return p if np.ndim(p) else float(p)


def apply_local_channel(rho: np.ndarray, qubit: str, channel: LocalChannel) -> np.ndarray:
    """((1+p)/2) rho + ((1-p)/2) S rho S with S = sigma_axis on the named qubit."""
    rho = require_valid_state(rho)
    axis = _require_axis(channel.axis)
    p = _require_retention(channel.p)
    if qubit == "A":
        op = np.kron(PAULI[axis], ID2)
    elif qubit == "B":
        op = np.kron(ID2, PAULI[axis])
    else:
        raise ValueError(f"qubit must be 'A' or 'B', got {qubit!r}")
    return ((1 + p) / 2) * rho + ((1 - p) / 2) * (op @ rho @ op)


def correlation_multipliers(axis_a: str, axis_b: str, p) -> tuple:
    """Per-axis multipliers (mx, my, mz) with c_alpha(t) = m_alpha * c_alpha.

    Each local channel leaves its own axis fixed and scales the other two by
    its retention parameter p, the same for both qubits; the correlation
    multiplier is the product of the per-qubit factors. For an array of
    retention parameters, a multiplier that depends on them is an array; one
    that does not stays 1.0.
    """
    _require_axis(axis_a)
    _require_axis(axis_b)
    p = _require_retention(p)
    return tuple(
        (1.0 if ax == axis_a else p) * (1.0 if ax == axis_b else p)
        for ax in CHANNEL_AXES
    )


def scale_coefficients(c0, multipliers) -> BellCoefficients:
    cx, cy, cz = as_bell(c0)
    mx, my, mz = multipliers
    return BellCoefficients(mx * cx, my * cy, mz * cz)
