"""Correlation measures for two-qubit states.

Fast paths (mutual information, classical correlation, discord, closest
classical state, relative-entropy discord) operate on Bell-diagonal
coefficient triples. The measurement-based definitions (conditional entropy,
brute-force classical correlation) take a full density matrix and serve as
independent oracles for the closed forms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AccuracyError
from .states import (
    BellCoefficients,
    as_bell,
    bell_eigenvalues,
    bell_to_density,
    partial_trace,
    relative_entropy,
    require_physical,
    require_valid_state,
    shannon_entropy,
    von_neumann_entropy,
)

AXES = ("x", "y", "z")
ZERO_PROBABILITY = 1e-12
IDENTITY_TOL = 1e-8  # discord vs relative-entropy discord

# brute-force search resolution: 64 x 128 grid, then coordinate descent
THETA_STEPS = 64
PHI_STEPS = 128
REFINE_ANGLE_TOL = 1e-8


class CorrelationReport(NamedTuple):
    """Mutual information I, classical correlation C, discord D = I - C."""

    I: float
    C: float
    D: float
    lambda_max: float
    axis: str


class CorrelationLedger(NamedTuple):
    """Struct of arrays: the CorrelationReport fields of a batch, row by row."""

    I: np.ndarray
    C: np.ndarray
    D: np.ndarray
    lambda_max: np.ndarray
    axis: np.ndarray  # index into AXES


class ClassicalCorrelation(NamedTuple):
    value: float
    lambda_max: float
    axis: str


class BruteForceClassical(NamedTuple):
    value: float
    basis: np.ndarray  # Bloch vector of the minimizing measurement


class RelativeEntropyDiscord(NamedTuple):
    value: float
    axis: str


def report_to_json(report: CorrelationReport) -> dict:
    return report._asdict()


def dominant_axis(c) -> tuple[float, str]:
    """Largest |c_alpha| with ties broken in axis order x, y, z."""
    mags = np.abs(np.asarray(as_bell(c), dtype=float))
    idx = int(np.argmax(mags))
    return float(mags[idx]), AXES[idx]


def binary_information(u):
    """1 - H2((1+u)/2) in bits: information carried by a bit of bias u.

    Elementwise over an array of biases.
    """
    u = np.minimum(np.abs(u), 1.0)
    total = 0.0
    for v in (1.0 + u, 1.0 - u):
        live = v > 1e-15
        total = total + np.where(live, (v / 2) * np.log2(np.where(live, v, 1.0)), 0.0)
    return total if np.ndim(total) else float(total)


def correlation_ledger(c) -> CorrelationLedger:
    """Closed-form I, C and D of an (N, 3) batch of coefficient triples.

    I = 2 + sum_i lambda_i log2 lambda_i over the Bell spectrum; measurement
    along the dominant axis is optimal, so C is the binary information of
    lambda_max = max |c_alpha| (Luo, PRA 77, 042303, 2008). Every row is
    computed elementwise, so a row's result does not depend on the batch.
    Raises InvalidStateError when a Bell eigenvalue is below -1e-10.
    """
    c = np.asarray(c, dtype=float)
    total = 2.0 - shannon_entropy(bell_eigenvalues(c))
    mags = np.abs(c)
    lam_max = np.max(mags, axis=1)
    classical = binary_information(lam_max)
    return CorrelationLedger(
        total, classical, total - classical, lam_max, np.argmax(mags, axis=1)
    )


def ledger_reports(ledger) -> list[CorrelationReport]:
    """Row view of a ledger (or of anything carrying its five fields)."""
    return [
        CorrelationReport(i, c, d, lam, AXES[axis])
        for i, c, d, lam, axis in zip(
            ledger.I.tolist(), ledger.C.tolist(), ledger.D.tolist(),
            ledger.lambda_max.tolist(), ledger.axis.tolist(),
        )
    ]


def mutual_information(c) -> float:
    """2 + sum_i lambda_i log2 lambda_i over the Bell spectrum."""
    return discord(c).I


def classical_correlation(c) -> ClassicalCorrelation:
    """Closed form: measurement along the dominant axis is optimal."""
    report = discord(c)
    return ClassicalCorrelation(report.C, report.lambda_max, report.axis)


def discord(c) -> CorrelationReport:
    """One-row correlation_ledger."""
    return ledger_reports(correlation_ledger([as_bell(c)]))[0]


def _kets_from_angles(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Measurement kets |n> for Bloch angles; shape (N, 2)."""
    return np.stack(
        [np.cos(theta / 2) + 0j, np.sin(theta / 2) * np.exp(1j * phi)], axis=-1
    )


def _bloch_from_angles(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


def _entropy_terms(m00, m11, m01):
    """Weighted post-measurement entropy w * S(M/w) for 2x2 blocks, batched."""
    w = np.real(m00 + m11)
    disc = np.sqrt(np.maximum(np.real(m00 - m11) ** 2 + 4 * np.abs(m01) ** 2, 0.0))
    e_hi = np.clip((w + disc) / 2, 0.0, None)
    e_lo = np.clip((w - disc) / 2, 0.0, None)
    out = np.zeros_like(w)
    live = w > ZERO_PROBABILITY
    for e in (e_hi, e_lo):
        q = np.zeros_like(w)
        np.divide(e, w, out=q, where=live)
        mask = live & (q > 1e-15)
        out[mask] -= e[mask] * np.log2(q[mask])
    return out


def _conditional_entropy_batch(rho4, rho_a, kets: np.ndarray) -> np.ndarray:
    """Conditional entropies for a batch of projective bases on B."""
    m_plus = np.einsum("abcd,nb,nd->nac", rho4, kets.conj(), kets)
    m_minus = rho_a[None, :, :] - m_plus
    total = _entropy_terms(m_plus[:, 0, 0], m_plus[:, 1, 1], m_plus[:, 0, 1])
    total += _entropy_terms(m_minus[:, 0, 0], m_minus[:, 1, 1], m_minus[:, 0, 1])
    return total


def conditional_entropy(rho: np.ndarray, bloch: np.ndarray) -> float:
    """sum_i p_i S(rho_A^(i)) after measuring B along the unit Bloch vector.

    Outcomes with probability below 1e-12 contribute zero (continuity
    convention).
    """
    rho = require_valid_state(rho)
    n = np.asarray(bloch, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise ValueError("measurement basis must be a unit 3-vector")
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    kets = _kets_from_angles(np.array([theta]), np.array([phi]))
    rho4 = rho.reshape(2, 2, 2, 2)
    rho_a = partial_trace(rho, "B")
    return float(_conditional_entropy_batch(rho4, rho_a, kets)[0])


def classical_correlation_bruteforce(
    rho: np.ndarray,
    theta_steps: int = THETA_STEPS,
    phi_steps: int = PHI_STEPS,
    angle_tol: float = REFINE_ANGLE_TOL,
) -> BruteForceClassical:
    """Grid search over measurement bases plus local refinement.

    Scans (theta, phi) on a theta_steps x phi_steps grid, then coordinate
    descent with step halving down to angle_tol. Ties on the grid resolve to
    the lexicographically smallest angles, so results are run-to-run
    identical.
    """
    rho = require_valid_state(rho)
    rho4 = rho.reshape(2, 2, 2, 2)
    rho_a = partial_trace(rho, "B")
    entropy_a = von_neumann_entropy(rho_a)

    thetas = np.linspace(0.0, np.pi, theta_steps)
    phis = np.arange(phi_steps) * (2 * np.pi / phi_steps)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    kets = _kets_from_angles(tg.ravel(), pg.ravel())
    values = _conditional_entropy_batch(rho4, rho_a, kets)
    best = int(np.argmin(values))
    best_val = float(values[best])
    theta, phi = float(tg.ravel()[best]), float(pg.ravel()[best])

    step_t = np.pi / theta_steps
    step_p = 2 * np.pi / phi_steps
    while max(step_t, step_p) > angle_tol:
        cand_t = np.array(
            [
                min(theta + step_t, np.pi),
                max(theta - step_t, 0.0),
                theta,
                theta,
            ]
        )
        cand_p = np.array(
            [phi, phi, (phi + step_p) % (2 * np.pi), (phi - step_p) % (2 * np.pi)]
        )
        vals = _conditional_entropy_batch(
            rho4, rho_a, _kets_from_angles(cand_t, cand_p)
        )
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            theta, phi = float(cand_t[i]), float(cand_p[i])
        else:
            step_t /= 2
            step_p /= 2
    return BruteForceClassical(entropy_a - best_val, _bloch_from_angles(theta, phi))


def dephase(c, axis: str) -> BellCoefficients:
    """Erase the two correlation components orthogonal to the given axis."""
    cx, cy, cz = as_bell(c)
    if axis == "x":
        return BellCoefficients(cx, 0.0, 0.0)
    if axis == "y":
        return BellCoefficients(0.0, cy, 0.0)
    if axis == "z":
        return BellCoefficients(0.0, 0.0, cz)
    raise ValueError(f"axis must be one of {AXES}, got {axis!r}")


def closest_classical_state(c) -> BellCoefficients:
    """Dephasing along the dominant axis minimizes the relative entropy."""
    c = require_physical(c)
    _, axis = dominant_axis(c)
    return dephase(c, axis)


def relative_entropy_discord(c) -> RelativeEntropyDiscord:
    """Minimal relative entropy to the three axis dephasings.

    For Bell-diagonal states this equals I - C; the identity is enforced to
    1e-8 as an internal consistency check.
    """
    c = require_physical(c)
    rho = bell_to_density(c)
    best_val, best_axis = np.inf, AXES[0]
    for axis in AXES:
        val = relative_entropy(rho, bell_to_density(dephase(c, axis)))
        if val < best_val:
            best_val, best_axis = val, axis
    expected = discord(c).D
    if abs(best_val - expected) > IDENTITY_TOL:
        raise AccuracyError(
            f"relative-entropy discord {best_val:.3e} disagrees with I - C "
            f"{expected:.3e} beyond {IDENTITY_TOL}"
        )
    return RelativeEntropyDiscord(best_val, best_axis)
