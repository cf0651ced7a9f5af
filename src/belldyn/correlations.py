"""Correlation measures for two-qubit states.

Fast paths (mutual information, classical correlation, discord, closest
classical state, relative-entropy discord) operate on Bell-diagonal
coefficient triples. The measurement-based definitions (conditional entropy,
brute-force classical correlation) take a full density matrix and serve as
independent oracles for the closed forms.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError
from .states import (
    BellCoefficients,
    as_bell,
    bell_eigenvalues,
    bell_to_density,
    relative_entropy,
    require_physical,
    require_valid_state,
    shannon_entropy,
)

AXES = ("x", "y", "z")
ZERO_PROBABILITY = 1e-12
IDENTITY_TOL = 1e-8  # discord vs relative-entropy discord

# brute-force search resolution: 64 x 128 grid, then coordinate descent
THETA_STEPS = 64
PHI_STEPS = 128
REFINE_ANGLE_TOL = 1e-8
# scales the descent tries per iteration: the current one and its next three
# halvings. verify's 500 live states x 4 levels x 4 moves = 8000 candidate
# rows, within the size of one 64 x 128 grid pass.
DESCENT_LEVELS = 4


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


class BruteForceClassical(NamedTuple):
    value: float | np.ndarray  # (N,) for a stack of states
    basis: np.ndarray  # Bloch vector of the minimizing measurement; (N, 3) for a stack


class RelativeEntropyDiscord(NamedTuple):
    value: float
    axis: str


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


def discord(c) -> CorrelationReport:
    """One-row correlation_ledger.

    The fields are built-in floats and the axis is its name, so the report
    serializes with json.dumps as it stands.
    """
    i, cl, d, lam, axis = (field.item() for field in correlation_ledger([as_bell(c)]))
    return CorrelationReport(i, cl, d, lam, AXES[axis])


def _projectors(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Rows conj(k_b) k_d, flattened over (b, d), of the measurement kets
    |k> = (cos(theta/2), sin(theta/2) e^{i phi}); shape theta.shape + (4,)."""
    k0 = np.cos(theta / 2)
    k1 = np.sin(theta / 2) * np.exp(1j * phi)
    cross = k0 * k1
    return np.stack([k0 * k0, cross, cross.conj(), k1.conj() * k1], axis=-1)


@lru_cache(maxsize=8)
def _search_grid(theta_steps: int, phi_steps: int) -> tuple:
    """Flattened (theta, phi) search grid and its projector rows, built once
    per grid size; the arrays are read-only because every call shares them."""
    thetas = np.linspace(0.0, np.pi, theta_steps)
    phis = np.arange(phi_steps) * (2 * np.pi / phi_steps)
    tg, pg = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    grid = (tg, pg, _projectors(tg, pg))
    for arr in grid:
        arr.flags.writeable = False
    return grid


def _search_operands(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, 4, 4) states as the kernel takes them: rho[a b, c d] rearranged to
    rows (b d) and columns (a c), and rho_A = Tr_B rho as an (N, 1, 4) row."""
    n = len(rho)
    rho_bd = rho.reshape(n, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3).reshape(n, 4, 4)
    return rho_bd, rho_bd[:, 0:1] + rho_bd[:, 3:4]


def _conditional_entropies(rho_bd, rho_a, proj) -> np.ndarray:
    """Conditional entropies for projective bases on B, batched.

    M+ = proj @ rho_bd (one matmul) is the unnormalised state of A after
    outcome +, M- = rho_A - M+; each adds w * S(M/w), w = Tr M, or zero when
    w < 1e-12. (K, 4) proj against one state's operands gives (K,); (N, K, 4)
    against N states' gives (N, K).
    """
    m_plus = proj @ rho_bd
    m = np.stack([m_plus, rho_a - m_plus])  # M+, M-; columns (a c)
    w = np.real(m[..., 0] + m[..., 3])
    disc = np.sqrt(np.maximum(
        np.real(m[..., 0] - m[..., 3]) ** 2 + 4 * np.abs(m[..., 1]) ** 2, 0.0))
    eig = np.clip(np.stack([w + disc, w - disc]) / 2, 0.0, None)
    q = np.divide(eig, w, out=np.zeros_like(eig), where=w > ZERO_PROBABILITY)
    terms = eig * np.log2(np.where(q > 1e-15, q, 1.0))
    outcome = (0.0 - terms[0]) - terms[1]
    return outcome[0] + outcome[1]


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
    rho_bd, rho_a = _search_operands(rho[None])
    proj = _projectors(np.array([theta]), np.array([phi]))
    return float(_conditional_entropies(rho_bd[0], rho_a[0], proj)[0])


def classical_correlation_bruteforce(
    rho: np.ndarray,
    theta_steps: int = THETA_STEPS,
    phi_steps: int = PHI_STEPS,
    angle_tol: float = REFINE_ANGLE_TOL,
) -> BruteForceClassical:
    """Grid search over measurement bases plus local refinement.

    Takes one (4, 4) density matrix or an (N, 4, 4) stack; a stack returns
    values (N,) and bases (N, 3), each row equal to the single-state call.
    Scans (theta, phi) on a theta_steps x phi_steps grid one state at a
    time (the grid and its projector rows are built once per grid size and
    cached), then runs coordinate descent with step halving down to
    angle_tol on all states in lockstep, each keeping its own step and
    stopping on its own. Each iteration evaluates the four moves at a
    state's step and its next DESCENT_LEVELS - 1 halvings in one batch and
    takes the largest step that improves, which is exactly the move a
    descent trying one step at a time, halving after each failure, would
    make. Ties on the grid resolve to the lexicographically smallest angles,
    so results are run-to-run identical.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise ValueError(
            f"expected a (4, 4) state or an (N, 4, 4) stack, got {rho.shape}")
    stack = np.array([require_valid_state(state) for state in rho.reshape(-1, 4, 4)])
    rho_bd, rho_a = _search_operands(stack)
    entropy_a = shannon_entropy(np.linalg.eigvalsh(rho_a.reshape(-1, 2, 2)))

    tg, pg, grid = _search_grid(theta_steps, phi_steps)
    n = len(stack)
    best_val, theta, phi = np.empty(n), np.empty(n), np.empty(n)
    for i in range(n):
        values = _conditional_entropies(rho_bd[i], rho_a[i], grid)
        j = np.argmin(values)
        best_val[i], theta[i], phi[i] = values[j], tg[j], pg[j]

    # the theta and phi steps start at pi/theta_steps and 2 pi/phi_steps and
    # halve together; halving a scale by 2 is exact, so each level's steps
    # equal those the one-step descent reaches after as many halvings
    scale = np.ones(n)
    reach = max(np.pi / theta_steps, 2 * np.pi / phi_steps)
    halvings = 0.5 ** np.arange(DESCENT_LEVELS)
    while (live := np.flatnonzero(reach * scale > angle_tol)).size:
        levels = scale[live, None] * halvings  # (live, levels)
        t = np.broadcast_to(theta[live, None], levels.shape)
        p = np.broadcast_to(phi[live, None], levels.shape)
        st, sp = np.pi / theta_steps * levels, 2 * np.pi / phi_steps * levels
        cand_t = np.stack([np.minimum(t + st, np.pi), np.maximum(t - st, 0.0), t, t], -1)
        cand_p = np.stack([p, p, (p + sp) % (2 * np.pi), (p - sp) % (2 * np.pi)], -1)
        vals = _conditional_entropies(
            rho_bd[live], rho_a[live],
            _projectors(cand_t, cand_p).reshape(live.size, -1, 4),
        ).reshape(cand_t.shape)  # (live, levels, moves)
        pick, low = np.argmin(vals, axis=2), np.min(vals, axis=2)
        better = (low < best_val[live, None]) & (reach * levels > angle_tol)
        hit = better.any(axis=1)
        rows = np.flatnonzero(hit)
        level = np.argmax(better[rows], axis=1)
        move, moved = pick[rows, level], live[rows]
        best_val[moved] = low[rows, level]
        theta[moved] = cand_t[rows, level, move]
        phi[moved] = cand_p[rows, level, move]
        scale[moved] = levels[rows, level]
        # no scale improved: go on from the first one not yet tried
        scale[live[~hit]] = levels[~hit, -1] / 2

    value = entropy_a - best_val
    basis = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                      np.cos(theta)], axis=-1)
    if rho.ndim == 2:
        return BruteForceClassical(float(value[0]), basis[0])
    return BruteForceClassical(value, basis)


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
