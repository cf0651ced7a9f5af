"""Correlation measures for two-qubit states.

The closed forms (mutual information, classical correlation and discord, in
correlation_ledger and discord) operate on Bell-diagonal coefficient
triples. Two oracles check them by independent paths through density
matrices: the brute-force classical correlation takes states whose marginals
vanish, as every Bell-diagonal state's do, and minimizes the conditional
entropy over a hemisphere grid of Bloch vectors measured on B, then refines
with Newton steps on the sphere; the relative-entropy discord finds the
nearest of the three axis dephasings.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, InvalidStateError
from .states import (
    EIGENVALUE_FLOOR,
    PAULI,
    _spectrum,
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

# the brute-force search's fixed resolution: a 64 x 128 grid, then Newton
# steps down to REFINE_ANGLE_TOL
THETA_STEPS = 64
PHI_STEPS = 128
REFINE_ANGLE_TOL = 1e-8
# one _conditional_entropies call takes a state's whole grid: the grid is fixed
# at 3 969 candidates, so a call's largest temporary, the (4, 3 969) feature
# block, is 124 KiB
# trials one state's Newton descent may take; a converging state takes ~2,
# and a state that uses them all raises AccuracyError
NEWTON_STEPS = 32
_LN2 = math.log(2.0)


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
    value: float | np.ndarray  # (N,) for a batch
    axis: str | np.ndarray  # (N,) indices into AXES for a batch


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
    x, y, z = np.abs(c).T
    xy = np.maximum(x, y)
    lam_max = np.maximum(xy, z)
    classical = binary_information(lam_max)
    # the first maximum, as np.argmax gives it, without a reduction over rows
    # of three: y only above x, z only above both
    axis = np.where(z > xy, 2, (y > x).astype(np.intp))
    return CorrelationLedger(total, classical, total - classical, lam_max, axis)


def _ledger_row(c) -> tuple:
    """One row of correlation_ledger on Python floats: I, C, D, lambda_max
    and the axis index.

    The row runs the ledger's expressions in the ledger's order, with one
    np.log2 call for its six logarithms, so every value carries the ledger
    row's bits; a triple whose spectrum is not finite or dips below the
    floor goes through the ledger, which raises its error.
    """
    cx, cy, cz = map(float, as_bell(c))
    spectrum = _spectrum(cx, cy, cz)
    if not all(EIGENVALUE_FLOOR <= v < math.inf for v in spectrum):
        return tuple(field.item() for field in correlation_ledger([(cx, cy, cz)]))
    mags = (abs(cx), abs(cy), abs(cz))
    lam_max = max(mags)
    u = min(lam_max, 1.0)
    # shannon_entropy's clip and cut-off, then binary_information's
    probs = [min(v, 1.0) for v in spectrum]
    halves = (1.0 + u, 1.0 - u)
    logs = np.log2([v if v > 1e-15 else 1.0 for v in (*probs, *halves)]).tolist()
    entropy = 0.0 - sum(v * lg if v > 1e-15 else 0.0 for v, lg in zip(probs, logs))
    total = 2.0 - entropy
    classical = 0.0
    for v, lg in zip(halves, logs[4:]):
        classical = classical + ((v / 2) * lg if v > 1e-15 else 0.0)
    return total, classical, total - classical, lam_max, mags.index(lam_max)


def discord(c) -> CorrelationReport:
    """One row of correlation_ledger, computed on floats (_ledger_row).

    The fields are built-in floats and the axis is its name, so the report
    serializes with json.dumps as it stands.
    """
    i, cl, d, lam, axis = _ledger_row(c)
    return CorrelationReport(i, cl, d, lam, AXES[axis])


def _bloch_columns(theta, phi) -> np.ndarray:
    """Columns (1, n) of the directions n(theta, phi) on qubit B: angles of
    shape (..., K) give (..., 4, K)."""
    sin_t = np.sin(theta)
    cols = np.empty(theta.shape[:-1] + (4,) + theta.shape[-1:])
    cols[..., 0, :] = 1.0
    np.multiply(sin_t, np.cos(phi), out=cols[..., 1, :])
    np.multiply(sin_t, np.sin(phi), out=cols[..., 2, :])
    np.cos(theta, out=cols[..., 3, :])
    return cols


@lru_cache(maxsize=8)
def _search_grid(theta_steps: int, phi_steps: int) -> tuple:
    """Flattened (theta, phi) search grid and its Bloch columns, built once
    per grid size and read-only because every call shares them. Measuring
    along -n is measuring along n, so only the upper hemisphere is kept:
    theta_0 .. theta_{T/2 - 1} (the equator too for odd T), the theta = 0 pole
    once, in (theta, phi) order so that ties resolve to the smallest angles.
    """
    thetas = np.linspace(0.0, np.pi, theta_steps)[:(theta_steps + 1) // 2]
    phis = np.arange(phi_steps) * (2 * np.pi / phi_steps)
    tg, pg = (np.delete(g.ravel(), np.s_[1:phi_steps])
              for g in np.meshgrid(thetas, phis, indexing="ij"))
    grid = (tg, pg, _bloch_columns(tg, pg))
    for arr in grid:
        arr.flags.writeable = False
    return grid


# I, sigma_x, sigma_y, sigma_z flattened as sigma.T: A.ravel() @ _PAULI_FLAT.T
# = (Tr A sigma_i)_i for any 2 x 2 matrix A
_PAULI_FLAT = np.array([s.T.ravel() for s in (np.eye(2), *PAULI.values())])
_SIGNS = np.array([1.0, -1.0])  # to 1 + x and 1 - x


def _search_operands(rho: np.ndarray) -> np.ndarray:
    """The (N, 4, 4) operand of (N, 4, 4) states, as the kernel takes it.

    With rho[a b, c d] as rows (a c) and columns (b d), T = Re(_PAULI_FLAT @
    rho_ac @ _PAULI_FLAT.T)[j, i] = Tr[rho (s_j x s_i)]. Outcome + along n on
    B leaves A in M = Tr_B[(I x (I + n.sigma) / 2) rho], and (Tr M sigma_j)_j
    = T @ (1, n) / 2: the operand is T / 2, and operand @ (1, n) gives the
    rows (w, x, y, z) of outcome +. The search's domain is the states whose
    marginals Tr[rho (I x s_i)] and Tr[rho (s_j x I)] are exactly zero in T,
    as every Bell-diagonal state's are: there outcome - along n is outcome +
    along -n, with the same w = 1/2 and |f|, and rho_A = I/2. Raises
    InvalidStateError naming the first state of the stack outside it.
    """
    n = len(rho)
    rho_ac = rho.reshape(n, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(n, 4, 4)
    half = np.real(_PAULI_FLAT @ rho_ac @ _PAULI_FLAT.T) / 2
    if half[:, 0, 1:].any() or half[:, 1:, 0].any():
        marginals = np.abs(np.concatenate([half[:, 0, 1:], half[:, 1:, 0]], axis=1))
        i = np.flatnonzero(marginals.any(axis=1))[0]
        raise InvalidStateError(
            f"state at index {i} has a marginal Bloch component "
            f"{2 * marginals[i].max():.3e}; the measurement search takes only "
            f"states whose marginals are exactly zero")
    return half


def _conditional_entropies(ops, cols) -> np.ndarray:
    """Conditional entropies for projective bases on B, batched.

    ops @ cols (one real matmul) gives w = Tr M and f = Tr M sigma of outcome
    +, so M / w has eigenvalues (1 +- x) / 2 with x = |f| / w, and the outcome
    adds its binary entropy times w: w (1 - [(1 + x) log2(1 + x) + (1 - x)
    log2(1 - x)] / 2). A (1 - x) term at or below 1e-15 adds zero; a call
    where none occurs skips that guard. Outcome - adds what outcome + adds.
    One state's operand against (4, K) Bloch columns gives (K,); N states'
    against (N, 4, K) gives (N, K).
    """
    feats = ops @ cols
    w = feats[..., 0, :]
    sq = feats[..., 1:, :]
    sq *= sq
    x = sq[..., 0, :] + sq[..., 1, :]
    x += sq[..., 2, :]
    np.sqrt(x, out=x)
    x /= w
    pm = np.multiply.outer(_SIGNS, x)
    pm += 1.0  # 1 + x, 1 - x
    if pm[1].min() > 1e-15:  # and 1 + x >= 1
        terms = np.log2(pm)
    else:
        terms = np.log2(np.where(pm > 1e-15, pm, 1.0))
    terms *= pm
    h = terms[0] + terms[1]
    h *= -0.5
    h += 1.0
    h *= w
    return h + h


def _grid_minima(ops) -> tuple:
    """Each state's lowest conditional entropy on the cached hemisphere grid
    and its angles, as three (N,) arrays; ties go to the first grid point."""
    tg, pg, grid = _search_grid(THETA_STEPS, PHI_STEPS)
    n = len(ops)
    best_val, theta, phi = np.empty(n), np.empty(n), np.empty(n)
    for i in range(n):
        values = _conditional_entropies(ops[i], grid)
        j = np.argmin(values)
        best_val[i], theta[i], phi[i] = values[j], tg[j], pg[j]
    return best_val, theta, phi


def _newton_model(op, theta: float, phi: float):
    """Conditional entropy at n(theta, phi) with its gradient and Hessian in
    the tangent frame (e_theta, e_phi), as scalars (H, H_u, H_v, H_uu, H_uv,
    H_vv); None where a second derivative is singular.

    op @ (1, n), (0, e_theta), (0, e_phi), (0, n) gives outcome +'s w and f
    with the derivatives of f along u and v: n_uu = n_vv = -n and n_uv = 0 on
    the geodesics from n, and w's derivatives are zero because the marginals
    are. The outcome adds S(w, d) = w log2 w - l+ log2 l+ - l- log2 l-, l+-
    = (w +- d) / 2, d = |f|; with x = d / w, S_d = -atanh(x) / ln 2 and S_dd
    = -k, k = 1 / (w (1 - x^2) ln 2), and outcome - adds the same. Singular:
    x within ZERO_PROBABILITY of 0 or 1 (d or l- ~ 0).
    """
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    sin_p, cos_p = math.sin(phi), math.cos(phi)
    n = (sin_t * cos_p, sin_t * sin_p, cos_t)
    # rows w, f_x, f_y, f_z; columns the value, d/du, d/dv and -d2/du2
    (w, *_), (fx, fx_u, fx_v, fx_n), (fy, fy_u, fy_v, fy_n), \
        (fz, fz_u, fz_v, fz_n) = (op @ np.array([[1.0, 0.0, 0.0, 0.0],
                                                 [n[0], cos_t * cos_p, -sin_p, n[0]],
                                                 [n[1], cos_t * sin_p, cos_p, n[1]],
                                                 [n[2], -sin_t, 0.0, n[2]]])).tolist()
    ff = fx * fx + fy * fy + fz * fz
    f_u = fx * fx_u + fy * fy_u + fz * fz_u
    f_v = fx * fx_v + fy * fy_v + fz * fz_v
    f_n = fx * fx_n + fy * fy_n + fz * fz_n
    uu = fx_u * fx_u + fy_u * fy_u + fz_u * fz_u
    uv = fx_u * fx_v + fy_u * fy_v + fz_u * fz_v
    vv = fx_v * fx_v + fy_v * fy_v + fz_v * fz_v
    d = math.sqrt(ff)
    x = d / w
    if not ZERO_PROBABILITY < x < 1.0 - ZERO_PROBABILITY:
        return None
    up, down = (w + d) / 2, (w - d) / 2
    value = -(up * math.log2(up / w) + down * math.log2(down / w))
    s_d = -math.atanh(x) / _LN2
    k = 1.0 / (w * (1.0 - x * x) * _LN2)
    d_u, d_v = f_u / d, f_v / d
    s_dd = s_d / d  # times d d_ij = f_i . f_j + f . f_ij - d_i d_j
    h_uu = s_dd * (uu - f_n - d_u * d_u) - k * d_u * d_u
    h_uv = s_dd * (uv - d_u * d_v) - k * d_u * d_v
    h_vv = s_dd * (vv - f_n - d_v * d_v) - k * d_v * d_v
    return value * 2, s_d * d_u * 2, s_d * d_v * 2, h_uu * 2, h_uv * 2, h_vv * 2


def _newton_refine(op, theta: float, phi: float):
    """Safeguarded Newton descent on the sphere from n(theta, phi), in scalar
    floats: the final (theta, phi), the start itself where the model is
    singular there, or None when the descent takes NEWTON_STEPS trials.

    Steps are taken in the tangent frame and mapped along the geodesic. Where
    the Hessian is not positive definite, the step is modified Newton
    (Nocedal & Wright, Numerical Optimization, 2nd ed., 3.4): with (mu, q)
    the Hessian's largest eigenpair, the Newton step along q and steepest
    descent across it where mu > 0, as on a circle of tied minima, whose
    tangent has zero curvature; steepest descent where mu <= 0. Each step is
    clipped to the trust radius, which starts at the larger grid spacing and
    halves on every step that does not strictly lower the entropy; a
    steepest step is scaled to it. The descent stops once a step is at most
    REFINE_ANGLE_TOL.
    """
    model = _newton_model(op, theta, phi)
    if model is None:
        return theta, phi
    radius = max(np.pi / THETA_STEPS, 2 * np.pi / PHI_STEPS)
    for _ in range(NEWTON_STEPS):
        value, h_u, h_v, h_uu, h_uv, h_vv = model
        det = h_uu * h_vv - h_uv * h_uv
        newton = h_uu > 0.0 and det > 0.0
        if newton:
            su, sv = (h_uv * h_v - h_vv * h_u) / det, (h_uv * h_u - h_uu * h_v) / det
        else:
            half = (h_uu - h_vv) / 2
            spread = math.hypot(half, h_uv)
            mu = (h_uu + h_vv) / 2 + spread
            su, sv = -h_u, -h_v
            newton = mu > 0.0
            if newton:
                # q, unnormalized, from the better conditioned row of H - mu
                qu, qv = (half + spread, h_uv) if half >= 0.0 else (h_uv, spread - half)
                # the gradient along q, g_q, scaled so that the step's part
                # along q is -g_q / mu in place of steepest descent's -g_q
                along = (h_u * qu + h_v * qv) * (1.0 - 1.0 / mu) / (qu * qu + qv * qv)
                su, sv = su + along * qu, sv + along * qv
        length = math.hypot(su, sv)
        if length > radius or (length and not newton):
            su, sv, length = su * radius / length, sv * radius / length, radius
        if length <= REFINE_ANGLE_TOL:
            return theta, phi
        # n cos|s| + (su e_theta + sv e_phi) sin|s| / |s|
        sin_t, cos_t = math.sin(theta), math.cos(theta)
        sin_p, cos_p = math.sin(phi), math.cos(phi)
        along, across = math.cos(length), math.sin(length) / length
        lift = sin_t * along + cos_t * su * across
        m = (lift * cos_p - sin_p * sv * across, lift * sin_p + cos_p * sv * across,
             cos_t * along - sin_t * su * across)
        trial_t = math.atan2(math.hypot(m[0], m[1]), m[2])
        trial_p = math.atan2(m[1], m[0]) % (2 * math.pi)
        trial = _newton_model(op, trial_t, trial_p)
        if trial and trial[0] < value:
            theta, phi, model = trial_t, trial_p, trial
        else:
            radius = length / 2
    return None


def classical_correlation_bruteforce(rho: np.ndarray) -> BruteForceClassical:
    """Grid search over measurement bases plus local refinement.

    Takes one (4, 4) density matrix or an (N, 4, 4) stack; a stack returns
    values (N,) and bases (N, 3), each row equal to the single-state call.
    Scans the cached upper hemisphere of the THETA_STEPS x PHI_STEPS grid one
    state at a time. From each state's grid minimum a safeguarded Newton
    descent in scalar floats (_newton_refine) finds the stationary point to
    REFINE_ANGLE_TOL; the kernel then evaluates that point, which is kept
    where it is lower than the grid minimum, and that ends the state's
    search. A state whose Newton model is singular at its grid start keeps
    that grid point, which is then optimal: on zero-marginal states such a
    start has x >= 1 - 1e-12 (x as in _newton_model), whose entropy is
    within ~2.1e-11 of the global minimum 0, or it has x <= 1e-12 over the
    whole grid, where the entropy is flat to 1e-24. A state whose descent
    takes NEWTON_STEPS trials raises AccuracyError naming its index in the
    stack, so no state silently keeps its grid value. Ties on the grid
    resolve to the smallest angles, so results are run-to-run identical.
    C = S(rho_A) - the minimum, with S(rho_A) = 1 on the search's domain:
    states whose marginals are exactly zero (_search_operands), as every
    Bell-diagonal state's are. Any other state raises InvalidStateError
    naming the index of the first such state in the stack.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise ValueError(
            f"expected a (4, 4) state or an (N, 4, 4) stack, got {rho.shape}")
    stack = require_valid_state(rho.reshape(-1, 4, 4))
    ops = _search_operands(stack)
    best_val, theta, phi = _grid_minima(ops)
    points = [_newton_refine(*start) for start in zip(ops, theta.tolist(), phi.tolist())]
    if None in points:
        raise AccuracyError(f"state at index {points.index(None)}: the Newton "
                            f"refinement did not converge in {NEWTON_STEPS} steps")
    # every state's Newton point in one call
    at_t, at_p = np.array(points).T
    values = _conditional_entropies(ops, _bloch_columns(at_t[:, None], at_p[:, None]))
    lower = values[:, 0] < best_val
    best_val = np.where(lower, values[:, 0], best_val)
    theta, phi = np.where(lower, at_t, theta), np.where(lower, at_p, phi)

    value = 1.0 - best_val
    basis = _bloch_columns(theta, phi)[1:].T
    if rho.ndim == 2:
        return BruteForceClassical(float(value[0]), basis[0])
    return BruteForceClassical(value, basis)


# the components each of four density matrices keeps: the state, then its
# x, y and z dephasings
_DEPHASINGS = np.vstack([np.ones(3, dtype=bool), np.eye(3, dtype=bool)])


def relative_entropy_discord(c) -> RelativeEntropyDiscord:
    """Minimal relative entropy to the three axis dephasings.

    Takes one triple or an (N, 3) batch; a batch gives values (N,) and axes
    (N,) as indices into AXES. The batch's physicality is checked in one
    pass. The states and their dephasings (row a keeps c_a) go through
    density matrices built in one bell_to_density call: one eigvalsh over the
    states and one eigh over the dephasings. For Bell-diagonal states this
    equals I - C; the identity is enforced to 1e-8 as an internal
    consistency check, whose error names the first failing index of a batch.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] != 3:
        raise ValueError(f"expected a triple or an (N, 3) batch, got {c.shape}")
    batch = np.reshape(require_physical(c), (-1, 3))
    rho = bell_to_density(np.where(_DEPHASINGS, batch[:, None], 0.0).reshape(-1, 3))
    rho = rho.reshape(-1, 4, 4, 4)
    values = relative_entropy(rho[:, :1], rho[:, 1:])
    axis = np.argmin(values, axis=1)
    best = np.min(values, axis=1)
    # the ledger's D; one triple takes its row on floats, which has its bits
    expected = (correlation_ledger(batch).D if c.ndim == 2
                else np.array([_ledger_row(batch[0])[2]]))
    off = np.flatnonzero(~(np.abs(best - expected) <= IDENTITY_TOL))
    if off.size:
        i, at = off[0], (f" at index {off[0]}" if c.ndim == 2 else "")
        raise AccuracyError(f"relative-entropy discord{at} {best[i]:.3e} disagrees "
                            f"with I - C {expected[i]:.3e} beyond {IDENTITY_TOL}")
    if c.ndim == 2:
        return RelativeEntropyDiscord(best, axis)
    return RelativeEntropyDiscord(float(best[0]), AXES[axis[0]])
