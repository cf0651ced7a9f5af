"""Two-qubit state core: Bell-diagonal coefficients, density matrices, entropies.

Conventions fixed here and relied on everywhere else:

* product basis order (|ee>, |eg>, |ge>, |gg>), |e>/|g> the sigma_z
  eigenstates with eigenvalue +1/-1;
* Bell basis order (Psi+, Phi+, Phi-, Psi-);
* all entropies and correlations in bits (log base 2), 0*log 0 = 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidStateError, SupportViolationError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
SUPPORT_TOL = 1e-12
SUPPORT_LEAK_TOL = 1e-9

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
AXES = ("x", "y", "z")  # the PAULI keys, in the order of every (x, y, z) triple
PAULI = dict(zip(AXES, (SIGMA_X, SIGMA_Y, SIGMA_Z)))
# X@X, Y@Y and Z@Z, built once; read-only because every caller shares them
PAULI_PAIRS = {ax: np.kron(s, s) for ax, s in PAULI.items()}
for _pair in PAULI_PAIRS.values():
    _pair.flags.writeable = False

_SQ2 = 1.0 / np.sqrt(2.0)
BELL_KETS = {
    "psi_plus": np.array([0, _SQ2, _SQ2, 0], dtype=complex),
    "phi_plus": np.array([_SQ2, 0, 0, _SQ2], dtype=complex),
    "phi_minus": np.array([_SQ2, 0, 0, -_SQ2], dtype=complex),
    "psi_minus": np.array([0, _SQ2, -_SQ2, 0], dtype=complex),
}


class BellCoefficients(NamedTuple):
    """Correlation triple (cx, cy, cz) of a Bell-diagonal two-qubit state."""

    cx: float
    cy: float
    cz: float


def as_bell(c) -> BellCoefficients:
    if isinstance(c, BellCoefficients):
        return c
    cx, cy, cz = (float(v) for v in c)
    return BellCoefficients(cx, cy, cz)


def _spectrum(cx, cy, cz) -> tuple:
    """The four Bell eigenvalues of floats or of arrays of coefficients,
    elementwise, in the order of bell_eigenvalues."""
    return (0.25 * (1 + cx + cy - cz), 0.25 * (1 + cx - cy + cz),
            0.25 * (1 - cx + cy + cz), 0.25 * (1 - cx - cy - cz))


def bell_eigenvalues(c) -> np.ndarray:
    """Spectrum of the Bell-diagonal state, ordered (Psi+, Phi+, Phi-, Psi-).

    An (N, 3) array of triples gives the (N, 4) array of their spectra.
    """
    return np.array(_spectrum(*np.asarray(c, dtype=float).T)).T


def require_physical(c):
    """c once its Bell spectrum is physical: finite, and no eigenvalue below
    EIGENVALUE_FLOOR. One triple gives BellCoefficients, checked on floats;
    an (N, 3) batch is checked in one pass and given back as a float array,
    and its error is the one-triple error of its first failing triple."""
    if np.ndim(c) == 2:
        c = np.asarray(c, dtype=float)
        finite = np.all(np.isfinite(c), axis=1)
        lam = bell_eigenvalues(np.where(finite[:, None], c, 0.0))
        ok = finite & (np.min(lam, axis=1) >= EIGENVALUE_FLOOR)
        if not ok.all():
            require_physical(c[np.argmin(ok)])
        return c
    c = as_bell(c)
    if not all(math.isfinite(v) for v in c):
        raise InvalidStateError(f"coefficients {tuple(c)} are not finite")
    low = min(_spectrum(*c))
    if low < EIGENVALUE_FLOOR:
        raise InvalidStateError(
            f"coefficients {tuple(c)} give a negative Bell eigenvalue (min {low:.3e})")
    return c


def bell_to_density(c) -> np.ndarray:
    """(I@I + cx X@X + cy Y@Y + cz Z@Z) / 4 in the product basis.

    An (N, 3) array of triples gives the (N, 4, 4) stack of their states.
    """
    cx, cy, cz = np.asarray(c, dtype=float).T[..., None, None]
    rho = np.eye(4, dtype=complex) + cx * PAULI_PAIRS["x"]
    rho += cy * PAULI_PAIRS["y"]
    rho += cz * PAULI_PAIRS["z"]
    return rho / 4.0


def density_to_bell(rho: np.ndarray) -> tuple:
    """Project onto the Bell-diagonal family.

    Returns the coefficient triple c_alpha = Tr(rho sigma_alpha@sigma_alpha)
    together with the residual: the largest-modulus entry of rho outside the
    family, so callers can reject states that are not Bell-diagonal. One
    (4, 4) state gives (BellCoefficients, float); an (N, 4, 4) stack gives
    (N, 3) triples and (N,) residuals, each row as the one-state call.
    """
    rho = np.asarray(rho, dtype=complex)
    c = np.stack([np.real(np.trace(rho @ PAULI_PAIRS[ax], axis1=-2, axis2=-1))
                  for ax in "xyz"], axis=-1)
    residual = np.max(np.abs(rho - bell_to_density(c)), axis=(-2, -1))
    if rho.ndim == 2:
        return BellCoefficients(*c.tolist()), float(residual)
    return c, residual


def require_valid_state(rho: np.ndarray) -> np.ndarray:
    """rho as a complex array, once it is a density matrix.

    Takes one (4, 4) state or an (N, 4, 4) stack. Raises InvalidStateError
    naming the failing quantity (Hermiticity, trace or minimum eigenvalue)
    and, for a stack, the index of the first failing state.
    """
    rho = np.asarray(rho, dtype=complex)
    adjoint = np.swapaxes(rho.conj(), -2, -1)
    herm = np.max(np.abs(rho - adjoint), axis=(-2, -1))
    trace = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    min_eig = np.min(np.linalg.eigvalsh(0.5 * (rho + adjoint)), axis=-1)
    # written so that a NaN fails each check
    checks = (herm <= HERMITICITY_TOL, trace <= TRACE_TOL, min_eig >= EIGENVALUE_FLOOR)
    if not (checks[0] & checks[1] & checks[2]).all():
        ok = np.stack(checks, axis=-1).reshape(-1, 3)
        values = np.stack([herm, trace, min_eig], axis=-1).reshape(-1, 3)
        i, j = np.argwhere(~ok)[0]  # the first failing state, its first check
        name = ("Hermiticity error", "trace error", "minimum eigenvalue")[j]
        where = f" at index {i}" if rho.ndim == 3 else ""
        raise InvalidStateError(
            f"invalid density matrix{where}: {name} {values[i, j]:.3e}")
    return rho


def shannon_entropy(p: np.ndarray) -> np.ndarray:
    """Entropy in bits of the probability vectors along the last axis of p."""
    if not np.all(np.isfinite(p)):
        raise InvalidStateError("probabilities are not finite")
    if np.min(p) < EIGENVALUE_FLOOR:
        raise InvalidStateError(f"negative probability {np.min(p):.3e}")
    p = np.clip(p, 0.0, 1.0)
    live = p > 1e-15
    terms = np.where(live, p * np.log2(np.where(live, p, 1.0)), 0.0)
    # left to right, as np.sum adds one short vector, so a vector's entropy
    # does not depend on the batch it comes in
    total = terms[..., 0]
    for j in range(1, terms.shape[-1]):
        total = total + terms[..., j]
    return -total


def relative_entropy(rho: np.ndarray, sigma: np.ndarray):
    """Tr(rho log2 rho) - Tr(rho log2 sigma), in bits.

    rho and sigma are (4, 4) states or stacks that broadcast together, each
    matrix diagonalised once: an (N, 1, 4, 4) rho against (N, 3, 4, 4) sigma
    gives (N, 3). Raises SupportViolationError, naming the first such pair of
    a stack, when rho puts more than 1e-9 weight outside the support of sigma
    (the divergence is infinite there).
    """
    def sum_w_log2(w, x, live):  # sum of w log2 x over the live entries
        return np.sum(np.where(live, w * np.log2(np.where(live, x, 1.0)), 0.0), axis=-1)

    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    rho_vals = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    t1 = sum_w_log2(rho_vals, rho_vals, rho_vals > 1e-15)

    sig_vals, sig_vecs = np.linalg.eigh(sigma)
    weights = np.einsum("...ji,...jk,...ki->...i", sig_vecs.conj(), rho, sig_vecs).real
    on_support = sig_vals > SUPPORT_TOL
    leak = np.sum(np.where(on_support, 0.0, weights), axis=-1)
    if np.any(leak > SUPPORT_LEAK_TOL):
        i = tuple(np.argwhere(leak > SUPPORT_LEAK_TOL)[0].tolist())  # () for one pair
        raise SupportViolationError(f"state{f' at index {i}' if i else ''} has "
                                    f"weight {leak[i]:.3e} outside the reference support")
    out = np.maximum(t1 - sum_w_log2(weights, sig_vals, on_support), 0.0)
    return float(out) if out.ndim == 0 else out


def random_bell_coefficients(rng: np.random.Generator) -> BellCoefficients:
    """Uniform sample over the physical Bell-diagonal tetrahedron."""
    lam = rng.dirichlet(np.ones(4))
    return BellCoefficients(
        2 * (lam[0] + lam[1]) - 1,
        2 * (lam[0] + lam[2]) - 1,
        2 * (lam[1] + lam[2]) - 1,
    )


def density_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("density matrix JSON must be an object with 're' and 'im' arrays")
    for key in ("re", "im"):
        if key not in obj:
            raise ValueError(f"density matrix JSON has no {key!r} array")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except TypeError as exc:  # a nested object where a number should be
        raise ValueError(f"density matrix JSON arrays must hold numbers: {exc}") from None
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise ValueError("density matrix JSON must carry 4x4 're' and 'im' arrays")
    return re + 1j * im
