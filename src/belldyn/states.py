"""Two-qubit state core: Bell-diagonal coefficients, density matrices, entropies.

Conventions fixed here and relied on everywhere else:

* product basis order (|ee>, |eg>, |ge>, |gg>), |e>/|g> the sigma_z
  eigenstates with eigenvalue +1/-1;
* Bell basis order (Psi+, Phi+, Phi-, Psi-);
* all entropies and correlations in bits (log base 2), 0*log 0 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
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
PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

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


def bell_eigenvalues(c) -> np.ndarray:
    """Spectrum of the Bell-diagonal state, ordered (Psi+, Phi+, Phi-, Psi-).

    An (N, 3) array of triples gives the (N, 4) array of their spectra.
    """
    cx, cy, cz = np.asarray(c, dtype=float).T
    return 0.25 * np.array(
        [
            1 + cx + cy - cz,
            1 + cx - cy + cz,
            1 - cx + cy + cz,
            1 - cx - cy - cz,
        ]
    ).T


def require_physical(c) -> BellCoefficients:
    c = as_bell(c)
    if not np.all(np.isfinite(c)):
        raise InvalidStateError(f"coefficients {tuple(c)} are not finite")
    lam = bell_eigenvalues(c)
    if np.min(lam) < EIGENVALUE_FLOOR:
        raise InvalidStateError(
            f"coefficients {tuple(c)} give a negative Bell eigenvalue "
            f"(min {np.min(lam):.3e})"
        )
    return c


def bell_to_density(c) -> np.ndarray:
    """(I@I + cx X@X + cy Y@Y + cz Z@Z) / 4 in the product basis."""
    cx, cy, cz = as_bell(c)
    rho = np.eye(4, dtype=complex)
    rho += cx * np.kron(SIGMA_X, SIGMA_X)
    rho += cy * np.kron(SIGMA_Y, SIGMA_Y)
    rho += cz * np.kron(SIGMA_Z, SIGMA_Z)
    return rho / 4.0


def density_to_bell(rho: np.ndarray) -> tuple[BellCoefficients, float]:
    """Project onto the Bell-diagonal family.

    Returns the coefficient triple c_alpha = Tr(rho sigma_alpha@sigma_alpha)
    together with the residual: the largest-modulus entry of rho outside the
    family, so callers can reject states that are not Bell-diagonal.
    """
    rho = np.asarray(rho, dtype=complex)
    c = BellCoefficients(
        *(float(np.real(np.trace(rho @ np.kron(PAULI[ax], PAULI[ax])))) for ax in "xyz")
    )
    residual = float(np.max(np.abs(rho - bell_to_density(c))))
    return c, residual


@dataclass(frozen=True)
class StateDiagnostics:
    """Physicality report for a density matrix (diagnostics, not exceptions)."""

    hermiticity_error: float
    trace_error: float
    min_eigenvalue: float

    @property
    def ok(self) -> bool:
        return (
            self.hermiticity_error <= HERMITICITY_TOL
            and self.trace_error <= TRACE_TOL
            and self.min_eigenvalue >= EIGENVALUE_FLOOR
        )


def validate_state(rho: np.ndarray) -> StateDiagnostics:
    rho = np.asarray(rho, dtype=complex)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace = float(abs(np.trace(rho) - 1.0))
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    return StateDiagnostics(herm, trace, min_eig)


def require_valid_state(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    diag = validate_state(rho)
    if not diag.ok:
        raise InvalidStateError(f"invalid density matrix: {diag}")
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


def von_neumann_entropy(state) -> float:
    """Entropy in bits of a density matrix or a probability vector."""
    arr = np.asarray(state)
    if arr.ndim == 1:
        return float(shannon_entropy(arr.astype(float)))
    return float(shannon_entropy(np.linalg.eigvalsh(arr.astype(complex))))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr(rho log2 rho) - Tr(rho log2 sigma), in bits.

    Raises SupportViolationError when rho puts more than 1e-9 weight outside
    the support of sigma (the divergence is infinite there).
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    rho_vals = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    t1 = float(np.sum(rho_vals[rho_vals > 1e-15] * np.log2(rho_vals[rho_vals > 1e-15])))

    sig_vals, sig_vecs = np.linalg.eigh(sigma)
    weights = np.real(np.einsum("ij,jk,ki->i", sig_vecs.conj().T, rho, sig_vecs))
    on_support = sig_vals > SUPPORT_TOL
    leak = float(np.sum(weights[~on_support]))
    if leak > SUPPORT_LEAK_TOL:
        raise SupportViolationError(
            f"state has weight {leak:.3e} outside the reference support"
        )
    t2 = float(np.sum(weights[on_support] * np.log2(sig_vals[on_support])))
    return max(t1 - t2, 0.0)


def partial_trace(rho: np.ndarray, subsystem: str) -> np.ndarray:
    """Trace out the named qubit ("A" or "B"), returning the 2x2 reduction."""
    r4 = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    if subsystem == "A":
        return np.einsum("abad->bd", r4)
    if subsystem == "B":
        return np.einsum("abcb->ac", r4)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def random_bell_coefficients(rng: np.random.Generator) -> BellCoefficients:
    """Uniform sample over the physical Bell-diagonal tetrahedron."""
    lam = rng.dirichlet(np.ones(4))
    return BellCoefficients(
        2 * (lam[0] + lam[1]) - 1,
        2 * (lam[0] + lam[2]) - 1,
        2 * (lam[1] + lam[2]) - 1,
    )


def density_to_json(rho: np.ndarray) -> dict:
    rho = np.asarray(rho, dtype=complex)
    return {"re": np.real(rho).tolist(), "im": np.imag(rho).tolist()}


def density_from_json(obj: dict) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise ValueError("density matrix JSON must carry 4x4 're' and 'im' arrays")
    return re + 1j * im
