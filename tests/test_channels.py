import numpy as np
import pytest

from belldyn.channels import (
    LocalChannel,
    apply_local_channel,
    correlation_multipliers,
    scale_coefficients,
)
from belldyn.errors import InvalidStateError, NonCPTPError
from belldyn.states import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bell_eigenvalues,
    bell_to_density,
    density_to_bell,
    partial_trace,
    random_bell_coefficients,
)

P = 0.37


def bitflip_phaseflip(c0, p):
    """The paper's channel: bit flip on A, phase flip on B, one shared p."""
    return scale_coefficients(c0, correlation_multipliers("x", "z", p))


def single_qubit_image(channel: LocalChannel, op: np.ndarray) -> np.ndarray:
    """Image of a 2x2 basis operator under the channel acting on qubit A.

    apply_local_channel only accepts valid states, so non-Hermitian basis
    operators are extracted by linearity from images of valid product states
    X (x) I/2, using Tr_B to drop the spectator qubit.
    """
    def lift(single):
        return partial_trace(
            apply_local_channel(np.kron(single, ID2 / 2), "A", channel), "B"
        )

    e_e = lift(np.diag([1.0, 0.0]).astype(complex))
    g_g = lift(np.diag([0.0, 1.0]).astype(complex))
    plus_x = lift((ID2 + SIGMA_X) / 2)
    plus_y = lift((ID2 + SIGMA_Y) / 2)
    identity = e_e + g_g
    images = {
        "ee": e_e,
        "gg": g_g,
        # |e><g| = (sigma_x + i sigma_y)/2 reconstructed by linearity
        "eg": (plus_x - identity / 2) + 1j * (plus_y - identity / 2),
        "ge": (plus_x - identity / 2) - 1j * (plus_y - identity / 2),
    }
    key = {(0, 0): "ee", (0, 1): "eg", (1, 0): "ge", (1, 1): "gg"}
    for (i, j), name in key.items():
        if np.allclose(op, np.eye(2)[:, [i]] @ np.eye(2)[[j], :]):
            return images[name]
    raise AssertionError("not a basis operator")


class TestBasisImages:
    """The eight single-qubit operator images of the two channels."""

    def test_bit_flip(self):
        ch = LocalChannel("x", P)
        ee = np.array([[1, 0], [0, 0]], dtype=complex)
        eg = np.array([[0, 1], [0, 0]], dtype=complex)
        ge = eg.T.copy()
        gg = np.array([[0, 0], [0, 1]], dtype=complex)
        np.testing.assert_allclose(
            single_qubit_image(ch, ee), (ID2 + P * SIGMA_Z) / 2, atol=1e-14
        )
        np.testing.assert_allclose(
            single_qubit_image(ch, gg), (ID2 - P * SIGMA_Z) / 2, atol=1e-14
        )
        np.testing.assert_allclose(
            single_qubit_image(ch, eg), (SIGMA_X + 1j * P * SIGMA_Y) / 2, atol=1e-14
        )
        np.testing.assert_allclose(
            single_qubit_image(ch, ge), (SIGMA_X - 1j * P * SIGMA_Y) / 2, atol=1e-14
        )

    def test_phase_flip(self):
        ch = LocalChannel("z", P)
        ee = np.array([[1, 0], [0, 0]], dtype=complex)
        eg = np.array([[0, 1], [0, 0]], dtype=complex)
        ge = eg.T.copy()
        gg = np.array([[0, 0], [0, 1]], dtype=complex)
        np.testing.assert_allclose(
            single_qubit_image(ch, ee), (ID2 + SIGMA_Z) / 2, atol=1e-14
        )
        np.testing.assert_allclose(
            single_qubit_image(ch, gg), (ID2 - SIGMA_Z) / 2, atol=1e-14
        )
        np.testing.assert_allclose(
            single_qubit_image(ch, eg), P / 2 * (SIGMA_X + 1j * SIGMA_Y), atol=1e-14
        )
        np.testing.assert_allclose(
            single_qubit_image(ch, ge), P / 2 * (SIGMA_X - 1j * SIGMA_Y), atol=1e-14
        )


class TestApplyLocalChannel:
    def test_full_retention_is_identity(self):
        rho = bell_to_density((0.3, -0.1, 0.2))
        for axis in "xyz":
            out = apply_local_channel(rho, "A", LocalChannel(axis, 1.0))
            np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_bit_flip_at_zero_depolarizes_z(self):
        rho_b = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        rho = np.kron(np.diag([1.0, 0.0]).astype(complex), rho_b)
        out = apply_local_channel(rho, "A", LocalChannel("x", 0.0))
        np.testing.assert_allclose(out, np.kron(ID2 / 2, rho_b), atol=1e-14)

    def test_phase_flip_keeps_computational_diagonals(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        for p in (-0.8, 0.0, 0.5):
            out = apply_local_channel(rho, "B", LocalChannel("z", p))
            np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            rho = bell_to_density(random_bell_coefficients(rng))
            p = rng.uniform(-1, 1)
            axis = "xyz"[rng.integers(3)]
            qubit = "AB"[rng.integers(2)]
            out = apply_local_channel(rho, qubit, LocalChannel(axis, p))
            assert abs(np.trace(out) - 1.0) <= 1e-14
            assert np.max(np.abs(out - out.conj().T)) <= 1e-14

    def test_rejects_noncptp(self):
        with pytest.raises(NonCPTPError):
            apply_local_channel(np.eye(4) / 4, "A", LocalChannel("x", 1.5))

    def test_rejects_invalid_state(self):
        with pytest.raises(InvalidStateError):
            apply_local_channel(np.eye(4), "A", LocalChannel("x", 0.5))

    def test_rejects_unknown_qubit(self):
        with pytest.raises(ValueError):
            apply_local_channel(np.eye(4) / 4, "Q", LocalChannel("x", 0.5))


class TestEvolve:
    def test_identity_at_unit_retention(self):
        c = (0.6, 0.36, -0.6)
        assert bitflip_phaseflip(c, 1.0) == pytest.approx(c)

    def test_full_decoherence(self):
        assert bitflip_phaseflip((0.6, 0.6, -1.0), 0.0) == pytest.approx(
            (0.0, 0.0, 0.0)
        )

    def test_half_retention(self):
        out = bitflip_phaseflip((0.6, 0.36, -0.6), 0.5)
        assert out == pytest.approx((0.3, 0.09, -0.3), abs=1e-15)

    def test_matches_kraus_path(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(300):
            c0 = random_bell_coefficients(rng)
            p = rng.uniform(-1, 1)
            rho = apply_local_channel(bell_to_density(c0), "A", LocalChannel("x", p))
            rho = apply_local_channel(rho, "B", LocalChannel("z", p))
            via_kraus, residual = density_to_bell(rho)
            direct = bitflip_phaseflip(c0, p)
            worst = max(worst, max(abs(u - v) for u, v in zip(via_kraus, direct)))
            worst = max(worst, residual)
        assert worst <= 1e-12

    def test_composition(self):
        c0 = (0.2, -0.5, 0.3)
        p1, p2 = 0.7, -0.4
        twice = bitflip_phaseflip(bitflip_phaseflip(c0, p1), p2)
        once = bitflip_phaseflip(c0, p1 * p2)
        assert twice == pytest.approx(once, abs=1e-15)

    def test_stays_physical_for_negative_retention(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            c0 = random_bell_coefficients(rng)
            p = rng.uniform(-1, 1)
            lam = bell_eigenvalues(bitflip_phaseflip(c0, p))
            assert np.min(lam) >= -1e-12


class TestCorrelationMultipliers:
    def test_bitflip_phaseflip_pair(self):
        assert correlation_multipliers("x", "z", P) == pytest.approx((P, P * P, P))

    def test_double_phase_flip(self):
        assert correlation_multipliers("z", "z", P) == pytest.approx((P * P, P * P, 1.0))

    def test_double_bitphase_flip(self):
        assert correlation_multipliers("y", "y", P) == pytest.approx((P * P, 1.0, P * P))

    def test_unit_retention(self):
        for a in "xyz":
            for b in "xyz":
                assert correlation_multipliers(a, b, 1.0) == (1.0, 1.0, 1.0)

    def test_matches_kraus_for_all_axis_pairs(self):
        rng = np.random.default_rng(41)
        for axis_a in "xyz":
            for axis_b in "xyz":
                c0 = random_bell_coefficients(rng)
                p = rng.uniform(-1, 1)
                rho = apply_local_channel(
                    bell_to_density(c0), "A", LocalChannel(axis_a, p)
                )
                rho = apply_local_channel(rho, "B", LocalChannel(axis_b, p))
                via_kraus, _ = density_to_bell(rho)
                direct = scale_coefficients(
                    c0, correlation_multipliers(axis_a, axis_b, p)
                )
                assert via_kraus == pytest.approx(tuple(direct), abs=1e-12)

    def test_per_qubit_retention(self):
        pa, pb = 0.5, -0.3
        assert correlation_multipliers("x", "z", pa, pb) == pytest.approx(
            (pb, pa * pb, pa)
        )

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            correlation_multipliers("x", "w", 0.5)
