import numpy as np
import pytest

from belldyn.channels import (apply_local_channel, correlation_exponents,
                              correlation_multipliers)
from belldyn.errors import InvalidStateError, NonCPTPError
from belldyn.states import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bell_eigenvalues,
    bell_to_density,
    density_to_bell,
    random_bell_coefficients,
)

P = 0.37


def bitflip_phaseflip(c0, p):
    """The paper's channel: bit flip on A, phase flip on B, one shared p."""
    return np.stack(correlation_multipliers("x", "z", p), -1) * c0


def single_qubit_image(axis: str, op: np.ndarray) -> np.ndarray:
    """Image of a 2x2 basis operator under the channel acting on qubit A.

    apply_local_channel only accepts valid states, so non-Hermitian basis
    operators are extracted by linearity from images of valid product states
    X (x) I/2, using Tr_B to drop the spectator qubit.
    """
    def lift(single):
        out = apply_local_channel(np.kron(single, ID2 / 2), "A", axis, P)
        return np.einsum("abcb->ac", out.reshape(2, 2, 2, 2))  # Tr_B

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
        axis = "x"
        ee = np.array([[1, 0], [0, 0]], dtype=complex)
        eg = np.array([[0, 1], [0, 0]], dtype=complex)
        ge = eg.T.copy()
        gg = np.array([[0, 0], [0, 1]], dtype=complex)
        np.testing.assert_allclose(
            single_qubit_image(axis, ee), (ID2 + P * SIGMA_Z) / 2, atol=1e-14
        )
        np.testing.assert_allclose(
            single_qubit_image(axis, gg), (ID2 - P * SIGMA_Z) / 2, atol=1e-14
        )
        np.testing.assert_allclose(
            single_qubit_image(axis, eg), (SIGMA_X + 1j * P * SIGMA_Y) / 2, atol=1e-14
        )
        np.testing.assert_allclose(
            single_qubit_image(axis, ge), (SIGMA_X - 1j * P * SIGMA_Y) / 2, atol=1e-14
        )

    def test_phase_flip(self):
        axis = "z"
        ee = np.array([[1, 0], [0, 0]], dtype=complex)
        eg = np.array([[0, 1], [0, 0]], dtype=complex)
        ge = eg.T.copy()
        gg = np.array([[0, 0], [0, 1]], dtype=complex)
        np.testing.assert_allclose(
            single_qubit_image(axis, ee), (ID2 + SIGMA_Z) / 2, atol=1e-14
        )
        np.testing.assert_allclose(
            single_qubit_image(axis, gg), (ID2 - SIGMA_Z) / 2, atol=1e-14
        )
        np.testing.assert_allclose(
            single_qubit_image(axis, eg), P / 2 * (SIGMA_X + 1j * SIGMA_Y), atol=1e-14
        )
        np.testing.assert_allclose(
            single_qubit_image(axis, ge), P / 2 * (SIGMA_X - 1j * SIGMA_Y), atol=1e-14
        )


class TestApplyLocalChannel:
    def test_full_retention_is_identity(self):
        rho = bell_to_density((0.3, -0.1, 0.2))
        for axis in "xyz":
            out = apply_local_channel(rho, "A", axis, 1.0)
            np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_bit_flip_at_zero_depolarizes_z(self):
        rho_b = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        rho = np.kron(np.diag([1.0, 0.0]).astype(complex), rho_b)
        out = apply_local_channel(rho, "A", "x", 0.0)
        np.testing.assert_allclose(out, np.kron(ID2 / 2, rho_b), atol=1e-14)

    def test_phase_flip_keeps_computational_diagonals(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        for p in (-0.8, 0.0, 0.5):
            out = apply_local_channel(rho, "B", "z", p)
            np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            rho = bell_to_density(random_bell_coefficients(rng))
            p = rng.uniform(-1, 1)
            axis = "xyz"[rng.integers(3)]
            qubit = "AB"[rng.integers(2)]
            out = apply_local_channel(rho, qubit, axis, p)
            assert abs(np.trace(out) - 1.0) <= 1e-14
            assert np.max(np.abs(out - out.conj().T)) <= 1e-14

    def test_rejects_noncptp(self):
        with pytest.raises(NonCPTPError):
            apply_local_channel(np.eye(4) / 4, "A", "x", 1.5)

    def test_rejects_invalid_state(self):
        with pytest.raises(InvalidStateError):
            apply_local_channel(np.eye(4), "A", "x", 0.5)

    def test_rejects_unknown_qubit(self):
        with pytest.raises(ValueError):
            apply_local_channel(np.eye(4) / 4, "Q", "x", 0.5)

    def test_stack_equals_per_state_calls(self):
        rng = np.random.default_rng(47)
        v = rng.standard_normal((12, 4, 4)) + 1j * rng.standard_normal((12, 4, 4))
        stack = v @ v.conj().transpose(0, 2, 1)
        stack /= np.trace(stack, axis1=1, axis2=2)[:, None, None]
        p = rng.uniform(-1, 1, size=12)
        for qubit in "AB":
            for axis in "xyz":
                out = apply_local_channel(stack, qubit, axis, p)
                one = [apply_local_channel(rho, qubit, axis, float(q))
                       for rho, q in zip(stack, p)]
                assert np.array_equal(out, np.stack(one))

    def test_stack_rejects_one_noncptp_parameter(self):
        stack = np.stack([np.eye(4) / 4] * 3)
        with pytest.raises(NonCPTPError, match="1.5"):
            apply_local_channel(stack, "A", "x", np.array([0.5, 1.5, -0.2]))


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
            rho = apply_local_channel(bell_to_density(c0), "A", "x", p)
            rho = apply_local_channel(rho, "B", "z", p)
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

    def test_array_retention_stacks_on_every_pair(self):
        # an axis both channels keep is an array of ones, not a bare 1.0
        p = np.linspace(-1.0, 1.0, 7)
        for a in "xyz":
            for b in "xyz":
                stacked = np.stack(correlation_multipliers(a, b, p), -1)
                assert stacked.shape == (7, 3)
                kept = [i for i, ax in enumerate("xyz") if ax == a == b]
                assert np.all(stacked[:, kept] == 1.0)

    def test_matches_kraus_for_all_axis_pairs(self):
        rng = np.random.default_rng(41)
        for axis_a in "xyz":
            for axis_b in "xyz":
                c0 = random_bell_coefficients(rng)
                p = rng.uniform(-1, 1)
                rho = apply_local_channel(bell_to_density(c0), "A", axis_a, p)
                rho = apply_local_channel(rho, "B", axis_b, p)
                via_kraus, _ = density_to_bell(rho)
                direct = np.stack(correlation_multipliers(axis_a, axis_b, p), -1) * c0
                assert via_kraus == pytest.approx(tuple(direct), abs=1e-12)

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            correlation_multipliers("x", "w", 0.5)

    def test_multipliers_are_powers_of_the_exponents(self):
        # the exponent table that switch_brackets and branch_switch_ratio read
        # is the channel model: m_alpha = p**k_alpha on every pair
        for a in "xyz":
            for b in "xyz":
                k = correlation_exponents(a, b)
                assert k == tuple(int(ax != a) + int(ax != b) for ax in "xyz")
                assert correlation_multipliers(a, b, 0.5) == tuple(0.5 ** n for n in k)

    def test_exponents_reject_bad_axis(self):
        with pytest.raises(ValueError, match="channel axis"):
            correlation_exponents("w", "z")
