import numpy as np
import pytest

from belldyn.channels import correlation_multipliers
from belldyn.errors import InvalidStateError, NonCPTPError, SupportViolationError
from belldyn.states import (
    BELL_KETS,
    BellCoefficients,
    bell_eigenvalues,
    bell_to_density,
    density_from_json,
    density_to_bell,
    density_to_json,
    partial_trace,
    random_bell_coefficients,
    relative_entropy,
    require_physical,
    shannon_entropy,
    validate_state,
    von_neumann_entropy,
)

# frozen with an independent high-precision evaluation
ENTROPY_08_02 = 0.7219280948873623

SINGLET = np.outer(BELL_KETS["psi_minus"], BELL_KETS["psi_minus"].conj())
MIXED = np.eye(4) / 4


def random_qubit_state(rng):
    v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = v @ v.conj().T
    return rho / np.trace(rho)


class TestBellEigenvalues:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(bell_eigenvalues((0, 0, 0)), [0.25] * 4)

    def test_synchronized_state(self):
        np.testing.assert_allclose(
            bell_eigenvalues((0.6, 0.36, -0.6)), [0.64, 0.16, 0.04, 0.16], atol=1e-15
        )

    def test_proportional_state(self):
        np.testing.assert_allclose(
            bell_eigenvalues((0.6, 0.6, -1.0)), [0.8, 0.0, 0.0, 0.2], atol=1e-15
        )

    def test_matches_numerical_diagonalization(self):
        """Sorted formula spectrum equals sorted eigvalsh spectrum, 1000 draws."""
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            c = random_bell_coefficients(rng)
            numeric = np.sort(np.linalg.eigvalsh(bell_to_density(c)))
            formula = np.sort(bell_eigenvalues(c))
            worst = max(worst, np.max(np.abs(numeric - formula)))
        assert worst <= 1e-10

    def test_printed_sign_variant_is_wrong(self):
        # the lambda_{3,4} variant with the other c_y sign does not match the
        # actual spectrum; guards against regressing to it
        cx, cy, cz = 0.6, 0.36, -0.6
        wrong = 0.25 * np.array(
            [1 + cx + cy - cz, 1 + cx - cy + cz, 1 - cx - cy + cz, 1 - cx + cy - cz]
        )
        numeric = np.sort(np.linalg.eigvalsh(bell_to_density((cx, cy, cz))))
        assert np.max(np.abs(np.sort(wrong) - numeric)) > 1e-3


class TestBellDensity:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(bell_to_density((0, 0, 0)), MIXED, atol=1e-15)

    def test_singlet(self):
        np.testing.assert_allclose(bell_to_density((-1, -1, -1)), SINGLET, atol=1e-15)

    def test_bell_basis_diagonal(self):
        rho = bell_to_density((0.6, 0.36, -0.6))
        kets = [BELL_KETS[k] for k in ("psi_plus", "phi_plus", "phi_minus", "psi_minus")]
        diag = [np.real(k.conj() @ rho @ k) for k in kets]
        np.testing.assert_allclose(diag, [0.64, 0.16, 0.04, 0.16], atol=1e-14)
        # off-diagonal in the Bell basis vanishes
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(kets[i].conj() @ rho @ kets[j]) < 1e-14

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            c = random_bell_coefficients(rng)
            back, residual = density_to_bell(bell_to_density(c))
            np.testing.assert_allclose(back, c, atol=1e-12)
            assert residual <= 1e-12

    def test_round_trip_named_values(self):
        back, residual = density_to_bell(bell_to_density((0.1, 0.16, 0.1)))
        np.testing.assert_allclose(back, (0.1, 0.16, 0.1), atol=1e-14)
        assert residual < 1e-14

    def test_singlet_coefficients(self):
        back, _ = density_to_bell(SINGLET)
        np.testing.assert_allclose(back, (-1, -1, -1), atol=1e-14)

    def test_maximally_mixed_maps_to_origin(self):
        c, residual = density_to_bell(MIXED)
        assert c == (0.0, 0.0, 0.0)
        assert residual == 0.0

    def test_residual_flags_states_outside_family(self):
        ee = np.zeros((4, 4), dtype=complex)
        ee[0, 0] = 1.0  # |ee><ee| is not Bell-diagonal
        _, residual = density_to_bell(ee)
        assert residual > 0.1


class TestPhysicality:
    def test_accepts_valid(self):
        assert require_physical((0.1, 0.16, 0.1)) == (0.1, 0.16, 0.1)
        require_physical((0.6, 0.6, -1.0))

    def test_rejects_invalid(self):
        with pytest.raises(InvalidStateError):
            require_physical((1, 1, 1))

    def test_random_samples_are_physical(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            c = random_bell_coefficients(rng)
            assert require_physical(c) == c


NON_FINITE = {
    "require_physical": (lambda: require_physical((np.nan, 0.1, 0.1)),
                         InvalidStateError),
    "shannon_entropy-nan": (lambda: shannon_entropy(np.array([np.nan, 0.5, 0.5])),
                            InvalidStateError),
    "shannon_entropy-inf": (lambda: shannon_entropy(np.array([[0.5, 0.5], [np.inf, 0]])),
                            InvalidStateError),
    "multipliers-scalar": (lambda: correlation_multipliers("x", "z", np.nan),
                           NonCPTPError),
    "multipliers-array": (lambda: correlation_multipliers("x", "z", np.array(
        [0.5, np.nan])), NonCPTPError),
}


@pytest.mark.parametrize("case", NON_FINITE, ids=list(NON_FINITE))
def test_non_finite_input_is_rejected(case):
    call, error = NON_FINITE[case]
    with pytest.raises(error):
        call()


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(SINGLET) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_two(self):
        assert von_neumann_entropy(MIXED) == pytest.approx(2.0, abs=1e-12)

    def test_known_spectrum(self):
        assert von_neumann_entropy([0.8, 0.0, 0.0, 0.2]) == pytest.approx(
            ENTROPY_08_02, abs=1e-12
        )

    def test_rejects_negative_spectrum(self):
        with pytest.raises(InvalidStateError):
            von_neumann_entropy([1.1, -0.1, 0.0, 0.0])

    def test_additivity_on_products(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho_a = random_qubit_state(rng)
            rho_b = random_qubit_state(rng)
            total = von_neumann_entropy(np.kron(rho_a, rho_b))
            parts = von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b)
            assert total == pytest.approx(parts, abs=1e-10)


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rho = bell_to_density((0.3, -0.2, 0.1))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_singlet_vs_mixed(self):
        assert relative_entropy(SINGLET, MIXED) == pytest.approx(2.0, abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(SupportViolationError):
            relative_entropy(MIXED, SINGLET)

    def test_nonnegative_with_equality_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rho = bell_to_density(random_bell_coefficients(rng))
            sigma = bell_to_density(random_bell_coefficients(rng))
            sigma = 0.9 * sigma + 0.1 * MIXED  # keep full support
            value = relative_entropy(rho, sigma)
            assert value >= 0.0
            if value <= 1e-12:
                assert np.max(np.abs(rho - sigma)) <= 1e-9


class TestPartialTrace:
    def test_bell_diagonal_marginals_are_mixed(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = bell_to_density(random_bell_coefficients(rng))
            for sub in ("A", "B"):
                np.testing.assert_allclose(
                    partial_trace(rho, sub), np.eye(2) / 2, atol=1e-12
                )

    def test_projector(self):
        ee = np.zeros((4, 4), dtype=complex)
        ee[0, 0] = 1.0
        np.testing.assert_allclose(
            partial_trace(ee, "B"), [[1, 0], [0, 0]], atol=1e-15
        )

    def test_product_state(self):
        rng = np.random.default_rng(13)
        rho_a = random_qubit_state(rng)
        rho_b = random_qubit_state(rng)
        np.testing.assert_allclose(
            partial_trace(np.kron(rho_a, rho_b), "B"), rho_a, atol=1e-13
        )

    def test_unknown_subsystem(self):
        with pytest.raises(ValueError):
            partial_trace(MIXED, "C")


class TestValidateState:
    def test_maximally_mixed_passes(self):
        assert validate_state(MIXED).ok

    def test_negative_eigenvalue_fails(self):
        diag = np.diag([0.7, 0.7, -0.2, -0.2]).astype(complex)
        report = validate_state(diag)
        assert not report.ok
        assert report.min_eigenvalue < -1e-10

    def test_unphysical_coefficients_fail(self):
        report = validate_state(bell_to_density((1, 1, 1)))
        assert not report.ok
        assert report.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_non_hermitian_fails(self):
        rho = MIXED.astype(complex).copy()
        rho[0, 1] = 0.1
        assert not validate_state(rho).ok


def test_density_json_round_trip():
    rho = bell_to_density((0.2, -0.5, 0.3))
    again = density_from_json(density_to_json(rho))
    np.testing.assert_allclose(again, rho, atol=0)


def test_density_json_validates_shape():
    with pytest.raises(ValueError):
        density_from_json({"re": [[1.0]], "im": [[0.0]]})


def test_coefficient_fields():
    c = BellCoefficients(0.1, 0.2, -0.3)
    assert (c.cx, c.cy, c.cz) == (0.1, 0.2, -0.3)


def test_coefficients_serialize_as_json_array():
    import json

    c = BellCoefficients(0.1, 0.16, 0.1)
    text = json.dumps(list(c))
    assert text == "[0.1, 0.16, 0.1]"
    assert BellCoefficients(*json.loads(text)) == c
