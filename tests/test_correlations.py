import json

import numpy as np
import pytest

from belldyn.correlations import (
    PHI_STEPS,
    REFINE_ANGLE_TOL,
    THETA_STEPS,
    _conditional_entropies,
    _projectors,
    _search_grid,
    _search_operands,
    binary_information,
    classical_correlation_bruteforce,
    closest_classical_state,
    conditional_entropy,
    dephase,
    discord,
    dominant_axis,
    relative_entropy_discord,
)
from belldyn.errors import InvalidStateError
from belldyn.states import (
    BELL_KETS,
    bell_to_density,
    random_bell_coefficients,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)

# frozen from an independent high-precision evaluation of the Bell spectra
I_SUDDEN_PLUS = 0.035887114115951094  # (0.1, 0.16, 0.1)
I_SUDDEN_MINUS = 0.031045493990547510  # (0.1, 0.16, -0.1)
C_SUDDEN = 0.018546104966346455  # branch independent: Lambda = 0.16
D_SUDDEN_PLUS = I_SUDDEN_PLUS - C_SUDDEN
D_SUDDEN_MINUS = I_SUDDEN_MINUS - C_SUDDEN
I_SYNC = 0.5561438102252753  # (0.6, 0.36, -0.6)
I_PROP = 1.2780719051126377  # (0.6, 0.6, -1)
# relative entropy of (0.1,0.16,0.1) to its non-dominant dephasings
RE_NON_DOMINANT = 0.028661568

SINGLET = np.outer(BELL_KETS["psi_minus"], BELL_KETS["psi_minus"].conj())


def random_qubit_state(rng):
    v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = v @ v.conj().T
    return rho / np.trace(rho)


def random_two_qubit_state(rng):
    v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = v @ v.conj().T
    return rho / np.trace(rho)


def one_step_descent(rho, theta_steps=THETA_STEPS, phi_steps=PHI_STEPS,
                     angle_tol=REFINE_ANGLE_TOL):
    """Reference search: its own grid, then coordinate descent that tries one
    step per iteration and halves it after a failed try."""
    stack = np.asarray(rho, dtype=complex).reshape(-1, 4, 4)
    rho_bd, rho_a = _search_operands(stack)
    entropy_a = shannon_entropy(np.linalg.eigvalsh(rho_a.reshape(-1, 2, 2)))
    thetas = np.linspace(0.0, np.pi, theta_steps)
    phis = np.arange(phi_steps) * (2 * np.pi / phi_steps)
    tg, pg = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    grid = _projectors(tg, pg)
    n = len(stack)
    best_val, theta, phi = np.empty(n), np.empty(n), np.empty(n)
    for i in range(n):
        values = _conditional_entropies(rho_bd[i], rho_a[i], grid)
        j = np.argmin(values)
        best_val[i], theta[i], phi[i] = values[j], tg[j], pg[j]
    scale = np.ones(n)
    reach = max(np.pi / theta_steps, 2 * np.pi / phi_steps)
    while (live := np.flatnonzero(reach * scale > angle_tol)).size:
        t, p = theta[live], phi[live]
        st, sp = np.pi / theta_steps * scale[live], 2 * np.pi / phi_steps * scale[live]
        cand_t = np.stack([np.minimum(t + st, np.pi), np.maximum(t - st, 0.0), t, t], 1)
        cand_p = np.stack([p, p, (p + sp) % (2 * np.pi), (p - sp) % (2 * np.pi)], 1)
        vals = _conditional_entropies(
            rho_bd[live], rho_a[live], _projectors(cand_t, cand_p))
        rows, pick = np.arange(live.size), np.argmin(vals, axis=1)
        low = vals[rows, pick]
        better = low < best_val[live]
        moved = live[better]
        best_val[moved] = low[better]
        theta[moved] = cand_t[rows, pick][better]
        phi[moved] = cand_p[rows, pick][better]
        scale[live[~better]] /= 2
    basis = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                      np.cos(theta)], axis=-1)
    return entropy_a - best_val, basis


class TestMutualInformation:
    def test_uncorrelated(self):
        assert discord((0, 0, 0)).I == 0.0

    def test_synchronized_state(self):
        assert discord((0.6, 0.36, -0.6)).I == pytest.approx(
            I_SYNC, abs=1e-12
        )
        # cross-check against the factorized closed form at x = 0.6
        x = 0.6
        closed = (1 + x) * np.log2(1 + x) + (1 - x) * np.log2(1 - x)
        assert discord((0.6, 0.36, -0.6)).I == pytest.approx(
            closed, abs=1e-12
        )

    def test_proportional_state(self):
        assert discord((0.6, 0.6, -1.0)).I == pytest.approx(
            I_PROP, abs=1e-12
        )

    def test_sudden_change_states(self):
        assert discord((0.1, 0.16, 0.1)).I == pytest.approx(
            I_SUDDEN_PLUS, abs=1e-12
        )
        assert discord((0.1, 0.16, -0.1)).I == pytest.approx(
            I_SUDDEN_MINUS, abs=1e-12
        )

    def test_matches_general_entropy_formula(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            c = random_bell_coefficients(rng)
            rho = bell_to_density(c)
            general = 2.0 - von_neumann_entropy(rho)  # marginals are I/2
            assert discord(c).I == pytest.approx(general, abs=1e-10)

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidStateError):
            discord((1, 1, 1)).I


class TestClassicalCorrelation:
    def test_uncorrelated(self):
        assert discord((0, 0, 0)).C == 0.0

    def test_sudden_change_state(self):
        _, value, _, lam, axis = discord((0.1, 0.16, 0.1))
        assert value == pytest.approx(C_SUDDEN, abs=1e-12)
        assert lam == pytest.approx(0.16)
        assert axis == "y"

    def test_proportional_state(self):
        _, value, _, lam, axis = discord((0.6, 0.6, -1.0))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert lam == pytest.approx(1.0)
        assert axis == "z"

    def test_tie_breaks_in_axis_order(self):
        assert dominant_axis((0.5, 0.5, -0.5)) == (0.5, "x")
        assert dominant_axis((0.1, 0.5, 0.5)) == (0.5, "y")


class TestConditionalEntropy:
    def test_product_state_is_insensitive(self):
        rng = np.random.default_rng(29)
        rho_a = random_qubit_state(rng)
        rho_b = random_qubit_state(rng)
        rho = np.kron(rho_a, rho_b)
        expected = von_neumann_entropy(rho_a)
        for n in ([0, 0, 1], [1, 0, 0], [0.6, 0.0, 0.8]):
            assert conditional_entropy(rho, np.array(n)) == pytest.approx(
                expected, abs=1e-10
            )

    def test_singlet_is_perfectly_anticorrelated(self):
        assert conditional_entropy(SINGLET, np.array([0, 0, 1.0])) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_dominant_axis_measurement(self):
        rho = bell_to_density((0.1, 0.16, 0.1))
        got = conditional_entropy(rho, np.array([0, 1.0, 0]))
        assert got == pytest.approx(1.0 - C_SUDDEN, abs=1e-12)

    def test_zero_probability_branch(self):
        rng = np.random.default_rng(43)
        rho_a = random_qubit_state(rng)
        excited = np.zeros((2, 2), dtype=complex)
        excited[0, 0] = 1.0
        rho = np.kron(rho_a, excited)
        # measuring B along z gives outcome '-' with probability zero
        got = conditional_entropy(rho, np.array([0, 0, 1.0]))
        assert got == pytest.approx(von_neumann_entropy(rho_a), abs=1e-10)

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError):
            conditional_entropy(SINGLET, np.array([1.0, 1.0, 0.0]))


class TestBruteForce:
    def test_maximally_mixed(self):
        result = classical_correlation_bruteforce(np.eye(4) / 4)
        assert result.value == pytest.approx(0.0, abs=1e-9)

    def test_sudden_change_state(self):
        result = classical_correlation_bruteforce(bell_to_density((0.1, 0.16, 0.1)))
        assert result.value == pytest.approx(C_SUDDEN, abs=1e-6)
        assert abs(result.basis[1]) > 0.999  # optimal basis is +-y

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(53)
        states = [random_bell_coefficients(rng) for _ in range(50)]
        brute = classical_correlation_bruteforce(
            np.stack([bell_to_density(c) for c in states]))
        worst = max(abs(value - discord(c).C)
                    for value, c in zip(brute.value, states))
        assert worst <= 1e-5

    def test_stack_rows_equal_single_calls(self):
        rng = np.random.default_rng(61)
        states = [random_bell_coefficients(rng) for _ in range(30)]
        # maximally mixed, singlet, and an exact tie |c_x| = |c_y|
        states += [(0.0, 0.0, 0.0), (-1.0, -1.0, -1.0), (0.4, -0.4, 0.1)]
        rhos = np.stack([bell_to_density(c) for c in states])
        stack = classical_correlation_bruteforce(rhos)
        assert stack.value.shape == (len(states),)
        assert stack.basis.shape == (len(states), 3)
        for rho, value, basis in zip(rhos, stack.value, stack.basis):
            single = classical_correlation_bruteforce(rho)
            assert single.value == value
            assert np.array_equal(single.basis, basis)

    @pytest.mark.parametrize("steps", [(THETA_STEPS, PHI_STEPS), (16, 32)],
                             ids=["64x128", "16x32"])
    def test_lookahead_equals_one_step_descent(self, steps):
        rng = np.random.default_rng(71)
        rhos = [bell_to_density(random_bell_coefficients(rng)) for _ in range(50)]
        rhos += [random_two_qubit_state(rng) for _ in range(20)]
        # maximally mixed, singlet, and an exact tie |c_x| = |c_y|
        rhos += [bell_to_density(c) for c in
                 [(0.0, 0.0, 0.0), (-1.0, -1.0, -1.0), (0.4, -0.4, 0.1)]]
        rhos = np.stack(rhos)
        value, basis = one_step_descent(rhos, *steps)
        stack = classical_correlation_bruteforce(rhos, *steps)
        assert np.array_equal(stack.value, value)
        assert np.array_equal(stack.basis, basis)
        for rho in rhos:
            single = classical_correlation_bruteforce(rho, *steps)
            ref_value, ref_basis = one_step_descent(rho, *steps)
            assert single.value == ref_value[0]
            assert np.array_equal(single.basis, ref_basis[0])

    def test_cached_grid_is_read_only(self):
        for steps in [(THETA_STEPS, PHI_STEPS), (16, 32)]:
            arrays = _search_grid(*steps)
            assert arrays[2].shape == (steps[0] * steps[1], 4)
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_argmin_aligns_with_dominant_axis(self):
        rng = np.random.default_rng(59)
        axes = {"x": np.array([1.0, 0, 0]), "y": np.array([0, 1.0, 0]),
                "z": np.array([0, 0, 1.0])}
        checked = 0
        while checked < 30:
            c = random_bell_coefficients(rng)
            mags = sorted(abs(v) for v in c)
            if mags[2] - mags[1] < 1e-3:
                continue  # near-ties exempted
            _, axis = dominant_axis(c)
            result = classical_correlation_bruteforce(bell_to_density(c))
            overlap = abs(float(result.basis @ axes[axis]))
            assert np.arccos(min(overlap, 1.0)) <= 1e-3
            checked += 1


class TestDiscord:
    def test_singlet(self):
        report = discord((-1, -1, -1))
        assert report.I == pytest.approx(2.0, abs=1e-12)
        assert report.C == pytest.approx(1.0, abs=1e-12)
        assert report.D == pytest.approx(1.0, abs=1e-12)

    def test_sudden_change_state(self):
        report = discord((0.1, 0.16, 0.1))
        assert report.I == pytest.approx(I_SUDDEN_PLUS, abs=1e-12)
        assert report.C == pytest.approx(C_SUDDEN, abs=1e-12)
        assert report.D == pytest.approx(D_SUDDEN_PLUS, abs=1e-12)
        assert (report.lambda_max, report.axis) == (0.16, "y")

    def test_sudden_change_other_branch(self):
        report = discord((0.1, 0.16, -0.1))
        assert report.I == pytest.approx(I_SUDDEN_MINUS, abs=1e-12)
        assert report.D == pytest.approx(D_SUDDEN_MINUS, abs=1e-12)

    def test_synchronized_family_identity(self):
        report = discord((0.6, 0.36, -0.6))
        assert report.C == pytest.approx(report.D, abs=1e-12)
        assert report.D == pytest.approx(report.I / 2, abs=1e-12)
        assert report.D == pytest.approx(I_SYNC / 2, abs=1e-12)

    def test_identity_d_equals_i_minus_c(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            report = discord(random_bell_coefficients(rng))
            assert abs(report.D - (report.I - report.C)) <= 1e-12
            assert report.C >= -1e-12
            assert report.D >= -1e-12

    def test_synchronized_family_sweep(self):
        for x in np.linspace(0.02, 0.98, 49):
            report = discord((x, x * x, -x))
            assert abs(report.D - report.C) <= 1e-9
            assert abs(report.D - report.I / 2) <= 1e-9

    def test_json_keys(self):
        payload = discord((0.1, 0.16, 0.1))._asdict()
        assert list(payload) == ["I", "C", "D", "lambda_max", "axis"]
        # built-in types, so correlations --format json can dump the report
        assert [type(v) for v in payload.values()] == [float] * 4 + [str]
        assert json.loads(json.dumps(payload)) == payload


class TestClosestClassical:
    def test_already_classical(self):
        assert closest_classical_state((0, 0, 0)) == (0, 0, 0)
        assert closest_classical_state((0.3, 0, 0)) == (0.3, 0, 0)

    def test_dominant_z(self):
        assert closest_classical_state((0.6, 0.6, -1.0)) == (0.0, 0.0, -1.0)

    def test_dominant_x_after_decay(self):
        # evolved sudden-change state once |cx p| dominates |cy p^2|
        p = 0.5
        c_t = (0.1 * p, 0.16 * p * p, 0.1 * p)
        assert closest_classical_state(c_t) == (0.05, 0.0, 0.0)

    def test_beats_other_dephasings(self):
        rho = bell_to_density((0.1, 0.16, 0.1))
        best = relative_entropy(rho, bell_to_density(dephase((0.1, 0.16, 0.1), "y")))
        for axis in ("x", "z"):
            other = relative_entropy(
                rho, bell_to_density(dephase((0.1, 0.16, 0.1), axis))
            )
            assert other == pytest.approx(RE_NON_DOMINANT, abs=1e-6)
            assert other > best


class TestRelativeEntropyDiscord:
    def test_classical_state_is_zero(self):
        assert relative_entropy_discord((0.4, 0, 0)).value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_singlet(self):
        result = relative_entropy_discord((-1, -1, -1))
        assert result.value == pytest.approx(1.0, abs=1e-10)

    def test_sudden_change_state(self):
        result = relative_entropy_discord((0.1, 0.16, 0.1))
        assert result.value == pytest.approx(D_SUDDEN_PLUS, abs=1e-10)
        assert result.axis == "y"

    def test_other_branch_value(self):
        result = relative_entropy_discord((0.1, 0.16, -0.1))
        assert result.value == pytest.approx(D_SUDDEN_MINUS, abs=1e-10)

    def test_identity_on_random_states(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            c = random_bell_coefficients(rng)
            result = relative_entropy_discord(c)
            report = discord(c)
            assert abs(result.value - report.D) <= 1e-8
            mags = sorted(abs(v) for v in c)
            if mags[2] - mags[1] >= 1e-3:
                assert result.axis == report.axis


def test_binary_information_even_and_bounded():
    for u in np.linspace(-1, 1, 41):
        v = binary_information(u)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(binary_information(-u), abs=1e-15)
    assert binary_information(1.0) == pytest.approx(1.0)
    assert binary_information(0.0) == 0.0
