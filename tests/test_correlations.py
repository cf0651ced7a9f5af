import hashlib
import itertools
import json

import numpy as np
import pytest

from belldyn import correlations
from belldyn.cli import VERIFY_SEED, main
from belldyn.correlations import (
    AXES,
    NEWTON_STEPS,
    PHI_STEPS,
    REFINE_ANGLE_TOL,
    THETA_STEPS,
    _bloch_columns,
    _conditional_entropies,
    _grid_minima,
    _newton_refine,
    _search_grid,
    _search_operands,
    binary_information,
    classical_correlation_bruteforce,
    correlation_ledger,
    discord,
    relative_entropy_discord,
)
from belldyn.errors import AccuracyError, InvalidStateError
from belldyn.states import (
    BELL_KETS,
    bell_eigenvalues,
    bell_to_density,
    random_bell_coefficients,
    relative_entropy,
    require_physical,
    shannon_entropy,
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


def entropy(rho):
    return shannon_entropy(np.linalg.eigvalsh(rho))


def reference_projectors(theta, phi):
    """Rows conj(k_b) k_d, flattened over (b, d), of the measurement kets
    |k> = (cos(theta/2), sin(theta/2) e^{i phi}); shape theta.shape + (4,)."""
    k0 = np.cos(theta / 2)
    k1 = np.sin(theta / 2) * np.exp(1j * phi)
    cross = k0 * k1
    return np.stack([k0 * k0, cross, cross.conj(), k1.conj() * k1], axis=-1)


def reference_spectra(rho, proj):
    """A's conditional states after measuring B with (K, 4) projector rows,
    through complex 2 x 2 matrices M+ = proj @ rho_bd and M- = rho_A - M+:
    their traces w, shape (2, K), and eigenvalues (l+, l-), (2, 2, K)."""
    rho_bd = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2).transpose(
        1, 3, 0, 2).reshape(4, 4)
    m_plus = proj @ rho_bd
    m = np.stack([m_plus, rho_bd[0] + rho_bd[3] - m_plus])  # columns (a c)
    w = np.real(m[..., 0] + m[..., 3])
    disc = np.sqrt(np.maximum(
        np.real(m[..., 0] - m[..., 3]) ** 2 + 4 * np.abs(m[..., 1]) ** 2, 0.0))
    return w, np.clip(np.stack([w + disc, w - disc]) / 2, 0.0, None)


def reference_conditional_entropies(rho, proj):
    """Conditional entropies of A after measuring B with (K, 4) projector
    rows, each outcome adding w * S(M/w), or zero when w < 1e-12."""
    w, eig = reference_spectra(rho, proj)
    q = np.divide(eig, w, out=np.zeros_like(eig), where=w > 1e-12)
    terms = eig * np.log2(np.where(q > 1e-15, q, 1.0))
    outcome = (0.0 - terms[0]) - terms[1]
    return outcome[0] + outcome[1]


def basis_projector(basis):
    """The (1, 4) reference projector row of a unit Bloch vector."""
    theta = np.arctan2(np.hypot(basis[0], basis[1]), basis[2])
    return reference_projectors(theta, np.arctan2(basis[1], basis[0]))[None]


def reference_value(rho, basis):
    """S(rho_A) minus the reference conditional entropy after measuring B
    along the unit Bloch vector."""
    rho_a = np.trace(np.asarray(rho).reshape(2, 2, 2, 2), axis1=1, axis2=3)
    return entropy(rho_a) - reference_conditional_entropies(rho, basis_projector(basis))[0]


def full_grid(theta_steps=THETA_STEPS, phi_steps=PHI_STEPS):
    thetas = np.linspace(0.0, np.pi, theta_steps)
    phis = np.arange(phi_steps) * (2 * np.pi / phi_steps)
    return tuple(g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))


def conditional_entropy(rho, bloch):
    """The brute force's conditional entropy of A after measuring B along
    the unit Bloch vector."""
    ops = _search_operands(np.asarray(rho, dtype=complex)[None])
    return float(_conditional_entropies(ops[0], np.array([[1.0, *bloch]]).T)[0])


def one_step_descent(rho, theta_steps=THETA_STEPS, phi_steps=PHI_STEPS,
                     angle_tol=REFINE_ANGLE_TOL):
    """Reference search: its own hemisphere grid, then coordinate descent
    that tries one step per iteration and halves it after a failed try;
    S(rho_A) = 1 on the search's zero-marginal states."""
    stack = np.asarray(rho, dtype=complex).reshape(-1, 4, 4)
    ops = _search_operands(stack)
    tg, pg = full_grid(theta_steps, phi_steps)
    # theta up to pi/2, in (theta, phi) order, and the theta = 0 pole once
    keep = (tg <= np.pi / 2 + 1e-12) & ((tg > 0) | (pg == 0))
    tg, pg = tg[keep], pg[keep]
    grid = _bloch_columns(tg, pg)
    n = len(stack)
    best_val, theta, phi = np.empty(n), np.empty(n), np.empty(n)
    for i in range(n):
        values = _conditional_entropies(ops[i], grid)
        j = np.argmin(values)
        best_val[i], theta[i], phi[i] = values[j], tg[j], pg[j]
    scale = np.ones(n)
    reach = max(np.pi / theta_steps, 2 * np.pi / phi_steps)
    while (live := np.flatnonzero(reach * scale > angle_tol)).size:
        t, p = theta[live], phi[live]
        st, sp = np.pi / theta_steps * scale[live], 2 * np.pi / phi_steps * scale[live]
        cand_t = np.stack([np.minimum(t + st, np.pi), np.maximum(t - st, 0.0), t, t], 1)
        cand_p = np.stack([p, p, (p + sp) % (2 * np.pi), (p - sp) % (2 * np.pi)], 1)
        vals = _conditional_entropies(ops[live], _bloch_columns(cand_t, cand_p))
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
    return 1.0 - best_val, basis


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
            general = 2.0 - entropy(rho)  # marginals are I/2
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
        assert discord((0.5, 0.5, -0.5))[3:] == (0.5, "x")
        # (0.1, 0.5, 0.5) is not a state, which discord rejects
        assert discord((0.1, 0.5, -0.5))[3:] == (0.5, "y")


class TestConditionalEntropy:
    def test_singlet_is_perfectly_anticorrelated(self):
        assert conditional_entropy(SINGLET, np.array([0, 0, 1.0])) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_dominant_axis_measurement(self):
        rho = bell_to_density((0.1, 0.16, 0.1))
        got = conditional_entropy(rho, np.array([0, 1.0, 0]))
        assert got == pytest.approx(1.0 - C_SUDDEN, abs=1e-12)


def edge_states():
    """The maximally mixed state, the singlet, an exact tie |c_x| = |c_y|,
    an optimum at the theta = 0 pole, and a near-pure state, whose optimal
    outcome has l-/w ~ 1e-7."""
    return [bell_to_density(c) for c in
            [(0.0, 0.0, 0.0), (-1.0, -1.0, -1.0), (0.4, -0.4, 0.1), (0.1, 0.1, 0.5),
             (0.999999, 0.2, -0.2)]]


def search_states():
    """50 seeded Bell-diagonal states and the edge states."""
    rng = np.random.default_rng(71)
    rhos = [bell_to_density(random_bell_coefficients(rng)) for _ in range(50)]
    return np.stack(rhos + edge_states())


def use_grid(monkeypatch, steps):
    """Run the search on a (THETA_STEPS, PHI_STEPS) = steps grid."""
    monkeypatch.setattr(correlations, "THETA_STEPS", steps[0])
    monkeypatch.setattr(correlations, "PHI_STEPS", steps[1])


def assert_value_gates(rhos, steps, value, basis):
    """The returned value is the reference's at the returned basis to
    2e-15 and no lower than one_step_descent's by more than 1e-15."""
    ref_value, _ = one_step_descent(rhos, *steps)
    for rho, got, at, ref in zip(rhos, value, basis, ref_value):
        assert abs(got - reference_value(rho, at)) <= 2e-15
        assert got >= ref - 1e-15


GRIDS = pytest.mark.parametrize("steps", [(THETA_STEPS, PHI_STEPS), (16, 32)],
                                ids=["64x128", "16x32"])


# sha256 over the search's values and bases on pinned_states(), as one stack
# and then state by state. Re-hashed when the modified Newton step replaced
# steepest descent on non-positive-definite Hessians: only the three exact
# ties (indices 806, 810 and 811) moved, each value equal to its old one or
# closer to the ledger. Every later change to the search must keep these bits
SEARCH_SHA256 = "ce406a4fa407cac941d35ecd88e1f1f128866aa47886786bcea539dafcc45a64"


def pinned_states():
    """812 Bell-diagonal states: the 100 of each of the `oracles` benchmark
    workload's seeds 601, 777 and 778, verify's 500 brute-force states, and
    12 edge states (maximally mixed, the four Bell states, proportional, an
    exact tie, a pole optimum, a Werner state, a classical state, and two
    ties |c_x| = |c_y| on which a steepest-descent step ran out of Newton
    steps)."""
    triples = []
    for seed in (601, 777, 778):
        rng = np.random.default_rng(seed)
        triples += [random_bell_coefficients(rng) for _ in range(100)]
    rng = np.random.default_rng(VERIFY_SEED)
    for _ in range(1000):  # verify's Kraus check draws first: a state, then p
        random_bell_coefficients(rng)
        rng.uniform(-1, 1)
    triples += [random_bell_coefficients(rng) for _ in range(500)]
    triples += [(0.0, 0.0, 0.0), (-1.0, -1.0, -1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0),
                (-1.0, 1.0, 1.0), (0.6, 0.6, -1.0), (0.4, -0.4, 0.1), (0.1, 0.1, 0.5),
                (0.3, 0.3, 0.3), (0.5, 0.0, 0.0), (0.789, -0.789, 0.7296),
                (0.844, -0.844, 0.8016)]
    return bell_to_density(np.array(triples, dtype=float))


def search_digest(rhos):
    digest = hashlib.sha256()
    stack = classical_correlation_bruteforce(rhos)
    digest.update(stack.value.tobytes())
    digest.update(stack.basis.tobytes())
    for rho in rhos:
        single = classical_correlation_bruteforce(rho)
        digest.update(np.float64(single.value).tobytes())
        digest.update(single.basis.tobytes())
    return digest.hexdigest()


# ties |c_x| = |c_y| with |c_z| a little below, whose minima form a circle:
# a steepest-descent step where the Hessian is not positive definite, in place
# of the modified Newton step, runs out of NEWTON_STEPS on each of them
STEP_OUT_TIES = [(0.789, -0.789, 0.7296), (0.844, -0.844, 0.8016), (0.07, -0.07, 0.0),
                 (0.43, -0.43, 0.38), (0.45, -0.45, 0.4), (0.58, -0.58, 0.52),
                 (0.63, -0.63, 0.6), (0.67, -0.67, 0.64), (0.8, -0.8, 0.76),
                 (0.9, -0.9, 0.86), (0.95, -0.95, 0.92)]


def census_triples():
    """The physical ones among: every sign and axis permutation of
    STEP_OUT_TIES and of three-way ties (a, a, a), seeded near-ties (u, -u (1
    - gap), v) with relative gaps 1e-14 to 1e-2, seeded states on a face of
    the tetrahedron (one Bell eigenvalue zero), the four Bell states, the
    maximally mixed state and (0.6, 0.6, -1)."""
    rng = np.random.default_rng(109)
    u, gap = rng.uniform(0.05, 0.95, 200), 10.0 ** rng.uniform(-14, -2, 200)
    f = rng.uniform(-1, 1, (100, 2))
    triples = [tuple(sign * c[i] for sign, i in zip(signs, order))
               for c in STEP_OUT_TIES + [(a, a, a) for a in np.linspace(0.1, 1, 10)]
               for order in itertools.permutations(range(3))
               for signs in itertools.product((1.0, -1.0), repeat=3)]
    triples = np.concatenate([
        np.array(sorted(set(triples))), np.stack([u, -u * (1 - gap), u * rng.uniform(0, 1, 200)], 1),
        np.stack([f[:, 0], f[:, 1], f[:, 0] - f[:, 1] - 1.0], 1),
        [(-1.0, -1.0, -1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0), (-1.0, 1.0, 1.0),
         (0.0, 0.0, 0.0), (0.6, 0.6, -1.0)]])
    return triples[np.min(bell_eigenvalues(triples), axis=1) >= 0.0]


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

    def test_search_bits_are_pinned(self):
        rhos = pinned_states()
        assert len(rhos) == 812
        assert search_digest(rhos) == SEARCH_SHA256

    def test_census_converges_to_the_ledger(self):
        # no state runs out of Newton steps; values agree with the ledger to
        # rounding except at a unit coefficient off the pole, where the
        # model's singular guard stops the descent short (ROADMAP item 19)
        triples = census_triples()
        assert len(triples) == 383
        brute = classical_correlation_bruteforce(bell_to_density(triples))
        inner = np.max(np.abs(triples), axis=1) < 1.0
        assert np.max(np.abs(brute.value - correlation_ledger(triples).C)[inner]) <= 1e-15

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

    @pytest.mark.parametrize("n", [1, 5])
    def test_one_kernel_call_per_state(self, monkeypatch, n):
        # one call per state's grid, one for all Newton points
        calls = []
        kernel = correlations._conditional_entropies
        monkeypatch.setattr(correlations, "_conditional_entropies",
                            lambda *args: calls.append(args) or kernel(*args))
        rng = np.random.default_rng(73)
        rhos = bell_to_density(np.array([random_bell_coefficients(rng) for _ in range(n)]))
        classical_correlation_bruteforce(rhos[0] if n == 1 else rhos)
        assert len(calls) == n + 1

    def test_agrees_with_closed_form_to_rounding(self):
        rng = np.random.default_rng(67)
        states = np.array([random_bell_coefficients(rng) for _ in range(100)])
        brute = classical_correlation_bruteforce(
            np.stack([bell_to_density(c) for c in states]))
        assert np.max(np.abs(brute.value - correlation_ledger(states).C)) <= 1e-14

    @GRIDS
    def test_value_gates_and_stack_rows(self, monkeypatch, steps):
        use_grid(monkeypatch, steps)
        rhos = search_states()
        stack = classical_correlation_bruteforce(rhos)
        assert_value_gates(rhos, steps, stack.value, stack.basis)
        for rho, value, basis in zip(rhos, stack.value, stack.basis):
            single = classical_correlation_bruteforce(rho)
            assert single.value == value
            assert np.array_equal(single.basis, basis)

    def test_only_newton_fallbacks_descend(self, monkeypatch):
        # a state whose Newton model is singular at its grid start (Bell,
        # maximally mixed and proportional states) keeps its grid point, and
        # a state whose descent uses up its trials raises, naming its index
        singular = np.stack([SINGLET] + [bell_to_density(c) for c in
                                         [(1.0, 1.0, -1.0), (0.0, 0.0, 0.0), (0.6, 0.6, -1.0)]])
        ops = _search_operands(singular)
        best_val, theta, phi = _grid_minima(ops)
        for op, t, p in zip(ops, theta.tolist(), phi.tolist()):
            assert correlations._newton_model(op, t, p) is None
        result = classical_correlation_bruteforce(singular)
        assert np.array_equal(result.value, 1.0 - best_val)
        assert np.array_equal(result.basis, _bloch_columns(theta, phi)[1:].T)

        # no step is ever at most a zero tolerance, so only the trial count
        # ends a non-singular state's descent
        monkeypatch.setattr(correlations, "REFINE_ANGLE_TOL", 0.0)
        stack = np.concatenate([singular, bell_to_density((0.1, 0.16, 0.1))[None]])
        with pytest.raises(AccuracyError, match=f"state at index 4: the Newton "
                                                f"refinement did not converge in "
                                                f"{NEWTON_STEPS} steps"):
            classical_correlation_bruteforce(stack)

    @pytest.mark.parametrize("angle_tol", [-1.0, 0.0, float("nan")])
    def test_newton_refinement_is_bounded(self, monkeypatch, angle_tol):
        # no step is ever at most such a tolerance: the trial count ends it
        calls = []
        monkeypatch.setattr(correlations, "REFINE_ANGLE_TOL", angle_tol)
        model = correlations._newton_model
        monkeypatch.setattr(correlations, "_newton_model",
                            lambda *args: calls.append(args) or model(*args))
        ops = _search_operands(bell_to_density((0.1, 0.16, 0.1))[None])
        assert _newton_refine(ops[0], 1.0, 1.0) is None
        assert len(calls) == NEWTON_STEPS + 1

    def test_cached_grid_is_read_only(self):
        # the upper hemisphere: T/2 rows of theta, the pole once
        for steps, points in [((THETA_STEPS, PHI_STEPS), 3969), ((16, 32), 225)]:
            arrays = _search_grid(*steps)
            assert arrays[2].shape == (4, points)
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
            axis = discord(c).axis
            result = classical_correlation_bruteforce(bell_to_density(c))
            overlap = abs(float(result.basis @ axes[axis]))
            assert np.arccos(min(overlap, 1.0)) <= 1e-3
            checked += 1


def kernel_states():
    """50 seeded Bell-diagonal states and the edge states."""
    rng = np.random.default_rng(73)
    return [bell_to_density(random_bell_coefficients(rng)) for _ in range(50)] + edge_states()


class TestBlochKernel:
    def test_matches_complex_reference(self):
        rng = np.random.default_rng(79)
        tg, pg = full_grid()
        tg = np.concatenate([tg, np.arccos(rng.uniform(-1, 1, 2000))])
        pg = np.concatenate([pg, rng.uniform(0, 2 * np.pi, 2000)])
        cols, proj = _bloch_columns(tg, pg), reference_projectors(tg, pg)
        for rho in kernel_states():
            ops = _search_operands(rho[None])
            real, reference = (_conditional_entropies(ops[0], cols),
                               reference_conditional_entropies(rho, proj))
            assert np.max(np.abs(real - reference)) <= 2e-15

    def test_hemisphere_keeps_the_full_grid_minimum(self):
        tg, pg, _ = _search_grid(THETA_STEPS, PHI_STEPS)
        hemisphere = reference_projectors(tg, pg)
        full = reference_projectors(*full_grid())
        for rho in kernel_states():
            low = np.min(reference_conditional_entropies(rho, hemisphere))
            assert abs(low - np.min(reference_conditional_entropies(rho, full))) <= 2e-15


def mirrored_states():
    """100 seeded Bell-diagonal states, then the singular Newton starts: the
    maximally mixed state and the four Bell states."""
    rng = np.random.default_rng(89)
    triples = [random_bell_coefficients(rng) for _ in range(100)]
    triples += [(0.0, 0.0, 0.0), (-1.0, -1.0, -1.0), (1.0, -1.0, 1.0),
                (1.0, 1.0, -1.0), (-1.0, 1.0, 1.0)]
    return np.stack([bell_to_density(c) for c in triples])


class TestMirroredOperand:
    def test_bell_diagonal_states_take_the_mirrored_operand(self):
        ops = _search_operands(mirrored_states())
        assert ops.shape == (105, 4, 4)

    @pytest.mark.parametrize("qubit", ["A", "B"])
    def test_a_marginal_is_rejected(self, tmp_path, capsys, qubit):
        # epsilon (sigma_z x I) / 4 gives A a Bloch vector, epsilon (I x
        # sigma_z) / 4 gives B one: outside the search's domain, alone and as
        # the fourth state of a Bell-diagonal stack
        z = np.diag([1.0, -1.0])
        pair = (z, np.eye(2)) if qubit == "A" else (np.eye(2), z)
        rho = bell_to_density((0.1, 0.16, 0.1)) + 1e-3 * np.kron(*pair) / 4
        for stack, index in [(rho, 0), (np.concatenate([mirrored_states()[:3], rho[None]]), 3)]:
            with pytest.raises(InvalidStateError,
                               match=f"state at index {index} has a marginal Bloch "
                                     f"component 1.000e-03"):
                classical_correlation_bruteforce(stack)
        path = tmp_path / "marginal.json"
        path.write_text(json.dumps({"re": rho.real.tolist(), "im": rho.imag.tolist()}))
        assert main(["correlations", "--oracle", "--state-file", str(path)]) == 2
        assert "not Bell-diagonal" in capsys.readouterr().err

    def test_guarded_candidates_keep_their_neighbours_bits(self):
        # along z the singlet's outcomes are pure (1 - x = 0); a block holding
        # that candidate gives every candidate the bits it gets alone, in a
        # block of its own copies (one column would take another BLAS path)
        rng = np.random.default_rng(101)
        theta = np.concatenate([[0.0, np.pi / 2], np.arccos(rng.uniform(-1, 1, 30))])
        phi = np.concatenate([[0.0, 0.0], rng.uniform(0, 2 * np.pi, 30)])
        cols = _bloch_columns(theta, phi)
        ops = _search_operands(SINGLET[None])
        block = _conditional_entropies(ops[0], cols)
        alone = [_conditional_entropies(ops[0], cols[:, [j] * cols.shape[1]])[j]
                 for j in range(cols.shape[1])]
        assert np.array_equal(block, alone)
        stacked = _conditional_entropies(np.repeat(ops, 3, axis=0), np.stack([cols] * 3))
        assert np.array_equal(stacked, np.stack([block] * 3))

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

    def test_fields_are_the_ledger_row_bits(self):
        # discord computes its one row on floats; every field must be the
        # correlation_ledger row's, ties and boundary states included (a
        # Bell eigenvalue of 1 + 5e-11 and a |c| above 1 are clipped)
        rng = np.random.default_rng(97)
        states = [tuple(random_bell_coefficients(rng)) for _ in range(2000)]
        grid = rng.integers(-4, 5, (400, 3)) / 4  # exact zeros in the spectrum
        states += [tuple(v) for v in grid[np.min(bell_eigenvalues(grid), axis=1) >= 0]]
        states += [(0.0, 0.0, 0.0), (-1.0, -1.0, -1.0), (1.0, -1.0, 1.0),
                   (0.4, -0.4, 0.1), (0.5, 0.5, -0.5), (1 + 2e-10, 0.0, 0.0), (1.0, 1.0, -1 - 2e-10),
                   (1e-16, -1e-16, 1e-300), (0.1, 0.16, 0.1)]
        ledger = correlation_ledger(np.array(states))
        for k, c in enumerate(states):
            report = discord(c)
            assert [type(v) for v in report] == [float] * 4 + [str]
            assert report[:4] == tuple(field[k].item() for field in ledger[:4])
            assert report.axis == AXES[ledger.axis[k]]

    def test_json_keys(self):
        payload = discord((0.1, 0.16, 0.1))._asdict()
        assert list(payload) == ["I", "C", "D", "lambda_max", "axis"]
        # built-in types, so correlations --format json can dump the report
        assert [type(v) for v in payload.values()] == [float] * 4 + [str]
        assert json.loads(json.dumps(payload)) == payload


def dephase(c, axis):
    """c with the two components orthogonal to the axis erased."""
    return tuple(v if name == axis else 0.0 for name, v in zip(AXES, c))


def closest(c):
    """The closest classical state: dephasing along the dominant axis."""
    return dephase(c, discord(c).axis)


class TestClosestClassical:
    def test_already_classical(self):
        assert closest((0, 0, 0)) == (0, 0, 0)
        assert closest((0.3, 0, 0)) == (0.3, 0, 0)

    def test_dominant_z(self):
        assert closest((0.6, 0.6, -1.0)) == (0.0, 0.0, -1.0)

    def test_dominant_x_after_decay(self):
        # evolved sudden-change state once |cx p| dominates |cy p^2|
        p = 0.5
        c_t = (0.1 * p, 0.16 * p * p, 0.1 * p)
        assert closest(c_t) == (0.05, 0.0, 0.0)

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

    def test_batch_equals_one_triple_loop(self):
        rng = np.random.default_rng(83)
        states = [random_bell_coefficients(rng) for _ in range(60)]
        states += [(0.0, 0.0, 0.0), (-1.0, -1.0, -1.0), (0.4, -0.4, 0.1), (0.5, 0.0, 0.0)]
        batch = relative_entropy_discord(np.array(states))
        assert batch.value.shape == batch.axis.shape == (len(states),)
        for c, value, axis in zip(states, batch.value, batch.axis):
            rho = bell_to_density(c)
            loop = [relative_entropy(rho, bell_to_density(dephase(c, name)))
                    for name in AXES]
            assert value == min(loop)
            assert axis == loop.index(min(loop))
            assert relative_entropy_discord(c) == (value, AXES[axis])

    def test_identity_error_names_the_index(self, monkeypatch):
        real = correlations.correlation_ledger

        def off_at_two(c):
            ledger = real(c)
            shift = np.where(np.arange(len(c)) == 2, 1e-6, 0.0)
            return ledger._replace(D=ledger.D + shift)

        monkeypatch.setattr(correlations, "correlation_ledger", off_at_two)
        rng = np.random.default_rng(89)
        states = np.array([random_bell_coefficients(rng) for _ in range(4)])
        with pytest.raises(AccuracyError, match="discord at index 2 "):
            relative_entropy_discord(states)

    @pytest.mark.parametrize("bad", [(1.0, 1.0, 1.0), (np.nan, 0.1, 0.1),
                                     (np.inf, -np.inf, 0.0)],
                             ids=["negative", "nan", "inf"])
    def test_batch_names_the_first_unphysical_triple(self, bad):
        # one vectorised check, and the error of the one-triple check
        states = np.array([(0.1, 0.16, 0.1), bad, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)])
        with pytest.raises(InvalidStateError) as expected:
            require_physical(bad)
        with pytest.raises(InvalidStateError) as got:
            relative_entropy_discord(states)
        assert str(got.value) == str(expected.value)

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
