import warnings

import numpy as np
import pytest

from belldyn.errors import AccuracyError
from belldyn.kernel import (
    KernelParams,
    damping_regime,
    decay_factor,
    decay_factor_convolution,
    decay_factor_ode,
    markovian_decay_factor,
    omega0_squared,
    solve_decay_time,
)

EQUAL = KernelParams(1.0, 1.0, 1.0)
WIDE = KernelParams(1.0, 10.0, 0.01)  # strongly oscillatory
CRITICAL = KernelParams(1.0, 0.5, 0.0)

# frozen: 2/e - 1/e^2 and -ln(1 - sqrt(0.375)), both independently verified
P_EQUAL_AT_1 = 0.6004235991062720
T_CROSS_0625 = 0.9477102861581741
# frozen: scipy.optimize.brentq on |p| - 0.625 for the wide kernel
T_CROSS_0625_WIDE = 0.21563509959783556


class TestRegimes:
    def test_equal_kernel_is_overdamped(self):
        assert omega0_squared(EQUAL) == pytest.approx(-0.25, abs=1e-15)
        assert damping_regime(EQUAL).tag == "overdamped"

    def test_wide_kernel_is_oscillatory(self):
        k = KernelParams(1.0, 10.0, 0.0)
        assert omega0_squared(k) == pytest.approx(19.0, abs=1e-15)
        assert damping_regime(k).tag == "oscillatory"

    def test_critical_boundary(self):
        assert omega0_squared(CRITICAL) == 0.0
        assert damping_regime(CRITICAL).tag == "critical"

    def test_params_validated(self):
        with pytest.raises(ValueError):
            KernelParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            KernelParams(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            KernelParams(1.0, 1.0, -0.1)


class TestDecayFactor:
    @pytest.mark.parametrize("k", [EQUAL, WIDE, CRITICAL])
    def test_starts_at_one_with_flat_slope(self, k):
        assert decay_factor(k, 0.0) == 1.0
        h = 1e-6
        assert abs((decay_factor(k, h) - 1.0) / h) < 5e-5

    def test_equal_kernel_closed_form(self):
        t = np.linspace(0, 10, 2001)
        closed = 2 * np.exp(-t) - np.exp(-2 * t)
        assert np.max(np.abs(decay_factor(EQUAL, t) - closed)) <= 1e-12

    def test_equal_kernel_value(self):
        assert decay_factor(EQUAL, 1.0) == pytest.approx(P_EQUAL_AT_1, abs=1e-12)

    def test_wide_kernel_oscillates_through_zero(self):
        p = decay_factor(WIDE, np.linspace(0, 3, 2000))
        assert int(np.sum(np.diff(np.sign(p)) != 0)) >= 3
        assert p.min() < -0.1

    def test_regime_continuity_in_amplitude(self):
        # p is continuous in A across the critical boundary
        a, gamma = 1.0, 1.0
        a_crit = ((2 * a + gamma) / 2) ** 2 / (2 * a)
        t = np.linspace(0, 10, 501)
        below = decay_factor(KernelParams(a, a_crit - 1e-6, gamma), t)
        above = decay_factor(KernelParams(a, a_crit + 1e-6, gamma), t)
        assert np.max(np.abs(below - above)) <= 1e-4

    def test_near_critical_long_times_reach_zero(self):
        k = KernelParams(1.0, 0.5 * (1 - 1e-8), 0.0)  # hyperbolic, w = 1e-4
        t = np.array([0.0, 0.5, 10.0, 1e3, 7e3, 1e4, 2e4, 7.1e6, 1e8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or invalid-value warning
            scalar = decay_factor(k, 1e8)
            p = decay_factor(k, t)
        assert scalar == 0.0
        assert np.all(np.isfinite(p)) and np.all(p[-3:] == 0.0)
        # every value the uncapped hyperbolic form gets finite is unchanged
        b, w = 1.0, np.sqrt(-omega0_squared(k))
        with np.errstate(over="ignore", invalid="ignore"):
            uncapped = np.exp(-b * t) * (np.cosh(w * t) + (b / w) * np.sinh(w * t))
        finite = np.isfinite(uncapped)
        assert not finite.all()
        assert np.array_equal(p[finite], uncapped[finite])

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(17)
        t = np.linspace(0, 30, 1500)
        for _ in range(200):
            a, amp, gamma = rng.uniform(1e-3, 10, size=3)
            k = KernelParams(a, amp, gamma)
            p = decay_factor(k, t / a)
            assert np.max(np.abs(p)) <= 1 + 1e-12, f"violation at {k}"


class TestMarkovian:
    def test_values(self):
        assert markovian_decay_factor(1.0, 0.0) == 1.0
        assert markovian_decay_factor(1.0, 0.5) == pytest.approx(
            np.exp(-1.0), abs=1e-15
        )

    def test_memory_kernel_dominates(self):
        t = np.linspace(0, 20, 2001)
        assert np.all(decay_factor(EQUAL, t) >= markovian_decay_factor(1.0, t) - 1e-15)


class TestOdeOracle:
    def test_initial_value(self):
        grid = np.linspace(0, 1, 201)
        assert decay_factor_ode(EQUAL, grid)[0] == 1.0

    def test_equal_kernel_value(self):
        grid = np.linspace(0, 1, 201)
        assert decay_factor_ode(EQUAL, grid)[-1] == pytest.approx(
            P_EQUAL_AT_1, abs=1e-6
        )

    @pytest.mark.parametrize("k", [EQUAL, WIDE, CRITICAL])
    def test_matches_closed_form(self, k):
        grid = np.linspace(0, 10, 2001)
        dev = np.max(np.abs(decay_factor_ode(k, grid) - decay_factor(k, grid)))
        assert dev <= 1e-6

    def test_oversized_step_rejected(self):
        with pytest.raises(AccuracyError):
            decay_factor_ode(EQUAL, np.linspace(0, 10, 100))

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError):
            decay_factor_ode(EQUAL, np.array([0.0, 0.001, 0.01]))

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            decay_factor_ode(EQUAL, np.linspace(1, 2, 500))


class TestConvolutionOracle:
    def test_initial_value(self):
        grid = np.linspace(0, 1, 401)
        assert decay_factor_convolution(EQUAL, grid)[0] == 1.0

    def test_equal_kernel_value(self):
        grid = np.linspace(0, 1, 401)
        assert decay_factor_convolution(EQUAL, grid)[-1] == pytest.approx(
            P_EQUAL_AT_1, abs=1e-4
        )

    @pytest.mark.parametrize("k", [EQUAL, WIDE, CRITICAL])
    def test_matches_closed_form(self, k):
        grid = np.linspace(0, 10, 4001)
        dev = np.max(np.abs(decay_factor_convolution(k, grid) - decay_factor(k, grid)))
        assert dev <= 1e-4

    def test_oversized_step_rejected(self):
        with pytest.raises(AccuracyError):
            decay_factor_convolution(EQUAL, np.linspace(0, 10, 1000))

    def test_tabulated_delta_like_kernel_approaches_markovian(self):
        # k(t) = gamma exp(-gamma t) tends to a unit-mass delta: the solution
        # should approach the Markovian baseline as gamma grows
        grid = np.linspace(0, 5, 4001)
        baseline = markovian_decay_factor(1.0, grid)
        devs = []
        for gamma in (20.0, 50.0):
            kern = gamma * np.exp(-gamma * grid)
            p = decay_factor_convolution(
                KernelParams(1.0, gamma, gamma), grid, kernel_values=kern
            )
            devs.append(np.max(np.abs(p - baseline)))
        assert devs[1] < devs[0] < 0.2

    def test_tabulated_kernel_shape_checked(self):
        with pytest.raises(ValueError):
            decay_factor_convolution(
                EQUAL, np.linspace(0, 1, 401), kernel_values=np.ones(3)
            )


class TestSolveDecayTime:
    def test_equal_kernel_crossing(self):
        assert solve_decay_time(EQUAL, 0.625) == pytest.approx(
            T_CROSS_0625, abs=1e-9
        )

    def test_target_near_one_gives_small_time(self):
        t = solve_decay_time(EQUAL, 0.999999)
        assert 0 < t < 0.01

    def test_markovian_inversion(self):
        assert solve_decay_time(EQUAL, np.exp(-2.0), markovian=True) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_oscillatory_first_crossing(self):
        t = solve_decay_time(WIDE, 0.625)
        assert t == pytest.approx(T_CROSS_0625_WIDE, abs=1e-9)
        # it is genuinely the first: |p| stays above target before it
        before = np.abs(decay_factor(WIDE, np.linspace(0, t * 0.999, 500)))
        assert np.all(before > 0.625)

    def test_oscillatory_small_target_not_skipped(self):
        # dips of |p| below a small target near the zeros of p must be found
        target = 0.02
        t = solve_decay_time(WIDE, target)
        assert abs(abs(decay_factor(WIDE, t)) - target) < 1e-9
        before = np.abs(decay_factor(WIDE, np.linspace(0, t * 0.9999, 4000)))
        assert np.all(before > target)

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.2])
    def test_target_domain(self, bad):
        with pytest.raises(ValueError):
            solve_decay_time(EQUAL, bad)
