import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldyn import kernel
from belldyn.errors import AccuracyError
from belldyn.kernel import (
    KernelParams,
    damping_regime,
    decay_factor,
    decay_factor_convolution,
    decay_factor_ode,
    markovian_decay_factor,
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

# (A/a, gamma/a, eps) of the benchmark's tc-sweep kernels, one per
# decay_factor branch; eps moves A to (a/2)(1 - eps), the near-critical
# hyperbolic branch
BENCH_SHAPES = {"oscillatory": (10.0, 0.01, 0.0), "overdamped": (1.0, 1.0, 0.0),
                "critical": (0.5, 0.0, 0.0), "near_critical": (0.5, 0.0, 1e-8)}


def _shaped_kernel(shape, a):
    A, gamma, eps = shape
    return KernelParams(a, a * A * (1 - eps), a * gamma)


def _reference():
    """tests/reference_mp.py, which needs mpmath."""
    pytest.importorskip("mpmath")
    import reference_mp
    return reference_mp


class TestRegimes:
    def test_equal_kernel_is_overdamped(self):
        tag, w2 = damping_regime(EQUAL)
        assert w2 == pytest.approx(-0.25, abs=1e-15)
        assert tag == "overdamped"

    def test_wide_kernel_is_oscillatory(self):
        k = KernelParams(1.0, 10.0, 0.0)
        tag, w2 = damping_regime(k)
        assert w2 == pytest.approx(19.0, abs=1e-15)
        assert tag == "oscillatory"

    def test_critical_boundary(self):
        assert damping_regime(CRITICAL) == ("critical", 0.0)

    @pytest.mark.parametrize("scale", [1e-100, 1e-200, 1e-300])
    @pytest.mark.parametrize("A, gamma, tag", [
        (1.0, 10.0, "overdamped"), (10.0, 0.01, "oscillatory"), (0.5, 0.0, "critical")])
    def test_regime_holds_at_tiny_rates(self, scale, A, gamma, tag):
        # past scale 1e-154, 2aA - ((2a + gamma)/2)^2 underflows to 0: the
        # regime and omega0 come from omega0^2 / a^2, so p(t) in units of a
        # is the scale-1 kernel's
        k = KernelParams(scale, A * scale, gamma * scale)
        assert damping_regime(k)[0] == tag
        t = np.linspace(0.0, 5.0, 11)
        unit = decay_factor(KernelParams(1.0, A, gamma), t)
        assert np.allclose(decay_factor(k, t / scale), unit, rtol=1e-12, atol=1e-15)

    def test_regime_when_both_scaled_terms_overflow(self):
        # 2A/a and ((2 + gamma/a)/2)^2 are both inf; omega0^2 = 2e-292 -
        # 2.5e-281 is not
        k = KernelParams(1e-300, 1e8, 1e-140)
        assert damping_regime(k)[0] == "overdamped"
        assert 0.0 < decay_factor(k, 1e140) < 1.0

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
        b, w = 1.0, np.sqrt(-damping_regime(k)[1])
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

    @pytest.mark.parametrize("shape", sorted(BENCH_SHAPES))
    def test_scalar_time_kinds_give_the_array_bits(self, shape):
        # a scalar t runs as a Python float; every kind of scalar, and t as
        # a one-element array, must give the same bits
        k = _shaped_kernel(BENCH_SHAPES[shape], a=0.8)
        w = k._regime[2]  # 0 at critical damping
        past_cap = 2.0 / w if w > 0 else 1e6 / k.a  # w*t = 2 on the hyperbolic branch
        for t in (0.0, 0.7 / k.a, 3.0 / k.a, past_cap):
            kinds = [decay_factor(k, t), decay_factor(k, np.float64(t)),
                     decay_factor(k, np.array(t)), decay_factor(k, np.array([t]))[0]]
            assert [type(v) for v in kinds[:3]] == [float] * 3
            assert len({float(v).hex() for v in kinds}) == 1, (shape, t)


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

    # verify's four kernels on verify's default grid: at a = 1e-300 and 1e-160
    # an unscaled 2aA underflows; the large rates check that the 1/a units hold
    @pytest.mark.parametrize("a", [1e-300, 1e-160, 1e-3, 1.0, 3.7, 1e20, 1e150])
    @pytest.mark.parametrize("shape", [
        lambda a: KernelParams(a, a, a),
        lambda a: KernelParams(a, 10 * a, a / 100),
        lambda a: KernelParams(a, a / 2, 0.0),
        lambda a: KernelParams(a, a / 2 * (1 - 1e-8), 0.0),
    ], ids=["A=a=gamma", "A=10a", "critical", "near-critical"])
    def test_matches_closed_form_at_every_rate(self, shape, a):
        k = shape(a)
        grid = np.linspace(0.0, 10.0 / a, 4001)
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
            p = decay_factor_convolution(KernelParams(1.0, gamma, gamma), grid)
            devs.append(np.max(np.abs(p - baseline)))
        assert devs[1] < devs[0] < 0.2


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


def _branch_kernel(rng, branch):
    """A seeded kernel on one decay_factor branch."""
    a = float(rng.uniform(0.5, 2.0))
    if branch == "oscillatory":
        A, gamma = a * float(rng.uniform(2.0, 50.0)), a * float(rng.uniform(0.0, 1.0))
    elif branch == "overdamped":
        A, gamma = a * float(rng.uniform(0.1, 1.0)), a * float(rng.uniform(1.0, 3.0))
    elif branch == "critical":
        A, gamma = a / 2, 0.0
    else:
        A, gamma = a / 2 * (1 - float(10 ** rng.uniform(-9, -7))), 0.0
    k = KernelParams(a, A, gamma)
    expected = "overdamped" if branch == "near_critical" else branch
    assert damping_regime(k)[0] == expected
    return k


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


# targets below the float |p(z0)|: a kernel drawn at a = 1, A in [1, 1e4],
# gamma in [0, 2]; the wide kernel; omega0 ~ 1.4e150 a
BELOW_FLOOR = [(KernelParams(1.0, 1659.6315985408394, 1.6158815794729875),
                7.119535322085519e-17),
               (WIDE, 1e-40), (KernelParams(1.0, 1e300, 1.0), 1e-30)]
BRANCH_NAMES = ("oscillatory", "overdamped", "critical", "near_critical")


class TestSolveDecayTimeArray:
    @pytest.mark.parametrize("markovian", [False, True])
    @pytest.mark.parametrize("branch", BRANCH_NAMES)
    def test_roots_equal_the_scalar_path(self, branch, markovian):
        rng = np.random.default_rng(BRANCH_NAMES.index(branch) + 11)
        # seeded kernels of the branch, then the benchmark's shape at ten rates
        kernels = [_branch_kernel(rng, branch) for _ in range(50)]
        kernels += [_shaped_kernel(BENCH_SHAPES[branch], float(a))
                    for a in rng.uniform(0.5, 2.0, 10)]
        for k in kernels:
            drawn = rng.uniform(1e-12, 1.0, 10)
            # unsorted, with repeats and a target next to 1
            targets = np.concatenate([drawn, [1 - 1e-12], drawn[:3]]).reshape(2, 7)
            roots = solve_decay_time(k, targets, markovian=markovian)
            assert roots.shape == targets.shape
            scalar = [solve_decay_time(k, x, markovian=markovian)
                      for x in targets.ravel().tolist()]
            assert _hex(roots) == _hex(scalar)

    @pytest.mark.parametrize("branch", BRANCH_NAMES)
    def test_scalar_target_returns_a_float(self, branch):
        k = _branch_kernel(np.random.default_rng(3), branch)
        for markovian in (False, True):
            root = solve_decay_time(k, 0.3, markovian=markovian)
            assert type(root) is float
            zero_d = solve_decay_time(k, np.array(0.3), markovian=markovian)
            assert type(zero_d) is float
            assert zero_d.hex() == root.hex()

    def test_empty_array(self):
        for k in (WIDE, EQUAL):
            assert solve_decay_time(k, np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("k", [WIDE, EQUAL], ids=["oscillatory", "monotone"])
    def test_out_of_domain_target_is_named(self, k):
        with pytest.raises(ValueError, match="got 1.5$"):
            solve_decay_time(k, np.array([0.5, 1.5, -0.2]))
        with pytest.raises(ValueError, match="got nan$"):
            solve_decay_time(k, [0.5, np.nan], markovian=True)

    def test_target_below_the_float_floor_gets_the_first_crossing(self):
        for k, target in BELOW_FLOOR:
            # the bracket ends at p's first zero z0, where p vanishes but the
            # float |p| still reads above the target
            b = (2 * k.a + k.gamma) / 2
            w = np.sqrt(damping_regime(k)[1])
            z0 = (np.pi - np.arctan(w / b)) / w
            assert kernel._bracket_end(k, np.array(target)) == z0
            assert abs(decay_factor(k, z0)) > target
            root = _high_precision_root(k, target)
            assert abs(solve_decay_time(k, target) - root) <= 1e-10 * root
            roots = solve_decay_time(k, np.array([0.5, target, target]))
            assert abs(roots[1:] - root).max() <= 1e-10 * root


def _high_precision_root(k, target):
    """The first t with |p(t)| = target, from tests/reference_mp.py."""
    return _reference().crossing_time(k.a, k.A, k.gamma, target)


@pytest.mark.parametrize("A, gamma", [(1e8, 0.0), (1e300, 1.0)])
def test_huge_amplitude_root_matches_high_precision(A, gamma):
    # omega0 / a up to 1e150: the bracket ends at z0 ~ 1e-150 / a
    k = KernelParams(1.0, A, gamma)
    root = _high_precision_root(k, 0.625)
    assert abs(solve_decay_time(k, 0.625) - root) <= 1e-9 * root


def test_bracket_ends_before_an_overflowing_first_zero():
    # omega0 ~ 1.5e-308 at a = 1e-300: p's first zero z0 ~ pi/omega0
    # overflows, but p <= 2 exp(-b t/2) before it brackets the root
    k = KernelParams(1e-300, float(np.nextafter(5e-301, 1)), 0.0)
    assert damping_regime(k)[0] == "oscillatory"
    root = solve_decay_time(k, 0.5)
    expected = _high_precision_root(k, 0.5)
    assert abs(root - expected) <= 1e-9 * expected
    assert _hex(solve_decay_time(k, np.array([0.5, 0.25, 0.5]))[::2]) == _hex([root, root])


# the benchmark's kernel shapes, and A = gamma = 1 at two extreme rates.
# At a = 1e-300, 2aA lies below the last bit of b^2: a slow rate b - omega
# taken by subtraction is 0 there, so p(t) stayed 1 and no root was found.
# At a = 1e20 the slow rate 2aA/(b + omega) ~ 2 puts the root at a*t ~ 4.7e19,
# past any search horizon in units of 1/a
HIGH_PRECISION_KERNELS = [*BRANCH_NAMES, "tiny_rate", "huge_rate"]


def _high_precision_kernels(kernel_id, rng):
    if kernel_id == "tiny_rate":
        return [KernelParams(1e-300, 1.0, 1.0)]
    if kernel_id == "huge_rate":
        return [KernelParams(1e20, 1.0, 1.0)]
    return [_shaped_kernel(BENCH_SHAPES[kernel_id], float(a))
            for a in rng.uniform(0.5, 2.0, 2)]


@pytest.mark.parametrize("kernel_id", HIGH_PRECISION_KERNELS)
def test_decay_factor_matches_high_precision(kernel_id):
    # error scaled by max(|p|, exp(-b t)), so that it stays relative where p
    # crosses zero
    rng = np.random.default_rng(len(kernel_id))
    reference = _reference()
    for k in _high_precision_kernels(kernel_id, rng):
        t = np.concatenate([np.linspace(0.0, 20.0, 41), rng.uniform(0.0, 5.0, 20)]) / k.a
        exact = np.array([reference.decay_factor(k.a, k.A, k.gamma, x) for x in t.tolist()])
        scale = np.maximum(np.abs(exact), np.exp(-(2 * k.a + k.gamma) / 2 * t))
        assert np.max(np.abs(decay_factor(k, t) - exact) / scale) <= 1e-13


@pytest.mark.parametrize("kernel_id", HIGH_PRECISION_KERNELS)
def test_roots_match_high_precision(kernel_id):
    # scalar and array targets; targets near 1 are ill-conditioned (the root
    # moves by ~eps / (1 - target) relative), so they stay below 1 - 1e-4
    rng = np.random.default_rng(len(kernel_id) + 41)
    for k in _high_precision_kernels(kernel_id, rng):
        targets = np.concatenate([rng.uniform(1e-12, 1 - 1e-4, 4), [1e-12, 0.625]])
        roots = np.array([_high_precision_root(k, x) for x in targets])
        scalar = np.array([solve_decay_time(k, x) for x in targets.tolist()])
        assert np.max(np.abs(scalar - roots) / roots) <= 1e-9
        assert np.max(np.abs(solve_decay_time(k, targets) - roots) / roots) <= 1e-9


@pytest.mark.parametrize("a", [0.01, 1.0, 33.8, 500.0])
def test_decay_factor_at_the_critical_band_edges(a):
    # A = (a/2)(1 + eps), gamma = 0: omega0^2 / a^2 = eps. Only eps = 0 is
    # critical; the limit exp(-b t)(1 + b t) is off by ~omega0^2 t^2 / 6
    # relative, 3.9e-10 at eps = 9e-13 and a t = 50, if used for eps != 0
    reference = _reference()
    t = np.linspace(0.0, 50.0 / a, 101)
    for eps in (1e-13, -1e-13, 5e-13, -5e-13, 9e-13, -9e-13):
        k = KernelParams(a, a / 2 * (1 + eps), 0.0)
        assert damping_regime(k)[0] == ("oscillatory" if eps > 0 else "overdamped")
        exact = np.array([reference.decay_factor(k.a, k.A, k.gamma, x) for x in t.tolist()])
        scale = np.maximum(np.abs(exact), np.exp(-a * t))
        assert np.max(np.abs(decay_factor(k, t) - exact) / scale) <= 1e-13, eps


@st.composite
def _kernels(draw):
    """Kernels on both sides of omega0^2 = 0, |omega0^2 / a^2| in
    [1e-16, 1e4], a in [1e-300, 1e20]. omega0^2 = 0 with gamma = 0 gives
    A = a/2, the exactly critical kernel; with gamma > 0 rounding puts
    omega0^2 / a^2 at 0 or a few ulps off it."""
    a = 10.0 ** draw(st.floats(-300.0, 20.0))
    g = draw(st.one_of(st.just(0.0), st.floats(0.0, 200.0)))  # gamma / a
    half2 = (1 + g / 2) ** 2
    scaled = 10.0 ** draw(st.floats(-16.0, 4.0)) * draw(st.sampled_from((-1, 0, 1)))
    scaled = max(scaled, -0.99 * half2)  # A > 0
    return KernelParams(a, a * ((half2 + scaled) / 2), a * g)


@settings(max_examples=100)
@given(k=_kernels(), target=st.floats(1e-15, 1 - 1e-4))
def test_bracket_and_root_properties(k, target):
    # the closed-form bracket end either overflows, and the call says so, or
    # brackets the first crossing, which matches the mpmath root
    t_hi = float(kernel._bracket_end(k, np.array(target)))
    if not t_hi < np.inf:
        with pytest.raises(ValueError, match=re.escape(f"overflows at a = {k.a}, A = {k.A}")):
            solve_decay_time(k, target)
        return
    if damping_regime(k)[0] == "oscillatory":
        # p's first zero z0, or an earlier time where |p| <= target
        b, w = (2 * k.a + k.gamma) / 2, k._regime[2]
        with np.errstate(over="ignore"):
            z0 = (np.pi - np.arctan(w / b)) / w
        assert t_hi == z0 or (t_hi < z0 and abs(decay_factor(k, t_hi)) <= target)
    else:
        assert abs(decay_factor(k, t_hi)) <= target
    root = solve_decay_time(k, target)
    roots = solve_decay_time(k, np.array([target, 0.5, target]))
    assert _hex(roots[::2]) == _hex([root, root])
    expected = _high_precision_root(k, target)
    assert abs(root - expected) <= 1e-9 * expected
