import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldyn import cli, kernel, scenarios
from belldyn.channels import correlation_multipliers
from belldyn.correlations import AXES, binary_information, discord
from belldyn.errors import AccuracyError, InvalidStateError
from belldyn.kernel import (
    KernelParams,
    damping_regime,
    decay_factor,
    markovian_decay_factor,
    solve_decay_time,
)
from belldyn.scenarios import (
    InitialFamily,
    branch_switch_ratio,
    characteristic_time,
    characteristic_time_curve,
    closed_form_characteristic_time,
    evolve,
    make_family_state,
    switch_brackets,
)
from belldyn.states import bell_eigenvalues

EQUAL = KernelParams(1.0, 1.0, 1.0)
WIDE = KernelParams(1.0, 10.0, 0.01)

# one kernel per decay_factor branch
BRANCHES = {
    "oscillatory": KernelParams(1.3, 13.0, 0.013),
    "overdamped": KernelParams(0.7, 0.7, 0.7),
    "critical": KernelParams(1.1, 0.55, 0.0),
    "near_critical": KernelParams(0.9, 0.45 * (1 - 1e-8), 0.0),
}

# the four decay_factor branches as kernel shapes in units of a
PAPER_KERNELS = {
    "oscillatory": lambda a: KernelParams(a, 10 * a, a / 100),
    "overdamped": lambda a: KernelParams(a, a, a),
    "critical": lambda a: KernelParams(a, a / 2, 0.0),
    "near_critical": lambda a: KernelParams(a, (a / 2) * (1 - 1e-8), 0.0),
}

AXIS_PAIRS = list(itertools.product(AXES, AXES))


@st.composite
def _branch_kernels(draw):
    """(branch, kernel) on one of decay_factor's four branches, a in
    [1e-3, 1e3]; A and gamma in units of a keep the branch's sign of
    omega0^2."""
    a = 10.0 ** draw(st.floats(-3.0, 3.0))
    branch = draw(st.sampled_from(sorted(PAPER_KERNELS)))
    if branch == "oscillatory":
        A, gamma = draw(st.floats(2.5, 50.0)), draw(st.floats(0.0, 1.0))
    elif branch == "overdamped":
        A, gamma = draw(st.floats(0.01, 0.4)), draw(st.floats(0.0, 3.0))
    elif branch == "critical":
        A, gamma = 0.5, 0.0
    else:
        A, gamma = 0.5 * (1 - 10.0 ** draw(st.floats(-9.0, -7.0))), 0.0
    return branch, KernelParams(a, a * A, a * gamma)


def physical_triple(weights) -> tuple:
    """The triple of the Bell spectrum proportional to weights + 1e-3."""
    lam = np.array(weights) + 1e-3
    lam /= lam.sum()
    return (2 * (lam[0] + lam[1]) - 1, 2 * (lam[0] + lam[2]) - 1,
            2 * (lam[1] + lam[2]) - 1)


T_C = 0.9477102861581741  # -ln(1 - sqrt(0.375)), independently verified
T_CROSS_WIDE = 0.21563509959783556  # first |p| = 0.625 crossing, wide kernel
T_CROSS_WIDE_SMALL = 0.3917278228382476  # first |p| = 0.0625 crossing


class TestFamilies:
    def test_synchronized(self):
        c = make_family_state(InitialFamily("synchronized", (0.6,)))
        assert c == pytest.approx((0.6, 0.36, -0.6))

    def test_synchronized_other_branch(self):
        c = make_family_state(InitialFamily("synchronized", (0.6,), sign=-1))
        assert c == pytest.approx((0.6, -0.36, 0.6))

    def test_proportional(self):
        c = make_family_state(InitialFamily("proportional", (0.6,)))
        assert c == pytest.approx((0.6, 0.6, -1.0))

    def test_proportional_other_branch(self):
        c = make_family_state(InitialFamily("proportional", (0.6,), sign=-1))
        assert c == pytest.approx((0.6, -0.6, 1.0))

    def test_sudden_change(self):
        c = make_family_state(InitialFamily("sudden_change", (0.1, 0.16)))
        assert c == pytest.approx((0.1, 0.16, 0.1))

    def test_sudden_change_other_branch(self):
        c = make_family_state(InitialFamily("sudden_change", (0.1, 0.16), sign=-1))
        assert c == pytest.approx((0.1, 0.16, -0.1))

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            make_family_state(InitialFamily("mystery", (0.5,)))

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            make_family_state(InitialFamily("synchronized", (0.5,), sign=2))

    def test_rejects_unphysical_parameters(self):
        with pytest.raises(InvalidStateError):
            make_family_state(InitialFamily("synchronized", (1.2,)))
        with pytest.raises(InvalidStateError):
            make_family_state(InitialFamily("sudden_change", (0.5, 0.2)))


class TestTrajectory:
    def test_initial_point_matches_direct_report(self):
        c0 = (0.1, 0.16, 0.1)
        grid = np.linspace(0, 1, 101)
        run = evolve(c0, EQUAL, grid)
        twin = evolve(c0, EQUAL, grid, markovian=True)
        assert run.t[0] == 0.0
        assert run.p[0] == 1.0
        for ledger in (run, twin):
            first = (ledger.I[0], ledger.C[0], ledger.D[0], ledger.lambda_max[0],
                     AXES[ledger.axis[0]])
            assert first == discord(c0)

    def test_synchronized_family_d_equals_c_everywhere(self):
        c0 = make_family_state(InitialFamily("synchronized", (0.6,)))
        run = evolve(c0, EQUAL, np.linspace(0, 10, 400))
        worst = float(np.max(np.abs(run.D - run.C)))
        assert worst <= 1e-9
        # mutual information follows the factorized closed form in p*cx
        for p, mutual in zip(run.p[:: 40], run.I[:: 40]):
            u = 0.6 * p
            closed = 2 * binary_information(u)
            assert mutual == pytest.approx(closed, abs=1e-9)

    def test_proportional_family_branch_decomposition(self):
        c0 = make_family_state(InitialFamily("proportional", (0.6,)))
        for kernel in (EQUAL, WIDE):
            span = 10.0 if kernel is EQUAL else 3.0
            run = evolve(c0, kernel, np.linspace(0, span, 400))
            for p, classical, disc in zip(run.p, run.C, run.D):
                assert classical == pytest.approx(binary_information(p), abs=1e-9)
                assert disc == pytest.approx(binary_information(0.6 * p), abs=1e-9)
                assert classical >= disc - 1e-12

    def test_sudden_change_family_branch_switch(self):
        c0 = (0.1, 0.16, 0.1)
        run = evolve(c0, EQUAL, np.linspace(0, 10, 500))
        for p, classical in zip(run.p, run.C):
            if abs(p) > 0.625:
                expected = binary_information(0.16 * p * p)
            else:
                expected = binary_information(0.1 * abs(p))
            assert classical == pytest.approx(expected, abs=1e-9)
        # both branch formulas agree at the crossing itself
        p_c = 0.625
        assert binary_information(0.16 * p_c * p_c) == pytest.approx(
            binary_information(0.1 * p_c), abs=1e-9
        )

    def test_memory_kernel_retains_more_than_markovian(self):
        c0 = (0.6, 0.36, -0.6)
        grid = np.linspace(0, 10, 300)
        run = evolve(c0, EQUAL, grid)
        twin = evolve(c0, EQUAL, grid, markovian=True)
        assert np.all(run.C >= twin.C - 1e-12)
        assert np.all(run.D >= twin.D - 1e-12)

    def test_custom_axis_pair(self):
        c0 = (0.3, 0.2, 0.3)
        run = evolve(c0, EQUAL, np.linspace(0, 1, 101), "z", "z")
        cx, _, cz = run.c[-1]
        p = run.p[-1]
        assert cz == pytest.approx(0.3)  # z component untouched by z channels
        assert cx == pytest.approx(0.3 * p * p)


class TestEvolve:
    @pytest.mark.parametrize("markovian", [False, True])
    @pytest.mark.parametrize("axis_a,axis_b", list(itertools.product(AXES, AXES)))
    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_rows_equal_the_scalar_path(self, branch, axis_a, axis_b, markovian):
        k = BRANCHES[branch]
        grid = np.linspace(0.0, 10.0 / k.a, 150)
        # the proportional family has zero Bell eigenvalues, whose printed
        # sign shows a one-ulp change in a multiplier
        for c0 in ((0.6, 0.6, -1.0), (0.31, -0.22, 0.27)):
            run = evolve(c0, k, grid, axis_a, axis_b, markovian=markovian)
            for i, t in enumerate(grid):
                if markovian:
                    p = markovian_decay_factor(k.a, float(t))
                else:
                    p = decay_factor(k, float(t))
                c = tuple(np.stack(correlation_multipliers(axis_a, axis_b, p), -1)
                          * c0)
                report = discord(c)
                assert run.t[i] == t and run.p[i] == p
                assert tuple(run.c[i]) == c
                assert tuple(run.spectrum[i]) == tuple(bell_eigenvalues(c))
                assert (run.I[i], run.C[i], run.D[i], run.lambda_max[i]) == report[:4]
                assert AXES[run.axis[i]] == report.axis

    def test_rejects_unphysical_initial_state(self):
        with pytest.raises(InvalidStateError):
            evolve((1.0, 1.0, 1.0), EQUAL, np.linspace(0, 1, 11))

    @settings(max_examples=300)
    @given(kernel_draw=_branch_kernels(), pair=st.sampled_from(AXIS_PAIRS),
           markovian=st.booleans(),
           weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    def test_invariants_on_every_pair(self, kernel_draw, pair, markovian, weights):
        # |p| <= 1, a physical evolved spectrum, finite I, C, D with
        # 0 <= D and C <= I, over a*t in [0, 20]
        branch, k = kernel_draw
        assert damping_regime(k)[0] == branch.replace("near_critical", "overdamped")
        c0 = physical_triple(weights)
        run = evolve(c0, k, np.linspace(0.0, 20.0 / k.a, 101), *pair,
                     markovian=markovian)
        assert np.all(np.abs(run.p) <= 1 + 1e-12)
        assert np.all(run.spectrum >= -1e-10)
        assert np.all(np.isfinite([run.I, run.C, run.D]))
        assert np.all(run.D >= -1e-12)
        assert np.all(run.C <= run.I + 1e-12)


class TestCharacteristicTime:
    def test_equal_kernel_value(self):
        t_c = characteristic_time((0.1, 0.16, 0.1), EQUAL)
        assert t_c == pytest.approx(T_C, abs=1e-8)

    def test_closed_form_helper(self):
        assert closed_form_characteristic_time(0.625) == pytest.approx(
            T_C, abs=1e-15
        )
        with pytest.raises(ValueError):
            closed_form_characteristic_time(1.5)

    def test_ratio_near_one_gives_small_time(self):
        t_c = characteristic_time((0.1, 0.1000001, 0.1), EQUAL)
        assert 0.0 < t_c < 0.01

    def test_no_switch_when_cy_does_not_dominate(self):
        assert characteristic_time((0.2, 0.1, -0.2), EQUAL) is None
        assert characteristic_time((0.0, 0.5, 0.0), EQUAL) is None

    def test_branch_switch_ratio(self):
        assert branch_switch_ratio((0.1, 0.16, -0.12)) == 0.12 / 0.16
        assert branch_switch_ratio((0.2, 0.1, -0.2)) is None
        assert branch_switch_ratio((0.0, -0.5, 0.0)) is None

    def test_tiny_off_axis_coefficient_switches(self):
        # a switch needs only max(|cx|, |cz|) > 0, however small
        assert branch_switch_ratio((1e-16, 0.5, 0.0)) == 2e-16
        t_c = characteristic_time((1e-16, 0.5, 0.0), EQUAL)
        assert t_c == pytest.approx(closed_form_characteristic_time(2e-16), rel=1e-9)

    def test_bit_phase_flip_on_a(self):
        # bit-phase flip on A, phase flip on B: c_x scales as p^2 and c_y, c_z
        # as p, so the switch needs |c_x| > max(|c_y|, |c_z|) > 0
        assert branch_switch_ratio((0.16, 0.1, 0.1), "y", "z") == 0.1 / 0.16
        t_c = characteristic_time((0.16, 0.1, 0.1), EQUAL, axis_a="y", axis_b="z")
        assert t_c == pytest.approx(0.94771029, abs=1e-8)
        assert t_c == characteristic_time((0.1, 0.16, 0.1), EQUAL)
        assert branch_switch_ratio((0.1, 0.16, 0.1), "y", "z") is None
        assert characteristic_time((0.1, 0.16, 0.1), EQUAL, axis_a="y", axis_b="z") is None

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="channel axis"):
            characteristic_time((0.1, 0.16, 0.1), EQUAL, axis_a="w")

    def test_markovian_mode(self):
        t_c = characteristic_time((0.1, 0.16, 0.1), EQUAL, markovian=True)
        assert t_c == pytest.approx(-np.log(0.625) / 2, abs=1e-12)

    def test_oscillatory_kernel(self):
        t_c = characteristic_time((0.1, 0.16, 0.1), WIDE)
        assert t_c == pytest.approx(T_CROSS_WIDE, abs=1e-9)

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e4, 1e16, 1e20])
    def test_a_t_c_does_not_depend_on_the_rate(self, a):
        t_c = characteristic_time((0.1, 0.16, 0.1), KernelParams(a, a, a))
        assert abs(a * t_c - T_C) <= 1e-9 * T_C

    @pytest.mark.parametrize("a", [1.0, 1e16])
    def test_closed_form_check_is_relative(self, monkeypatch, a):
        # a root 1e-7 relative off fails the cross-check at every rate,
        # also where t_c itself is ~1e-16
        solve = scenarios.solve_decay_time
        monkeypatch.setattr(scenarios, "solve_decay_time",
                            lambda k, target, markovian=False:
                            solve(k, target, markovian) * (1 + 1e-7))
        with pytest.raises(AccuracyError, match="disagrees with closed form"):
            characteristic_time((0.1, 0.16, 0.1), KernelParams(a, a, a))
        with pytest.raises(AccuracyError, match="disagrees with closed form"):
            characteristic_time_curve(0.1, np.linspace(0.105, 1.0, 180),
                                      KernelParams(a, a, a))


# phase flip on both qubits: the frozen-discord state of Mazzola, Piilo &
# Maniscalco, PRL 104, 200401 (2010). c_x and c_y scale as p^2 and c_z stays,
# so the switch level is |p| = sqrt(0.6)
FROZEN = (1.0, -0.6, 0.6)


class TestFrozenDiscord:
    def test_switch_level_is_a_square_root(self):
        assert branch_switch_ratio(FROZEN, "z", "z") == np.sqrt(0.6)
        assert branch_switch_ratio((0.5, 0.2, 0.6), "z", "z") is None

    def test_characteristic_time(self):
        t_c = characteristic_time(FROZEN, EQUAL, axis_a="z", axis_b="z")
        assert t_c == solve_decay_time(EQUAL, np.sqrt(0.6))
        assert t_c == pytest.approx(0.6439126, abs=1e-7)

    def test_markovian_characteristic_time(self):
        t_c = characteristic_time(FROZEN, EQUAL, markovian=True, axis_a="z", axis_b="z")
        assert t_c == pytest.approx(-np.log(0.6) / 4, rel=1e-15)  # 0.1277064

    @pytest.mark.parametrize("markovian", [False, True])
    def test_discord_frozen_then_classical_frozen(self, markovian):
        t_c = characteristic_time(FROZEN, EQUAL, markovian, "z", "z")
        run = evolve(FROZEN, EQUAL, np.linspace(0, 10, 2000), "z", "z",
                     markovian=markovian)
        before, after = run.t < t_c, run.t > t_c
        assert np.count_nonzero(before) > 20 and np.count_nonzero(after) > 20
        assert np.max(np.abs(run.D[before] - run.D[0])) <= 1e-15
        assert np.all(run.C[after] == run.C[after][0])
        assert np.all(np.diff(run.C[before]) < 0)  # C decays until t_c


def contains(bracket, t) -> bool:
    return bool(bracket[0] <= t <= bracket[1])


def crossing_count(k: KernelParams, r: float) -> int:
    """Crossings of |p| = r by an oscillatory p: one before its first zero,
    then two around each extremum |p(k pi/omega)| = exp(-b k pi/omega) > r."""
    b, w = (2 * k.a + k.gamma) / 2, np.sqrt(damping_regime(k)[1])
    extrema = np.exp(-b * np.arange(1, 100) * np.pi / w)
    return 1 + 2 * int(np.count_nonzero(extrema > r))


class TestDetectKink:
    """The kink in C(t), the sudden change, read off an evolve run as the
    switch brackets of its dominant axis: each case asserts that its root
    lies in a bracket, which holds on any grid."""

    def test_sudden_change_trajectory(self):
        run = evolve((0.1, 0.16, 0.1), EQUAL, np.linspace(0, 10, 2000))
        (bracket,) = switch_brackets(run)
        assert contains(bracket, T_C)

    def test_smooth_families_give_none(self):
        grid = np.linspace(0, 10, 2000)
        sync = evolve((0.6, 0.36, -0.6), EQUAL, grid)
        assert switch_brackets(sync).shape == (0, 2)
        prop = evolve((0.6, 0.6, -1.0), EQUAL, grid)
        assert switch_brackets(prop).shape == (0, 2)

    def test_oscillatory_kernel_returns_first_of_many(self):
        grid = np.linspace(0, 3, 8000)
        run = evolve((0.05, 0.8, 0.05), WIDE, grid)
        crossing = solve_decay_time(WIDE, 0.05 / 0.8)
        assert crossing == pytest.approx(T_CROSS_WIDE_SMALL, abs=1e-9)
        assert contains(switch_brackets(run)[0], crossing)

    def test_oscillatory_sudden_change_state(self):
        grid = np.linspace(0, 3, 2000)
        run = evolve((0.1, 0.16, 0.1), WIDE, grid)
        assert contains(switch_brackets(run)[0], T_CROSS_WIDE)

    def test_short_trajectory_brackets_the_switch(self):
        run = evolve((0.1, 0.16, 0.1), EQUAL, np.linspace(0, 10, 50))
        (bracket,) = switch_brackets(run)
        assert bracket == pytest.approx([40 / 49, 50 / 49])  # [0.816, 1.020]
        assert contains(bracket, T_C)

    @pytest.mark.parametrize("cz", [0.1, -0.1])
    @pytest.mark.parametrize("shape", sorted(PAPER_KERNELS))
    def test_matches_characteristic_time_on_every_branch(self, shape, cz):
        a = 1.3
        k = PAPER_KERNELS[shape](a)
        c0 = (0.1, 0.16, cz)
        run = evolve(c0, k, np.linspace(0.0, 10.0 / a, 2000))
        assert contains(switch_brackets(run)[0], characteristic_time(c0, k))

    @pytest.mark.parametrize("c0, count", [((0.1, 0.5, 0.1), 5), ((0.1, 0.3, 0.1), 3)])
    def test_every_crossing_is_bracketed(self, c0, count):
        # the default grid, where a second-difference spike detector found
        # the third (0.1, 0.5, 0.1) and the second (0.1, 0.3, 0.1) switch
        run = evolve(c0, WIDE, np.linspace(0, 10, 2000))
        brackets = switch_brackets(run)
        r = branch_switch_ratio(c0)
        assert len(brackets) == crossing_count(WIDE, r) == count
        assert contains(brackets[0], characteristic_time(c0, WIDE))
        ends = np.abs(decay_factor(WIDE, brackets)) - r
        assert np.all(ends[:, 0] * ends[:, 1] <= 0)  # |p| crosses r in each

    def test_axis_tie_within_a_group_is_no_switch(self):
        # |c_x| and |c_z| scale alike, so the argmax flips on their 1-ulp tie
        run = evolve((0.3, 0.1, 0.30000000000000004), EQUAL, np.linspace(0, 10, 2000))
        assert np.any(np.diff(run.axis))
        assert switch_brackets(run).shape == (0, 2)

    def test_underflowed_rows_are_no_switch(self):
        # p^2 underflows near a*t = 186: c_y = 0 and the argmax falls back to x
        run = evolve((0.0, 0.5, 0.0), EQUAL, np.linspace(0, 400, 2000), markovian=True)
        assert np.any(np.diff(run.axis)) and run.lambda_max[-1] == 0.0
        assert switch_brackets(run).shape == (0, 2)

    @pytest.mark.parametrize("markovian", [True, False])
    def test_equal_axis_pair(self, markovian):
        # phase flip on both qubits: exponent groups {2, 2, 0}, and the
        # frozen-discord state of Mazzola, Piilo & Maniscalco, PRL 104,
        # 200401 (2010), which switches at |p| = sqrt(0.6)
        run = evolve((1.0, -0.6, 0.6), EQUAL, np.linspace(0, 10, 2000), "z", "z",
                     markovian=markovian)
        root = -np.log(0.6) / 4 if markovian else solve_decay_time(EQUAL, np.sqrt(0.6))
        (bracket,) = switch_brackets(run, "z", "z")
        assert contains(bracket, root)

    @pytest.mark.parametrize("markovian", [False, True])
    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    @pytest.mark.parametrize("pair", AXIS_PAIRS, ids="".join)
    def test_root_lies_in_the_first_bracket_on_every_pair(self, pair, branch,
                                                          markovian):
        # 40 random physical states: the root of branch_switch_ratio's level
        # on a grid to 3 t_c, which holds no grid point at it; no switch
        # level, no bracket
        k = BRANCHES[branch]
        rng = np.random.default_rng(
            [AXIS_PAIRS.index(pair), sorted(BRANCHES).index(branch), markovian])
        for lam in rng.dirichlet(np.ones(4), size=40):
            c0 = (2 * (lam[0] + lam[1]) - 1, 2 * (lam[0] + lam[2]) - 1,
                  2 * (lam[1] + lam[2]) - 1)
            t_c = characteristic_time(c0, k, markovian, *pair)
            grid = np.linspace(0.0, 20.0 / k.a if t_c is None else 3 * t_c, 2000)
            brackets = switch_brackets(evolve(c0, k, grid, *pair, markovian=markovian),
                                       *pair)
            if t_c is None:
                assert brackets.shape == (0, 2), c0
            else:
                assert len(brackets) and contains(brackets[0], t_c), c0

    def test_tie_between_groups_is_no_switch(self):
        # |c_y| = |c_z| at t = 0: the ledger's argmax picks y, but c_z
        # dominates at every t > 0, and branch_switch_ratio has no level
        run = evolve((0.1, 0.3, 0.3), EQUAL, np.linspace(0, 10, 2000))
        assert run.axis[0] == 1 and branch_switch_ratio((0.1, 0.3, 0.3)) is None
        assert switch_brackets(run).shape == (0, 2)

    def test_unknown_axis_rejected(self):
        run = evolve((0.1, 0.16, 0.1), EQUAL, np.linspace(0, 10, 50))
        with pytest.raises(ValueError, match="channel axis"):
            switch_brackets(run, "w", "z")


def panel_table(monkeypatch, figure, panel, a=1.0):
    """(columns, rows) that `figure` writes for a panel, before the %.9g
    writer rounds them."""
    seen = {}
    table_text = cli._table_text

    def capture(cfg, command, columns, rows, extra=None):
        seen.update(columns=tuple(columns), rows=np.asarray(rows))
        return table_text(cfg, command, columns, rows, extra)

    monkeypatch.setattr(cli, "_table_text", capture)
    assert cli.main(["figure", str(figure), panel, "--a", repr(a)]) == 0
    return seen["columns"], seen["rows"]


# The figure panels are presets of the CLI: a and b tabulate a trajectory, 3c
# the characteristic_time_curve of the cx = 0.1 states
class TestFigureData:
    def test_panel_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["figure", "4", "a"])
        assert exc.value.code == 2
        assert cli.main(["figure", "1", "c"]) == 2
        assert "figure 1 has panels ('a', 'b'), got 'c'" in capsys.readouterr().err

    def test_figure1a_single_curve(self, monkeypatch):
        columns, rows = panel_table(monkeypatch, 1, "a")
        assert columns == ("a_t", "p", "I", "C", "D", "C_markov", "D_markov")
        assert np.max(np.abs(rows[:, 3] - rows[:, 4])) <= 1e-9

    def test_figure2b_oscillates_to_zero_together(self, monkeypatch):
        _, rows = panel_table(monkeypatch, 2, "b")
        p_col = rows[:, 1]
        assert int(np.sum(np.diff(np.sign(p_col)) != 0)) >= 3
        # C and D vanish together where p crosses zero
        near_zero = np.abs(p_col) < 2e-3
        assert np.any(near_zero)
        assert np.max(rows[near_zero, 3]) < 1e-5
        assert np.max(rows[near_zero, 4]) < 1e-5

    def test_figure3a_rows_start_at_initial_report(self, monkeypatch):
        _, rows = panel_table(monkeypatch, 3, "a")
        report = discord((0.1, 0.16, 0.1))
        np.testing.assert_allclose(
            rows[0], (0, 1, report.I, report.C, report.D, report.C, report.D),
            atol=1e-12,
        )

    def test_figure3c_curve(self, monkeypatch):
        columns, rows = panel_table(monkeypatch, 3, "c")
        assert columns == ("c_y", "a_t_c")
        cy, tc = rows[:, 0], rows[:, 1]
        idx = int(np.argmin(np.abs(cy - 0.16)))
        assert cy[idx] == pytest.approx(0.16, abs=1e-12)
        assert tc[idx] == pytest.approx(T_C, abs=1e-8)
        # the closed form makes t_c increase with c_y at fixed c_x
        assert np.all(np.diff(tc) > 0)

    def test_figure3c_equals_characteristic_time(self, monkeypatch):
        a = 2.5
        _, rows = panel_table(monkeypatch, 3, "c", a=a)
        k = KernelParams(a, a, a)
        expected = [a * characteristic_time((0.1, cy, -0.1), k)
                    for cy in rows[:, 0].tolist()]
        assert rows[:, 1].tolist() == expected

    def test_figure3c_decay_factor_calls(self, monkeypatch):
        # one lockstep root solve: the bracketing ladder, then one call per
        # bisection step (a loop over characteristic_time made 6 625)
        calls = []
        decay = kernel.decay_factor

        def counted(k, t):
            calls.append(np.size(t))
            return decay(k, t)

        monkeypatch.setattr(kernel, "decay_factor", counted)
        assert cli.main(["figure", "3", "c"]) == 0
        assert len(calls) <= 64

    def test_markov_columns_match_at_start(self, monkeypatch):
        for figure, panel in ((1, "a"), (2, "a"), (3, "b")):
            _, rows = panel_table(monkeypatch, figure, panel)
            assert rows[0, 3] == pytest.approx(rows[0, 5], abs=1e-12)
            assert rows[0, 4] == pytest.approx(rows[0, 6], abs=1e-12)
