"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from belldyn.channels import (
    LocalChannel,
    apply_local_channel,
    correlation_multipliers,
    scale_coefficients,
)
from belldyn.correlations import (
    classical_correlation_bruteforce,
    discord,
    dominant_axis,
    relative_entropy_discord,
)
from belldyn.kernel import (
    KernelParams,
    decay_factor,
    decay_factor_convolution,
    decay_factor_ode,
    solve_decay_time,
)
from belldyn.scenarios import (
    InitialFamily,
    closed_form_characteristic_time,
    detect_kink,
    evolve,
    make_family_state,
)
from belldyn.states import (
    bell_eigenvalues,
    bell_to_density,
    density_to_bell,
    random_bell_coefficients,
    validate_state,
)

A = 1.0
EQUAL = KernelParams(A, A, A)
WIDE = KernelParams(A, 10 * A, A / 100)
CRITICAL = KernelParams(A, A / 2, 0.0)
GRID = np.linspace(0.0, 10.0, 4001)  # h = 0.0025 <= both oracle preconditions


def bitflip_phaseflip(c0, p):
    """The paper's channel: bit flip on A, phase flip on B, one shared p."""
    return scale_coefficients(c0, correlation_multipliers("x", "z", p))


def report(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_1_kernel_oracle_equivalence():
    start = time.perf_counter()
    ode_dev = 0.0
    conv_dev = 0.0
    for k in (EQUAL, WIDE, CRITICAL):
        exact = decay_factor(k, GRID)
        ode_dev = max(ode_dev, float(np.max(np.abs(decay_factor_ode(k, GRID) - exact))))
        conv_dev = max(
            conv_dev,
            float(np.max(np.abs(decay_factor_convolution(k, GRID) - exact))),
        )
    elapsed = time.perf_counter() - start
    passed = ode_dev <= 1e-6 and conv_dev <= 1e-4 and elapsed < 1.0
    report(1, "kernel-oracle-equivalence", passed,
           f"ode {ode_dev:.2e} <= 1e-6, conv {conv_dev:.2e} <= 1e-4, {elapsed:.2f}s")
    assert ode_dev <= 1e-6
    assert conv_dev <= 1e-4
    assert elapsed < 1.0


def test_criterion_2_closed_form_identity():
    closed = 2 * np.exp(-A * GRID) - np.exp(-2 * A * GRID)
    dev = float(np.max(np.abs(decay_factor(EQUAL, GRID) - closed)))
    passed = dev <= 1e-12
    report(2, "partial-fraction-identity", passed, f"max dev {dev:.2e} <= 1e-12")
    assert dev <= 1e-12


def test_criterion_3_channel_path_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    min_eig = np.inf
    all_valid = True
    for _ in range(1000):
        c0 = random_bell_coefficients(rng)
        p = rng.uniform(-1, 1)
        rho = apply_local_channel(bell_to_density(c0), "A", LocalChannel("x", p))
        rho = apply_local_channel(rho, "B", LocalChannel("z", p))
        via_kraus, residual = density_to_bell(rho)
        direct = bitflip_phaseflip(c0, p)
        worst = max(worst, max(abs(u - v) for u, v in zip(via_kraus, direct)), residual)
        min_eig = min(min_eig, float(np.min(bell_eigenvalues(direct))))
        all_valid = all_valid and validate_state(bell_to_density(direct)).ok
    passed = worst <= 1e-12 and min_eig >= -1e-12 and all_valid
    report(3, "channel-path-equivalence", passed,
           f"max dev {worst:.2e} <= 1e-12, min eigenvalue {min_eig:.2e} >= -1e-12")
    assert worst <= 1e-12
    assert min_eig >= -1e-12
    assert all_valid


def test_criterion_4_discord_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    states = [random_bell_coefficients(rng) for _ in range(500)]
    brute = classical_correlation_bruteforce(
        np.stack([bell_to_density(c0) for c0 in states]))
    worst = max(abs(value - discord(c0).C)
                for value, c0 in zip(brute.value, states))
    min_discord = min(discord(c0).D for c0 in states)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-5 and min_discord >= -1e-12 and elapsed < 30.0
    report(4, "discord-oracle", passed,
           f"max dev {worst:.2e} <= 1e-5, min D {min_discord:.2e}, {elapsed:.1f}s < 30s")
    assert worst <= 1e-5
    assert min_discord >= -1e-12
    assert elapsed < 30.0


def test_criterion_5_family_identities():
    grid = np.linspace(0.0, 10.0, 2000)
    sync = evolve(make_family_state(InitialFamily("synchronized", (0.6,))),
                  EQUAL, grid)
    dev_dc = float(np.max(np.abs(sync.D - sync.C)))
    dev_half = float(np.max(np.abs(sync.D - sync.I / 2)))

    prop = evolve(make_family_state(InitialFamily("proportional", (0.6,))),
                  EQUAL, grid)

    def branch_term(u):
        total = 0.0
        for s in (1.0, -1.0):
            v = 1.0 + s * u
            if v > 1e-15:
                total += (v / 2) * np.log2(v)
        return total

    dev_branch = max(abs(c - branch_term(p)) for p, c in zip(prop.p, prop.C))
    ordering = bool(np.all(prop.C >= prop.D - 1e-12))
    passed = (dev_dc <= 1e-9 and dev_half <= 1e-9 and dev_branch <= 1e-9 and ordering)
    report(5, "family-identities", passed,
           f"|D-C| {dev_dc:.2e}, |D-I/2| {dev_half:.2e}, "
           f"|C-branch| {dev_branch:.2e} all <= 1e-9, C>=D {ordering}")
    assert dev_dc <= 1e-9
    assert dev_half <= 1e-9
    assert dev_branch <= 1e-9
    assert ordering


def test_criterion_6_sudden_change_time():
    from scipy.optimize import brentq  # independent scalar root finder

    ratio = 0.625  # |cx| / |cy| for (0.1, 0.16, 0.1)
    independent = brentq(
        lambda t: 2 * np.exp(-t) - np.exp(-2 * t) - ratio, 0.1, 5.0, xtol=1e-13
    )
    root = solve_decay_time(EQUAL, ratio)
    closed = closed_form_characteristic_time(ratio, A)

    grid = np.linspace(0.0, 10.0, 2000)
    run = evolve((0.1, 0.16, 0.1), EQUAL, grid)
    detected = detect_kink(run.t, run.C)
    step = grid[1] - grid[0]

    passed = (
        abs(independent - 0.9477) <= 1e-3
        and abs(root - independent) <= 1e-9
        and abs(root - closed) <= 1e-6
        and detected is not None
        and abs(detected - root) <= step
    )
    report(6, "sudden-change-time", passed,
           f"brentq {independent:.6f} ~ 0.9477, |root-closed| "
           f"{abs(root - closed):.2e} <= 1e-6, detector off by "
           f"{abs((detected or np.nan) - root):.4f} <= {step:.4f}")
    assert abs(independent - 0.9477) <= 1e-3
    assert abs(root - independent) <= 1e-9
    assert abs(root - closed) <= 1e-6
    assert detected is not None
    assert abs(detected - root) <= step


def test_criterion_7_relative_entropy_identity():
    rng = np.random.default_rng(107)
    worst = 0.0
    axis_ok = True
    for _ in range(500):
        c0 = random_bell_coefficients(rng)
        red = relative_entropy_discord(c0)
        rep = discord(c0)
        worst = max(worst, abs(red.value - rep.D))
        mags = sorted(abs(v) for v in c0)
        if mags[2] - mags[1] >= 1e-3:
            axis_ok = axis_ok and red.axis == dominant_axis(c0)[1]
    passed = worst <= 1e-8 and axis_ok
    report(7, "relative-entropy-identity", passed,
           f"max |RE - (I-C)| {worst:.2e} <= 1e-8, dominant-axis match {axis_ok}")
    assert worst <= 1e-8
    assert axis_ok


def test_criterion_8_non_markovian_retention():
    grid = np.linspace(0.0, 10.0, 2000)
    run = evolve((0.6, 0.36, -0.6), EQUAL, grid)
    twin = evolve((0.6, 0.36, -0.6), EQUAL, grid, markovian=True)
    worst_c = float(np.min(run.C - twin.C))
    worst_d = float(np.min(run.D - twin.D))
    passed = worst_c >= -1e-12 and worst_d >= -1e-12
    report(8, "non-markovian-retention", passed,
           f"min(C - C_markov) {worst_c:.2e}, min(D - D_markov) {worst_d:.2e}")
    assert worst_c >= -1e-12
    assert worst_d >= -1e-12


def test_criterion_9_post_sudden_change_ordering():
    t_c = solve_decay_time(EQUAL, 0.625)
    window = np.linspace(t_c + 1e-6, t_c + 0.2, 400)
    margin = np.inf
    for t in window:
        rep = discord(bitflip_phaseflip((0.1, 0.16, 0.1), decay_factor(EQUAL, t)))
        margin = min(margin, rep.D - rep.C)
    passed = margin > 0.0
    report(9, "post-sudden-change-ordering", passed,
           f"min(D - C) on (t_c, t_c + 0.2] = {margin:.2e} > 0")
    assert margin > 0.0


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "belldyn.cli", "figure", "3", "a",
             "--out", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    passed = outputs[0] == outputs[1]
    report(10, "determinism", passed,
           f"{len(outputs[0])} bytes, byte-identical {passed}")
    assert passed
