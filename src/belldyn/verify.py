"""The oracle suite behind `belldyn verify`: seven rows (name, tol, run), each
`run` a check of a closed form against an independent oracle that returns its
max deviation. `draw_inputs` draws every random input once, so a check run
alone, or the rows in any order, see the inputs of a full run."""

from __future__ import annotations

from functools import partial

import numpy as np

from .channels import apply_local_channel, correlation_multipliers
from .correlations import (classical_correlation_bruteforce, correlation_ledger,
                           relative_entropy_discord)
from .kernel import (CONVOLUTION_MAX_STEP, KernelParams, decay_factor,
                     decay_factor_convolution, decay_factor_ode, solve_decay_time)
from .scenarios import closed_form_characteristic_time
from .states import (bell_eigenvalues, bell_to_density, density_to_bell,
                     random_bell_coefficients)

VERIFY_SEED = 20111

# the search's hard states: ties |c_x| = |c_y|, whose minima form a circle,
# optima on the grid's theta = 0 pole (Bell states, maximally mixed,
# proportional), and unit coefficients off the pole, whose optimal outcomes
# are pure; no draw
EDGE_STATES = np.array([
    (0.789, -0.789, 0.7296), (0.844, -0.844, 0.8016), (0.4, -0.4, 0.1),
    (-1.0, -1.0, -1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0), (-1.0, 1.0, 1.0),
    (0.0, 0.0, 0.0), (0.6, 0.6, -1.0), (0.1, 0.1, 0.5),
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.6, 1.0, -0.6)])


def draw_inputs() -> tuple:
    """(c0, p, bruteforce_states, relative_entropy_states) as drawn: 1 000 Kraus
    cases, a state then its p, then 500 brute-force and 500 relative-entropy states."""
    rng = np.random.default_rng(VERIFY_SEED)
    cases = [(random_bell_coefficients(rng), rng.uniform(-1, 1)) for _ in range(1000)]
    c0, p = map(np.array, zip(*cases))
    brute, red = ([random_bell_coefficients(rng) for _ in range(500)] for _ in range(2))
    return c0, p, np.array(brute), np.array(red)


# each check folds its deviations with np.max, which propagates a NaN so the
# check fails; Python's max(0.0, nan) returns 0.0
def decay_vs(oracle, kernels, grid) -> float:
    return float(np.max([np.abs(oracle(k, grid) - decay_factor(k, grid))
                         for _, k in kernels]))


def kraus_vs_coefficients(c0, p) -> float:
    rho = apply_local_channel(bell_to_density(c0), "A", "x", p)
    via_kraus, residual = density_to_bell(apply_local_channel(rho, "B", "z", p))
    direct = np.stack(correlation_multipliers("x", "z", p), -1) * c0
    min_eig = np.min(bell_eigenvalues(direct), axis=1)
    return float(np.max(np.concatenate([
        np.abs(via_kraus - direct).ravel(), residual,
        np.where(min_eig < -1e-12, -min_eig - 1e-12, 0.0)])))


def bruteforce_vs_analytic(states) -> float:
    brute = classical_correlation_bruteforce(bell_to_density(states))
    return float(np.max(np.abs(brute.value - correlation_ledger(states).C)))


def relative_entropy_identity(states) -> float:
    red, ledger = relative_entropy_discord(states), correlation_ledger(states)
    mags = np.sort(np.abs(states), axis=1)
    # an axis mismatch where the max is strict counts as a deviation of 1
    mismatch = (mags[:, 2] - mags[:, 1] >= 1e-3) & (red.axis != ledger.axis)
    return float(np.max(np.maximum(np.abs(red.value - ledger.D), mismatch)))


def tc_root_vs_closed(a: float) -> float:
    ratio = 0.625
    # in units of a*t, as characteristic_time reports it
    return abs(a * solve_decay_time(KernelParams(a, a, a), ratio)
               - a * closed_form_characteristic_time(ratio, a))


def checks(cfg) -> list:
    """The seven rows (name, tol, run) at the rate and grid of cfg, a cli.RunConfig.
    A bad rate, then a bad grid, then a step the convolution oracle cannot
    run raises ValueError, before anything is drawn."""
    a = cfg.a
    kernels = [  # one per decay_factor branch; KernelParams rejects a bad a
        ("A=a=gamma", KernelParams(a, a, a)),
        ("A=10a", KernelParams(a, 10 * a, a / 100)),
        ("critical", KernelParams(a, a / 2, 0.0)),
        # omega < 1e-3 b: decay_factor's near-critical hyperbolic branch
        ("near-critical", KernelParams(a, a / 2 * (1 - 1e-8), 0.0)),
    ]
    grid = cfg.time_grid()
    # a grid too coarse for the convolution oracle is a usage error (exit
    # 2), found before any check runs, not a defect found (exit 1)
    step = cfg.t_max / (cfg.t_steps - 1)
    if step > CONVOLUTION_MAX_STEP * (1 + 1e-9):
        raise ValueError(
            f"verify needs a grid step --t-max/(--t-steps - 1) of at most "
            f"{CONVOLUTION_MAX_STEP} (a time step of {CONVOLUTION_MAX_STEP}/a), "
            f"got {step:.3g}: raise --t-steps or lower --t-max")
    c0, p, brute, red = draw_inputs()
    return [
        ("decay-ode", 1e-6, partial(decay_vs, decay_factor_ode, kernels, grid)),
        ("decay-convolution", 1e-4,
         partial(decay_vs, decay_factor_convolution, kernels, grid)),
        ("kraus-vs-coefficients", 1e-12, partial(kraus_vs_coefficients, c0, p)),
        ("bruteforce-vs-analytic", 1e-5, partial(bruteforce_vs_analytic, brute)),
        ("bruteforce-edge-states", 1e-5, partial(bruteforce_vs_analytic, EDGE_STATES)),
        ("relative-entropy-identity", 1e-8, partial(relative_entropy_identity, red)),
        ("tc-root-vs-closed-form", 1e-8, partial(tc_root_vs_closed, a)),
    ]
