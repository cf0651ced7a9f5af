"""Output checks, run outside the timed region.

Each check compares what belldyn wrote or returned with `reference`, which
is derived from the model rather than from belldyn's code. A check returns
the list of problems it found; an empty list is a pass. Tolerances allow
for the CLI's %.9g printing (half a unit in the ninth significant digit,
at most 5e-9 relative) and nothing more.
"""

from __future__ import annotations

import json

import numpy as np

import reference as ref

PRINT_RTOL = 1e-8  # %.9g rounds to at most 5e-9 relative
PRINT_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
DISCORD_FLOOR = -1e-12
BRUTEFORCE_TOL = 1e-5
RED_IDENTITY_TOL = 1e-8
JSON_ATOL = 1e-12  # correlations JSON carries full-precision floats
# the crossing of |p| through its target must lie within this share of the
# returned time; the solver bisects in t to 1e-10 relative
ROOT_RTOL = 1e-9
CLOSED_FORM_RTOL = 1e-8

# the paper's panels: initial state, kernel (A/a, gamma/a) and span in a*t
PANEL_STATES = {1: ("synchronized", (0.6,), 1), 2: ("proportional", (0.6,), 1),
                3: ("sudden_change", (0.1, 0.16), 1)}
PANEL_KERNELS = {"a": (1.0, 1.0, 10.0), "b": (10.0, 0.01, 3.0)}
PANEL_3C_CX = 0.1


def _far(out, want, rtol=PRINT_RTOL, atol=PRINT_ATOL) -> float:
    """Largest excess of |out - want| over its tolerance (<= 0 when close)."""
    out, want = np.asarray(out, float), np.asarray(want, float)
    if out.shape != want.shape:
        return np.inf
    return float(np.max(np.abs(out - want) - (atol + rtol * np.abs(want)), initial=-1))


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        comment = fh.readline()
        columns = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not comment.startswith("# belldyn "):
        raise ValueError("missing '# belldyn' parameter line")
    return columns, rows


def _compare(problems: list, label: str, out, want, **tol) -> None:
    excess = _far(out, want, **tol)
    if excess > 0:
        problems.append(f"{label} off by {excess:.3g} beyond tolerance")


def _ledger_checks(problems, info, classical, disc, c_want) -> None:
    i_want, c_ref, d_want = ref.ledger(c_want)
    _compare(problems, "I", info, i_want)
    _compare(problems, "C", classical, c_ref)
    _compare(problems, "D", disc, d_want)
    if np.min(disc, initial=0.0) < DISCORD_FLOOR:
        problems.append(f"D < 0 (min {np.min(disc):.3g})")
    if np.any(classical > info * (1 + PRINT_RTOL) + PRINT_ATOL):
        problems.append("C > I")


def _initial_state(op: dict) -> np.ndarray:
    state = op["state"]
    if "c" in state:
        return np.array(state["c"])
    return np.array(ref.family_state(state["family"], state["params"], state["sign"]))


def check_evolution(op: dict, path: str) -> tuple[list[str], int]:
    """trajectory / evolve: c(t) = c0 * multipliers(p(t)), physical, I >= C, D >= 0."""
    columns, rows = read_csv(path)
    col = {name: i for i, name in enumerate(columns)}
    k = op["kernel"]
    a = k["a"]
    problems: list[str] = []
    t = np.linspace(0.0, 10.0 / a, 2000)  # default grid: a*t in [0, 10]
    if rows.shape[0] != t.size:
        return [f"{rows.shape[0]} rows, expected {t.size}"], rows.shape[0]
    _compare(problems, "a_t", rows[:, col["a_t"]], a * t)
    if op["markovian"]:
        p = ref.markovian_decay(a, t)
    else:
        p = ref.decay(a, k["A"], k["gamma"], t)
    _compare(problems, "p", rows[:, col["p"]], p)
    axes = (ref.CHANNEL_AXES[op["channel_a"]], ref.CHANNEL_AXES[op["channel_b"]])
    c0 = _initial_state(op)
    c_want = c0 * ref.multipliers(*axes, p)
    c_out = rows[:, [col["c_x"], col["c_y"], col["c_z"]]]
    _compare(problems, "c(t)", c_out, c_want)
    if op["kind"] == "evolve":
        lam = rows[:, [col[f"lambda_{s}"] for s in
                       ("psi_plus", "phi_plus", "phi_minus", "psi_minus")]]
        _compare(problems, "Bell spectrum", lam, ref.bell_spectrum(c_want))
        floor = EIGENVALUE_FLOOR
    else:
        # spectrum of the printed c: allow for the rounding of its three digits
        lam = ref.bell_spectrum(c_out)
        floor = EIGENVALUE_FLOOR - 0.25 * PRINT_RTOL * np.sum(
            np.abs(c_out), axis=1, keepdims=True)
        _ledger_checks(problems, rows[:, col["I"]], rows[:, col["C"]],
                       rows[:, col["D"]], c_want)
        c_markov = c0 * ref.multipliers(*axes, ref.markovian_decay(a, t))
        _, c_m, d_m = ref.ledger(c_markov)
        _compare(problems, "C_markov", rows[:, col["C_markov"]], c_m)
        _compare(problems, "D_markov", rows[:, col["D_markov"]], d_m)
    if np.any(lam < floor):
        problems.append(f"negative Bell eigenvalue {np.min(lam):.3g}")
    return problems, rows.shape[0]


def check_figure(op: dict, path: str) -> tuple[list[str], int]:
    columns, rows = read_csv(path)
    col = {name: i for i, name in enumerate(columns)}
    problems: list[str] = []
    if rows.shape[0] < 2:
        return ["fewer than two rows"], rows.shape[0]
    if op["figure"] == 3 and op["panel"] == "c":
        # cz = -cx, A = a = gamma = 1: t_c solves |p| = cx / c_y
        for cy, a_tc in rows[:, [col["c_y"], col["a_t_c"]]]:
            closed = ref.closed_form_tc(PANEL_3C_CX / cy, 1.0)
            if abs(a_tc - closed) > CLOSED_FORM_RTOL * max(1.0, closed):
                problems.append(f"c_y={cy:g}: a*t_c {a_tc!r} vs closed form {closed!r}")
        return problems, rows.shape[0]
    amp, width, span = PANEL_KERNELS[op["panel"]]
    t = np.linspace(0.0, span, rows.shape[0])  # a = 1
    _compare(problems, "a_t", rows[:, col["a_t"]], t)
    p = ref.decay(1.0, amp, width, t)
    _compare(problems, "p", rows[:, col["p"]], p)
    c0 = np.array(ref.family_state(*PANEL_STATES[op["figure"]]))
    c_want = c0 * ref.multipliers("x", "z", p)
    _ledger_checks(problems, rows[:, col["I"]], rows[:, col["C"]], rows[:, col["D"]],
                   c_want)
    c_markov = c0 * ref.multipliers("x", "z", ref.markovian_decay(1.0, t))
    _, c_m, d_m = ref.ledger(c_markov)
    _compare(problems, "C_markov", rows[:, col["C_markov"]], c_m)
    _compare(problems, "D_markov", rows[:, col["D_markov"]], d_m)
    return problems, rows.shape[0]


def check_verify(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        last = fh.read().strip().splitlines()[-1]
    return [] if last.startswith("verify: PASS") else [f"verify reported {last!r}"]


def check_correlations(op: dict, path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        got = json.load(fh)
    c = np.array(op["c"])
    info, classical, disc = ref.ledger(c)
    problems: list[str] = []
    for key, want in (("I", info), ("C", classical), ("D", disc),
                      ("lambda_max", np.max(np.abs(c)))):
        if abs(got[key] - want) > JSON_ATOL:
            problems.append(f"{key} {got[key]!r} vs reference {float(want)!r}")
    if got["C_bruteforce_deviation"] > BRUTEFORCE_TOL:
        problems.append(f"C_bruteforce_deviation {got['C_bruteforce_deviation']:.3g}")
    if abs(got["C_bruteforce"] - classical) > BRUTEFORCE_TOL:
        problems.append(f"C_bruteforce {got['C_bruteforce']!r} vs reference C")
    if abs(got["relative_entropy_discord"] - got["D"]) > RED_IDENTITY_TOL:
        problems.append("relative-entropy discord differs from D")
    return problems


def _root_problem(p, t: float, target: float) -> list[str]:
    """|p| - target must fall through 0 between t(1 - ROOT_RTOL) and t(1 + ROOT_RTOL).

    The bracket is in t, where the solver's tolerance lies: where |p| falls
    steeply through a small target, a root within 1e-10 relative in t can
    miss the target by more than 1e-9 relative in p."""
    above = abs(float(p(t * (1 - ROOT_RTOL)))) - target
    below = abs(float(p(t * (1 + ROOT_RTOL)))) - target
    if above > 0 >= below:
        return []
    return [f"|p| does not cross target {target!r} within {ROOT_RTOL:g} relative of "
            f"t = {t!r} (|p| - target = {above:.3g} before, {below:.3g} after)"]


def check_root(op: dict, value) -> list[str]:
    k = op["kernel"]
    a = k["a"]

    def decay(t):
        return ref.decay(a, k["A"], k["gamma"], t)

    if op["kind"] == "solve_decay_time":
        return _root_problem(decay, value, op["target"])
    c = np.abs(op["c"])
    side = max(c[0], c[2])
    if side < 1e-15 or c[1] <= side:
        return [] if value is None else [f"switch at {value!r} though |c_y| does not dominate"]
    if value is None:
        return ["no switch though |c_y| dominates"]
    ratio = float(side / c[1])
    if op["markovian"]:
        return _root_problem(lambda t: ref.markovian_decay(a, t), value, ratio)
    problems = _root_problem(decay, value, ratio)
    if k["branch"] == "overdamped":  # A = a = gamma has a closed form
        closed = ref.closed_form_tc(ratio, a)
        if abs(value - closed) > CLOSED_FORM_RTOL * max(1.0, closed):
            problems.append(f"t_c {value!r} vs closed form {closed!r}")
    return problems
