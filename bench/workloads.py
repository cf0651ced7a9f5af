"""Seeded inputs for the three workloads and the calls that run them.

A workload is a fixed list of operations generated from the seed (one pass);
the runner repeats the pass. Operations are plain JSON-able dicts so a pass
can be digested and compared across runs. Every call goes through a module
attribute (`cli.main`, `scenarios.characteristic_time`, ...) at call time,
so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

import numpy as np

from belldyn import cli, kernel, scenarios

WORKLOADS = ("figures", "oracles", "tc-sweep")
BRANCHES = ("oscillatory", "overdamped", "critical", "near_critical")
CHANNELS = ("bitflip", "bitphase", "phaseflip")
CHANNEL_PAIRS = tuple(itertools.product(CHANNELS, CHANNELS))
PANELS = ((1, "a"), (1, "b"), (2, "a"), (2, "b"), (3, "a"), (3, "b"), (3, "c"))
FAMILIES = ("synchronized", "proportional", "sudden_change")
STATE_KINDS = tuple(itertools.product(FAMILIES, (1, -1))) + (("random", 1),)

ORACLE_COMMANDS = 100  # correlations --oracle commands per oracles pass
TC_PER_BRANCH = {  # roots per kernel branch in one tc-sweep pass
    "solve": 60,           # solve_decay_time on a seeded target
    "dominant": 30,        # characteristic_time, |c_y| dominant
    "dominant_markov": 5,  # the same under the delta kernel
    "not_dominant": 5,     # no switch: must return None
}


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**64)


def make_kernel(rng: np.random.Generator, branch: str) -> dict:
    """Kernel in one decay_factor branch; only the rate a is random."""
    a = float(rng.uniform(0.5, 2.0))
    if branch == "oscillatory":
        A, gamma = 10 * a, a / 100
    elif branch == "overdamped":
        A, gamma = a, a
    elif branch == "critical":
        A, gamma = a / 2, 0.0
    elif branch == "near_critical":
        # omega0^2 = -eps a^2: outside the 1e-12 critical band, and omega
        # below 1e-3 b, so decay_factor takes its hyperbolic branch
        eps = float(10 ** rng.uniform(-9, -7))
        A, gamma = a / 2 * (1 - eps), 0.0
    else:
        raise ValueError(f"unknown branch {branch!r}")
    return {"branch": branch, "a": a, "A": A, "gamma": gamma}


def random_triple(rng: np.random.Generator) -> list[float]:
    """Uniform over the physical tetrahedron: c from a Dirichlet spectrum."""
    lam = rng.dirichlet(np.ones(4))
    return [float(2 * (lam[0] + lam[1]) - 1), float(2 * (lam[0] + lam[2]) - 1),
            float(2 * (lam[1] + lam[2]) - 1)]


def make_state(rng: np.random.Generator, family: str, sign: int) -> dict:
    if family == "random":
        return {"c": random_triple(rng)}
    if family == "synchronized":
        params = [float(rng.uniform(0.2, 0.9) * rng.choice((-1, 1)))]
    elif family == "proportional":
        params = [float(rng.uniform(-0.9, 0.9))]
    else:  # sudden_change (cx, cy, +-cx): physical for cy in [|cx|, 1 - 2|cx|]
        cx = float(rng.uniform(0.05, 0.25))
        params = [cx, float(rng.uniform(cx + 0.02, 1 - 2 * cx))]
    return {"family": family, "params": params, "sign": sign}


def _seeded_command(rng, command: str, branch: str, pair: int, kind: int,
                    markovian: bool) -> dict:
    channel_a, channel_b = CHANNEL_PAIRS[pair]
    family, sign = STATE_KINDS[kind]
    return {
        "kind": command,
        "kernel": make_kernel(rng, branch),
        "channel_a": channel_a,
        "channel_b": channel_b,
        "markovian": markovian,
        "state": make_state(rng, family, sign),
    }


def _figures(rng: np.random.Generator) -> list[dict]:
    """Panels, then `trajectory` on the 9 channel pairs and `evolve` on the 9
    pairs with and without --markovian. `trajectory --markovian` is left to
    `defect_probes`: it hits ROADMAP bug 1 and would fail every pass."""
    ops = [{"kind": "figure", "figure": f, "panel": p} for f, p in PANELS]
    seeded = []
    for command, modes in (("trajectory", (False,)), ("evolve", (False, True))):
        jobs = [(pair, m) for pair in range(len(CHANNEL_PAIRS)) for m in modes]
        branch0 = int(rng.integers(len(BRANCHES)))
        kinds = rng.permutation(len(STATE_KINDS))
        for j, i in enumerate(rng.permutation(len(jobs))):
            pair, markovian = jobs[i]
            seeded.append(_seeded_command(
                rng, command, BRANCHES[(branch0 + j) % len(BRANCHES)], pair,
                int(kinds[j % len(kinds)]), markovian))
    return ops + [seeded[i] for i in rng.permutation(len(seeded))]


# known defects of the program, reproduced by one operation each: a workload
# leaves these operations out, and the runner reports them apart from it
KNOWN_DEFECTS = {
    "figures": "ROADMAP bug 1: trajectory --markovian evolves under the memory kernel",
}


def defect_probes(workload: str, seed: int) -> list[dict]:
    """One seeded `trajectory --markovian` command for `figures`; none for the others."""
    if workload not in KNOWN_DEFECTS:
        return []
    rng = rng_for(seed + 1)
    return [_seeded_command(rng, "trajectory", BRANCHES[int(rng.integers(len(BRANCHES)))],
                            int(rng.integers(len(CHANNEL_PAIRS))),
                            int(rng.integers(len(STATE_KINDS))), True)]


def _oracles(rng: np.random.Generator) -> list[dict]:
    return [{"kind": "verify"}] + [
        {"kind": "correlations", "c": random_triple(rng)}
        for _ in range(ORACLE_COMMANDS)
    ]


def _triple_with_largest(rng: np.random.Generator, axis: int) -> list[float]:
    """Random physical triple whose largest |c_k| sits on `axis`.

    Permuting the components keeps the state physical: it permutes the four
    Bell eigenvalues."""
    c = random_triple(rng)
    top = int(np.argmax(np.abs(c)))
    c[top], c[axis] = c[axis], c[top]
    return c


def _tc_sweep(rng: np.random.Generator) -> list[dict]:
    ops = []
    for branch in BRANCHES:
        for _ in range(TC_PER_BRANCH["solve"]):
            ops.append({"kind": "solve_decay_time", "kernel": make_kernel(rng, branch),
                        "target": float(rng.uniform(1e-12, 1.0))})
        for role, count in TC_PER_BRANCH.items():
            if role == "solve":
                continue
            for _ in range(count):
                axis = 1 if role.startswith("dominant") else int(rng.choice((0, 2)))
                ops.append({
                    "kind": "characteristic_time",
                    "kernel": make_kernel(rng, branch),
                    "c": _triple_with_largest(rng, axis),
                    "markovian": role == "dominant_markov",
                })
    return [ops[i] for i in rng.permutation(len(ops))]


def generate(workload: str, seed: int) -> list[dict]:
    """The operations of one pass; the same seed gives the same list."""
    builders = {"figures": _figures, "oracles": _oracles, "tc-sweep": _tc_sweep}
    return builders[workload](rng_for(seed))


def digest(ops: list[dict]) -> str:
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _state_args(state: dict) -> list[str]:
    if "c" in state:
        return ["--c", ",".join(repr(v) for v in state["c"])]
    return ["--family", state["family"],
            "--family-param", ",".join(repr(v) for v in state["params"]),
            "--family-sign", str(state["sign"])]


def cli_argv(op: dict, out: str) -> list[str]:
    kind = op["kind"]
    if kind == "figure":
        return ["figure", str(op["figure"]), op["panel"], "--out", out]
    if kind == "verify":
        return ["verify", "--out", out]
    if kind == "correlations":
        return ["correlations", "--c", ",".join(repr(v) for v in op["c"]),
                "--oracle", "--format", "json", "--out", out]
    k = op["kernel"]
    argv = [kind, "--a", repr(k["a"]), "--A", repr(k["A"]), "--gamma", repr(k["gamma"]),
            "--channel-a", op["channel_a"], "--channel-b", op["channel_b"]]
    if op["markovian"]:
        argv.append("--markovian")
    return argv + _state_args(op["state"]) + ["--out", out]


def output_files(op: dict, out: str) -> list[str]:
    if op["kind"] == "figure":
        return [out, os.path.splitext(out)[0] + ".gp"]
    return [out]


def _kernel_params(k: dict):
    return kernel.KernelParams(k["a"], k["A"], k["gamma"])


def call(op: dict, workdir: str, index: int) -> tuple:
    """Run one operation; returns (rc, value, files). Raises what belldyn raises."""
    kind = op["kind"]
    if kind == "solve_decay_time":
        return None, kernel.solve_decay_time(_kernel_params(op["kernel"]), op["target"]), []
    if kind == "characteristic_time":
        value = scenarios.characteristic_time(
            op["c"], _kernel_params(op["kernel"]), markovian=op["markovian"])
        return None, value, []
    suffix = ".json" if kind == "correlations" else ".txt" if kind == "verify" else ".csv"
    out = os.path.join(workdir, f"op{index:04d}{suffix}")
    try:
        rc = cli.main(cli_argv(op, out))
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, None, output_files(op, out)
