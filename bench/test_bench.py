"""Tests of the benchmark itself: tracer, input generator, checks, contract.

    python -m pytest bench -q

Kept out of the package's test suite (pyproject's testpaths is `tests`).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import run

run.import_belldyn()

import checks  # noqa: E402
import workloads  # noqa: E402
from belldyn import kernel  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNT_UNITS = ("count", "calls/point", "evals/root")


def decay_branch(k: dict) -> str:
    """Which closed-form branch belldyn's decay_factor takes for this kernel."""
    params = kernel.KernelParams(k["a"], k["A"], k["gamma"])
    tag, w2 = kernel.damping_regime(params)
    if tag == "overdamped" and np.sqrt(-w2) < 1e-3 * (params.a + params.gamma / 2):
        return "near_critical"
    return tag


@settings(max_examples=25, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_inputs_cover_every_branch_and_channel_pair(seed):
    figures = workloads.generate("figures", seed)
    for command in ("trajectory", "evolve"):
        ops = [op for op in figures if op["kind"] == command]
        assert {decay_branch(op["kernel"]) for op in ops} == set(workloads.BRANCHES)
        assert {decay_branch(op["kernel"]) == op["kernel"]["branch"] for op in ops} == {True}
        assert {(op["channel_a"], op["channel_b"]) for op in ops} == set(
            workloads.CHANNEL_PAIRS)
        kinds = {(op["state"].get("family", "random"), op["state"].get("sign", 1))
                 for op in ops}
        assert kinds == set(workloads.STATE_KINDS)
    seeded = [op for op in figures if op["kind"] != "figure"]
    assert {(op["channel_a"], op["channel_b"], op["markovian"]) for op in seeded} == {
        (a, b, m) for a, b in workloads.CHANNEL_PAIRS for m in (False, True)}
    assert {(op["figure"], op["panel"]) for op in figures
            if op["kind"] == "figure"} == set(workloads.PANELS)
    # trajectory --markovian hits ROADMAP bug 1: it is probed, not in the workload
    assert not any(op["markovian"] for op in figures if op["kind"] == "trajectory")
    (probe,) = workloads.defect_probes("figures", seed)
    assert probe["kind"] == "trajectory" and probe["markovian"]

    tc = workloads.generate("tc-sweep", seed)
    for kind in ("solve_decay_time", "characteristic_time"):
        assert {decay_branch(op["kernel"]) for op in tc if op["kind"] == kind} == set(
            workloads.BRANCHES)
    roots = [op for op in tc if op["kind"] == "characteristic_time"]
    dominant = {bool(abs(op["c"][1]) > max(abs(op["c"][0]), abs(op["c"][2])))
                for op in roots}
    assert dominant == {True, False}
    assert {op["markovian"] for op in roots} == {True, False}
    assert all(0 < op["target"] < 1 for op in tc if op["kind"] == "solve_decay_time")


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        a, b = workloads.generate(workload, 7), workloads.generate(workload, 7)
        assert a == b and workloads.digest(a) == workloads.digest(b)
        assert workloads.digest(workloads.generate(workload, 8)) != workloads.digest(a)


def _traced_pass(ops, workdir):
    result = run.run_pass(workloads, ops, workdir, traced=True)
    run.check_pass(checks, ops, result)
    return result


def test_self_times_sum_to_root_span(tmp_path):
    op = next(op for op in workloads.generate("figures", 3) if op["kind"] == "trajectory")
    summary = _traced_pass([op], str(tmp_path)).summary
    roots = [key for key in summary.paths if len(key) == 1]
    assert roots == [("cli.main",)]
    root = summary.root_total_s()
    assert summary.self_total_s() == pytest.approx(root, rel=1e-9)
    layers = sum(summary.layer_self_s(layer) for layer in
                 ("cli", "scenarios", "correlations", "kernel", "channels", "states"))
    assert layers == pytest.approx(root, rel=1e-9)
    assert summary.self_s("cli.main") == pytest.approx(summary.layer_self_s("cli"))


def test_exact_counts_repeat_for_the_same_seed(tmp_path):
    figures = workloads.generate("figures", 11)
    ops = [op for op in figures if op["kind"] == "figure" and op["panel"] == "c"]
    ops += [next(op for op in figures if op["kind"] == kind)
            for kind in ("trajectory", "evolve")]
    ops += workloads.generate("tc-sweep", 11)[:60]

    def counts():
        plain = run.run_pass(workloads, ops, str(tmp_path))
        run.check_pass(checks, ops, plain)
        traced = _traced_pass(ops, str(tmp_path))
        metrics, _ = run.per_layer([plain, traced], run.timed_ops(ops), ([0.0], [0.0]))
        return {k: v for k, v in metrics.items() if run.PER_LAYER[k] in COUNT_UNITS}

    first, second = counts(), counts()
    assert first == second
    assert first["kernel.solve_decay_time.calls"] > 0
    assert first["states.require_physical.calls_per_point"] > 0
    assert first["kernel.decay_evals_per_root"] > 0


def test_tracer_restores_the_package():
    from belldyn import cli, correlations, scenarios

    before = (cli.discord, scenarios.discord, correlations.discord)
    with Tracer():
        assert cli.discord is scenarios.discord is correlations.discord
        assert cli.discord is not before[0]
    assert (cli.discord, scenarios.discord, correlations.discord) == before


def test_root_check_brackets_the_crossing():
    k = {"branch": "oscillatory", "a": 1.0, "A": 10.0, "gamma": 0.01}
    op = {"kind": "solve_decay_time", "kernel": k, "target": 0.01}
    t = kernel.solve_decay_time(kernel.KernelParams(1.0, 10.0, 0.01), 0.01)
    assert checks.check_root(op, t) == []
    assert checks.check_root(op, t * (1 + 1e-8)) != []
    assert checks.check_root(op, t * (1 - 1e-8)) != []


def test_checks_reject_a_changed_digit(tmp_path):
    op = next(op for op in workloads.generate("figures", 5) if op["kind"] == "evolve")
    _, _, files = workloads.call(op, str(tmp_path), 0)
    assert checks.check_evolution(op, files[0])[0] == []
    lines = open(files[0], encoding="utf-8").read().splitlines()
    cells = lines[500].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-7))  # p, in the eighth digit
    lines[500] = ",".join(cells)
    with open(files[0], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    problems, _ = checks.check_evolution(op, files[0])
    assert any(problem.startswith("p ") for problem in problems)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
