"""belldyn benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

    python3 bench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ./src, never from
an installed copy. One client in one thread issues each call after the
previous one returns (closed loop); BLAS/OpenMP are pinned to one thread.
A pass is the seeded list of operations; passes repeat while another one
fits in --seconds of measured time. Pass timings are medians over the passes,
latencies are percentiles over all operations, and set-up time is a median
over fresh interpreters. A fixed calibration loop runs between operations,
outside the timed region, and the gated timings (`ref_*`) are scaled by it to
a reference machine speed. Outputs are checked after each pass, outside the
timed region.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

# BLAS and OpenMP read these once, when numpy loads; child interpreters inherit them
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_run")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")

SETUP_RUNS = 15  # fresh interpreters per set-up measurement; the median is reported
CALIBRATE_EVERY_S = 0.1  # of operation time between two calibration loops
REF_CALIBRATION_S = 1e-3  # the calibration loop's time on the reference machine
MIN_TIMED_OPS = 100  # so that at least 10 latencies lie above the 90th percentile
SETUP_CODE = ("import time; t = time.perf_counter(); import belldyn.cli; "
              "print(time.perf_counter() - t)")

# name -> unit; BENCHMARK.json gates exactly these
END_TO_END = {
    "setup_s": "s",
    "ref_ops_per_s": "1/s",
    "ref_op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# printed and saved, not gated: the same timings in measured seconds, which
# follow the shared machine's speed (see README); `ref_wall_s`, which in
# `oracles` is mostly `verify` and in the others is `ref_ops_per_s` again;
# `ref_op_p50_ms`, which on `figures` falls between two kinds of command; and
# metrics that not every workload reports or that can be 0
UNGATED = {"ref_wall_s": "s", "ref_op_p50_ms": "ms", "wall_s": "s", "ops_per_s": "1/s",
           "op_p50_ms": "ms", "op_p90_ms": "ms", "rows_per_s": "1/s", "verify_s": "s",
           "error_rate": "ratio", "calibration_ms": "ms"}
PER_LAYER = {
    "scenarios.trajectory.self_s": "s",
    "scenarios.figure_data.total_s": "s",
    "states.require_physical.calls": "count",
    "states.require_physical.calls_per_point": "calls/point",
    "states.bell_eigenvalues.calls": "count",
    "states.validate_state.calls": "count",
    "states.validate_state.self_s": "s",
    "correlations.discord.calls": "count",
    "correlations.discord.self_s": "s",
    "correlations.classical_correlation_bruteforce.calls": "count",
    "correlations.classical_correlation_bruteforce.self_s": "s",
    "correlations.classical_correlation_bruteforce.p50_ms": "ms",
    "correlations.classical_correlation_bruteforce.p90_ms": "ms",
    "correlations.relative_entropy_discord.self_s": "s",
    "channels.correlation_multipliers.calls": "count",
    "channels.correlation_multipliers.self_s": "s",
    "channels.apply_local_channel.calls": "count",
    "channels.evolve_bitflip_phaseflip.calls": "count",
    "channels.evolve_bitflip_phaseflip.self_s": "s",
    "kernel.decay_factor.scalar_calls": "count",
    "kernel.decay_factor.array_calls": "count",
    "kernel.decay_factor.self_s": "s",
    "kernel.solve_decay_time.calls": "count",
    "kernel.solve_decay_time.self_s": "s",
    "kernel.decay_evals_per_root": "evals/root",
    "kernel.decay_factor_ode.self_s": "s",
    "kernel.decay_factor_convolution.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.self_s": "s",
    "scenarios.self_s": "s",
    "correlations.self_s": "s",
    "kernel.self_s": "s",
    "channels.self_s": "s",
    "states.self_s": "s",
    "setup.numpy_import_s": "s",
    "setup.belldyn_import_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_belldyn():
    """Import belldyn from ./src; exit non-zero if the checkout has no source tree."""
    if not os.path.isfile(os.path.join(SRC, "belldyn", "__init__.py")):
        sys.exit(f"bench: no belldyn sources under {SRC}")
    sys.path.insert(0, SRC)
    import belldyn

    if os.path.dirname(os.path.dirname(os.path.abspath(belldyn.__file__))) != SRC:
        sys.exit(f"bench: imported belldyn from {belldyn.__file__}, not {SRC}")
    return belldyn


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)


def setup_sample(trace: bool):
    """One fresh interpreter's `import belldyn.cli`: its seconds, or with
    `trace` its (numpy, belldyn without numpy) split from -X importtime."""
    if trace:
        return parse_importtime(
            _child(["-X", "importtime", "-c", "import belldyn.cli"]).stderr)
    return float(_child(["-c", SETUP_CODE]).stdout)


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(numpy, belldyn without numpy) cumulative import seconds."""
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        cumulative.setdefault(name, int(parts[1]) * 1e-6)
    numpy_s = cumulative.get("numpy", 0.0)
    return numpy_s, cumulative["belldyn.cli"] - numpy_s


def machine() -> dict:
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            sha = fh.read().strip()
        if sha.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", sha[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    sha = fh.read().strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(), "git_sha": sha}


def timed_ops(ops: list[dict]) -> list[int]:
    """Indices of the operations whose latency counts: one per CLI command in
    figures, each correlations command in oracles, each root in tc-sweep."""
    return [i for i, op in enumerate(ops) if op["kind"] != "verify"]


class Outcome(NamedTuple):
    """What one operation returned: an exit code, a value, or an error."""

    latency_s: float
    rc: int | None
    value: object
    error: str | None
    files: list


class Pass:
    def __init__(self, wall_s: float, outcomes: list, traced: bool):
        self.wall_s = wall_s
        self.outcomes = outcomes  # dropped once checked, keeping `latencies`
        self.latencies = None
        self.ref_latencies = None
        self.scales = None  # per operation: REF_CALIBRATION_S / calibration time
        self.calibrations = None
        self.traced = traced
        self.failures: list[tuple[int, str]] = []
        self.rows = 0
        self.trajectory_points = 0
        self.bytes_written = 0
        self.summary = None


def calibrate() -> float:
    """Seconds for a fixed loop of Python arithmetic and small numpy calls,
    the mix of belldyn's per-point code; it tracks the machine's speed."""
    x = np.arange(3.0)
    total = 0.0
    start = time.perf_counter()
    for i in range(1500):
        total += float(np.dot(x, x)) + (i % 7) * 0.5
    return time.perf_counter() - start


def run_pass(workloads, ops: list[dict], workdir: str, traced: bool = False) -> Pass:
    """Run the operations once. A calibration loop runs before the pass, after
    it, and after each CALIBRATE_EVERY_S of operation time; each operation is
    scaled by the mean of the two loops around it. The loops do not count in
    the pass's wall time."""
    outcomes = []
    tracer = Tracer() if traced else None
    perf = time.perf_counter
    calibrations = [calibrate()]
    before = []  # per operation: index of the calibration that precedes it
    since = 0.0
    with tracer or contextlib.nullcontext():
        start = perf()
        for i, op in enumerate(ops):
            before.append(len(calibrations) - 1)
            t0 = perf()
            try:
                rc, value, files = workloads.call(op, workdir, i)
                error = None
            except Exception as exc:  # a failed operation, counted below
                rc, value, files, error = None, None, [], f"{type(exc).__name__}: {exc}"
            latency = perf() - t0
            outcomes.append(Outcome(latency, rc, value, error, files))
            since += latency
            if since >= CALIBRATE_EVERY_S and i + 1 < len(ops):
                c0 = perf()
                calibrations.append(calibrate())
                start += perf() - c0
                since = 0.0
        wall = perf() - start
    calibrations.append(calibrate())
    result = Pass(wall, outcomes, traced)
    cal = np.array(calibrations)
    result.scales = REF_CALIBRATION_S / ((cal[:-1] + cal[1:]) / 2)[before]
    result.calibrations = cal
    result.summary = tracer.summary() if tracer else None
    return result


def check_pass(checks, ops: list[dict], result: Pass) -> None:
    for i, (op, out) in enumerate(zip(ops, result.outcomes)):
        kind = op["kind"]
        rows = 0
        if out.error:
            problems = [out.error]
        elif out.rc not in (None, 0):
            problems = [f"exit code {out.rc}"]
        else:
            try:
                if kind == "figure":
                    problems, rows = checks.check_figure(op, out.files[0])
                elif kind in ("trajectory", "evolve"):
                    problems, rows = checks.check_evolution(op, out.files[0])
                elif kind == "verify":
                    problems = checks.check_verify(out.files[0])
                elif kind == "correlations":
                    problems = checks.check_correlations(op, out.files[0])
                else:
                    problems = checks.check_root(op, out.value)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        result.rows += rows
        if kind == "trajectory" or (kind == "figure" and op["panel"] != "c"):
            result.trajectory_points += rows
        for path in out.files:
            if os.path.exists(path):
                result.bytes_written += os.path.getsize(path)
                os.remove(path)
        result.failures.extend((i, msg) for msg in problems)
    # keep the run's memory independent of how many passes fit in it
    result.latencies = np.array([out.latency_s for out in result.outcomes])
    result.ref_latencies = result.latencies * result.scales
    result.outcomes = None


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _percentile_ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def end_to_end(workload: str, ops: list[dict], passes: list[Pass], setup: list[float]):
    """(metrics, sample counts), from the untraced passes. Pass timings are
    medians over the passes. The `ref_*` timings are the same statistics of
    the latencies scaled to the reference machine speed; on a shared machine
    whose speed follows the neighbours' load they are the steady ones (see
    README). Operation rates divide by the timed operations' own time, so in
    `oracles` they leave out `verify`."""
    timed = timed_ops(ops)

    def stats(latencies_of) -> tuple[float, float, np.ndarray]:
        walls = [float(latencies_of(p).sum()) for p in passes]
        ops_time = _median([float(latencies_of(p)[timed].sum()) for p in passes])
        return _median(walls), len(timed) / ops_time, np.concatenate(
            [latencies_of(p)[timed] for p in passes])

    ref_wall, ref_rate, ref_latencies = stats(lambda p: p.ref_latencies)
    _, rate, latencies = stats(lambda p: p.latencies)
    wall = _median([p.wall_s for p in passes])
    metrics = {
        "setup_s": _median(setup),
        "ref_wall_s": ref_wall,
        "ref_ops_per_s": ref_rate,
        "ref_op_p50_ms": _percentile_ms(ref_latencies, 50),
        "ref_op_p90_ms": _percentile_ms(ref_latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_s": wall,
        "ops_per_s": rate,
        "op_p50_ms": _percentile_ms(latencies, 50),
        "op_p90_ms": _percentile_ms(latencies, 90),
        "calibration_ms": float(np.median(np.concatenate([p.calibrations for p in passes])))
        * 1e3,
    }
    counts = {"setup_s": len(setup), "peak_rss_mb": 1,
              "calibration_ms": sum(len(p.calibrations) for p in passes)}
    for name in ("ref_wall_s", "ref_ops_per_s", "wall_s", "ops_per_s"):
        counts[name] = len(passes)
    for name in ("ref_op_p50_ms", "ref_op_p90_ms", "op_p50_ms", "op_p90_ms"):
        counts[name] = len(latencies)
    if workload == "figures":
        metrics["rows_per_s"] = passes[0].rows / wall
        counts["rows_per_s"] = len(passes)
    if workload == "oracles":
        verify = [p.latencies[i] for p in passes
                  for i, op in enumerate(ops) if op["kind"] == "verify"]
        metrics["verify_s"] = _median(verify)
        counts["verify_s"] = len(verify)
    return metrics, counts


def per_layer(passes: list[Pass], timed: list[int], import_split) -> tuple[dict, dict]:
    """(metrics, sample counts). Counts come from one traced pass (they repeat
    exactly); times are means over the traced passes. The tracing overhead
    compares the timed operations' scaled time, as `ref_ops_per_s` does."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    first = traced[0].summary

    def mean(fn) -> float:
        return _mean([fn(p.summary) for p in traced])

    metrics = {
        "scenarios.trajectory.self_s": mean(lambda s: s.self_s("scenarios.trajectory")),
        "scenarios.figure_data.total_s": mean(lambda s: s.total_s("scenarios.figure_data")),
        "states.validate_state.self_s": mean(lambda s: s.self_s("states.validate_state")),
        "cli.main.self_s": mean(lambda s: s.self_s("cli.main")),
        "cli.bytes_written": traced[0].bytes_written,
        "setup.numpy_import_s": _median(import_split[0]),
        "setup.belldyn_import_s": _median(import_split[1]),
        "trace.overhead_ratio": _mean([p.ref_latencies[timed].sum() for p in traced])
        / _mean([p.ref_latencies[timed].sum() for p in plain]),
    }
    for name in ("states.require_physical", "states.bell_eigenvalues",
                 "states.validate_state", "correlations.discord",
                 "correlations.classical_correlation_bruteforce",
                 "channels.correlation_multipliers", "channels.apply_local_channel",
                 "channels.evolve_bitflip_phaseflip", "kernel.solve_decay_time"):
        metrics[f"{name}.calls"] = first.calls(name)
    for name in ("correlations.discord", "correlations.classical_correlation_bruteforce",
                 "correlations.relative_entropy_discord",
                 "channels.correlation_multipliers", "channels.evolve_bitflip_phaseflip",
                 "kernel.decay_factor", "kernel.solve_decay_time",
                 "kernel.decay_factor_ode", "kernel.decay_factor_convolution"):
        metrics[f"{name}.self_s"] = mean(lambda s, n=name: s.self_s(n))
    for layer in ("cli", "scenarios", "correlations", "kernel", "channels", "states"):
        metrics[f"{layer}.self_s"] = mean(lambda s, n=layer: s.layer_self_s(n))
    points = traced[0].trajectory_points
    metrics["states.require_physical.calls_per_point"] = (
        metrics["states.require_physical.calls"] / points if points else 0.0)
    for variant in ("scalar", "array"):
        metrics[f"kernel.decay_factor.{variant}_calls"] = first.variants.get(
            ("kernel.decay_factor", variant), 0)
    roots = metrics["kernel.solve_decay_time.calls"]
    metrics["kernel.decay_evals_per_root"] = (
        first.calls_under("kernel.decay_factor", "kernel.solve_decay_time") / roots
        if roots else 0.0)
    brute = [d for p in traced for d in p.summary.durations.get(
        "correlations.classical_correlation_bruteforce", [])]
    metrics["correlations.classical_correlation_bruteforce.p50_ms"] = _percentile_ms(brute, 50)
    metrics["correlations.classical_correlation_bruteforce.p90_ms"] = _percentile_ms(brute, 90)
    counts = {name: (len(traced) if PER_LAYER[name] == "s" else 1) for name in metrics}
    counts["setup.numpy_import_s"] = counts["setup.belldyn_import_s"] = len(import_split[0])
    counts["trace.overhead_ratio"] = len(passes)
    for q in ("p50_ms", "p90_ms"):
        counts[f"correlations.classical_correlation_bruteforce.{q}"] = len(brute)
    return metrics, counts


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import workloads

    ops = workloads.generate(workload, seed)
    timed = timed_ops(ops)
    _child(["-c", "import belldyn.cli"])  # compiles bytecode on a fresh checkout
    setup = []
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    passes: list[Pass] = []
    try:
        # warm-up: one call of each kind, not timed (verify has no first-call cost
        # worth a second run of the whole oracle suite)
        seen = {}
        for i, op in enumerate(ops):
            seen.setdefault(op["kind"], i)
        warm = [ops[i] for i in sorted(seen.values()) if ops[i]["kind"] != "verify"]
        check_pass(checks, warm, run_pass(workloads, warm, workdir))

        measured = 0.0
        while True:
            traced = trace and len(passes) % 2 == 1
            result = run_pass(workloads, ops, workdir, traced)
            check_pass(checks, ops, result)
            passes.append(result)
            measured += result.wall_s
            if trace:
                enough = len(passes) >= 2
            else:
                enough = len(passes) * len(timed) >= MIN_TIMED_OPS
            # set-up samples spread over the run, so they see the same machine
            while len(setup) < min(SETUP_RUNS, math.ceil(SETUP_RUNS * measured / seconds)):
                setup.append(setup_sample(trace))
            # stop before a pass like the last two would overrun --seconds
            if enough and measured + max(p.wall_s for p in passes[-2:]) > seconds:
                break
        while len(setup) < SETUP_RUNS:
            setup.append(setup_sample(trace))

        # known defects: run and checked after the measured passes, reported
        # apart from the workload's operations
        defects = []
        for op in workloads.defect_probes(workload, seed):
            probe = run_pass(workloads, [op], workdir)
            check_pass(checks, [op], probe)
            defects.append({"defect": workloads.KNOWN_DEFECTS[workload], "op": op,
                            "reproduced": bool(probe.failures),
                            "problems": [msg for _, msg in probe.failures]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops) * len(passes)
    failed = len({(n, i) for n, p in enumerate(passes) for i, _ in p.failures})
    plain = [p for p in passes if not p.traced]
    if trace:
        metrics, counts = per_layer(passes, timed, list(zip(*setup)))
        units = PER_LAYER
    else:
        metrics, counts = end_to_end(workload, ops, plain, setup)
        metrics["error_rate"] = failed / attempted
        counts["error_rate"] = attempted
        units = {**END_TO_END, **UNGATED}
    failures = {}  # "kind: first word of the problem" -> count and one example
    for p in passes:
        for i, msg in p.failures:
            group = failures.setdefault(f"{ops[i]['kind']}: {msg.split()[0]}",
                                        {"count": 0, "example": msg})
            group["count"] += 1
    return {
        "workload": workload, "seed": seed, "inputs_digest": workloads.digest(ops),
        "trace": int(trace), "seconds": seconds, "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "ops_per_pass": len(ops), "pass_walls_s": [p.wall_s for p in passes],
        "attempted": attempted, "failed": failed,
        "failures": failures, "known_defects": defects,
        "metrics": {k: {"value": metrics[k], "unit": u, "n": counts[k]}
                    for k, u in units.items() if k in metrics},
        "machine": machine(),
        "call_tree": next(p for p in passes if p.traced).summary.to_json() if trace else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("figures", "oracles", "tc-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_belldyn()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"bench {report['workload']} seed={report['seed']} "
          f"inputs={report['inputs_digest']} passes={report['passes']} "
          f"(traced {report['traced_passes']}) ops/pass={report['ops_per_pass']}")
    for name, m in report["metrics"].items():
        print(f"  {name:<54} {m['value']:>14.6g} {m['unit']:<11} n={m['n']}")
    print(f"  failed {report['failed']} of {report['attempted']} attempted operations")
    for group, seen in report["failures"].items():
        print(f"  {seen['count']:>5} x {group}  e.g. {seen['example']}"[:240])
    for seen in report["known_defects"]:
        state = "reproduced" if seen["reproduced"] else "NOT reproduced"
        detail = f": {seen['problems'][0]}" if seen["problems"] else ""
        print(f"  known defect, {state} outside the workload: {seen['defect']}{detail}"[:240])
    gated = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": report["metrics"][k]["value"], "unit": u}
                    for k, u in gated.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
