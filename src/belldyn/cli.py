"""Command-line front end.

Commands: evolve, correlations, trajectory, figure, tc, verify.
Exit codes: 0 ok, 1 verification failure, 2 invalid input, 3 I/O error.

All times on the command line are dimensionless a*t; tables report a*t so
runs with different decay rates overlay. Floats are printed with %.9g so
identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .channels import (
    LocalChannel,
    apply_local_channel,
    correlation_multipliers,
    scale_coefficients,
)
from .correlations import (
    classical_correlation_bruteforce,
    correlation_ledger,
    discord,
    relative_entropy_discord,
)
from .errors import (
    AccuracyError,
    InvalidStateError,
    NonCPTPError,
    RootNotFoundError,
)
from .kernel import (
    KernelParams,
    decay_factor,
    decay_factor_convolution,
    decay_factor_ode,
    solve_decay_time,
)
from .scenarios import (
    InitialFamily,
    _is_equal_kernel,
    characteristic_time,
    closed_form_characteristic_time,
    evolve,
    figure_data,
    make_family_state,
)
from .states import (
    BellCoefficients,
    bell_eigenvalues,
    bell_to_density,
    density_from_json,
    density_to_bell,
    random_bell_coefficients,
    require_physical,
)

CHANNEL_NAMES = {"bitflip": "x", "bitphase": "y", "phaseflip": "z"}
VERIFY_SEED = 20111

# verify needs a grid fine enough for the convolution oracle precondition
_VERIFY_DEFAULTS = {"t_steps": 4001}


@dataclass
class RunConfig:
    a: float = 1.0
    A: float = 1.0
    gamma: float = 1.0
    channel_a: str = "bitflip"
    channel_b: str = "phaseflip"
    c: tuple | None = None
    family: str = "sudden_change"
    family_param: tuple = (0.1, 0.16)
    family_sign: int = 1
    t_max: float = 10.0
    t_steps: int = 2000
    markovian: bool = False
    oracle: bool = False
    out: str | None = None
    format: str = "csv"
    state_file: str | None = None

    def kernel(self) -> KernelParams:
        return KernelParams(self.a, self.A, self.gamma)

    def axes(self) -> tuple[str, str]:
        return CHANNEL_NAMES[self.channel_a], CHANNEL_NAMES[self.channel_b]

    def initial_state(self) -> BellCoefficients:
        if self.state_file is not None:
            with open(self.state_file, encoding="utf-8") as fh:
                rho = density_from_json(json.load(fh))
            c, residual = density_to_bell(rho)
            if residual > 1e-9:
                raise InvalidStateError(
                    f"density matrix is not Bell-diagonal (residual {residual:.3e})"
                )
            return require_physical(c)
        if self.c is not None:
            return require_physical(self.c)
        return make_family_state(
            InitialFamily(self.family, tuple(self.family_param), self.family_sign)
        )

    def time_grid(self) -> np.ndarray:
        if self.t_steps < 2:
            raise ValueError("t-steps must be at least 2")
        if not 0 < self.t_max < np.inf:  # a NaN fails too
            raise ValueError(f"t-max must be positive and finite, got {self.t_max}")
        return np.linspace(0.0, self.t_max / self.a, self.t_steps)


def _parse_floats(text: str, count: int | None = None) -> tuple:
    vals = tuple(float(v) for v in text.split(","))
    if count is not None and len(vals) != count:
        raise ValueError(f"expected {count} comma-separated values, got {text!r}")
    return vals


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    common.add_argument(
        "--dump-config", metavar="PATH", help="write the effective config, then run"
    )
    common.add_argument("--a", type=float, help="Markovian decay rate (default 1)")
    common.add_argument("--A", type=float, help="kernel amplitude (default 1)")
    common.add_argument("--gamma", type=float, help="kernel width (default 1)")
    common.add_argument("--channel-a", choices=sorted(CHANNEL_NAMES))
    common.add_argument("--channel-b", choices=sorted(CHANNEL_NAMES))
    common.add_argument("--c", metavar="CX,CY,CZ", help="raw coefficient triple")
    common.add_argument(
        "--family", choices=("synchronized", "proportional", "sudden_change")
    )
    common.add_argument("--family-param", metavar="X[,Y]")
    common.add_argument("--family-sign", type=int, choices=(1, -1))
    common.add_argument("--state-file", metavar="PATH", help="density matrix JSON")
    common.add_argument("--t-max", type=float, help="grid end, in units of a*t")
    common.add_argument("--t-steps", type=int, help="grid points")
    common.add_argument("--markovian", action="store_true", default=None)
    common.add_argument("--oracle", action="store_true", default=None,
                        help="add brute-force cross-checks where available")
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    common.add_argument("--format", choices=("csv", "json"))

    parser = argparse.ArgumentParser(
        prog="belldyn",
        description="Bell-diagonal two-qubit dynamics under local "
        "non-Markovian bit-flip/phase-flip noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("evolve", parents=[common],
                   help="state table: coefficients and Bell spectrum over time")
    sub.add_parser("correlations", parents=[common],
                   help="correlation report for one state")
    sub.add_parser("trajectory", parents=[common],
                   help="correlation dynamics table over time")
    fig = sub.add_parser("figure", parents=[common],
                         help="data table and gnuplot script for a figure panel")
    fig.add_argument("figure_id", type=int, choices=(1, 2, 3))
    fig.add_argument("panel", choices=("a", "b", "c"))
    sub.add_parser("tc", parents=[common],
                   help="sudden-change characteristic time")
    sub.add_parser("verify", parents=[common],
                   help="run the oracle suite and report max discrepancies")
    return parser


_CONFIG_LAYOUT = {
    "kernel": ("a", "A", "gamma"),
    "channels": ("channel_a", "channel_b"),
    "state": ("c", "family", "family_param", "family_sign", "state_file"),
    "grid": ("t_max", "t_steps"),
    "output": ("out", "format", "markovian", "oracle"),
}
_FLOAT_KEYS = {"a", "A", "gamma", "t_max"}
_INT_KEYS = {"t_steps", "family_sign"}
_BOOL_KEYS = {"markovian", "oracle"}
_TUPLE_KEYS = {"c", "family_param"}


def load_config_file(path: str) -> dict:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # kernel.a and kernel.A must stay distinct
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    if cp.defaults():
        raise ValueError(f"{path}: unknown config section [{cp.default_section}]")
    out = {}
    for section in cp.sections():
        if section not in _CONFIG_LAYOUT:
            raise ValueError(f"{path}: unknown config section [{section}]")
        for key in cp.options(section):
            if key not in _CONFIG_LAYOUT[section]:
                raise ValueError(f"{path}: unknown config key {key!r} in [{section}]")
            raw = cp.get(section, key)
            if key in _FLOAT_KEYS:
                out[key] = float(raw)
            elif key in _INT_KEYS:
                out[key] = int(raw)
            elif key in _BOOL_KEYS:
                out[key] = cp.getboolean(section, key)
            elif key in _TUPLE_KEYS:
                out[key] = _parse_floats(raw)
            else:
                out[key] = raw
    return out


def dump_config_file(cfg: RunConfig, path: str) -> None:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    for section, keys in _CONFIG_LAYOUT.items():
        cp.add_section(section)
        for key in keys:
            value = getattr(cfg, key)
            if value is None:
                continue
            if key in _TUPLE_KEYS:
                value = ",".join(_fmt(v) for v in value)
            cp.set(section, key, str(value))
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig's defaults, then verify's, the config file and the flags."""
    merged = dict(_VERIFY_DEFAULTS) if args.command == "verify" else {}
    if args.config:
        merged.update(load_config_file(args.config))
    for field in fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            merged[field.name] = value
    if isinstance(merged.get("c"), str):
        merged["c"] = _parse_floats(merged["c"], 3)
    if isinstance(merged.get("family_param"), str):
        merged["family_param"] = _parse_floats(merged["family_param"])
    return RunConfig(**merged)


def _fmt(x: float) -> str:
    return f"{float(x) + 0.0:.9g}"


def _show(value) -> str:
    """A parameter as the CSV comment line prints it: %.9g floats, 0/1 flags."""
    if isinstance(value, bool):
        return str(int(value))
    return _fmt(value) if isinstance(value, float) else str(value)


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


_TABLE_META = ("a", "A", "gamma", "channel_a", "channel_b", "t_max", "t_steps",
               "markovian")


def _table_text(cfg, command, columns, rows, extra=None) -> str:
    meta = {key: getattr(cfg, key) for key in _TABLE_META}
    meta.update(extra or {})
    # one %.9g template per row prints what _fmt prints for each value;
    # adding 0.0 turns -0.0 into 0.0 as _fmt does
    template = ",".join(["%.9g"] * len(columns))
    lines = [template % tuple(row) for row in (np.asarray(rows) + 0.0).tolist()]
    if cfg.format == "json":
        payload = {
            "meta": meta,
            "columns": list(columns),
            "rows": [[float(v) for v in line.split(",")] for line in lines],
        }
        return json.dumps(payload, indent=1) + "\n"
    shown = " ".join(f"{key}={_show(value)}" for key, value in meta.items())
    lines[:0] = [f"# belldyn {command} {shown}", ",".join(columns)]
    return "\n".join(lines) + "\n"


def cmd_evolve(cfg: RunConfig) -> int:
    c0 = cfg.initial_state()
    run = evolve(c0, cfg.kernel(), cfg.time_grid(), *cfg.axes(),
                 markovian=cfg.markovian)
    rows = np.column_stack([cfg.a * run.t, run.p, run.c, run.spectrum])
    columns = ("a_t", "p", "c_x", "c_y", "c_z",
               "lambda_psi_plus", "lambda_phi_plus",
               "lambda_phi_minus", "lambda_psi_minus")
    _write_text(cfg.out, _table_text(cfg, "evolve", columns, rows,
                                     {"c0": ",".join(_fmt(v) for v in c0)}))
    return 0


def cmd_trajectory(cfg: RunConfig) -> int:
    c0 = cfg.initial_state()
    k, grid, axes = cfg.kernel(), cfg.time_grid(), cfg.axes()
    run = evolve(c0, k, grid, *axes, markovian=cfg.markovian)
    twin = evolve(c0, k, grid, *axes, markovian=True)
    rows = np.column_stack([cfg.a * run.t, run.p, run.c, run.I, run.C, run.D,
                            run.lambda_max, twin.C, twin.D])
    columns = ("a_t", "p", "c_x", "c_y", "c_z", "I", "C", "D",
               "lambda_max", "C_markov", "D_markov")
    _write_text(cfg.out, _table_text(cfg, "trajectory", columns, rows,
                                     {"c0": ",".join(_fmt(v) for v in c0)}))
    return 0


def cmd_correlations(cfg: RunConfig) -> int:
    c = cfg.initial_state()
    report = discord(c)
    payload = report._asdict()
    if cfg.oracle:
        brute = classical_correlation_bruteforce(bell_to_density(c))
        red = relative_entropy_discord(c)
        payload["C_bruteforce"] = brute.value
        payload["C_bruteforce_deviation"] = abs(brute.value - report.C)
        payload["relative_entropy_discord"] = red.value
        payload["relative_entropy_axis"] = red.axis
    if cfg.format == "json":
        text = json.dumps(payload, indent=1) + "\n"
    else:
        width = max(len(key) for key in payload)
        lines = []
        for key, value in payload.items():
            shown = _fmt(value) if isinstance(value, float) else str(value)
            lines.append(f"{key:<{width}}  {shown}")
        text = "\n".join(lines) + "\n"
    _write_text(cfg.out, text)
    return 0


def cmd_tc(cfg: RunConfig) -> int:
    c = cfg.initial_state()
    k = cfg.kernel()
    t_c = characteristic_time(c, k, markovian=cfg.markovian)
    closed = None
    if t_c is not None and not cfg.markovian and _is_equal_kernel(k):
        ratio = max(abs(c.cx), abs(c.cz)) / abs(c.cy)
        closed = k.a * closed_form_characteristic_time(ratio, k.a)
    if cfg.format == "json":
        payload = {
            "a_tc": None if t_c is None else k.a * t_c,
            "closed_form": closed,
        }
        text = json.dumps(payload, indent=1) + "\n"
    elif t_c is None:
        text = "a*t_c = none (no branch switch: |c_y| does not dominate)\n"
    else:
        text = f"a*t_c = {_fmt(k.a * t_c)}\n"
        if closed is not None:
            text += f"closed_form = {_fmt(closed)}\n"
    _write_text(cfg.out, text)
    return 0


_GNUPLOT_CURVES = {
    (1, "a"): [(4, "C = D (memory kernel)", "lines lw 2"),
               (6, "C = D (Markovian)", "lines dt 3")],
    (1, "b"): [(4, "C = D (memory kernel)", "lines lw 2"),
               (6, "C = D (Markovian)", "lines dt 3")],
    (2, "a"): [(5, "D", "lines lw 2"), (4, "C", "lines dt 2")],
    (2, "b"): [(5, "D", "lines lw 2"), (4, "C", "lines dt 2")],
    (3, "a"): [(5, "D", "lines lw 2"), (4, "C", "lines dt 2")],
    (3, "b"): [(5, "D", "lines lw 2"), (4, "C", "lines dt 2")],
}


def _gnuplot_script(figure: int, panel: str, csv_name: str) -> str:
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set output 'figure{figure}{panel}.png'",
        "set terminal pngcairo size 900,600",
    ]
    if figure == 3 and panel == "c":
        lines += [
            "set xlabel 'c_y'",
            "set ylabel 'a t_c'",
            f"plot '{csv_name}' using 1:2 with lines lw 2 title 'a t_c'",
        ]
    else:
        lines += ["set xlabel 'a t'", "set ylabel 'correlations (bits)'"]
        plots = ", \\\n     ".join(
            f"'{csv_name}' using 1:{col} with {style} title '{title}'"
            for col, title, style in _GNUPLOT_CURVES[(figure, panel)]
        )
        lines.append("plot " + plots)
    return "\n".join(lines) + "\n"


def cmd_figure(cfg: RunConfig, figure: int, panel: str) -> int:
    table = figure_data(figure, panel, cfg.a)
    # the header reports what the panel ran, whatever the config file says:
    # its own kernel and grid, under the memory kernel with the paper's
    # channel pair, which is RunConfig's default
    panel_cfg = RunConfig(format=cfg.format, **{
        key: table.params[key] for key in ("a", "A", "gamma", "t_max", "t_steps")
        if key in table.params})
    extra = {"figure": figure, "panel": panel}
    if "c0" in table.params:
        extra["c0"] = ",".join(_fmt(v) for v in table.params["c0"])
    else:
        extra["cx"] = _fmt(table.params["cx"])
        extra["cz"] = _fmt(table.params["cz"])
    text = _table_text(panel_cfg, f"figure {figure}{panel}", table.columns,
                       table.rows, extra)
    _write_text(cfg.out, text)
    if cfg.out is not None and cfg.format == "csv":
        stem, _ = os.path.splitext(cfg.out)
        _write_text(stem + ".gp",
                    _gnuplot_script(figure, panel, os.path.basename(cfg.out)))
    return 0


def _verify_checks(cfg: RunConfig):
    a = cfg.a
    kernels = [
        ("A=a=gamma", KernelParams(a, a, a)),
        ("A=10a", KernelParams(a, 10 * a, a / 100)),
        ("critical", KernelParams(a, a / 2, 0.0)),
    ]
    grid = cfg.time_grid()
    rng = np.random.default_rng(VERIFY_SEED)

    # each check folds its deviations with np.max, which propagates a NaN so
    # the check fails; Python's max(0.0, nan) returns 0.0
    def decay_vs(oracle):
        return float(np.max([np.abs(oracle(k, grid) - decay_factor(k, grid))
                             for _, k in kernels]))

    def kraus_vs_coefficients():
        devs = []
        for _ in range(1000):
            c0, p = random_bell_coefficients(rng), rng.uniform(-1, 1)
            rho = apply_local_channel(bell_to_density(c0), "A", LocalChannel("x", p))
            rho = apply_local_channel(rho, "B", LocalChannel("z", p))
            via_kraus, residual = density_to_bell(rho)
            direct = scale_coefficients(c0, correlation_multipliers("x", "z", p))
            min_eig = float(np.min(bell_eigenvalues(direct)))
            devs += [abs(u - v) for u, v in zip(via_kraus, direct)]
            devs += [residual, -min_eig - 1e-12 if min_eig < -1e-12 else 0.0]
        return float(np.max(devs))

    def bruteforce_vs_analytic():
        states = np.array([random_bell_coefficients(rng) for _ in range(500)])
        brute = classical_correlation_bruteforce(
            np.stack([bell_to_density(c0) for c0 in states]))
        return float(np.max(np.abs(brute.value - correlation_ledger(states).C)))

    def relative_entropy_identity():
        states = [random_bell_coefficients(rng) for _ in range(500)]
        devs = []
        for c0 in states:
            red = relative_entropy_discord(c0)
            report = discord(c0)
            devs.append(abs(red.value - report.D))
            mags = sorted(abs(v) for v in c0)
            if mags[2] - mags[1] >= 1e-3 and red.axis != report.axis:
                devs.append(1.0)  # axis mismatch where the max is strict
        return float(np.max(devs))

    def tc_root_vs_closed():
        k = KernelParams(a, a, a)
        ratio = 0.625
        root = solve_decay_time(k, ratio)
        return abs(root - closed_form_characteristic_time(ratio, a))

    return [
        ("decay-ode", 1e-6, lambda: decay_vs(decay_factor_ode)),
        ("decay-convolution", 1e-4, lambda: decay_vs(decay_factor_convolution)),
        ("kraus-vs-coefficients", 1e-12, kraus_vs_coefficients),
        ("bruteforce-vs-analytic", 1e-5, bruteforce_vs_analytic),
        ("relative-entropy-identity", 1e-8, relative_entropy_identity),
        ("tc-root-vs-closed-form", 1e-8, tc_root_vs_closed),
    ]


def cmd_verify(cfg: RunConfig) -> int:
    failures = 0
    lines = []
    for name, tol, run in _verify_checks(cfg):
        try:
            dev = run()
            passed = dev <= tol
            note = f"max dev {dev:.3e}  tol {tol:.1e}"
        except (AccuracyError, InvalidStateError, ValueError) as exc:
            passed = False
            note = f"error: {exc}"
        failures += 0 if passed else 1
        lines.append(f"check {name:<28s} {note}  {'PASS' if passed else 'FAIL'}")
    total = len(lines)
    lines.append(
        f"verify: {'PASS' if failures == 0 else 'FAIL'} "
        f"({total - failures}/{total})"
    )
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0 if failures == 0 else 1


_CHANNEL_FLAGS = ("channel_a", "channel_b")
_GRID_FLAGS = ("t_max", "t_steps")
_STATE_FLAGS = ("c", "family", "family_param", "family_sign", "state_file")
# the common flags each command does not read; giving one on the command
# line exits 2 rather than being silently ignored
_UNREAD_FLAGS = {
    "evolve": ("oracle",),
    "trajectory": ("oracle",),
    "correlations": ("a", "A", "gamma", *_CHANNEL_FLAGS, *_GRID_FLAGS, "markovian"),
    # each panel fixes its own kernel shape, grid, channels and initial state
    "figure": ("A", "gamma", *_GRID_FLAGS, *_CHANNEL_FLAGS, *_STATE_FLAGS,
               "markovian", "oracle"),
    # characteristic_time assumes the bit-flip(A)/phase-flip(B) channel pair
    "tc": (*_CHANNEL_FLAGS, *_GRID_FLAGS, "oracle"),
    "verify": ("A", "gamma", *_CHANNEL_FLAGS, *_STATE_FLAGS, "markovian", "oracle",
               "format"),
}


def _reject_unread_flags(args: argparse.Namespace) -> None:
    given = [key for key in _UNREAD_FLAGS[args.command]
             if getattr(args, key) is not None]
    if given:
        flags = ", ".join("--" + key.replace("_", "-") for key in given)
        raise ValueError(f"{args.command} does not read {flags}")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join '--c -1,-1,-1' into '--c=-1,-1,-1' so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in ("--c", "--family-param")
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_negative_values(list(argv)))
    try:
        _reject_unread_flags(args)
        cfg = resolve_config(args)
        if args.dump_config:
            dump_config_file(cfg, args.dump_config)
        if args.command == "evolve":
            return cmd_evolve(cfg)
        if args.command == "correlations":
            return cmd_correlations(cfg)
        if args.command == "trajectory":
            return cmd_trajectory(cfg)
        if args.command == "figure":
            return cmd_figure(cfg, args.figure_id, args.panel)
        if args.command == "tc":
            return cmd_tc(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (InvalidStateError, NonCPTPError, AccuracyError, RootNotFoundError,
            ValueError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
