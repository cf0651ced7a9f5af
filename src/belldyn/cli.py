"""Command-line front end.

Commands: evolve, correlations, trajectory, figure, tc, verify.
Exit codes: 0 ok, 1 verification failure, 2 invalid input, 3 I/O error.

All times on the command line are dimensionless a*t; tables report a*t so
runs with different decay rates overlay. Floats are printed with %.9g so
identical configurations produce byte-identical files. Tables are written in
blocks of cells by one vectorised writer, `_format_rows`, which prints exactly
what %.9g prints; the few cells it cannot decide on its integer path (near a
rounding tie, NaN, inf, or |x| outside [1e-290, 1e290)) go through Python's
% one at a time.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields
from functools import cache, partial

import numpy as np

from .channels import apply_local_channel, correlation_multipliers
from .correlations import (
    classical_correlation_bruteforce,
    correlation_ledger,
    discord,
    relative_entropy_discord,
)
from .errors import AccuracyError, InvalidStateError, NonCPTPError
from .kernel import (
    CONVOLUTION_MAX_STEP,
    KernelParams,
    decay_factor,
    decay_factor_convolution,
    decay_factor_ode,
    solve_decay_time,
)
from .scenarios import (
    FAMILY_TAGS,
    InitialFamily,
    _is_equal_kernel,
    branch_switch_ratio,
    characteristic_time,
    characteristic_time_curve,
    closed_form_characteristic_time,
    evolve,
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


def _parse_floats(text: str, count: int | None = None) -> tuple:
    vals = tuple(float(v) for v in text.split(","))
    if count is not None and len(vals) != count:
        raise ValueError(f"expected {count} comma-separated values, got {text!r}")
    return vals


# configparser.ConfigParser.BOOLEAN_STATES, without importing configparser
_BOOLEAN_STATES = {"1": True, "yes": True, "true": True, "on": True,
                   "0": False, "no": False, "false": False, "off": False}


def _parse_bool(text: str) -> bool:
    if text.lower() not in _BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {text!r}")
    return _BOOLEAN_STATES[text.lower()]


_ALL = ("evolve", "correlations", "trajectory", "figure", "tc", "verify")
_EVOLVING = ("evolve", "trajectory")
_STATE = (*_EVOLVING, "correlations", "tc")
_CHANNELS = tuple(sorted(CHANNEL_NAMES))


def _option(default, section, reads, parse=str, help=None, choices=None, metavar=None):
    """A field that is also a flag and a config key in [section]; `parse` reads
    the text of either (None: an on/off flag). Commands not in `reads` reject both."""
    if choices:
        metavar = "{%s}" % ",".join(map(str, choices))  # as argparse shows them
    return field(default=default, metadata=dict(section=section, reads=reads,
        parse=parse, help=help, choices=choices, metavar=metavar))


@dataclass
class RunConfig:
    a: float = _option(1.0, "kernel", (*_EVOLVING, "figure", "tc", "verify"), float,
                       "Markovian decay rate (default 1)")
    # each figure panel fixes its own kernel shape, grid, channels and state
    A: float = _option(1.0, "kernel", (*_EVOLVING, "tc"), float,
                       "kernel amplitude (default 1)")
    gamma: float = _option(1.0, "kernel", (*_EVOLVING, "tc"), float,
                           "kernel width (default 1)")
    # characteristic_time assumes the bit-flip(A)/phase-flip(B) channel pair
    channel_a: str = _option("bitflip", "channels", _EVOLVING, choices=_CHANNELS)
    channel_b: str = _option("phaseflip", "channels", _EVOLVING, choices=_CHANNELS)
    c: tuple | None = _option(None, "state", _STATE, partial(_parse_floats, count=3),
                              "raw coefficient triple", metavar="CX,CY,CZ")
    family: str = _option("sudden_change", "state", _STATE, choices=FAMILY_TAGS)
    family_param: tuple = _option((0.1, 0.16), "state", _STATE, _parse_floats,
                                  metavar="X[,Y]")
    family_sign: int = _option(1, "state", _STATE, int, choices=(1, -1))
    state_file: str | None = _option(None, "state", _STATE, str,
                                     "density matrix JSON", metavar="PATH")
    t_max: float = _option(10.0, "grid", (*_EVOLVING, "verify"), float,
                           "grid end, in units of a*t")
    t_steps: int = _option(2000, "grid", (*_EVOLVING, "verify"), int, "grid points")
    markovian: bool = _option(False, "output", (*_EVOLVING, "tc"), None)
    oracle: bool = _option(False, "output", ("correlations",), None,
                           "add brute-force cross-checks where available")
    out: str | None = _option(None, "output", _ALL, str,
                              "output file (default stdout)", metavar="PATH")
    format: str = _option("csv", "output", _ALL[:-1],  # verify prints text only
                          choices=("csv", "json"))

    def kernel(self) -> KernelParams:
        return KernelParams(self.a, self.A, self.gamma)

    def axes(self) -> tuple[str, str]:
        return CHANNEL_NAMES[self.channel_a], CHANNEL_NAMES[self.channel_b]

    def initial_state(self) -> BellCoefficients:
        if self.state_file is not None:
            import json

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
        if not self.t_max / self.a < np.inf:
            raise ValueError(f"grid end t-max/a overflows: t-max = {self.t_max}, "
                             f"a = {self.a} too small")
        return np.linspace(0.0, self.t_max / self.a, self.t_steps)


_OPTIONS = {option.name: option for option in fields(RunConfig)}


def _flag(option) -> str:
    return "--" + option.name.replace("_", "-")


def _parse_option(option, text: str, source: str):
    """The value `text` gives `option`; a bad one raises a ValueError that
    names the flag or config key it came from."""
    meta = option.metadata
    try:
        value = (meta["parse"] or _parse_bool)(text)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    if meta["choices"] is not None and value not in meta["choices"]:
        raise ValueError(f"{source}: invalid choice {text!r}, not in {meta['metavar']}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main() call
    in the process; parsing leaves it unchanged, and option values as text."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    common.add_argument("--dump-config", metavar="PATH",
                        help="write the config keys the command reads, then run")
    for option in _OPTIONS.values():
        meta = option.metadata
        how = ({"action": "store_const", "const": "true"} if meta["parse"] is None
               else {"metavar": meta["metavar"]})
        common.add_argument(_flag(option), help=meta["help"], **how)

    parser = argparse.ArgumentParser(
        prog="belldyn",
        description="Bell-diagonal two-qubit dynamics under local "
        "non-Markovian bit-flip/phase-flip noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(command, parents=[common], help=help_text)
        if command == "figure":
            cmd.add_argument("figure_id", type=int, choices=(1, 2, 3))
            cmd.add_argument("panel", choices=("a", "b", "c"))
    return parser


def load_config_file(path: str) -> dict:
    """{option name: (value, source)} for each key of the INI file at `path`;
    a section or key that names no option, or a file configparser cannot
    read, raises ValueError."""
    import configparser

    # no interpolation, so a value holds any text, a % sign included
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # kernel.a and kernel.A must stay distinct
    with open(path, encoding="utf-8") as fh:
        try:
            cp.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(str(exc)) from None
    if cp.defaults():
        raise ValueError(f"{path}: unknown config section [{cp.default_section}]")
    keys = {(option.metadata["section"], option.name) for option in _OPTIONS.values()}
    out = {}
    for section in cp.sections():
        if section not in {known for known, _ in keys}:
            raise ValueError(f"{path}: unknown config section [{section}]")
        for key in cp.options(section):
            if (section, key) not in keys:
                raise ValueError(f"{path}: unknown config key {key!r} in [{section}]")
            source = f"config key {key!r} in [{section}]"
            out[key] = _parse_option(_OPTIONS[key], cp.get(section, key), source), source
    return out


def dump_config_file(cfg: RunConfig, path: str, command: str) -> None:
    """Write the options `command` reads, so the file loads back into it."""
    import configparser

    layout = {}
    for option in _OPTIONS.values():
        value = getattr(cfg, option.name)
        if value is not None and command in option.metadata["reads"]:
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            layout.setdefault(option.metadata["section"], {})[option.name] = text
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_dict(layout)
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig's defaults, then verify's, the config file and the flags.
    An option the command does not read exits 2, whichever source set it."""
    given = load_config_file(args.config) if args.config else {}
    for name, option in _OPTIONS.items():
        text, flag = getattr(args, name), _flag(option)
        if text is not None:
            given[name] = _parse_option(option, text, flag), flag
    unread = [source for name, (_, source) in given.items()
              if args.command not in _OPTIONS[name].metadata["reads"]]
    if unread:
        raise ValueError(f"{args.command} does not read {', '.join(unread)}")
    merged = dict(_VERIFY_DEFAULTS) if args.command == "verify" else {}
    merged.update((name, value) for name, (value, _) in given.items())
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


def _flat_json(payload: dict) -> str:
    """json.dumps(payload, indent=1) + "\n", byte for byte, for a dict whose
    values are scalars (numbers, strings, None, bools), in one call of the C
    encoder: indent=1 puts each item on its own line after one space, which
    the item separator writes here."""
    import json

    if not payload:
        return "{}\n"
    return "{\n " + json.dumps(payload, separators=(",\n ", ": "))[1:-1] + "\n}\n"


_TABLE_META = ("a", "A", "gamma", "channel_a", "channel_b", "t_max", "t_steps",
               "markovian")

# The table writer lays each cell out in 29 byte slots, dropped slots 0:
# sign | "0.000" prefix | 9 digits with a point slot between each two |
# "e+hhh" | separator
_SLOTS = 29
_BLOCK_CELLS = 8192  # cells per block: the slot array stays at 232 KiB
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 301)])  # 10^k at [300 + k]
_PLACES = [10**i for i in range(8, -1, -1)]
_DIGIT_ROWS = np.arange(9, dtype=np.int8)[:, None]


def _exponent_layouts():
    """For each decimal exponent X in [-300, 300], as %.9g prints X: the
    prefix and exponent slots, the digit the point precedes (99: none) and
    the last digit of the integer part (-1: none). -4 <= X < 0 prints the
    prefix "0." and -X - 1 zeros, 0 <= X < 9 a plain integer part, and every
    other X one integer digit and the exponent "e", sign and two or three
    digits in slots 5 to 9."""
    x = np.arange(-300, 301)
    small, plain = (-4 <= x) & (x < 0), (0 <= x) & (x < 9)
    wide = ~(small | plain)
    point = np.select([small, plain], [99, x + 1], 1).astype(np.int8)
    whole = np.select([small, plain], [-1, x], 0).astype(np.int8)
    slots = np.zeros((10, x.size), np.uint8)
    slots[0] = np.where(small, ord("0"), 0)
    slots[1] = np.where(small, ord("."), 0)
    slots[2:5] = np.where(small & (np.arange(2, 5)[:, None] < 1 - x), ord("0"), 0)
    mag, three = np.abs(x), np.abs(x) >= 100
    exponent = [np.full(x.size, ord("e")), np.where(x < 0, ord("-"), ord("+")),
                ord("0") + np.where(three, mag // 100, mag // 10 % 10),
                ord("0") + np.where(three, mag // 10 % 10, mag % 10),
                np.where(three, ord("0") + mag % 10, 0)]
    slots[5:] = np.where(wide, exponent, 0)
    return slots, point, whole


_EXP_SLOTS, _EXP_POINT, _EXP_WHOLE = _exponent_layouts()


def _exact_cells(values: np.ndarray) -> list[str]:
    """The cells the fast path cannot decide, through Python's %.9g."""
    return ["%.9g" % v for v in values.tolist()]


def _format_block(cells: np.ndarray, seps: np.ndarray, ch: np.ndarray) -> str:
    """The %.9g text of each cell followed by its separator byte; `ch` is
    scratch space of at least (_SLOTS, cells.size) bytes. A cell outside
    [1e-290, 1e290) (zero aside), NaN, inf, or one whose scaled mantissa
    lies within 1e-6 of a rounding tie goes through _exact_cells."""
    ch = ch[:, :cells.size]
    mag = np.abs(cells)
    zero = mag == 0
    fast = (mag >= 1e-290) & (mag < 1e290)  # False for NaN and inf
    v = np.where(fast, mag, 1.0)  # log10 of a safe value warns of nothing
    # exponent from log10, corrected by one from the scaled value; with
    # 10^k correctly rounded, the mantissa m is within 3e-7 of |x| 10^(8-e)
    e = np.floor(np.log10(v)).astype(np.intp)
    m = v * _POW10[308 - e]
    e += m >= 1e9
    e -= m < 1e8
    m = v * _POW10[308 - e]
    # so m rounds as the exact value does, unless it lies near a tie; m = 1e9
    # carries below, as the exact value does whichever side of 1e9 it is
    exact = ~(fast | zero) | (np.abs(m - np.floor(m) - 0.5) < 1e-6) | (
        m < 1e8) | (m > 1e9)
    d = np.rint(m)
    carry = d == 1e9
    d[carry] = 1e8
    e += carry
    d[zero | exact] = 0.0
    e[zero] = 0  # zero prints as one integer digit
    d = d.astype(np.int32)
    digits = ch[6:23:2]
    above = 0
    for row, place in enumerate(_PLACES):
        below = d // place
        digits[row] = below - 10 * above
        above = below
    # a digit is significant if it or a later digit is nonzero; the digits
    # of the integer part print even when they are not
    significant = digits != 0
    for row in range(7, -1, -1):
        significant[row] |= significant[row + 1]
    e += 300
    digits += np.uint8(ord("0"))
    digits *= significant | (_DIGIT_ROWS <= _EXP_WHOLE[e])
    point = significant[1:] & (_DIGIT_ROWS[1:] == _EXP_POINT[e])
    ch[7:22:2] = point * np.uint8(ord("."))
    layout = _EXP_SLOTS.take(e, axis=1)
    ch[1:6] = layout[:5]
    ch[23:28] = layout[5:]
    ch[0] = np.signbit(cells).view(np.uint8) * np.uint8(ord("-"))
    ch[28] = seps
    fallback = np.flatnonzero(exact)
    if fallback.size:
        ch[:28, fallback] = 0
        ch[0, fallback] = 1  # a marker, replaced below
    text = ch.T.tobytes().translate(None, b"\0").decode("ascii")
    if fallback.size:
        parts = text.split("\x01")
        exact_text = _exact_cells(cells[fallback])
        text = parts[0] + "".join(map(str.__add__, exact_text, parts[1:]))
    return text


def _format_rows(rows) -> str:
    """Each row as its cells' %.9g text, comma-separated, one line per row:
    byte for byte what "%.9g" % v prints for each cell v, in blocks of at
    most _BLOCK_CELLS cells."""
    rows = np.asarray(rows, dtype=float)
    n_rows, n_cols = rows.shape
    seps = np.full(n_cols, ord(","), np.uint8)
    seps[-1] = ord("\n")
    step = max(1, _BLOCK_CELLS // n_cols)
    ch = np.empty((_SLOTS, min(n_rows, step) * n_cols), np.uint8)
    return "".join(
        _format_block(block.ravel(), np.tile(seps, len(block)), ch)
        for block in (rows[i:i + step] for i in range(0, n_rows, step)))


def _table_text(cfg, command, columns, rows, extra=None) -> str:
    meta = {key: getattr(cfg, key) for key in _TABLE_META}
    meta.update(extra or {})
    # adding 0.0 turns -0.0 into 0.0 as _fmt does
    body = _format_rows(np.asarray(rows, dtype=float) + 0.0)
    if cfg.format == "json":
        import json

        payload = {
            "meta": meta,
            "columns": list(columns),
            "rows": [[float(v) for v in line.split(",")]
                     for line in body.splitlines()],
        }
        return json.dumps(payload, indent=1) + "\n"
    shown = " ".join(f"{key}={_show(value)}" for key, value in meta.items())
    return f"# belldyn {command} {shown}\n{','.join(columns)}\n{body}"


_SPECTRUM = ("lambda_psi_plus", "lambda_phi_plus", "lambda_phi_minus",
             "lambda_psi_minus")


def _evolution_table(cfg: RunConfig, command: str, columns, extra=None) -> int:
    """Evolve cfg's state once and write the named columns of the run. The
    Markovian twin (C_markov, D_markov) is evolved only when a column names
    it; under --markovian it is the run itself."""
    c0 = cfg.initial_state()
    k, grid, axes = cfg.kernel(), cfg.time_grid(), cfg.axes()
    run = evolve(c0, k, grid, *axes, markovian=cfg.markovian)
    cells = dict(zip(("c_x", "c_y", "c_z", *_SPECTRUM), (*run.c.T, *run.spectrum.T)),
                 a_t=cfg.a * run.t, p=run.p, I=run.I, C=run.C, D=run.D,
                 lambda_max=run.lambda_max)
    if {"C_markov", "D_markov"} & set(columns):
        twin = run if cfg.markovian else evolve(c0, k, grid, *axes, markovian=True)
        cells.update(C_markov=twin.C, D_markov=twin.D)
    rows = np.column_stack([cells[name] for name in columns])
    extra = {**(extra or {}), "c0": ",".join(_fmt(v) for v in c0)}
    _write_text(cfg.out, _table_text(cfg, command, columns, rows, extra))
    return 0


def cmd_evolve(cfg: RunConfig) -> int:
    return _evolution_table(cfg, "evolve", ("a_t", "p", "c_x", "c_y", "c_z", *_SPECTRUM))


def cmd_trajectory(cfg: RunConfig) -> int:
    return _evolution_table(cfg, "trajectory", (
        "a_t", "p", "c_x", "c_y", "c_z", "I", "C", "D", "lambda_max",
        "C_markov", "D_markov"))


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
        text = _flat_json(payload)
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
        closed = k.a * closed_form_characteristic_time(branch_switch_ratio(c), k.a)
    if cfg.format == "json":
        text = _flat_json({
            "a_tc": None if t_c is None else k.a * t_c,
            "closed_form": closed,
        })
    elif t_c is None:
        text = "a*t_c = none (no branch switch: needs |c_y| > max(|c_x|, |c_z|) > 0)\n"
    else:
        text = f"a*t_c = {_fmt(k.a * t_c)}\n"
        if closed is not None:
            text += f"closed_form = {_fmt(closed)}\n"
    _write_text(cfg.out, text)
    return 0


# (column name, title, style) of each curve: figure 1 against figures 2 and 3
_GNUPLOT_CURVES = {
    True: [("C", "C = D (memory kernel)", "lines lw 2"),
           ("C_markov", "C = D (Markovian)", "lines dt 3")],
    False: [("D", "D", "lines lw 2"), ("C", "C", "lines dt 2")],
}


def _gnuplot_script(figure: int, panel: str, csv_name: str, columns) -> str:
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
            f"'{csv_name}' using 1:{columns.index(name) + 1} with {style} "
            f"title '{title}'"
            for name, title, style in _GNUPLOT_CURVES[figure == 1]
        )
        lines.append("plot " + plots)
    return "\n".join(lines) + "\n"


# Each panel is a trajectory preset at the rate --a: the family each figure
# plots, and each panel's (A, gamma, t_max): panel a (and 3c) the kernel
# A = a = gamma over a*t in [0, 10], panel b A = 10a, gamma = a/100 over [0, 3]
_FIGURE_FAMILIES = {1: ("synchronized", (0.6,)), 2: ("proportional", (0.6,)),
                    3: ("sudden_change", (0.1, 0.16))}
# panel c uses panel a's kernel
_PANEL_KERNELS = {"a": lambda a: (a, a, 10.0), "b": lambda a: (10 * a, a / 100, 3.0)}
_PANEL_COLUMNS = ("a_t", "p", "I", "C", "D", "C_markov", "D_markov")


def cmd_figure(cfg: RunConfig, figure: int, panel: str) -> int:
    if panel == "c" and figure != 3:
        raise ValueError(f"figure {figure} has panels ('a', 'b'), got 'c'")
    A, gamma, t_max = _PANEL_KERNELS["a" if panel == "c" else panel](cfg.a)
    family, param = _FIGURE_FAMILIES[figure]
    panel_cfg = RunConfig(a=cfg.a, A=A, gamma=gamma, t_max=t_max, family=family,
                          family_param=param, out=cfg.out, format=cfg.format)
    command, extra = f"figure {figure}{panel}", {"figure": figure, "panel": panel}
    if panel == "c":
        # a*t_c of the states (cx, cy, -cx) at cx = 0.1, over cy in (0.1, 1]
        columns, cx, cy = ("c_y", "a_t_c"), 0.1, np.linspace(0.105, 1.0, 180)
        t_c = characteristic_time_curve(cx, cy, panel_cfg.kernel())
        extra.update(cx=_fmt(cx), cz=_fmt(-cx))
        _write_text(cfg.out, _table_text(panel_cfg, command, columns,
                                         np.column_stack([cy, cfg.a * t_c]), extra))
    else:
        columns = _PANEL_COLUMNS
        _evolution_table(panel_cfg, command, columns, extra)
    if cfg.out is not None and cfg.format == "csv":
        stem, _ = os.path.splitext(cfg.out)
        _write_text(stem + ".gp",
                    _gnuplot_script(figure, panel, os.path.basename(cfg.out), columns))
    return 0


def _verify_checks(cfg: RunConfig):
    a = cfg.a
    kernels = [
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
    rng = np.random.default_rng(VERIFY_SEED)

    # each check folds its deviations with np.max, which propagates a NaN so
    # the check fails; Python's max(0.0, nan) returns 0.0
    def decay_vs(oracle):
        return float(np.max([np.abs(oracle(k, grid) - decay_factor(k, grid))
                             for _, k in kernels]))

    def kraus_vs_coefficients():
        # drawn case by case, state then p, as the later checks expect
        cases = [(random_bell_coefficients(rng), rng.uniform(-1, 1)) for _ in range(1000)]
        c0 = np.array([c for c, _ in cases])
        p = np.array([p for _, p in cases])
        rho = apply_local_channel(bell_to_density(c0), "A", "x", p)
        via_kraus, residual = density_to_bell(apply_local_channel(rho, "B", "z", p))
        direct = np.stack(correlation_multipliers("x", "z", p), -1) * c0
        min_eig = np.min(bell_eigenvalues(direct), axis=1)
        return float(np.max(np.concatenate([
            np.abs(via_kraus - direct).ravel(), residual,
            np.where(min_eig < -1e-12, -min_eig - 1e-12, 0.0)])))

    def bruteforce_vs_analytic(states):
        brute = classical_correlation_bruteforce(bell_to_density(states))
        return float(np.max(np.abs(brute.value - correlation_ledger(states).C)))

    # the search's hard states: ties |c_x| = |c_y|, whose minima form a
    # circle, and states whose Newton model is singular at the grid start
    # (Bell states, maximally mixed, proportional); no RNG draw
    edge_states = np.array([
        (0.789, -0.789, 0.7296), (0.844, -0.844, 0.8016), (0.4, -0.4, 0.1),
        (-1.0, -1.0, -1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0), (-1.0, 1.0, 1.0),
        (0.0, 0.0, 0.0), (0.6, 0.6, -1.0), (0.1, 0.1, 0.5)])

    def relative_entropy_identity():
        states = np.array([random_bell_coefficients(rng) for _ in range(500)])
        red, ledger = relative_entropy_discord(states), correlation_ledger(states)
        mags = np.sort(np.abs(states), axis=1)
        # an axis mismatch where the max is strict counts as a deviation of 1
        mismatch = (mags[:, 2] - mags[:, 1] >= 1e-3) & (red.axis != ledger.axis)
        return float(np.max(np.maximum(np.abs(red.value - ledger.D), mismatch)))

    def tc_root_vs_closed():
        k = KernelParams(a, a, a)
        ratio = 0.625
        # in units of a*t, as characteristic_time reports it
        return abs(a * solve_decay_time(k, ratio)
                   - a * closed_form_characteristic_time(ratio, a))

    return [
        ("decay-ode", 1e-6, lambda: decay_vs(decay_factor_ode)),
        ("decay-convolution", 1e-4, lambda: decay_vs(decay_factor_convolution)),
        ("kraus-vs-coefficients", 1e-12, kraus_vs_coefficients),
        ("bruteforce-vs-analytic", 1e-5, lambda: bruteforce_vs_analytic(
            np.array([random_bell_coefficients(rng) for _ in range(500)]))),
        ("bruteforce-edge-states", 1e-5, lambda: bruteforce_vs_analytic(edge_states)),
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


# the flags whose value is a comma-separated list, which may start with '-'
_LIST_FLAGS = frozenset(_flag(option) for option in _OPTIONS.values()
                        if option.type.startswith("tuple"))


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join '--c -1,-1,-1' into '--c=-1,-1,-1' so argparse keeps the value."""
    out = []
    for tok in argv:
        if out and out[-1] in _LIST_FLAGS and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


_COMMANDS = {
    "evolve": (cmd_evolve, "state table: coefficients and Bell spectrum over time"),
    "correlations": (cmd_correlations, "correlation report for one state"),
    "trajectory": (cmd_trajectory, "correlation dynamics table over time"),
    "figure": (cmd_figure, "data table and gnuplot script for a figure panel"),
    "tc": (cmd_tc, "sudden-change characteristic time"),
    "verify": (cmd_verify, "run the oracle suite and report max discrepancies"),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_merge_negative_values(argv))
    try:
        cfg = resolve_config(args)
        if args.dump_config:
            dump_config_file(cfg, args.dump_config, args.command)
        panel = (args.figure_id, args.panel) if args.command == "figure" else ()
        return _COMMANDS[args.command][0](cfg, *panel)
    except (InvalidStateError, NonCPTPError, AccuracyError, ValueError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
