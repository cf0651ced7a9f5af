"""The CLI's table writer against its oracle, Python's %.9g."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldyn import cli
from belldyn.cli import _format_rows, main


def percent_rows(rows) -> str:
    """The table body as the per-row % writer printed it."""
    return "".join(",".join("%.9g" % v for v in row) + "\n"
                   for row in np.asarray(rows, dtype=float).tolist())


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=500)
@given(st.floats())  # subnormals, +-0.0, NaN and +-inf included
def test_any_float(x):
    assert _format_rows([[x]]) == "%.9g\n" % x


@settings(max_examples=300)
@given(st.integers(0, 2**64 - 1).map(bits_to_float))
def test_any_bit_pattern(x):
    # uniform over the bit patterns: every exponent is as likely as any other
    assert _format_rows([[x]]) == "%.9g\n" % x


@settings(max_examples=100)
@given(st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=1, max_size=40))
def test_any_table(rows):
    assert _format_rows(rows) == percent_rows(rows)


def edge_values() -> list[float]:
    values = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    # ties of the ninth digit, and the carries 999999999.5 -> 1e9
    for j in range(-30, 30):
        for k in (100000000, 123456788, 123456789, 500000000, 999999998, 999999999):
            values += [(k + 0.5) * 10.0**j, -(k + 0.5) * 10.0**(j - 8)]
    values += [1234567885.0, 1234567895.0, 999999999.5, 9.999999995, 99999.99995]
    # powers of ten, one ulp either side
    for j in range(-323, 309):
        p = float(f"1e{j}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    # %g switches notation at 1e-4 (after rounding) and 1e9
    values += [1e-5, 1e-4, 9.9999999e-5, 9.99999999e-5, 9.999999995e-5,
               9.9999999949e-5, 0.00010000000049, 1e9, 999999999.0, 999999999.4999999,
               1000000000.5, 123456789.0, 12345678.9]
    # three-digit exponents
    values += [1e100, 1.23456789e-100, 9.99999999e99, 9.999999995e99, 1e-300,
               1.5e-310, 4.9406564584124654e-322, 1.23456789e299]
    return values


EDGES = edge_values()


def test_edge_values():
    column = np.array(EDGES)[:, None]
    assert _format_rows(column) == percent_rows(column)
    assert _format_rows(-column) == percent_rows(-column)


@pytest.mark.parametrize("shape", [(2000, 7), (1171, 7), (4097, 2), (1, 8193), (3, 1)])
def test_blocks_need_not_fill(shape):
    # cell counts that are not a multiple of the block size; edge values
    # land in every block, among random magnitudes
    rng = np.random.default_rng(sum(shape))
    cells = 10.0 ** rng.uniform(-12, 12, shape) * rng.choice([-1.0, 1.0], shape)
    cells.ravel()[::37] = np.resize(EDGES, cells.ravel()[::37].size)
    assert _format_rows(cells) == percent_rows(cells)


def count_exact_cells(monkeypatch) -> list:
    """The cells the writer hands to %, as it formats them."""
    exact = []
    real = cli._exact_cells
    monkeypatch.setattr(cli, "_exact_cells", lambda v: exact.extend(v) or real(v))
    return exact


def test_powers_of_ten_take_the_fast_path(monkeypatch):
    # log10 can land one decade off next to a power of ten; the writer
    # corrects the exponent rather than leave such cells to %
    powers = np.array([float(f"1e{j}") for j in range(-289, 290)])
    cells = np.concatenate([powers, np.nextafter(powers, 0.0),
                            np.nextafter(powers, np.inf)])[:, None]
    exact = count_exact_cells(monkeypatch)
    assert _format_rows(cells) == percent_rows(cells)
    assert len(exact) <= 5


@pytest.mark.parametrize("figure, panel", [(1, "a"), (1, "b"), (2, "a"), (2, "b"),
                                           (3, "a"), (3, "b"), (3, "c")])
def test_panels_take_the_fast_path(monkeypatch, capsys, figure, panel):
    # a writer that sent every cell through % would print the same bytes
    # and only be slower; each panel has at most a handful of cells that
    # the fast path leaves to %
    exact = count_exact_cells(monkeypatch)
    assert main(["figure", str(figure), panel]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 100 and len(exact) <= 5


def per_exponent_layouts():
    """The writer's exponent tables as %.9g lays out each exponent's text,
    one exponent at a time."""
    slots = np.zeros((10, 601), np.uint8)
    point = np.zeros(601, np.int8)
    whole = np.zeros(601, np.int8)
    for j, x in enumerate(range(-300, 301)):
        if -4 <= x < 0:
            text, point[j], whole[j] = "0." + "0" * (-x - 1), 99, -1
        elif 0 <= x < 9:
            text, point[j], whole[j] = "", x + 1, x
        else:
            text, point[j], whole[j] = "\0" * 5 + f"e{x:+03d}", 1, 0
        slots[:len(text), j] = np.frombuffer(text.encode(), np.uint8)
    return slots, point, whole


def test_exponent_layouts_equal_the_per_exponent_text():
    for got, expected in zip(cli._exponent_layouts(), per_exponent_layouts()):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
