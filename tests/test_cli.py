import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from belldyn import cli
from belldyn.cli import main
from belldyn.states import density_to_bell

RUN = [sys.executable, "-m", "belldyn.cli"]


def run_cli(*args):
    """`python -m belldyn.cli *args` run by main in this process: the exit
    code, with argparse's SystemExit turned into it, and the output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_fresh(*args):
    """`python -m belldyn.cli *args` in a fresh process."""
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# belldyn ")
    header = lines[1].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return header, rows


# the config-file section of each option, written out here as the spec
# rather than read from the option table under test
SECTIONS = {
    "a": "kernel", "A": "kernel", "gamma": "kernel",
    "channel_a": "channels", "channel_b": "channels",
    "c": "state", "family": "state", "family_param": "state", "family_sign": "state",
    "state_file": "state", "t_max": "grid", "t_steps": "grid",
    "markovian": "output", "oracle": "output", "out": "output", "format": "output",
}


def given_as(source, flag, tmp_path):
    """argv that sets `flag` (a flag and its value, if any) as a flag or as a
    config key, and the name an error message must give it."""
    if source == "flag":
        return list(flag), flag[0]
    key = flag[0][2:].replace("-", "_")
    value = flag[1] if len(flag) > 1 else "true"
    path = tmp_path / "given.ini"
    path.write_text(f"[{SECTIONS[key]}]\n{key} = {value}\n")
    return ["--config", str(path)], f"config key {key!r}"


def from_both_sources(cases, case_id):
    """Each case once as a flag, keeping the case's id, and once as a config key."""
    return [pytest.param(*case, source, id=case_id(*case) + suffix)
            for source, suffix in (("flag", ""), ("config key", "-config-key"))
            for case in cases]


class TestCorrelationsCommand:
    def test_sudden_change_state(self):
        out = run_cli("correlations", "--c", "0.1,0.16,0.1", "--format", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["I"] == pytest.approx(0.035887114115951094, abs=1e-10)
        assert payload["C"] == pytest.approx(0.018546104966346455, abs=1e-10)
        assert payload["D"] == pytest.approx(0.017341009149604639, abs=1e-10)
        assert payload["axis"] == "y"

    def test_singlet(self):
        out = run_cli("correlations", "--c", "-1,-1,-1", "--format", "json")
        payload = json.loads(out.stdout)
        assert (payload["I"], payload["C"], payload["D"]) == (2.0, 1.0, 1.0)

    def test_uncorrelated(self):
        out = run_cli("correlations", "--c", "0,0,0", "--format", "json")
        payload = json.loads(out.stdout)
        assert (payload["I"], payload["C"], payload["D"]) == (0.0, 0.0, 0.0)

    def test_text_format(self):
        out = run_cli("correlations", "--c", "0.1,0.16,0.1")
        assert out.returncode == 0
        assert "lambda_max" in out.stdout
        assert "0.16" in out.stdout

    def test_oracle_cross_check(self):
        out = run_cli("correlations", "--c", "0.1,0.16,0.1", "--oracle",
                      "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["C_bruteforce_deviation"] <= 1e-6
        assert payload["relative_entropy_axis"] == "y"

    def test_family_input(self):
        out = run_cli("correlations", "--family", "synchronized",
                      "--family-param", "0.6", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["C"] == pytest.approx(payload["D"], abs=1e-12)

    def test_unphysical_state_exits_2(self):
        out = run_cli("correlations", "--c", "1,1,1")
        assert out.returncode == 2
        assert "error" in out.stderr

    def test_non_finite_state_exits_2(self, capsys):
        assert main(["correlations", "--c", "nan,0.1,0.1"]) == 2
        captured = capsys.readouterr()
        assert "not finite" in captured.err
        assert captured.out == ""

    def test_state_file_input(self, tmp_path):
        from belldyn.states import bell_to_density

        rho = bell_to_density((-1, -1, -1))
        path = tmp_path / "singlet.json"
        path.write_text(json.dumps({"re": rho.real.tolist(), "im": rho.imag.tolist()}))
        out = run_cli("correlations", "--state-file", str(path), "--format", "json")
        assert json.loads(out.stdout)["I"] == 2.0

    def test_state_file_outside_family_exits_2(self, tmp_path):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0  # |ee><ee| is not Bell-diagonal
        path = tmp_path / "ee.json"
        path.write_text(json.dumps({"re": rho.tolist(), "im": (0 * rho).tolist()}))
        out = run_cli("correlations", "--state-file", str(path))
        assert out.returncode == 2

    @pytest.mark.parametrize("payload, message", [
        ({"re": np.eye(4).tolist()}, "density matrix JSON has no 'im' array"),
        ({"im": np.zeros((4, 4)).tolist()}, "density matrix JSON has no 're' array"),
        ([np.eye(4).tolist()], "density matrix JSON must be an object"),
        ({"re": {"a": 1}, "im": np.zeros((4, 4)).tolist()},
         "density matrix JSON arrays must hold numbers"),
    ], ids=["no-im", "no-re", "array", "nested-object"])
    def test_malformed_state_file_exits_2(self, tmp_path, capsys, payload, message):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        assert main(["correlations", "--state-file", str(path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("family, params, message", [
        ("synchronized", "0.1,0.2", "family synchronized takes 1 parameter, got 2"),
        ("proportional", "0.1,0.2", "family proportional takes 1 parameter, got 2"),
        ("sudden_change", "0.1", "family sudden_change takes 2 parameters, got 1"),
    ])
    def test_wrong_family_parameter_count_exits_2(self, capsys, family, params, message):
        assert main(["correlations", "--family", family, "--family-param", params]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestEvolveCommand:
    def test_initial_row_spectrum(self, tmp_path):
        path = tmp_path / "evolve.csv"
        assert main(["evolve", "--family", "synchronized", "--family-param", "0.6",
                     "--t-steps", "50", "--out", str(path)]) == 0
        header, rows = read_csv(path)
        assert header[:5] == ["a_t", "p", "c_x", "c_y", "c_z"]
        np.testing.assert_allclose(rows[0, 5:], [0.64, 0.16, 0.04, 0.16], atol=1e-9)
        np.testing.assert_allclose(rows[0, 2:5], [0.6, 0.36, -0.6], atol=1e-9)

    def test_markovian_flag(self, tmp_path):
        path = tmp_path / "markov.csv"
        main(["evolve", "--markovian", "--t-max", "4", "--t-steps", "81",
              "--out", str(path)])
        _, rows = read_csv(path)
        np.testing.assert_allclose(rows[:, 1], np.exp(-2 * rows[:, 0]), atol=1e-9)

    def test_fully_decohered_spectrum_is_uniform(self, tmp_path):
        path = tmp_path / "late.csv"
        main(["evolve", "--markovian", "--t-max", "25", "--t-steps", "51",
              "--out", str(path)])
        _, rows = read_csv(path)
        np.testing.assert_allclose(rows[-1, 5:], [0.25] * 4, atol=1e-8)


    def test_near_critical_long_run_decays_to_zero(self, tmp_path):
        path = tmp_path / "long.csv"
        assert main(["evolve", "--a", "1", "--A", "0.499999995", "--gamma", "0",
                     "--c", "0.1,0.3,0.1", "--t-max", "1e8", "--t-steps", "5",
                     "--out", str(path)]) == 0
        _, rows = read_csv(path)
        assert np.all(np.isfinite(rows))
        assert np.all(rows[1:, 1:5] == 0.0)  # p and c_x, c_y, c_z
        assert np.all(rows[1:, 5:] == 0.25)  # maximally mixed spectrum


class TestTrajectoryCommand:
    def test_columns_and_identity(self, tmp_path):
        path = tmp_path / "traj.csv"
        assert main(["trajectory", "--c", "0.6,0.36,-0.6", "--t-steps", "200",
                     "--out", str(path)]) == 0
        header, rows = read_csv(path)
        assert header == ["a_t", "p", "c_x", "c_y", "c_z", "I", "C", "D",
                          "lambda_max", "C_markov", "D_markov"]
        np.testing.assert_allclose(rows[:, 6], rows[:, 7], atol=1e-9)  # C = D

    def test_markovian_flag(self, tmp_path):
        path = tmp_path / "markov.csv"
        assert main(["trajectory", "--markovian", "--a", "1.5", "--A", "15",
                     "--gamma", "0.015", "--t-max", "4", "--t-steps", "81",
                     "--out", str(path)]) == 0
        header, rows = read_csv(path)
        col = {name: i for i, name in enumerate(header)}
        np.testing.assert_allclose(rows[:, col["p"]], np.exp(-2 * rows[:, col["a_t"]]),
                                   atol=1e-9)
        np.testing.assert_array_equal(rows[:, col["C"]], rows[:, col["C_markov"]])
        np.testing.assert_array_equal(rows[:, col["D"]], rows[:, col["D_markov"]])

    def test_json_format(self, tmp_path):
        path = tmp_path / "traj.json"
        main(["trajectory", "--t-steps", "20", "--format", "json",
              "--out", str(path)])
        payload = json.loads(path.read_text())
        assert payload["meta"]["channel_b"] == "phaseflip"
        assert len(payload["rows"]) == 20

    @pytest.mark.parametrize("markovian, runs", [(False, 2), (True, 1)],
                             ids=["memory-kernel", "markovian"])
    def test_one_evolution_per_distinct_run(self, tmp_path, monkeypatch,
                                            markovian, runs):
        # the Markovian twin is the run itself under --markovian
        calls = []
        evolve = cli.evolve
        monkeypatch.setattr(cli, "evolve", lambda *args, **kwargs: calls.append(
            kwargs["markovian"]) or evolve(*args, **kwargs))
        argv = ["trajectory", "--t-steps", "40", "--out", str(tmp_path / "t.csv")]
        assert main(argv + ["--markovian"] * markovian) == 0
        assert len(calls) == runs
        assert calls[-1] is True


# each panel's gnuplot script for a table written to panel.csv
GNUPLOT_SHA256 = {
    ("1", "a"): "11cae463c1b2b53ce6dd0d81f87caa870608428a64d741edf7ae16b4d2a0c181",
    ("1", "b"): "4dd5f78a95768d9bba4cbef99b7271d7bba2cc602061643d824e3e5ff7f11bd5",
    ("2", "a"): "6fe24e49047366b238881c580469b6657d25deebd9ac3826bace682e559fca9b",
    ("2", "b"): "c2417f44fed7b9357ecea7bad98d46da29768b8cab9193779d41840b82fc9621",
    ("3", "a"): "46c61941167478d0704eb56398c04440a98d39e41a575edfa71cf8be39118407",
    ("3", "b"): "8b54b3ac68249f518a32a822068e6b91ae1f5f71efc283fa407941bb023f91ad",
    ("3", "c"): "7ec7f9f80f0e85eebd1920e8474dc2404fc913988e912ab47f3840683ac407b2",
}


class TestFigureCommand:
    def test_byte_identical_runs(self, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        assert run_cli("figure", "3", "a", "--out", str(first)).returncode == 0
        assert run_cli("figure", "3", "a", "--out", str(second)).returncode == 0
        assert first.read_bytes() == second.read_bytes()

    def test_figure1a_columns_identical(self, tmp_path):
        path = tmp_path / "f1a.csv"
        main(["figure", "1", "a", "--out", str(path)])
        _, rows = read_csv(path)
        np.testing.assert_allclose(rows[:, 3], rows[:, 4], atol=1e-9)

    def test_figure3c_two_columns(self, tmp_path):
        path = tmp_path / "f3c.csv"
        main(["figure", "3", "c", "--out", str(path)])
        header, rows = read_csv(path)
        assert header == ["c_y", "a_t_c"]
        assert rows.shape[1] == 2

    def test_gnuplot_script_emitted(self, tmp_path):
        path = tmp_path / "f2b.csv"
        main(["figure", "2", "b", "--out", str(path)])
        script = (tmp_path / "f2b.gp").read_text()
        assert "plot" in script and "f2b.csv" in script

    @pytest.mark.parametrize("figure, panel", sorted(GNUPLOT_SHA256))
    def test_gnuplot_script_bytes(self, tmp_path, figure, panel):
        main(["figure", figure, panel, "--out", str(tmp_path / "panel.csv")])
        script = (tmp_path / "panel.gp").read_bytes()
        assert hashlib.sha256(script).hexdigest() == GNUPLOT_SHA256[figure, panel]

    @pytest.mark.parametrize("flag, source", from_both_sources([(flag,) for flag in [
        ("--A", "2"), ("--gamma", "0.5"), ("--t-max", "3"), ("--t-steps", "100"),
        ("--channel-a", "bitphase"), ("--channel-b", "bitflip"), ("--c", "0.1,0.2,0.1"),
        ("--family", "proportional"), ("--family-param", "0.5"), ("--family-sign", "-1"),
        ("--state-file", "state.json"), ("--markovian",),
    ]], lambda flag: flag[0]))
    def test_fixed_parameter_flags_exit_2(self, tmp_path, capsys, flag, source):
        argv, name = given_as(source, flag, tmp_path)
        path = tmp_path / "f3a.csv"
        assert main(["figure", "3", "a", *argv, "--out", str(path)]) == 2
        assert name in capsys.readouterr().err
        assert not path.exists()

    def test_output_and_rate_flags_still_apply(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[output]\nformat = json\n")
        path = tmp_path / "f1a.json"
        assert main(["figure", "1", "a", "--a", "2", "--config", str(cfg),
                     "--dump-config", str(tmp_path / "dump.ini"),
                     "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["meta"]["a"] == 2.0 and payload["meta"]["A"] == 2.0
        assert (tmp_path / "dump.ini").exists()

    @pytest.mark.parametrize("figure, panel", [
        ("1", "a"), ("1", "b"), ("2", "a"), ("2", "b"), ("3", "a"), ("3", "b"), ("3", "c"),
    ], ids=lambda value: value)
    def test_config_file_does_not_change_the_panel(self, tmp_path, capsys, figure,
                                                   panel):
        # the panel fixes its kernel shape, grid, channels and state, so a
        # config file that sets them is rejected, as the flags are
        cfg = tmp_path / "run.ini"
        cfg.write_text("[kernel]\nA = 5\ngamma = 0.3\n"
                       "[channels]\nchannel_a = bitphase\nchannel_b = bitflip\n"
                       "[state]\nc = 0.2,0.3,0.1\n[grid]\nt_max = 3\nt_steps = 77\n"
                       "[output]\nmarkovian = true\n")
        path = tmp_path / "configured.csv"
        assert main(["figure", figure, panel, "--config", str(cfg),
                     "--out", str(path)]) == 2
        assert "figure does not read config key 'A'" in capsys.readouterr().err
        assert not path.exists()

    def test_invalid_panel_exits_2(self):
        assert run_cli("figure", "1", "c").returncode == 2
        assert run_cli("figure", "5", "a").returncode == 2


# the trajectory flags behind each a/b panel at rate a, written out here as
# the spec of the paper's figures rather than read from the CLI's presets
PANEL_KERNELS = {
    "a": lambda a: ["--A", repr(a), "--gamma", repr(a), "--t-max", "10"],
    "b": lambda a: ["--A", repr(10 * a), "--gamma", repr(a / 100), "--t-max", "3"],
}
FIGURE_STATES = {
    "1": ["--family", "synchronized", "--family-param", "0.6"],
    "2": ["--family", "proportional", "--family-param", "0.6"],
    "3": ["--family", "sudden_change", "--family-param", "0.1,0.16"],
}


class TestFigurePanels:
    @pytest.mark.parametrize("a", [1.0, 2.5])
    @pytest.mark.parametrize("figure", sorted(FIGURE_STATES))
    @pytest.mark.parametrize("panel", sorted(PANEL_KERNELS))
    def test_panel_is_a_trajectory_preset(self, capsys, figure, panel, a):
        assert main(["figure", figure, panel, "--a", repr(a)]) == 0
        panel_lines = capsys.readouterr().out.splitlines()
        assert main(["trajectory", "--a", repr(a), *PANEL_KERNELS[panel](a),
                     *FIGURE_STATES[figure]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert panel_lines[1] == "a_t,p,I,C,D,C_markov,D_markov"
        header = lines[1].split(",")
        keep = [header.index(name) for name in panel_lines[1].split(",")]
        assert [",".join(line.split(",")[i] for i in keep)
                for line in lines[2:]] == panel_lines[2:]


class TestTcCommand:
    def test_value_and_closed_form(self):
        out = run_cli("tc", "--c", "0.1,0.16,0.1", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["a_tc"] == pytest.approx(0.9477102861581741, abs=1e-8)
        assert payload["closed_form"] == pytest.approx(payload["a_tc"], abs=1e-8)

    def test_none_case(self):
        out = run_cli("tc", "--c", "0.5,0.2,-0.5")
        assert out.returncode == 0
        assert "none" in out.stdout

    def test_tiny_off_axis_coefficient_switches(self):
        # a switch needs only max(|c_x|, |c_z|) > 0: |p| = 2e-16 has a root
        out = run_cli("tc", "--c", "1e-16,0.5,0")
        assert out.stdout == "a*t_c = 36.8413615\nclosed_form = 36.8413615\n"
        payload = json.loads(run_cli("tc", "--c", "1e-16,0.5,0", "--format", "json").stdout)
        assert payload["a_tc"] == pytest.approx(36.8413615, abs=1e-7)
        assert payload["closed_form"] == pytest.approx(payload["a_tc"], abs=1e-8)

    def test_subnormal_switch_level(self):
        # |p| = 2e-310: log(4/target) in the bracket end and the closed
        # form's log((1 + sqrt(1 - r))/r) overflowed on their quotients
        out = run_cli("tc", "--c", "1e-310,0.5,0")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "a*t_c = 713.801379\nclosed_form = 713.801379\n"

    def test_deep_subnormal_switch_level_ends_in_a_root_or_a_typed_error(self):
        # p holds ~12 significant bits at |p| = 2e-320, too few for the
        # closed-form check's 1e-8; the search itself no longer overflows
        out = run_cli("tc", "--c", "1e-320,0.5,0")
        assert "overflows" not in out.stderr
        assert out.returncode == 0 or (
            out.returncode == 2 and "disagrees with closed form" in out.stderr)

    def test_none_names_the_switch_condition(self):
        out = run_cli("tc", "--c", "0,0.5,0")
        assert out.stdout == ("a*t_c = none (no branch switch: "
                              "needs |c_y| > max(|c_x|, |c_z|) > 0)\n")
        payload = json.loads(run_cli("tc", "--c", "0,0.5,0", "--format", "json").stdout)
        assert payload == {"a_tc": None, "closed_form": None}

    @pytest.mark.parametrize("pair, condition", [
        (("bitphase", "phaseflip"), "|c_x| > max(|c_y|, |c_z|)"),
        (("phaseflip", "phaseflip"), "max(|c_x|, |c_y|) > |c_z|"),
        (("bitflip", "bitflip"), "max(|c_y|, |c_z|) > |c_x|"),
        (("bitflip", "bitphase"), "|c_z| > max(|c_x|, |c_y|)"),
    ], ids=lambda value: "-".join(value) if isinstance(value, tuple) else None)
    def test_none_names_the_groups_of_the_pair(self, pair, condition):
        argv = ["tc", "--channel-a", pair[0], "--channel-b", pair[1], "--c", "0,0,0"]
        out = run_cli(*argv)
        assert out.stdout == f"a*t_c = none (no branch switch: needs {condition} > 0)\n"
        payload = json.loads(run_cli(*argv, "--format", "json").stdout)
        assert payload == {"a_tc": None, "closed_form": None}

    def test_bit_phase_flip_on_a(self):
        # c_x scales as p^2 and c_y, c_z as p: (0.16, 0.1, 0.1) switches at
        # |p| = 0.625, as (0.1, 0.16, 0.1) does under the default pair
        out = run_cli("tc", "--channel-a", "bitphase", "--c", "0.16,0.1,0.1")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "a*t_c = 0.947710286\nclosed_form = 0.947710286\n"
        out = run_cli("tc", "--channel-a", "bitphase", "--c", "0.1,0.16,0.1")
        assert out.stdout == ("a*t_c = none (no branch switch: "
                              "needs |c_x| > max(|c_y|, |c_z|) > 0)\n")

    def test_frozen_discord_pair(self):
        # phase flip on both qubits switches at |p| = sqrt(0.6)
        argv = ["tc", "--channel-a", "phaseflip", "--c", "1,-0.6,0.6"]
        assert run_cli(*argv).stdout == "a*t_c = 0.643912556\nclosed_form = 0.643912556\n"
        assert run_cli(*argv, "--markovian").stdout == "a*t_c = 0.127706406\n"

    def test_closed_form_within_equal_kernel_tolerance(self, tmp_path):
        # A within 1e-12 relative of a: the root is checked against the
        # closed form, so the closed form is reported too
        path = tmp_path / "tc.json"
        assert main(["tc", "--A", "1.0000000000001", "--c", "0.1,0.16,0.1",
                     "--format", "json", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["closed_form"] == pytest.approx(payload["a_tc"], abs=1e-8)


# SHA-256 of the default verify stdout. The Kraus check's stacked pass left
# it as it was; the hemisphere grid and the Bloch-vector kernel moved the
# last bits of the brute-force values, and with them the printed
# bruteforce-vs-analytic deviation from 9.992e-16 to 5.551e-16. The
# closed-form root bracket [0, t_hi] moved the bisection's last bits, and the
# tc-root-vs-closed-form deviation from 1.667e-12 to 1.910e-11 (tol 1e-8).
# The bruteforce-edge-states line (max dev 0.000e+00) added a seventh check
VERIFY_STDOUT = "1c03a73253f360ccc610ec999d0acc1ac002f05ae30b5b1a7ea2dc07e0d6a75f"


class TestVerifyCommand:
    def test_default_settings_pass(self):
        out = run_cli("verify")
        assert out.returncode == 0, out.stdout + out.stderr
        assert out.stdout.count("PASS") == 8  # seven checks plus the summary
        assert "FAIL" not in out.stdout
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == VERIFY_STDOUT

    @pytest.mark.parametrize("a", ["1e-300", "1e-160"])
    def test_tiny_rates_pass(self, capsys, a):
        # below a ~ 1e-154 the RK4 oracle's restoring term 2aA underflowed
        assert main(["verify", "--a", a]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_kraus_check_equals_the_one_state_loop(self):
        from belldyn.channels import apply_local_channel, correlation_multipliers
        from belldyn.states import (bell_eigenvalues, bell_to_density,
                                    random_bell_coefficients)

        cfg = cli.resolve_config(cli.build_parser().parse_args(["verify"]))
        run = {name: run for name, _, run in cli._verify_checks(cfg)}
        # no check before this one draws from the shared generator
        rng, devs = np.random.default_rng(cli.VERIFY_SEED), []
        for _ in range(1000):
            c0, p = random_bell_coefficients(rng), rng.uniform(-1, 1)
            rho = apply_local_channel(bell_to_density(c0), "A", "x", p)
            via_kraus, residual = density_to_bell(apply_local_channel(rho, "B", "z", p))
            direct = np.multiply(correlation_multipliers("x", "z", p), c0)
            min_eig = float(np.min(bell_eigenvalues(direct)))
            devs += [*np.abs(np.subtract(via_kraus, direct)), residual,
                     max(-min_eig - 1e-12, 0.0)]
        assert run["kraus-vs-coefficients"]() == max(devs)

    @pytest.mark.parametrize("t_steps", ["500", "1001"])
    def test_oversized_step_rejected(self, t_steps):
        # a grid the convolution oracle cannot run is invalid input (exit 2),
        # rejected before any check prints
        out = run_cli("verify", "--t-steps", t_steps)
        assert out.returncode == 2
        assert out.stdout == ""
        assert "--t-steps" in out.stderr and "--t-max" in out.stderr
        assert "0.005/a" in out.stderr

    def test_step_at_the_convolution_bound_runs(self):
        out = run_cli("verify", "--t-steps", "2001")  # step 0.005 exactly
        assert out.returncode == 0, out.stdout + out.stderr
        assert out.stdout.endswith("verify: PASS (7/7)\n")

    def test_nan_deviation_fails(self, tmp_path, monkeypatch):
        def nan_on_fifth_case(rho):
            c, residual = density_to_bell(rho)
            residual[4] = np.nan
            return c, residual

        monkeypatch.setattr(cli, "density_to_bell", nan_on_fifth_case)
        path = tmp_path / "verify.txt"
        assert main(["verify", "--out", str(path)]) == 1
        lines = path.read_text().splitlines()
        kraus = next(line for line in lines if "kraus-vs-coefficients" in line)
        assert "max dev nan" in kraus and kraus.endswith("FAIL")
        assert lines[-1] == "verify: FAIL (6/7)"

    @pytest.mark.parametrize("oracle, check, call, poison", [
        # decay-ode calls its oracle once per kernel: poison the second call,
        # then the fourth, the near-critical kernel
        ("decay_factor_ode", "decay-ode", 2, lambda out: out * np.nan),
        ("decay_factor_ode", "decay-ode", 4, lambda out: out * np.nan),
        # one call for the whole batch: poison its second state
        ("relative_entropy_discord", "relative-entropy-identity", 1,
         lambda out: out._replace(value=np.where(np.arange(out.value.size) == 1,
                                                 np.nan, out.value))),
    ], ids=["decay-ode", "decay-ode-near-critical", "relative-entropy-identity"])
    def test_nan_deviation_propagates(self, monkeypatch, oracle, check, call, poison):
        real, calls = getattr(cli, oracle), []

        def nan_on_second_call(*args):
            calls.append(None)
            out = real(*args)
            return poison(out) if len(calls) == call else out

        monkeypatch.setattr(cli, oracle, nan_on_second_call)
        cfg = cli.resolve_config(cli.build_parser().parse_args(["verify"]))
        run = {name: run for name, _, run in cli._verify_checks(cfg)}[check]
        assert np.isnan(run())

    def test_tc_root_is_compared_in_units_of_a_t(self, tmp_path, monkeypatch):
        # at a = 1e20 the root is ~1e-20 in t, where an absolute comparison
        # in t passes a root that is 1e-3 relative off
        real = cli.solve_decay_time
        monkeypatch.setattr(cli, "solve_decay_time",
                            lambda k, target: real(k, target) * (1 + 1e-3))
        path = tmp_path / "verify.txt"
        assert main(["verify", "--a", "1e20", "--out", str(path)]) == 1
        lines = path.read_text().splitlines()
        assert "tc-root-vs-closed-form" in lines[6] and lines[6].endswith("FAIL")
        assert lines[-1] == "verify: FAIL (6/7)"

    def test_threads_flag_is_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--threads", "2"])
        assert exc.value.code == 2


# each command with a value other than the default for options it reads
ROUND_TRIPS = {
    "evolve": ["evolve", "--a", "2", "--A", "3", "--gamma", "0.5",
               "--c", "0.3,0.2,-0.3", "--t-max", "5", "--t-steps", "64"],
    "trajectory": ["trajectory", "--channel-a", "bitphase", "--channel-b", "bitflip",
                   "--family", "proportional", "--family-param", "0.6",
                   "--family-sign", "-1", "--t-max", "4", "--t-steps", "50",
                   "--markovian", "--format", "json"],
    "correlations": ["correlations", "--c", "-0.3,0.2,-0.312345678912", "--oracle",
                     "--format", "json"],
    "figure": ["figure", "2", "b", "--a", "2", "--format", "json"],
    "tc": ["tc", "--a", "2", "--A", "8", "--gamma", "0.25", "--family-param", "0.1,0.2",
           "--markovian", "--format", "json"],
    "verify": ["verify", "--a", "3", "--t-max", "8"],
}


class TestConfigHandling:
    @pytest.mark.parametrize("command", sorted(ROUND_TRIPS))
    def test_round_trip_reproduces_run(self, tmp_path, command):
        argv = ROUND_TRIPS[command]
        positional = argv[:3] if command == "figure" else argv[:1]
        cfg = tmp_path / "run.ini"
        first = tmp_path / "a.out"
        second = tmp_path / "b.out"
        assert main([*argv, "--dump-config", str(cfg), "--out", str(first)]) == 0
        assert main([*positional, "--config", str(cfg), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("flag, source", from_both_sources([(flag,) for flag in [
        ("--channel-a", "foo"), ("--format", "xml"), ("--family-sign", "2"),
        ("--c", "0.1,0.2"), ("--t-steps", "1.5"),
    ]], lambda flag: flag[0][2:]))
    def test_bad_values_exit_2(self, tmp_path, capsys, flag, source):
        argv, name = given_as(source, flag, tmp_path)
        path = tmp_path / "o.csv"
        assert main(["evolve", *argv, "--out", str(path)]) == 2
        assert name in capsys.readouterr().err
        assert not path.exists()

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[kernel]\na = 1.0\nA = 5.0\ngamma = 0.0\n")
        out_path = tmp_path / "o.csv"
        main(["evolve", "--config", str(cfg), "--A", "1.0", "--gamma", "1.0",
              "--t-steps", "30", "--out", str(out_path)])
        text = out_path.read_text()
        assert "A=1 " in text.splitlines()[0]

    def test_tc_round_trip_keeps_the_channel_pair(self, tmp_path):
        argv = ["tc", "--channel-a", "bitphase", "--channel-b", "bitflip",
                "--c", "0.1,0.1,0.16"]
        cfg, first, second = tmp_path / "tc.ini", tmp_path / "a.txt", tmp_path / "b.txt"
        assert main([*argv, "--dump-config", str(cfg), "--out", str(first)]) == 0
        assert "[channels]\nchannel_a = bitphase\nchannel_b = bitflip\n" in cfg.read_text()
        assert main(["tc", "--config", str(cfg), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text() == "a*t_c = 0.947710286\nclosed_form = 0.947710286\n"

    def test_kernel_keys_case_sensitive(self, tmp_path):
        cfg = tmp_path / "run.ini"
        main(["tc", "--a", "2", "--A", "8", "--gamma", "0.25",
              "--dump-config", str(cfg), "--c", "0.1,0.16,0.1"])
        body = cfg.read_text()
        assert "a = 2.0" in body and "A = 8.0" in body

    def test_missing_config_exits(self):
        out = run_cli("tc", "--config", "/nonexistent/path.ini")
        assert out.returncode == 3

    def test_bad_triple_exits_2(self):
        assert run_cli("correlations", "--c", "0.1,0.2").returncode == 2

    @pytest.mark.parametrize("body", [
        "[grid]\nt_step = 5\n", "[kernal]\na = 2\n", "[output]\nthreads = 2\n",
        "[DEFAULT]\nt_max = 5\n",
    ], ids=["typo-key", "unknown-section", "threads-key", "default-section"])
    def test_unknown_entries_exit_2(self, tmp_path, capsys, body):
        cfg = tmp_path / "run.ini"
        cfg.write_text(body)
        path = tmp_path / "o.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(path)]) == 2
        assert "unknown config" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("body, message", [
        ("no section header\n", "File contains no section headers.\n"
         "file: '{path}', line: 1\n'no section header\\n'"),
        ("[kernel]\na = 1\n[kernel]\nA = 2\n",
         "While reading from '{path}' [line  3]: section 'kernel' already exists"),
        ("[kernel]\na = 1\na = 2\n", "While reading from '{path}' [line  3]: "
         "option 'a' in section 'kernel' already exists"),
    ], ids=["no-section", "duplicate-section", "duplicate-key"])
    def test_unparsable_file_exits_2(self, tmp_path, capsys, body, message):
        cfg = tmp_path / "run.ini"
        cfg.write_text(body)
        path = tmp_path / "o.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=cfg)}\n"
        assert not path.exists()

    def test_boolean_words_are_configparsers(self):
        import configparser

        assert cli._BOOLEAN_STATES == configparser.ConfigParser.BOOLEAN_STATES

    def test_values_with_percent_signs_round_trip(self, tmp_path):
        cfg = tmp_path / "run.ini"
        first, second = tmp_path / "a%b.csv", tmp_path / "%(x)s.csv"
        argv = ["evolve", "--t-steps", "20"]
        assert main([*argv, "--out", str(first), "--dump-config", str(cfg)]) == 0
        assert main(["evolve", "--config", str(cfg), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        # the dump holds the path as given, and a % in a file is read as is
        body = cfg.read_text()
        assert f"out = {first}\n" in body
        cfg.write_text(body.replace(str(first), str(second)))
        assert cli.load_config_file(str(cfg))["out"] == (
            str(second), "config key 'out' in [output]")


STATE = ("--c", "0.1,0.16,0.1")
# each command with every common flag it does not read
UNREAD_FLAGS = [
    *((("tc", *STATE), flag) for flag in [
        ("--t-max", "3"), ("--t-steps", "100"), ("--oracle",)]),
    *((("verify",), flag) for flag in [
        ("--A", "2"), ("--gamma", "0.5"), ("--channel-a", "bitphase"),
        ("--channel-b", "bitflip"), STATE, ("--family", "proportional"),
        ("--family-param", "0.5"), ("--family-sign", "-1"),
        ("--state-file", "state.json"), ("--markovian",), ("--oracle",),
        ("--format", "json")]),
    *((("correlations", *STATE), flag) for flag in [
        ("--a", "2"), ("--A", "2"), ("--gamma", "0.5"), ("--channel-a", "bitphase"),
        ("--channel-b", "bitflip"), ("--t-max", "3"), ("--t-steps", "100"),
        ("--markovian",)]),
    (("evolve",), ("--oracle",)),
    (("trajectory",), ("--oracle",)),
    (("figure", "3", "a"), ("--oracle",)),
]


@pytest.mark.parametrize("command, flag, source", from_both_sources(
    UNREAD_FLAGS, lambda command, flag: command[0] + flag[0]))
def test_unread_flags_exit_2(tmp_path, capsys, command, flag, source):
    argv, name = given_as(source, flag, tmp_path)
    path = tmp_path / "out.txt"
    assert main([*command, *argv, "--out", str(path)]) == 2
    assert name in capsys.readouterr().err
    assert not path.exists()


# every command that reads a kernel or grid parameter, with each one it reads
NON_FINITE = [
    *((("evolve",), flag) for flag in ("--a", "--A", "--gamma", "--t-max")),
    (("trajectory",), "--t-max"),
    *((("tc", *STATE), flag) for flag in ("--a", "--A", "--gamma")),
    (("figure", "1", "a"), "--a"),
    (("verify",), "--a"),
    (("verify",), "--t-max"),
]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag", NON_FINITE,
                         ids=[command[0] + flag for command, flag in NON_FINITE])
def test_non_finite_parameters_exit_2(tmp_path, capsys, command, flag, value):
    path = tmp_path / "out.txt"
    assert main([*command, flag, value, "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert f" {flag[2:]} must be" in err and "finite" in err
    assert not path.exists()


# commands whose time grid ends at t-max/a, or a panel's span/a
GRID_END = [("evolve",), ("trajectory",), ("figure", "1", "a"), ("verify",)]


@pytest.mark.parametrize("command", GRID_END, ids=[" ".join(c) for c in GRID_END])
def test_overflowing_grid_end_exits_2(tmp_path, capsys, command):
    path = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warning
        assert main([*command, "--a", "1e-310", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert "grid end" in err and "a = 1e-310" in err
    assert not path.exists()


# commands whose root bracket end (or Markovian root) overflows at a = 1e-310
ROOT_HORIZON = [("figure", "3", "c"), ("tc",), ("tc", "--markovian")]


@pytest.mark.parametrize("command", ROOT_HORIZON, ids=[" ".join(c) for c in ROOT_HORIZON])
def test_overflowing_root_search_horizon_exits_2(tmp_path, capsys, command):
    path = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warning
        assert main([*command, "--a", "1e-310", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert "decay-time search" in err and "overflows at a = 1e-310, A = " in err
    assert not path.exists()


# finite values whose kernel discriminant 2aA - ((2a + gamma)/2)^2 overflows
HUGE_KERNELS = [("--gamma", "1e308"), ("--a", "1e308"), ("--A", "1e308")]


@pytest.mark.parametrize("flag, value", HUGE_KERNELS,
                         ids=[flag[2:] for flag, _ in HUGE_KERNELS])
def test_huge_kernel_parameters_exit_2(tmp_path, capsys, flag, value):
    path = tmp_path / "out.csv"
    assert main(["evolve", flag, value, "--t-steps", "5", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert f" {flag[2:]} too large" in err
    assert not path.exists()


@pytest.mark.parametrize("command", ["evolve", "verify"])
def test_unallocatable_grid_exits_2(tmp_path, capsys, command):
    # 2**54 float64 points are 128 PiB, past any 64-bit address space, so the
    # allocation fails at once without touching memory
    path = tmp_path / "out.txt"
    assert main([command, "--t-steps", str(2**54), "--out", str(path)]) == 2
    assert "Unable to allocate" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("command", [
    "evolve --a {a} --A {a} --gamma {ten_a} --t-max 2 --t-steps 5",
    "figure 3 c --a {a}",
], ids=["evolve", "figure-3c"])
def test_tiny_rates_give_the_unit_rate_table(capsys, command):
    # at a = 1e-200, 2aA - ((2a + gamma)/2)^2 underflows to 0 and the kernel
    # was treated as critical; each table is in units of a, so only the
    # header, which names the rates, may differ from the a = 1 table
    tables = []
    for a in (1e-200, 1.0):
        assert main(command.format(a=a, ten_a=10 * a).split()) == 0
        tables.append(capsys.readouterr().out.split("\n", 1))
    assert "a=1e-200 " in tables[0][0]
    assert tables[0][1] == tables[1][1]


def test_import_builds_no_parser():
    code = (
        "import os\n"
        "from belldyn import cli\n"
        "built = [cli.build_parser.cache_info().currsize]\n"
        "for _ in range(2):\n"
        "    cli.main(['correlations', '--c', '0,0,0', '--out', os.devnull])\n"
        "    built.append(cli.build_parser.cache_info().misses)\n"
        "print(*built)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout == "0 1 1\n", out.stderr


def test_import_loads_neither_configparser_nor_json():
    # only --config, --dump-config, JSON output and --state-file need them
    code = ("import sys\nimport belldyn.cli\n"
            "print([name for name in ('configparser', 'json') if name in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout == "[]\n", out.stderr


# st.floats() draws NaN, +-inf, -0.0 and subnormals too
FLAT_PAYLOADS = st.dictionaries(st.text(), st.one_of(
    st.floats(), st.none(), st.booleans(), st.text(), st.integers()), max_size=12)


@settings(max_examples=300)
@given(FLAT_PAYLOADS)
@example({"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0": -0.0,
          "subnormal": 5e-324, "none": None, "yes": True, "no": False,
          "text": 'a\n"\u00e9\\', "": 0})
def test_flat_json_is_json_dumps_with_indent_1(payload):
    assert cli._flat_json(payload) == json.dumps(payload, indent=1) + "\n"


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[kernel]\nA = 5\n[channels]\nchannel_a = bitphase\n")
    grid = ("--t-steps", "40")
    sequence = [
        ("evolve", "--markovian", *grid), ("evolve", *grid),
        ("correlations", *STATE, "--format", "json"), ("correlations", *STATE),
        ("trajectory", "--config", str(config), *grid), ("trajectory", *grid),
        ("correlations", *STATE, "--a", "2"), ("correlations", *STATE),
        ("evolve", "--format", "xml"), ("evolve", *grid),
    ]
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        captured = capsys.readouterr()
        fresh = run_fresh(*argv)
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_output_to_unwritable_path_exits_3(tmp_path):
    target = tmp_path / "missing" / "out.csv"
    assert main(["evolve", "--t-steps", "16", "--out", str(target)]) == 3


# SHA-256 of stdout. figure 3 c and tc were pinned from outputs captured
# before panel 3c moved onto one lockstep root solve, the other panels,
# evolve and trajectory from outputs of the per-row %.9g table writer; tc,
# evolve and trajectory cover the four decay_factor branches. The
# closed-form root bracket moved the roots within the bisection's 1e-10: the
# JSON a_tc values in their 11th-12th digit, and two figure 3 c rows in the
# 9th (cy = 0.15: 0.861211502 -> 0.861211503, cy = 0.97: 2.93844225 ->
# 2.93844224); the text and CSV tc outputs did not move
GOLDEN_STDOUT = {
    "figure 1 a":
        "2a58287f3d4d2934c5718c597823554a0158d92245b698a0a03b50ebfbe15b90",
    "figure 1 b":
        "785270a7290d61d2fd5d85e83277a4571209ec7b14278647eb26b1f9199e2853",
    "figure 2 a":
        "f3d557240c4c17980bc031e9b0da2eacc39158961f9475cf339de9a20920e1a5",
    "figure 2 b":
        "8a356b0b78ce0debbdebb3f54a9c8fab77a20476036ed93aa7918e95adfe6bda",
    "figure 3 a":
        "cef346e6813c898228cad5108f162d002732a0626eb2558f9e96bf7e59bc5e77",
    "figure 3 b":
        "d4a341b4e302b6318cf146e999e8d49db173580a7b07727ac556b493e819a26b",
    "figure 3 c": "f5cbbf37c624c58c1083cbbc7a402329b42aaa91f8e68ec6cf07f90ef8e95356",
    "figure 2 a --format json":
        "0c89df6b240affe87133e14c802d45b598dd89ce86758a28fee3413361ddb6d8",
    "evolve --A 10 --gamma 0.01 --format csv":
        "6d7f8a45506cce1d4fef35c3d717de77bba383a42d034e674027489740153a3b",
    "trajectory --A 10 --gamma 0.01 --format csv":
        "94c7329c970c4ed66207fdd55fbac9e31fceaf2846683af0302f25d22ef1f74b",
    "evolve --A 1 --gamma 1 --format csv":
        "a29bc022a062329c3d6cbf8afd16a829718617d3a73792db275d22798809d68e",
    "trajectory --A 1 --gamma 1 --format csv":
        "8e645f0a557e7a9aff55acbccd9ffa3df387af8b9ee6bea372227ccd13553528",
    "evolve --A 0.5 --gamma 0 --format csv":
        "9e014095cd454690185d119b592a0162171c3850efa7e6bbab82d6a650d51163",
    "trajectory --A 0.5 --gamma 0 --format csv":
        "66f3980be605aafbb61707333d121baefc33129b9e263e8e0343515fd2380eba",
    "evolve --A 0.49999999 --gamma 0 --format csv":
        "dcc33e84406f77bc92a1df7616ce0afc33c2f942275f5e3a8e9f1be08e602937",
    "trajectory --A 0.49999999 --gamma 0 --format csv":
        "93f77cd99a5535c437e5a23366c6f1609ff8c847d620408f1e031a1d75cf1500",
    "evolve --A 10 --gamma 0.01 --format json":
        "b4e663d0367d65ecd8b6a53519b78f37303e3f061e632823fba88bc4ba01c4e7",
    "trajectory --A 10 --gamma 0.01 --format json":
        "b10e4c3236e1a656a62f8f82d48b67a2fdf734b13ad52a13735ce49a93c8465e",
    "tc --A 10 --gamma 0.01 --format csv":
        "42409b98412107348145417d23f641f5a220604ef8e903317d5de8448aa06793",
    "tc --A 10 --gamma 0.01 --format json":
        "5f6c5848284d4d787bfa07e7455e0ef7202bfb0d3f9751ca102883d39e94ae10",
    "tc --A 1 --gamma 1 --format csv":
        "583c0445876a9f1f94345ee36947fc1c18236dbaf626b1f4f9609b86bef9babf",
    "tc --A 1 --gamma 1 --format json":
        "043082afba462de4fd1de8155636a94e8849ce7d7d4099ea727e0785982bb43a",
    "tc --A 0.5 --gamma 0 --format csv":
        "e269da81df9f9e36704de8443ed0f2f3b9462d182a7dedd0357143eb952e759b",
    "tc --A 0.5 --gamma 0 --format json":
        "d8346ed0a59ac9fd604ad201bedac4ab7b43ec47af5c0407f682246d0062443e",
    "tc --A 0.49999999 --gamma 0 --format csv":
        "8475c229c91b9f7bbe456216a58b6b15fd278d0933ac5ba24a587eb157e5f785",
    "tc --A 0.49999999 --gamma 0 --format json":
        "10cb8298b11c88150f445ae1b6609bdc432025e88b96a85d14c2c0714f66553b",
    # correlations --oracle on the default state and four others; (0, 0, 0),
    # (1, -1, 1) and (-1, -1, -1) are singular Newton starts, which keep their
    # grid point
    "correlations --oracle":
        "2efc65c20440a8744bbe5c1b98c73d64a3673fc7f8a070e9e54e787e7e3d2d57",
    "correlations --oracle --format json":
        "ac7561ac10470d7b9a1771f3ae3a76490da423ff97811eec389e8bd9ef220149",
    "correlations --oracle --c 0.3,-0.2,0.1":
        "2085a80d470e9eaa1f47702447fa2c0e58ad5ac31bc39f5eede0500af6cb9b75",
    "correlations --oracle --c 0.3,-0.2,0.1 --format json":
        "118d27e46e61a8405c78304e7dad63b9337efe34176f34da52851d6c539afda6",
    "correlations --oracle --c 0,0,0":
        "25a26a7e8ca867c98d8e66d06f92b675d75eb4f58311f5b95f8928e55764d3ae",
    "correlations --oracle --c 0,0,0 --format json":
        "35514ea07d2ba440611c5008baf4740f4e2f95d0756ebce17e02b09e6be4b46d",
    "correlations --oracle --c 1,-1,1":
        "7d6c811b2985f007bbdd7e334098e031797a70939b60d4d6378b45686b7429b2",
    "correlations --oracle --c 1,-1,1 --format json":
        "220d2634fa54986899571e2f405ed2e8b0204671184084561cc521031ce6b10f",
    "correlations --oracle --c -1,-1,-1":
        "7d6c811b2985f007bbdd7e334098e031797a70939b60d4d6378b45686b7429b2",
    "correlations --oracle --c -1,-1,-1 --format json":
        "220d2634fa54986899571e2f405ed2e8b0204671184084561cc521031ce6b10f",
    # panels at other rates and in JSON, and the evolution tables under
    # --markovian, where the Markovian twin is the run itself
    "figure 1 b --a 2.5":
        "92fe126a6d47b06a637a35e0ce8056d100e68598ea9673f8b2b7503e1646a510",
    "figure 3 c --format json":
        "1ebcf3dc5794976ae2220ce5a7706e26128b5facee60c2f5961b33badd85faae",
    "figure 3 b --a 1e-3 --format json":
        "a198485b4faad584e26108cb415bc8cbe953ba578f0f76ba437ec098d9f8e214",
    "trajectory --markovian --t-max 3":
        "eef832fde12ff506c58fbaceae869315cdfdb60aa83ebb25f345ee5600fe02e5",
    "evolve --markovian --channel-a bitphase":
        "0cd27ad36529998890450767321070190c2438a7a1189cbe46ad01d2821387a2",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, command):
    argv = command.split()
    if argv[0] == "tc":
        argv += ["--a", "1", "--c", "0.1,0.16,0.1"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_STDOUT[command]


@pytest.mark.parametrize("a", ["1e16", "1e20"])
def test_tc_at_large_rates(capsys, a):
    assert main(["tc", "--a", a, "--A", a, "--gamma", a, "--c", "0.1,0.16,0.1"]) == 0
    assert capsys.readouterr().out == "a*t_c = 0.947710286\nclosed_form = 0.947710286\n"


def test_tc_with_huge_amplitude(capsys):
    # omega0 ~ 1.4e150 a: the bracket ends at p's first zero, ~1e-150 / a
    assert main(["tc", "--A", "1e300", "--c", "0.1,0.16,0.1"]) == 0
    assert capsys.readouterr().out == "a*t_c = 6.33330649e-151\n"


def test_tc_at_a_tiny_rate(capsys):
    # 2aA = 2e-300 lies below the last bit of b^2 = 0.25: the overdamped
    # slow rate b - omega must not be taken by subtraction
    assert main(["tc", "--a", "1e-300", "--c", "0.1,0.16,0.1"]) == 0
    assert capsys.readouterr().out == "a*t_c = 0.235001815\n"


def test_tc_root_past_any_fixed_horizon(capsys):
    # A = gamma = 1 at a = 1e20: the slow rate 2aA/(b + omega) ~ 2 puts the
    # root at a*t ~ 4.7e19, far past any horizon in units of 1/a; the
    # closed-form bracket ends where |p| <= target/2, however slow p is
    assert main(["tc", "--a", "1e20", "--c", "0.1,0.16,0.1"]) == 0
    assert capsys.readouterr().out == "a*t_c = 4.70003629e+19\n"
