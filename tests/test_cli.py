import json
import subprocess
import sys

import numpy as np
import pytest

from belldyn import cli
from belldyn.cli import main
from belldyn.states import density_to_bell

RUN = [sys.executable, "-m", "belldyn.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# belldyn ")
    header = lines[1].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return header, rows


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
        from belldyn.states import bell_to_density, density_to_json

        path = tmp_path / "singlet.json"
        path.write_text(json.dumps(density_to_json(bell_to_density((-1, -1, -1)))))
        out = run_cli("correlations", "--state-file", str(path), "--format", "json")
        assert json.loads(out.stdout)["I"] == 2.0

    def test_state_file_outside_family_exits_2(self, tmp_path):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0  # |ee><ee| is not Bell-diagonal
        path = tmp_path / "ee.json"
        path.write_text(json.dumps({"re": rho.tolist(), "im": (0 * rho).tolist()}))
        out = run_cli("correlations", "--state-file", str(path))
        assert out.returncode == 2


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

    @pytest.mark.parametrize("flag", [
        ("--A", "2"), ("--gamma", "0.5"), ("--t-max", "3"), ("--t-steps", "100"),
        ("--channel-a", "bitphase"), ("--channel-b", "bitflip"), ("--c", "0.1,0.2,0.1"),
        ("--family", "proportional"), ("--family-param", "0.5"), ("--family-sign", "-1"),
        ("--state-file", "state.json"), ("--markovian",),
    ], ids=lambda flag: flag[0])
    def test_fixed_parameter_flags_exit_2(self, tmp_path, capsys, flag):
        path = tmp_path / "f3a.csv"
        assert main(["figure", "3", "a", *flag, "--out", str(path)]) == 2
        assert flag[0] in capsys.readouterr().err
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
    def test_config_file_does_not_change_the_panel(self, tmp_path, figure, panel):
        # the panel fixes its kernel shape, grid, channels and state; its
        # header must report those, not the values the file sets
        cfg = tmp_path / "run.ini"
        cfg.write_text("[kernel]\nA = 5\ngamma = 0.3\n"
                       "[channels]\nchannel_a = bitphase\nchannel_b = bitflip\n"
                       "[state]\nc = 0.2,0.3,0.1\n[grid]\nt_max = 3\nt_steps = 77\n"
                       "[output]\nmarkovian = true\n")
        plain, configured = tmp_path / "plain.csv", tmp_path / "configured.csv"
        assert main(["figure", figure, panel, "--out", str(plain)]) == 0
        assert main(["figure", figure, panel, "--config", str(cfg),
                     "--out", str(configured)]) == 0
        assert configured.read_bytes() == plain.read_bytes()

    def test_invalid_panel_exits_2(self):
        assert run_cli("figure", "1", "c").returncode == 2
        assert run_cli("figure", "5", "a").returncode == 2


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

    def test_closed_form_within_equal_kernel_tolerance(self, tmp_path):
        # A within 1e-12 relative of a: the root is checked against the
        # closed form, so the closed form is reported too
        path = tmp_path / "tc.json"
        assert main(["tc", "--A", "1.0000000000001", "--c", "0.1,0.16,0.1",
                     "--format", "json", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["closed_form"] == pytest.approx(payload["a_tc"], abs=1e-8)


class TestVerifyCommand:
    def test_default_settings_pass(self):
        out = run_cli("verify")
        assert out.returncode == 0, out.stdout + out.stderr
        assert out.stdout.count("PASS") == 7  # six checks plus the summary
        assert "FAIL" not in out.stdout

    def test_oversized_step_fails(self):
        out = run_cli("verify", "--t-steps", "500")
        assert out.returncode == 1
        assert "decay-ode" in out.stdout
        assert "FAIL" in out.stdout

    def test_nan_deviation_fails(self, tmp_path, monkeypatch):
        calls = []

        def nan_on_fifth_case(rho):
            calls.append(None)
            c, residual = density_to_bell(rho)
            return c, float("nan") if len(calls) == 5 else residual

        monkeypatch.setattr(cli, "density_to_bell", nan_on_fifth_case)
        path = tmp_path / "verify.txt"
        assert main(["verify", "--out", str(path)]) == 1
        lines = path.read_text().splitlines()
        kraus = next(line for line in lines if "kraus-vs-coefficients" in line)
        assert "max dev nan" in kraus and kraus.endswith("FAIL")
        assert lines[-1] == "verify: FAIL (5/6)"

    @pytest.mark.parametrize("oracle, check, poison", [
        ("decay_factor_ode", "decay-ode", lambda out: out * np.nan),
        ("relative_entropy_discord", "relative-entropy-identity",
         lambda out: out._replace(value=float("nan"))),
    ], ids=["decay-ode", "relative-entropy-identity"])
    def test_nan_deviation_propagates(self, monkeypatch, oracle, check, poison):
        real, calls = getattr(cli, oracle), []

        def nan_on_second_call(*args):
            calls.append(None)
            out = real(*args)
            return poison(out) if len(calls) == 2 else out

        monkeypatch.setattr(cli, oracle, nan_on_second_call)
        cfg = cli.resolve_config(cli.build_parser().parse_args(["verify"]))
        run = {name: run for name, _, run in cli._verify_checks(cfg)}[check]
        assert np.isnan(run())

    def test_threads_flag_is_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--threads", "2"])
        assert exc.value.code == 2


class TestConfigHandling:
    def test_round_trip_reproduces_run(self, tmp_path):
        cfg = tmp_path / "run.ini"
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["evolve", "--a", "2", "--A", "3", "--gamma", "0.5",
                     "--c", "0.3,0.2,-0.3", "--t-max", "5", "--t-steps", "64",
                     "--dump-config", str(cfg), "--out", str(first)]) == 0
        assert main(["evolve", "--config", str(cfg), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[kernel]\na = 1.0\nA = 5.0\ngamma = 0.0\n")
        out_path = tmp_path / "o.csv"
        main(["evolve", "--config", str(cfg), "--A", "1.0", "--gamma", "1.0",
              "--t-steps", "30", "--out", str(out_path)])
        text = out_path.read_text()
        assert "A=1 " in text.splitlines()[0]

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


STATE = ("--c", "0.1,0.16,0.1")
# each command with every common flag it does not read
UNREAD_FLAGS = [
    *((("tc", *STATE), flag) for flag in [
        ("--channel-a", "bitphase"), ("--channel-b", "bitflip"), ("--t-max", "3"),
        ("--t-steps", "100"), ("--oracle",)]),
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


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[command[0] + flag[0] for command, flag in UNREAD_FLAGS])
def test_unread_flags_exit_2(tmp_path, capsys, command, flag):
    path = tmp_path / "out.txt"
    assert main([*command, *flag, "--out", str(path)]) == 2
    assert flag[0] in capsys.readouterr().err
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


def test_output_to_unwritable_path_exits_3(tmp_path):
    target = tmp_path / "missing" / "out.csv"
    assert main(["evolve", "--t-steps", "16", "--out", str(target)]) == 3
