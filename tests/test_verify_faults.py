"""Fault matrix of `verify`: each row puts one fault into a fast-path function
and names the checks that must FAIL, and only those.

A fault is patched wherever a belldyn module holds the function, so `verify`
sees it however its checks reach the function. The rows are the faults that
`verify` already sees; a fault is never made larger, nor a tolerance wider,
to make a row pass.
"""

import sys

import numpy as np
import pytest

from belldyn.channels import correlation_multipliers
from belldyn.cli import main
from belldyn.correlations import _conditional_entropies, _newton_model, _newton_refine
from belldyn.kernel import decay_factor
from belldyn.states import relative_entropy


def patch_everywhere(monkeypatch, original, replacement):
    """Rebind every belldyn module name that holds original to replacement."""
    for name, module in list(sys.modules.items()):
        if name == "belldyn" or name.startswith("belldyn."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def scaled_array_decay(k, t):
    """p(1 + 1e-5) on array calls; scalar calls stay exact."""
    p = decay_factor(k, t)
    return p * (1 + 1e-5) if np.ndim(t) else p


def scaled_z_multiplier(axis_a, axis_b, p):
    """The z multiplier off by 1e-3 relative when A's channel keeps x."""
    mx, my, mz = correlation_multipliers(axis_a, axis_b, p)
    return (mx, my, mz * (1 + 1e-3)) if axis_a == "x" else (mx, my, mz)


def shifted_entropies(ops, cols):
    """Every conditional entropy 1e-4 bits high."""
    return _conditional_entropies(ops, cols) + 1e-4


def newton_at_start(op, theta, phi):
    """The Newton descent stops where it starts, at the grid minimum."""
    return theta, phi


def steepest_off_newton(op, theta, phi):
    """The model's Hessian zeroed wherever it is not positive definite, so
    the refinement takes a steepest-descent step there, not a modified Newton
    step, and runs out of steps on ties |c_x| = |c_y|."""
    model = _newton_model(op, theta, phi)
    if model is None:
        return None
    value, h_u, h_v, h_uu, h_uv, h_vv = model
    if h_uu > 0.0 and h_uu * h_vv - h_uv * h_uv > 0.0:
        return model
    return value, h_u, h_v, 0.0, 0.0, 0.0


def shifted_relative_entropy(rho, sigma):
    """Every relative entropy 1e-6 bits high."""
    return relative_entropy(rho, sigma) + 1e-6


FAULTS = {
    "none": (None, None, set()),
    "decay-array-1e-5": (decay_factor, scaled_array_decay, {"decay-ode"}),
    "multiplier-z-1e-3": (correlation_multipliers, scaled_z_multiplier,
                          {"kraus-vs-coefficients"}),
    "entropy-plus-1e-4": (_conditional_entropies, shifted_entropies,
                          {"bruteforce-vs-analytic", "bruteforce-edge-states"}),
    "relative-entropy-plus-1e-6": (relative_entropy, shifted_relative_entropy,
                                   {"relative-entropy-identity"}),
    "newton-at-start": (_newton_refine, newton_at_start,
                        {"bruteforce-vs-analytic", "bruteforce-edge-states"}),
    "steepest-off-newton": (_newton_model, steepest_off_newton, {"bruteforce-edge-states"}),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_verify_fails_exactly_the_named_checks(monkeypatch, capsys, fault):
    original, replacement, failing = FAULTS[fault]
    if original is not None:
        patch_everywhere(monkeypatch, original, replacement)
    code = main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    verdicts = {line.split()[1]: line.split()[-1] for line in lines[:-1]}
    assert len(verdicts) == 7
    assert {name for name, verdict in verdicts.items() if verdict == "FAIL"} == failing
    assert code == (1 if failing else 0)
    assert lines[-1] == f"verify: {'FAIL' if failing else 'PASS'} ({7 - len(failing)}/7)"



def test_relative_entropy_fault_trips_the_oracle_identity_check(monkeypatch, capsys):
    # the oracle's own 1e-8 check against I - C raises, before verify's
    # comparison of the values
    patch_everywhere(monkeypatch, relative_entropy, shifted_relative_entropy)
    assert main(["verify"]) == 1
    line, = [line for line in capsys.readouterr().out.splitlines()
             if line.split()[1] == "relative-entropy-identity"]
    assert "error: relative-entropy discord at index 0 " in line
    assert line.endswith("beyond 1e-08  FAIL")

