"""Slope fits that have no slope to fit: every Q equal."""
import json
import warnings

import pytest

from dyadlab.cli import UsageError, fit_slope, main


def test_one_distinct_q_refused():
    with pytest.raises(UsageError, match="distinct Q"):
        fit_slope([(2.0, 1.0), (2.0, 1.5), (2.0, 2.0)])


def test_two_distinct_q_fit():
    slope, _, _ = fit_slope([(2.0, 2.0), (2.0, 2.0), (8.0, 8.0)])
    assert slope == pytest.approx(1.0)


@pytest.mark.parametrize("command, slope_keys", [
    ("norm", ["shift1_norm"]),
    ("embed", ["key_sum_max", "termI_max"]),
    ("carleson", ["carleson_norm"]),
])
def test_repeated_param_leaves_slope_out(command, slope_keys, capsys):
    # three identical weights: three pairs at one Q
    argv = [command, "--depth", "3"] + ["--param", "0.5"] * 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    for key in slope_keys:
        assert key not in summary["slopes"]
    # three distinct weights fit every one of these slopes
    assert main([command, "--depth", "3", "--param", "0.2", "--param", "0.5",
                 "--param", "0.8"]) == 0
    assert set(slope_keys) <= set(json.loads(capsys.readouterr().out)["slopes"])
