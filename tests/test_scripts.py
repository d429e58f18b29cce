"""Smoke runs of the scripts in scripts/, as a user runs them: tiny inputs
must write their JSON, and bad input must end in one error line and exit
status 1, without a traceback."""
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import dyadlab

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, cwd):
    src = os.path.dirname(os.path.dirname(dyadlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args, "--out-dir", str(cwd)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_lemma_campaigns_smoke(tmp_path):
    done = run_script("run_lemma_campaigns.py", ["--trials", "200", "--Q", "1.5"], tmp_path)
    assert done.returncode == 0, done.stderr
    for lemma in ("triangle", "barycenter"):
        (report,) = json.loads((tmp_path / f"{lemma}_campaign.json").read_text())
        assert report["lemma"] == lemma and report["trials"] == 200
        assert report["violations"] == 0
        assert 0.0 < report["accept_ratio"] < 1.0 and report["elapsed_s"] > 0.0


def assert_provenance(prov, args):
    assert prov["dyadlab"] == dyadlab.__version__ and prov["numpy"] == np.__version__
    assert set(prov["numpy_simd"]) == {"baseline", "found"}
    assert prov["argv"] == args


def test_lemma_campaign_reports_carry_provenance(tmp_path):
    args = ["--trials", "20", "--Q", "1.5", "--Q", "3"]
    done = run_script("run_lemma_campaigns.py", args, tmp_path)
    assert done.returncode == 0, done.stderr
    for lemma in ("triangle", "barycenter"):
        for report in json.loads((tmp_path / f"{lemma}_campaign.json").read_text()):
            assert_provenance(report["provenance"], [*args, "--out-dir", str(tmp_path)])


def test_lemma_campaign_reports_name_q_and_seed(tmp_path):
    done = run_script("run_lemma_campaigns.py",
                      ["--trials", "20", "--Q", "1.5", "--Q", "3", "--seed", "2"], tmp_path)
    assert done.returncode == 0, done.stderr
    for lemma in ("triangle", "barycenter"):
        reports = json.loads((tmp_path / f"{lemma}_campaign.json").read_text())
        assert [(r["Q"], r["seed"]) for r in reports] == [(1.5, 2), (3.0, 1002)]


def test_scaling_sweep_smoke(tmp_path):
    done = run_script("run_scaling_sweep.py",
                      ["--depth", "2", "--cascades", "2", "--jobs", "1"], tmp_path)
    assert done.returncode == 0, done.stderr
    summary = json.loads((tmp_path / "scaling_summary.json").read_text())
    assert set(summary) == {"power", "cascade"}
    assert summary["power"]["slopes"]
    for family in ("power", "cascade"):
        assert_provenance(summary[family]["provenance"],
                          ["--depth", "2", "--cascades", "2", "--jobs", "1",
                           "--out-dir", str(tmp_path)])
    for family in ("power", "cascade"):
        assert (tmp_path / f"{family}_sweep.csv").read_text().startswith("family,")


@pytest.mark.parametrize("name, args, message", [
    ("run_lemma_campaigns.py", ["--trials", "0"], "a campaign needs at least 1 trial"),
    ("run_lemma_campaigns.py", ["--Q", "0.5"], "domain parameter must be finite and >= 1"),
    ("run_lemma_campaigns.py", ["--Q", "inf"], "domain parameter must be finite and >= 1"),
    ("run_lemma_campaigns.py", ["--Q", "nan"], "domain parameter must be finite and >= 1"),
    ("run_lemma_campaigns.py", ["--seed", "-1"], "campaign seed must be >= 0"),
    ("run_scaling_sweep.py", ["--depth", "-3"], "depth -3 outside [1, 20]"),
    # argparse's own type errors, raised by the CLI's parser
    ("run_lemma_campaigns.py", ["--trials", "abc"], "argument --trials: invalid int value: 'abc'"),
    ("run_scaling_sweep.py", ["--depth", "x"], "argument --depth: invalid int value: 'x'"),
    # a bad Q late in the list is refused before any campaign runs
    ("run_lemma_campaigns.py", ["--Q", "1.5", "--Q", "0.5"],
     "domain parameter must be finite and >= 1"),
    # refused before the power sweep runs, not after it
    ("run_scaling_sweep.py", ["--cascades", "0"], "need at least 1 cascade, got 0"),
    ("run_scaling_sweep.py", ["--depth", "2", "--cascades", "2", "--eps-lo", "1.5",
                              "--eps-hi", "2.0", "--jobs", "1"],
     "--eps-lo must lie in [0, 1), got 1.5"),
    # above bellman.MAX_CAMPAIGN_Q the segment products overflow
    ("run_lemma_campaigns.py", ["--Q", "1e308"], "campaign Q 1e+308 exceeds the cap 1e+300"),
])
def test_bad_input_is_one_error_line(name, args, message, tmp_path):
    done = run_script(name, args, tmp_path)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert done.stderr.startswith(f"error: {message}") and done.stderr.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_scaling_sweep_row_error_exits_one_after_writing(tmp_path):
    # every form is too deep at depth 13: each row carries the error
    done = run_script("run_scaling_sweep.py",
                      ["--depth", "13", "--cascades", "1", "--jobs", "1"], tmp_path)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert done.stderr.startswith("error: depth 13 exceeds the form depth cap 12")
    assert done.stderr.count("\n") == 1
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "cascade_sweep.csv", "power_sweep.csv", "scaling_summary.json"]
