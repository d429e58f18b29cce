"""CLI: argument handling, exit codes, CSV/JSON schemas, determinism."""
import concurrent.futures
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dyadlab
from dyadlab import bellman, cli, embedding, shifts
from dyadlab.cli import (
    CSV_COLUMNS,
    EXTRA_COLUMNS,
    SweepConfig,
    UsageError,
    fit_slope,
    main,
    make_weight,
    rows_to_csv,
    run_sweep,
)
from dyadlab.forms import AbsBilinearForm
from dyadlab.tree import LeafFunction
from dyadlab.weights import Weight, a2_characteristic, dual, gen_cascade, gen_power, save_weight


class TestFitSlope:
    def test_linear(self):
        slope, intercept, r2 = fit_slope([(2.0, 2.0), (4.0, 4.0), (8.0, 8.0)])
        assert slope == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_square_root(self):
        pairs = [(q, np.sqrt(q)) for q in (2.0, 4.0, 8.0, 16.0)]
        slope, _, _ = fit_slope(pairs)
        assert slope == pytest.approx(0.5)

    def test_constant(self):
        slope, _, _ = fit_slope([(2.0, 3.0), (4.0, 3.0), (8.0, 3.0)])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_zero_values_dropped(self):
        with pytest.raises(UsageError):
            fit_slope([(2.0, 0.0), (4.0, 0.0), (8.0, 1.0)])


class TestSweepConfig:
    def test_empty_params_rejected(self):
        with pytest.raises(UsageError):
            SweepConfig(family="power", params=[], depths=[4], seeds=[0],
                        experiments=("a2",))

    def test_empty_experiments_rejected(self):
        with pytest.raises(UsageError):
            SweepConfig(family="power", params=[0.5], depths=[4], seeds=[0],
                        experiments=())

    def test_unknown_experiment_rejected(self):
        with pytest.raises(UsageError):
            SweepConfig(family="power", params=[0.5], depths=[4], seeds=[0],
                        experiments=("nope",))

    def test_depth_cap(self):
        with pytest.raises(UsageError):
            SweepConfig(family="power", params=[0.5], depths=[25], seeds=[0],
                        experiments=("a2",))

    @pytest.mark.parametrize("kw, message", [
        (dict(family="file", files=("w.txt",), params=[], depths=[3]), "no params or depths"),
        (dict(family="file", files=("w.txt",), params=[0.5], depths=[]), "no params or depths"),
        (dict(family="power", params=[0.5], depths=[]), "depths list must be nonempty"),
        (dict(family="power", params=[0.5], depths=[3], seeds=[3, 5]), "cascade family only"),
        (dict(family="file", files=("w.txt",), params=[], depths=[], seeds=[1]),
         "cascade family only"),
    ])
    def test_options_a_family_ignores_are_refused(self, kw, message):
        with pytest.raises(UsageError, match=message):
            SweepConfig(**{"seeds": [0], "experiments": ("a2",), **kw})

    def test_file_config_has_no_depths(self):
        # power keeps seeds [0]: perfbench and the scripts pass it
        assert SweepConfig(family="power", params=[0.5], depths=[3], seeds=[0],
                           experiments=("a2",)).seeds == [0]
        cfg = SweepConfig(family="file", files=("w.txt",), params=[], depths=[],
                          seeds=[0], experiments=("a2",))
        assert cfg.depths == []


class TestRunSweep:
    def cfg(self, **kw):
        base = dict(family="power", params=[0.0, 0.3, 0.6], depths=[4],
                    seeds=[0], experiments=("a2", "carleson"), jobs=1)
        base.update(kw)
        return SweepConfig(**base)

    def test_flat_weight_rows(self):
        rows, summary = run_sweep(self.cfg(params=[0.0]))
        assert len(rows) == 1
        assert rows[0]["Q"] == pytest.approx(1.0)
        assert rows[0]["carleson_norm"] == pytest.approx(0.0)
        assert summary["schema_version"] == 4

    def test_determinism(self):
        a = rows_to_csv(run_sweep(self.cfg())[0])
        b = rows_to_csv(run_sweep(self.cfg())[0])
        assert a == b

    def test_csv_schema(self):
        text = rows_to_csv(run_sweep(self.cfg())[0])
        reader = csv.reader(text.splitlines())
        header = next(reader)
        assert header == CSV_COLUMNS + EXTRA_COLUMNS
        assert header[:10] == ["family", "param", "seed", "depth", "Q",
                               "key_sum_max", "termI_max", "carleson_norm",
                               "vavo_ratio_max", "duality_ratio_max"]

    def test_unreadable_file_continues(self, tmp_path):
        good = tmp_path / "good.txt"
        save_weight(gen_power(3, 0.5), good)
        cfg = SweepConfig(family="file", params=[], depths=[], seeds=[0],
                          experiments=("a2",),
                          files=(str(good), str(tmp_path / "missing.txt")),
                          jobs=1)
        rows, _ = run_sweep(cfg)
        assert len(rows) == 2
        assert rows[0]["error"] == ""
        assert rows[1]["error"] != ""

    def test_negative_seed_row_carries_error(self):
        cfg = SweepConfig(family="cascade", params=[0.5], depths=[3], seeds=[1, -1],
                          experiments=("a2",), jobs=1)
        rows, _ = run_sweep(cfg)
        assert rows[0]["error"] == ""
        assert rows[1]["error"] == "cascade seed must be >= 0, got -1"

    def test_negative_jobs_rejected(self):
        with pytest.raises(UsageError):
            self.cfg(jobs=-1)

    def test_zero_restarts_rejected(self):
        with pytest.raises(UsageError, match="restarts must be >= 1"):
            self.cfg(restarts=0)

    def test_zero_iters_rejected(self):
        with pytest.raises(UsageError, match="iters must be >= 1"):
            self.cfg(iters=0)

    def test_workers_capped_by_rows(self, monkeypatch):
        # a recorder in place of the pool: no worker process is started
        asked = []

        class Recorder:
            def __init__(self, max_workers=None):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        rows, _ = run_sweep(self.cfg(params=[0.2, 0.5], jobs=10**6))
        assert len(rows) == 2
        assert all(n <= 2 for n in asked)


class TestShiftZeroColumn:
    """A row with a key-sum value writes it into shift0_norm: the key-sum and
    complexity-0 shift forms have one supremum (tests/test_shifts.py checks
    that their normalized maps agree with the two sides swapped)."""

    BATTERY = ("a2", "key_sum", "four_terms", "shift_norm")

    @pytest.mark.parametrize("depth", [3, 5, 9])
    @pytest.mark.parametrize("family, param, seed", [("power", 0.5, 0), ("cascade", 0.7, 2)])
    def test_battery_row_reuses_the_key_sum_search(self, family, param, seed, depth,
                                                   monkeypatch):
        calls = []
        search = AbsBilinearForm.search_sup

        def counted(form, *args, **kw):
            calls.append(args)
            return search(form, *args, **kw)

        monkeypatch.setattr(AbsBilinearForm, "search_sup", counted)
        iters, restarts = 12, 3
        cfg = SweepConfig(family=family, params=[param], depths=[depth], seeds=[seed],
                          experiments=self.BATTERY, iters=iters, restarts=restarts, jobs=1)
        (row,), _ = run_sweep(cfg)
        assert not row["error"]
        w = make_weight(family, param, seed, depth)
        form = embedding.key_sum_form(w)
        if depth <= 4:  # the sign enumeration fits: no search runs
            assert calls == []
            want, mode = form.exact_sup(), "exact"
        else:  # the key-sum search and the shift-1 search, not a shift-0 one too
            assert len(calls) == 2
            want, mode = search(form, iters, seed + 7919 * depth, restarts), "lower_bound"
        assert row["shift0_norm"] == row["key_sum_max"] == want.value
        assert row["shift_norm_mode"] == mode

    def test_exact_row_writes_the_exact_value_into_both(self):
        cfg = SweepConfig(family="power", params=[0.5], depths=[3], seeds=[0],
                          experiments=("key_sum", "shift_norm"), jobs=1)
        (row,), _ = run_sweep(cfg)
        w = gen_power(3, 0.5)
        key = embedding.key_sum_form(w).exact_sup().value
        assert row["key_sum_max"] == row["shift0_norm"] == key
        assert row["shift_norm_mode"] == "exact"
        # the shift-0 form's own exact value is the same supremum to rounding
        shift0 = shifts.shift_form(shifts.ShiftSpec.constant(0, 3), w).exact_sup().value
        assert key == pytest.approx(shift0, rel=1e-15)

    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("family, param, seed", [("power", 0.8, 0), ("cascade", 0.7, 2)])
    def test_battery_row_is_exact_up_to_depth_4(self, family, param, seed, depth,
                                                 monkeypatch):
        # the benchmark's battery: every form cell is its form's exact_sup value
        def no_search(form, *args, **kw):
            raise AssertionError("a search ran")

        monkeypatch.setattr(AbsBilinearForm, "search_sup", no_search)
        cfg = SweepConfig(family=family, params=[param], depths=[depth], seeds=[seed],
                          experiments=("a2", "carleson", "key_sum", "four_terms",
                                       "shift_norm"), jobs=1)
        (row,), _ = run_sweep(cfg)
        assert not row["error"]
        assert row["shift_norm_mode"] == "exact"
        w = make_weight(family, param, seed, depth)
        key = embedding.key_sum_form(w).exact_sup().value
        assert row["key_sum_max"] == row["shift0_norm"] == key
        shift1 = shifts.shift_form(shifts.ShiftSpec.constant(1, depth), w).exact_sup()
        assert row["shift1_norm"] == shift1.value

    @pytest.mark.parametrize("complexities", [(0, 5), (5, 0)])
    def test_row_with_a_searched_cell_is_no_exact_row(self, complexities):
        # at depth 5 the complexity-5 form has no coefficient and is exact,
        # the complexity-0 form is searched
        cfg = SweepConfig(family="power", params=[0.5], depths=[5], seeds=[0],
                          experiments=("shift_norm",), complexities=complexities,
                          iters=5, restarts=1, jobs=1)
        (row,), _ = run_sweep(cfg)
        assert row["shift5_norm"] == 0.0 and row["shift0_norm"] > 0.0
        assert row["shift_norm_mode"] == "lower_bound"

    def test_norm_row_keeps_its_own_shift0_search(self, tmp_path):
        out = tmp_path / "norm.json"
        assert main(["norm", "--depth", "5", "--complexity", "0", "--json", str(out)]) == 0
        form = shifts.shift_form(shifts.ShiftSpec.constant(0, 5), gen_power(5, 0.5))
        want = form.search_sup(40, 7919 * 5, 6).value
        assert json.loads(out.read_text())["norms"][0]["norm"] == want


class TestMakeWeight:
    def test_families(self):
        assert make_weight("power", 0.0, 0, 3).depth == 3
        assert make_weight("cascade", 0.5, 1, 4).depth == 4
        with pytest.raises(UsageError):
            make_weight("exotic", 0.0, 0, 3)


class TestMainExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["sweep", "--family", "power", "--experiments", "bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand_is_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_a2_success(self, capsys, tmp_path):
        out = tmp_path / "a2.json"
        code = main(["a2", "--family", "power", "--param", "0.5",
                     "--depth", "4", "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema_version"] == 4
        assert data["a2"][0]["Q"] >= 1.0

    def test_a2_stdout_json(self, capsys):
        assert main(["a2", "--family", "power", "--param", "0.5",
                     "--depth", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "a2" in data

    def test_norm_exact(self, capsys, tmp_path):
        # no flag: the mode follows from the form
        out = tmp_path / "norm.json"
        code = main(["norm", "--family", "power", "--param", "0.5",
                     "--depth", "3", "--complexity", "0",
                     "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["norms"][0]["mode"] == "exact"

    def test_carleson_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["carleson", "--family", "power",
                     "--param", "0.3", "--param", "0.6", "--param", "0.9",
                     "--depth", "4", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 3
        assert all(float(r["carleson_norm"]) >= 0.0 for r in rows)

    def test_geom_campaign(self, tmp_path):
        out = tmp_path / "g.json"
        code = main(["geom", "--lemma", "triangle", "--trials", "500",
                     "--Q", "3.0", "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["violations"] == 0

    def test_bellman_command(self, tmp_path):
        out = tmp_path / "b.json"
        code = main(["bellman", "--family", "power", "--param", "0.5",
                     "--depth", "3", "--samples", "2", "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert np.isfinite(data["bellman"][0]["b1_ratio"])

    def test_bellman_is_the_saturated_dp_estimate(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bellman", "--family", "cascade", "--param", "0.5", "--seed", "2",
                     "--depth", "3", "--depth", "4", "--samples", "2",
                     "--json", str(out)]) == 0
        entries = json.loads(out.read_text())["bellman"]
        assert len(entries) == 2
        for depth, entry in zip((3, 4), entries):
            q = a2_characteristic(gen_cascade(depth, 0.5, 2)).characteristic
            seed = 2 + 7919 * depth  # the row's seed, as _fill_row derives it
            pts = bellman.sample_omega(q, 3, np.random.default_rng(seed))
            est = bellman.DpEstimator(Q=q, samples=2, seed=seed)
            # the saturated depth, and 6, the default of the removed --dp-depth
            for dp_depth in (bellman.DP_SATURATION_DEPTH, 6):
                assert entry["b1_ratio"] == max(
                    est.b1_ratio(bellman.BellmanPoint.from_array(p), dp_depth) for p in pts)
            assert entry == {"Q": q, "b1_ratio": entry["b1_ratio"], "dp_depth": 3}

    @pytest.mark.parametrize("lemma", ["lemma_triangle", "lemma_barycenter"])
    def test_lemma_experiment_in_sweep_runs_no_row(self, lemma, monkeypatch, capsys,
                                                   tmp_path):
        # campaigns run from geom alone; sweep refuses them before any row
        def no_row(cfg, job):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cli, "_compute_row", no_row)
        out_csv, out_json = tmp_path / "s.csv", tmp_path / "s.json"
        assert main(["sweep", "--family", "power",
                     "--experiments", f"a2,key_sum,{lemma}", "--jobs", "1",
                     "--out", str(out_csv), "--json", str(out_json)]) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: unknown experiment {lemma!r}\n"
        assert not out_csv.exists() and not out_json.exists()

    def test_sweep_end_to_end(self, tmp_path):
        out_csv = tmp_path / "s.csv"
        out_json = tmp_path / "s.json"
        code = main(["sweep", "--family", "power",
                     "--param", "0.2", "--param", "0.5", "--param", "0.8",
                     "--depth", "4", "--experiments", "a2,carleson",
                     "--jobs", "1", "--out", str(out_csv),
                     "--json", str(out_json)])
        assert code == 0
        data = json.loads(out_json.read_text())
        assert "carleson_norm" in data["slopes"]
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert len(rows) == 3

    def test_file_row_takes_depth_and_seed_from_its_weight(self, tmp_path):
        w = gen_cascade(7, 0.8, 4)
        wpath, out = tmp_path / "c7.txt", tmp_path / "e.csv"
        save_weight(w, wpath)
        assert main(["embed", "--family", "file", "--file", str(wpath), "--file", str(wpath),
                     "--jobs", "1", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["depth"] for r in rows] == ["7", "7"]
        key = embedding.key_sum_form(w).search_sup(40, 7919 * 7, 6).value
        assert [float(r["key_sum_max"]) for r in rows] == [key, key]

    @pytest.mark.parametrize("argv", [
        ["a2", "--family", "file", "--file", "W", "--depth", "2", "--depth", "9"],
        ["norm", "--family", "file", "--file", "W", "--param", "0.9"],
        ["norm", "--depth", "4", "--seed", "3", "--seed", "5"],
        ["a2", "--depth", "3", "--seed", "0"],
        ["a2", "--family", "file", "--file", "W", "--seed", "1"],
        ["a2", "--param", "nan"],
        ["a2", "--param", "inf"],
    ])
    def test_ignored_weight_option_is_one_line(self, argv, capsys, tmp_path, monkeypatch):
        save_weight(gen_power(3, 0.5), tmp_path / "w.txt")
        ran = []
        monkeypatch.setattr(cli, "_compute_row", lambda cfg, job: ran.append(job))
        argv = [str(tmp_path / "w.txt") if a == "W" else a for a in argv]
        assert main([*argv, "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert ran == []

    def test_file_family(self, tmp_path):
        wpath = tmp_path / "w.txt"
        save_weight(gen_power(4, 0.7), wpath, provenance="family=power a=0.7")
        code = main(["a2", "--family", "file", "--file", str(wpath),
                     "--json", str(tmp_path / "o.json")])
        assert code == 0

    def test_bellman_at_a_constant_weight_file(self, tmp_path, capsys):
        # 49 fl(1/49) < 1, yet the file's Q is exactly 1, a valid domain parameter
        wpath = tmp_path / "c49.txt"
        save_weight(Weight.from_values([49.0] * 4), wpath)
        assert main(["bellman", "--family", "file", "--file", str(wpath)]) == 0
        assert json.loads(capsys.readouterr().out)["bellman"][0]["Q"] == 1.0

    @pytest.mark.parametrize("argv", [
        ["--family", "cascade", "--param", "0", "--seed", "0"],
        ["--family", "cascade", "--param", "0", "--seed", "1"],
        ["--family", "cascade", "--param", "0", "--seed", "2"],
        ["--family", "power", "--param", "0"],
    ])
    def test_bellman_at_constant_weight(self, argv, capsys):
        # a constant weight has Q = 1, where every sampled point must still
        # be a member at zero tolerance
        assert main(["bellman", "--depth", "3", *argv]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bellman"][0]["Q"] == 1.0

    @pytest.mark.parametrize("argv", [
        ["a2", "--param", "-2"],
        ["a2", "--depth", "0"],
        ["a2", "--family", "file", "--file", "MISSING"],
        # unknown flags: the mode follows from the form, not from --exact
        ["norm", "--depth", "5", "--exact"],
        ["norm", "--depth", "9", "--complexity", "9", "--exact"],
        ["geom", "--Q", "1.0", "--trials", "10"],
        ["bellman", "--samples", "-1"],
        ["norm", "--complexity", "-1"],
        ["a2", "--family", "cascade", "--seed", "-1"],
        ["geom", "--trials", "-5"],
        ["geom", "--out", "g.csv"],
        ["geom", "--lemma", "barycenter", "--Q", "inf", "--trials", "10"],
        ["geom", "--lemma", "triangle", "--Q", "inf"],
        ["geom", "--lemma", "barycenter", "--Q", "nan"],
        ["geom", "--lemma", "triangle", "--Q", "nan"],
        ["geom", "--lemma", "triangle", "--trials", "10", "--Q", "1.5", "--seed", "-1"],
        ["geom", "--lemma", "barycenter", "--trials", "10", "--Q", "1.5", "--seed", "-1"],
        ["norm", "--complexity", "64"],
        ["bellman", "--dp-depth", "8"],  # every depth >= 3 gave one estimate
        ["bellman", "--samples", "100000000", "--depth", "2"],  # refused before allocating
        # above bellman.MAX_CAMPAIGN_Q the segment products overflow
        ["geom", "--lemma", "triangle", "--Q", "1e308", "--trials", "20"],
        ["geom", "--lemma", "barycenter", "--Q", "1e308", "--trials", "20"],
        # refused by SweepConfig: an exact row reads no iters
        ["embed", "--depth", "3", "--iters", "0"],
    ])
    def test_bad_input_is_one_line(self, argv, capsys, tmp_path, time_limit):
        argv = [str(tmp_path / "missing.txt") if a == "MISSING" else a for a in argv]
        with time_limit(5.0):
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["depth=2\n1.0\nabc\n", "depth=x\n1.0\n2.0\n",
                                      "depth=-1\n1.0\n"],
                             ids=["value", "depth-word", "depth-negative"])
    def test_malformed_weight_file_is_one_line(self, text, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["a2", "--family", "file", "--file", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: line ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["norm", "embed"])
    def test_over_deep_dense_form_is_one_line(self, command, capsys, time_limit):
        with time_limit(10.0):
            assert main([command, "--depth", "13"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: depth 13 ") and err.count("\n") == 1
        assert "exceeds the form depth cap 12" in err

    def test_python_m_dyadlab(self, tmp_path):
        src = os.path.dirname(os.path.dirname(dyadlab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "dyadlab", "a2", "--depth", "3"],
                              cwd=tmp_path, env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["a2"]

    def test_a2_deep_still_runs(self, capsys, time_limit):
        with time_limit(20.0):
            assert main(["a2", "--depth", "16"]) == 0
        assert json.loads(capsys.readouterr().out)["a2"]


def _violating_runner(Q, valid_trials, seed):
    return bellman.CampaignReport(
        lemma="stub", trials_valid=10, trials_total=10, violations=3,
        max_needed_k=9.0, asserted_k=4.5, worst_case_point=None)


class TestPresets:
    """The weight subcommands are presets of run_sweep."""

    def test_norm_complexity_two_stays_out_of_csv(self, tmp_path):
        out_csv, out_json = tmp_path / "n.csv", tmp_path / "n.json"
        assert main(["norm", "--depth", "3", "--complexity", "2",
                     "--out", str(out_csv), "--json", str(out_json)]) == 0
        row = next(csv.DictReader(out_csv.read_text().splitlines()))
        assert row["shift1_norm"] == ""
        data = json.loads(out_json.read_text())
        assert data["complexity"] == 2
        assert data["norms"][0]["norm"] > 0

    @pytest.mark.parametrize("argv", [
        ["carleson", "--param", "0.3", "--param", "0.6", "--param", "0.9", "--depth", "4"],
        ["embed", "--param", "0.3", "--param", "0.7", "--depth", "3"],
    ])
    def test_jobs_do_not_change_csv(self, argv, tmp_path):
        texts = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            assert main([*argv, "--jobs", jobs, "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_a2_matches_library(self, tmp_path):
        out = tmp_path / "a2.json"
        assert main(["a2", "--family", "cascade", "--param", "0.4", "--seed", "3",
                     "--depth", "3", "--depth", "6", "--json", str(out)]) == 0
        got = json.loads(out.read_text())["a2"]
        for entry, depth in zip(got, (3, 6), strict=True):
            rep = a2_characteristic(gen_cascade(depth, 0.4, 3))
            assert entry == {"Q": rep.characteristic,
                             "witness": [rep.witness.level, rep.witness.position]}

    def test_carleson_matches_library(self, tmp_path):
        out = tmp_path / "c.json"
        params = (0.2, 0.5, 0.8)
        assert main(["carleson", "--depth", "5", "--jobs", "1", "--json", str(out),
                     *[a for p in params for a in ("--param", str(p))]]) == 0
        data = json.loads(out.read_text())
        pairs, vavo = [], []
        for p in params:
            w = gen_power(5, p)
            q = a2_characteristic(w).characteristic
            pairs.append((q, embedding.carleson_norm(embedding.carleson_measure_of(w))))
            vavo.append(embedding.two_weight_ratio_max(LeafFunction(w.values / q),
                                                       dual(w).base))
        assert data["max_carleson_over_Q"] == max(n / q for q, n in pairs)
        assert data["max_ratios"]["vavo_ratio_max"] == max(vavo)
        slope, intercept, r2 = fit_slope(pairs)
        assert data["slopes"]["carleson_norm"] == {"slope": slope, "intercept": intercept,
                                                   "r2": r2}

    @pytest.mark.parametrize("command", ["a2", "norm", "embed", "carleson", "bellman"])
    def test_each_summary_fact_is_written_once(self, command, capsys):
        # slopes and max ratios live in the sweep summary only; a preset's
        # own keys restate none of them
        assert main([command, "--depth", "3", "--jobs", "1",
                     "--param", "0.2", "--param", "0.5", "--param", "0.8"]) == 0
        summary = json.loads(capsys.readouterr().out)
        facts = [*summary["slopes"].values(), *summary["max_ratios"].values()]
        sweep_keys = {"config", "schema_version", "slopes", "max_ratios",
                      "dropped_zero_rows"}
        for key, value in summary.items():
            if key not in sweep_keys:
                assert value not in facts, key

    def test_row_error_exits_one_after_writing(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        save_weight(gen_power(3, 0.5), good)
        out_csv, out_json = tmp_path / "s.csv", tmp_path / "s.json"
        assert main(["sweep", "--family", "file", "--file", str(good),
                     "--file", str(tmp_path / "missing.txt"),
                     "--experiments", "a2", "--jobs", "1",
                     "--out", str(out_csv), "--json", str(out_json)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert [r["error"] == "" for r in rows] == [True, False]
        assert json.loads(out_json.read_text())["config"]["family"] == "file"

    def test_experiment_error_is_a_row_error(self, tmp_path, capsys, time_limit):
        # the depth-13 form cannot be built; the depth-4 row is still
        # computed and both files are written before the exit with 1
        out_csv, out_json = tmp_path / "e.csv", tmp_path / "e.json"
        with time_limit(20.0):
            assert main(["embed", "--depth", "4", "--depth", "13", "--jobs", "1",
                         "--out", str(out_csv), "--json", str(out_json)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: depth 13 ") and err.count("\n") == 1
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert [r["depth"] for r in rows] == ["4", "13"]
        assert rows[0]["error"] == ""
        assert float(rows[0]["key_sum_max"]) > 0 and float(rows[0]["termI_max"]) > 0
        assert rows[1]["error"] == err.strip()[len("usage error: "):]
        assert rows[1]["key_sum_max"] == "" and float(rows[1]["Q"]) >= 1.0
        data = json.loads(out_json.read_text())
        assert data["config"]["depths"] == [4, 13]

    @pytest.mark.parametrize("argv", [
        ["a2", "--depth", "3", "--jobs", "1"],
        ["geom", "--Q", "1.5", "--trials", "10"],
    ])
    def test_json_carries_provenance(self, argv, tmp_path):
        out = tmp_path / "p.json"
        assert main([*argv, "--json", str(out)]) == 0
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
        assert json.loads(out.read_text())["provenance"] == {
            "dyadlab": dyadlab.__version__, "numpy": np.__version__,
            "numpy_simd": {"baseline": simd["baseline"], "found": simd["found"]},
            "argv": [*argv, "--json", str(out)]}

    @pytest.mark.parametrize("lemma", ["triangle", "barycenter"])
    def test_campaign_json_names_its_config(self, lemma, tmp_path):
        out = tmp_path / "g.json"
        assert main(["geom", "--lemma", lemma, "--Q", "1.5", "--trials", "10",
                     "--seed", "3", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["config"] == {"lemma": lemma, "Q": 1.5, "trials": 10, "seed": 3}
        assert data["schema_version"] == 4 and data["lemma"] == lemma

    def test_campaign_json_carries_accept_ratio(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["geom", "--Q", "1.5", "--trials", "200", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["accept_ratio"] == data["trials"] / data["trials_total"]
        assert 0.0 < data["accept_ratio"] < 1.0

    @pytest.mark.parametrize("argv", [
        ["geom", "--trials", "10"],
        ["geom", "--lemma", "barycenter", "--trials", "10"],
    ])
    def test_campaign_violation_exits_two(self, argv, monkeypatch, tmp_path, capsys):
        # geom writes its JSON first, then exits 2
        monkeypatch.setattr(bellman, "run_triangle_campaign", _violating_runner)
        monkeypatch.setattr(bellman, "run_barycenter_campaign", _violating_runner)
        out = tmp_path / "v.json"
        assert main([*argv, "--json", str(out)]) == 2
        assert capsys.readouterr().err.startswith("invariant violated: ")
        assert json.loads(out.read_text())["violations"] == 3
