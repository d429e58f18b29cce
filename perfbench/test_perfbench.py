"""Tests of the benchmark itself.

Run from the repository root:
    python3 -m pytest -q perfbench
"""
import json
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from dyadlab import bellman, embedding, forms, shifts, tree, weights  # noqa: E402
import dyadlab  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, -1]


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    tree_spans = [
        span("cli.run_sweep", 0.0, 10.0, -1),
        span("forms.AbsBilinearForm.search_sup", 1.0, 4.0, 0),
        span("forms.AbsBilinearForm.search_sup", 5.0, 9.0, 0),
        span("numpy.linalg.svd", 6.0, 7.0, 2),
    ]
    assert spans.self_times(tree_spans) == [3.0, 3.0, 3.0, 1.0]
    per_name, per_module = spans.aggregate(tree_spans)
    assert per_name["forms.AbsBilinearForm.search_sup"] == [2, 6.0]
    assert per_module == {"cli": 3.0, "forms": 6.0, "numpy": 1.0}
    vals = layers.values(per_name, per_module, {"traced_wall_s": 10.0,
                                                "untraced_wall_s": 9.0, "spans": 4})
    assert vals["forms.linalg.svd_calls"] == 1
    assert vals["forms.linalg_s"] == 1.0
    assert vals["forms.self_s"] == 6.0
    assert vals["cli.run_sweep.calls"] == 1
    assert vals["trace.overhead_s"] == 1.0


def _originals():
    return {
        "tree.level_averages": tree.level_averages,
        "embedding.level_averages": embedding.level_averages,
        "package.a2_characteristic": dyadlab.a2_characteristic,
        "ShiftSpec.constant": shifts.ShiftSpec.__dict__["constant"],
        "AbsBilinearForm.__init__": forms.AbsBilinearForm.__dict__["__init__"],
        "AbsBilinearForm.search_sup": forms.AbsBilinearForm.__dict__["search_sup"],
        "svd": np.linalg.svd,
    }


def test_tracer_wraps_and_restores():
    before = _originals()
    rec = spans.Recorder()
    with spans.Tracer(rec) as tracer:
        during = _originals()
        assert all(during[k] is not before[k] for k in before)
        w = weights.gen_power(2, 0.5)
        phi = tree.LeafFunction([1.0, -2.0, 0.5, 3.0])
        embedding.key_sum(phi, phi, w)
        embedding.key_sum_form(w).search_sup(iters=5, seed=0, restarts=1)
        np.linalg.svd(np.eye(2))  # outside any forms span: not counted
    assert _originals() == before
    per_name, _ = spans.aggregate(rec.spans)
    # level_averages and level_diffs are bound into embedding by `from .tree import`
    key_sum = [i for i, s in enumerate(rec.spans) if s[0] == "embedding.key_sum"][0]
    assert [s[0] for s in rec.spans if s[3] == key_sum] == [
        "tree.level_averages", "tree.level_diffs"] * 2
    assert per_name["forms.AbsBilinearForm.search_sup"][0] == 1
    assert per_name["numpy.linalg.svd"][0] > 0
    assert all(rec.spans[s[3]][0].startswith("forms.")
               for s in rec.spans if s[0] == "numpy.linalg.svd")
    assert tracer.form_bytes == (3 * 3 + 2 * 3 * 4) * 8  # m is 3x3, both maps 3x4


def test_tracer_restores_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.Tracer(spans.Recorder()):
            raise RuntimeError("boom")
    assert _originals() == before


def test_meter_leaves_out_its_probes_and_restores_the_timer():
    before = signal.getsignal(signal.SIGPROF)
    with speed.Meter() as meter:
        a = meter.mark()
        busy_until = time.process_time() + 0.35
        while time.process_time() < busy_until:
            pass
        b = meter.mark()
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    inside = meter.probes[a[1]:b[1]]
    assert len(inside) >= 2  # one every PROBE_EVERY_S of CPU time
    seconds, scale = meter.interval(a, b)
    assert seconds == pytest.approx(b[0] - a[0] - sum(e - s for s, e in inside))
    cap = 2.0 * np.median([e - s for s, e in meter.probes])
    around = [min(e - s, cap) for s, e in meter.probes[a[1] - 1:b[1] + 1]]
    assert scale == pytest.approx(speed.REFERENCE_S * len(around) / sum(around))


def _stub_report(violations):
    def runner(Q, valid_trials, seed):
        return bellman.CampaignReport(
            lemma="stub", trials_valid=valid_trials, trials_total=2 * valid_trials,
            violations=violations, max_needed_k=1.0, asserted_k=4.5,
            worst_case_point=None)

    return runner


def test_forced_check_failure_raises_fail_ratio(monkeypatch):
    monkeypatch.setattr(bellman, "run_triangle_campaign", _stub_report(violations=1))
    monkeypatch.setattr(bellman, "run_barycenter_campaign", _stub_report(violations=0))
    wl = workloads.build("campaigns", 1)
    res = workloads.run_pass(wl)
    assert res.attempted == 8
    assert len(res.failures) == 4  # every triangle campaign
    assert all("violations" in f for f in res.failures)


def test_exception_and_time_limit_are_failures(monkeypatch):
    def hang(Q, valid_trials, seed):
        while True:
            time.sleep(0.01)

    def explode(Q, valid_trials, seed):
        raise ValueError("bad Q")

    monkeypatch.setattr(bellman, "run_triangle_campaign", hang)
    monkeypatch.setattr(bellman, "run_barycenter_campaign", explode)
    monkeypatch.setitem(workloads.ITEM_LIMIT, "campaigns", 0.05)
    wl = workloads.build("campaigns", 1)
    res = workloads.run_pass(wl)
    assert res.attempted == 8 and len(res.failures) == 8
    assert sum("exceeded" in f for f in res.failures) == 4
    assert sum("ValueError" in f for f in res.failures) == 4


def test_failed_check_gives_exit_1_and_incorrect_result(monkeypatch, capsys):
    monkeypatch.setattr(bellman, "run_triangle_campaign", _stub_report(violations=1))
    monkeypatch.setattr(bellman, "run_barycenter_campaign", _stub_report(violations=0))
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    code = run.main(["--workload", "campaigns", "--seed", "1", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2 > 0


def test_same_seed_same_inputs():
    a, b = workloads.build("sweep_d5", 7), workloads.build("sweep_d5", 7)
    assert [i.label for i in a.items] == [i.label for i in b.items]
    c = workloads.build("checks", 7)
    d = workloads.build("checks", 8)
    assert [i.label for i in c.items] == [i.label for i in d.items]
    assert c.items[0].run() != d.items[0].run()


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.UNITS)
    assert all(m["unit"] == run.UNITS[m["name"]] for m in bench["end_to_end"])
    assert [m["name"] for m in bench["per_layer"]] == layers.METRICS
    assert all((m["unit"], m["better"]) == layers.unit_of(m["name"])
               for m in bench["per_layer"])
    for w in bench["workloads"]:
        assert workloads.build(w["name"], 1).items


def test_unknown_workload_is_a_usage_error(capsys):
    assert run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
