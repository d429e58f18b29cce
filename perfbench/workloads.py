"""The four benchmark workloads: inputs from a seed, timed items, output checks.

Every call into dyadlab goes through a module attribute (``cli.run_sweep``,
``embedding.key_sum``, ...) so that the traced run's wrappers see it.

Search values (form suprema, lemma constants, DP estimates) are lower bounds
of a supremum.  Each one is compared with the value the seed commit computed
for the same input, stored in ``reference.json``; the seed picks inputs from
the pools stored there, so every input has a reference value.
"""
from __future__ import annotations

import json
import math
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List

import numpy as np

import speed
from dyadlab import bellman, cli, embedding, tree, weights

REFERENCE = Path(__file__).resolve().parent / "reference.json"

BATTERY = ("a2", "carleson", "key_sum", "four_terms", "shift_norm")
FORM_CELLS = ("key_sum_max", "termI_max", "shift0_norm", "shift1_norm")
SLOPE_COLS = ("key_sum_max", "termI_max", "carleson_norm", "shift0_norm", "shift1_norm")

# Depth 5 is the deepest depth where search_sup runs its sign-flip polish
# (n1 + n2 = 62 <= FLIP_LIMIT); depth 10 has no polish and 1023 x 1024 dense
# maps, so dense matrix-vector products set its time and its speed probe.
# Few restarts keep a pass short; the work per restart is the same.
# A cascade row's cost depends on its weight, so each pass holds several
# seeded cascades: the slowest and the middle row then depend little on
# which cascades the seed picks.
SWEEPS = {
    "sweep_d5": {"depth": 5, "iters": 40, "restarts": 2, "power": [-0.5, 0.3, 0.8],
                 "cascades": 12, "pool": 32, "probe": "python"},
    "sweep_d10": {"depth": 10, "iters": 40, "restarts": 1, "power": [0.2, 0.6],
                  "cascades": 2, "pool": 12, "probe": "dense"},
}
CAMPAIGN = {"Q": [1.5, 3.0, 10.0, 50.0], "trials": 50_000, "pool": 16}
CHECKS = {"iters": 1000, "max_depth": 8, "dp_Q": [1.5, 4.0, 20.0],
          "dp_per_Q": 20, "dp_pool": 24, "dp_depth": 8, "dp_samples": 4,
          "dp_seed": 0}
CONFIG = {"sweeps": SWEEPS, "campaign": CAMPAIGN, "checks": CHECKS}

# per-item time limits (s): a hang becomes a failed item
ITEM_LIMIT = {"sweep_d5": 60.0, "sweep_d10": 60.0, "campaigns": 60.0, "checks": 10.0}


class CheckFailed(Exception):
    pass


class ItemTimeout(BaseException):
    """Raised by the interval timer; BaseException so no handler inside the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _finite(v):
    return isinstance(v, (float, int, np.floating)) and math.isfinite(v)


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    # check(output) raises CheckFailed, else returns value/reference ratios
    check: Callable[[object], List[float]]


@dataclass
class Workload:
    name: str
    items: List[Item]
    # finish(outputs) -> (number of pass-level checks, failure messages, extras)
    finish: Callable[[list], tuple]
    # the speed probe whose work resembles the workload's (speed.py)
    probe: Callable[[], float] = speed.probe_python


@dataclass
class PassResult:
    wall: float = 0.0  # seconds, speed probes left out
    scale: float = 1.0  # to the reference speed (speed.Meter)
    item_times: List[tuple] = field(default_factory=list)  # (item index, seconds, scale)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    ratios: List[float] = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def load_reference(path=REFERENCE) -> dict:
    ref = json.loads(Path(path).read_text())
    if ref["config"] != json.loads(json.dumps(CONFIG)):
        raise RuntimeError(f"{path} was made with another workload configuration; "
                           "regenerate it with perfbench/make_reference.py")
    return ref


# -- sweeps ---------------------------------------------------------------


def sweep_config(name, family, param, seed):
    spec = SWEEPS[name]
    return cli.SweepConfig(family=family, params=[param], depths=[spec["depth"]],
                           seeds=[seed], experiments=BATTERY, iters=spec["iters"],
                           restarts=spec["restarts"], jobs=1)


def _row_item(name, family, param, seed, ref_cells):
    cfg = sweep_config(name, family, param, seed)

    def run():
        rows, _ = cli.run_sweep(cfg)
        return rows[0]

    def check(row):
        _require(not row["error"], f"row error: {row['error']}")
        _require(_finite(row["Q"]) and row["Q"] >= 1.0, f"bad Q {row['Q']!r}")
        for col in FORM_CELLS:
            _require(_finite(row[col]) and row[col] > 0.0, f"{col} = {row[col]!r}")
        _require(_finite(row["carleson_norm"]) and row["carleson_norm"] >= 0.0,
                 f"carleson_norm = {row['carleson_norm']!r}")
        return [row[col] / ref_cells[col] for col in FORM_CELLS]

    return Item(f"{family}:{param}:{seed}", run, check)


def _sweep_finish(outputs):
    """Slopes vs Q must fit on every slope column of the pass's good rows."""
    rows = [r for r in outputs if isinstance(r, dict) and not r.get("error")]
    failures = []
    for col in SLOPE_COLS:
        try:
            slope, _, r2 = cli.fit_slope([(r["Q"], r[col]) for r in rows])
        except cli.UsageError as exc:
            failures.append(f"slope {col}: {exc}")
            continue
        if not (math.isfinite(slope) and math.isfinite(r2)):
            failures.append(f"slope {col}: slope={slope} r2={r2}")
    return len(SLOPE_COLS), failures, {}


def build_sweep(name, seed, ref) -> Workload:
    spec = SWEEPS[name]
    table = ref[name]
    items = [_row_item(name, "power", a, 0, table["power"][repr(a)])
             for a in spec["power"]]
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(len(table["cascades"]), size=spec["cascades"], replace=False))
    for k in picks:
        c = table["cascades"][int(k)]
        items.append(_row_item(name, "cascade", c["eps"], c["seed"], c["cells"]))
    return Workload(name, items, _sweep_finish, getattr(speed, "probe_" + spec["probe"]))


# -- campaigns ------------------------------------------------------------

RUNNERS = {"triangle": "run_triangle_campaign", "barycenter": "run_barycenter_campaign"}


def _campaign_item(lemma, q, seed, ref_k):
    trials = CAMPAIGN["trials"]

    def run():
        return getattr(bellman, RUNNERS[lemma])(Q=q, valid_trials=trials, seed=seed)

    def check(rep):
        _require(rep.violations == 0, f"{rep.violations} violations")
        _require(rep.trials_valid == trials, f"trials_valid {rep.trials_valid} != {trials}")
        # max_needed_k is the attribute; the JSON key min_k_holding mislabels it
        _require(rep.max_needed_k <= rep.asserted_k,
                 f"max_needed_k {rep.max_needed_k} > asserted {rep.asserted_k}")
        return [rep.max_needed_k / ref_k]

    return Item(f"{lemma}:Q={q}:{seed}", run, check)


def _campaign_finish(outputs):
    reps = [r for r in outputs if isinstance(r, bellman.CampaignReport)]
    total = sum(r.trials_total for r in reps)
    valid = sum(r.trials_valid for r in reps)
    return 0, [], {"accept_ratio": valid / total if total else 0.0}


def build_campaigns(seed, ref) -> Workload:
    rng = np.random.default_rng(seed)
    items = []
    for lemma in RUNNERS:
        for q in CAMPAIGN["Q"]:
            pool = ref["campaigns"][lemma][repr(q)]
            c = pool[int(rng.integers(len(pool)))]
            items.append(_campaign_item(lemma, q, c["seed"], c["max_needed_k"]))
    return Workload("campaigns", items, _campaign_finish, speed.probe_arrays)


# -- checks ---------------------------------------------------------------


def _criteria_item(i, depth, eps, cseed, phi_vals, psi_vals, level, position):
    """One iteration of the criteria 4/7/8 inner loop."""

    def run():
        w = weights.gen_cascade(depth, eps, cseed)
        phi = tree.LeafFunction(phi_vals)
        psi = tree.LeafFunction(psi_vals)
        ks = embedding.key_sum(phi, psi, w)
        total = embedding.four_terms(phi, psi, w).total()
        lhs, rhs = embedding.carleson_box_check(phi, psi, w)
        ratio = embedding.duality_product(phi, psi, w).ratio
        q = weights.a2_characteristic(w).characteristic
        point, _ = bellman.point_from_data(phi, psi, w, tree.DyadicIndex(level, position))
        inside = bellman.in_domain(point, q, 0.0)
        return ks, total, lhs, rhs, ratio, q, inside

    def check(out):
        ks, total, lhs, rhs, ratio, q, inside = out
        _require(ks <= total * (1.0 + 1e-12) + 1e-15, f"key_sum {ks} > four_terms {total}")
        _require(lhs <= rhs * (1.0 + 1e-12) + 1e-15, f"box lhs {lhs} > rhs {rhs}")
        _require(_finite(ratio) and ratio >= 0.0, f"duality ratio {ratio!r}")
        _require(_finite(q) and q >= 1.0, f"Q = {q!r}")
        _require(inside, "point_from_data outside the domain at zero tolerance")
        return []

    return Item(f"iter:{i}", run, check)


def _dp_item(q, point, ref_value):
    def run():
        est = bellman.DpEstimator(Q=q, samples=CHECKS["dp_samples"], seed=CHECKS["dp_seed"])
        value = est.estimate(bellman.BellmanPoint.from_array(point), CHECKS["dp_depth"])
        return value, len(est.memo)

    def check(out):
        value, _ = out
        _require(_finite(value) and value >= 0.0, f"DP estimate {value!r}")
        return [value / ref_value]

    return Item(f"dp:Q={q}", run, check)


def _checks_finish(outputs):
    memo = sum(o[1] for o in outputs if isinstance(o, tuple) and len(o) == 2)
    return 0, [], {"memo_entries": memo}


def build_checks(seed, ref) -> Workload:
    rng = np.random.default_rng(seed)
    items = []
    for i in range(CHECKS["iters"]):
        depth = int(rng.integers(1, CHECKS["max_depth"] + 1))
        n = 1 << depth
        eps = float(rng.uniform(0.05, 0.85))
        cseed = int(rng.integers(1 << 30))
        phi = rng.standard_normal(n) * 3.0
        psi = rng.standard_normal(n) * 3.0
        level = int(rng.integers(0, depth + 1))
        position = int(rng.integers(1 << level))
        items.append(_criteria_item(i, depth, eps, cseed, phi, psi, level, position))
    for q in CHECKS["dp_Q"]:
        pool = ref["checks"][repr(q)]
        for k in sorted(rng.choice(len(pool), size=CHECKS["dp_per_Q"], replace=False)):
            p = pool[int(k)]
            items.append(_dp_item(q, p["point"], p["estimate"]))
    return Workload("checks", items, _checks_finish)


def build(name, seed) -> Workload:
    ref = load_reference()
    if name in SWEEPS:
        return build_sweep(name, seed, ref)
    if name == "campaigns":
        return build_campaigns(seed, ref)
    if name == "checks":
        return build_checks(seed, ref)
    raise ValueError(f"unknown workload {name!r}")


# -- one pass over the fixed input set -----------------------------------


def run_pass(wl: Workload, rec=None, meter=None) -> PassResult:
    """Run every item once, timing each.  Exceptions, failed checks and
    items that exceed their time limit are failures.  With a running
    speed.Meter, times leave out the speed probes and come with their scale
    to the reference speed; without one the scale is 1."""
    limit = ITEM_LIMIT[wl.name]
    res = PassResult()
    outputs, marks = [], []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    mark = meter.mark if meter else (lambda: (time.perf_counter(), 0))
    pass_start = mark()
    try:
        for i, item in enumerate(wl.items):
            if rec is not None:
                rec.item = i
            res.attempted += 1
            out = None
            try:
                signal.setitimer(signal.ITIMER_REAL, limit)
                try:
                    a = mark()
                    out = item.run()
                    marks.append((i, a, mark()))
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
                res.ratios.extend(item.check(out))
            except ItemTimeout:
                res.failures.append(f"{item.label}: exceeded {limit:.1f} s")
            except CheckFailed as exc:
                res.failures.append(f"{item.label}: {exc}")
            except Exception as exc:  # any error of the program is a failed item
                res.failures.append(f"{item.label}: {type(exc).__name__}: {exc}")
            outputs.append(out)
        if rec is not None:
            rec.item = -1
        checks, failures, res.extras = wl.finish(outputs)
        res.attempted += checks
        res.failures.extend(failures)
    finally:
        signal.signal(signal.SIGALRM, previous)
    interval = meter.interval if meter else (lambda a, b: (b[0] - a[0], 1.0))
    res.wall, res.scale = interval(pass_start, mark())
    res.item_times = [(i, *interval(a, b)) for i, a, b in marks]
    return res
