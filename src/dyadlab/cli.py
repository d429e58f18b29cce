"""Experiment runner: weight-family sweeps, scaling fits, lemma campaigns.

Every weight subcommand is a preset of one sweep (`run_sweep`): it runs a
subset of the experiments on the same rows and adds a few summary keys.
The sweep summary alone holds the slopes (of key_sum_max, termI_max,
carleson_norm and shift{n}_norm) and the max ratios.

  a2        a2                    a2: [{Q, witness}]
  norm      shift_norm            complexity, norms: [{Q, norm, mode}]
                                  (mode exact at every complexity to depth 4)
  embed     key_sum, four_terms   (the sweep summary only)
  carleson  carleson, vavo        max_carleson_over_Q
  bellman   bellman_b1            bellman: [{Q, b1_ratio, dp_depth}], the
                                  DP's saturated estimate (dp_depth 3)
  sweep     --experiments         (the sweep summary only)

Weights: --family power|cascade|file, --param, --depth, --seed, --file,
each repeatable; defaults power, param 0.5, depth 6, seed 0.  --seed is for
cascades only; --family file makes one row per --file, with the file's
depth, and refuses --depth and --param.  Every form cell is its form's sup:
exact wherever the sign enumeration runs (every form up to depth 4), else a
search with seed + 7919 * depth and 6 restarts, whichever subcommand asks.
The key-sum and complexity-0 shift forms have one supremum, so a row that
computes key_sum_max writes it into shift0_norm too.  termI_max is the
exact supremum sqrt(Q) of the term-I form (embedding.term1_form).  --jobs
spreads the rows over worker processes (0 = all cores).
CSV rows have the fixed columns CSV_COLUMNS + EXTRA_COLUMNS; JSON summaries
carry the config, fitted slopes, max ratios and `schema_version: 4`.

geom runs one lemma campaign on no weight: --lemma triangle|barycenter,
--trials, --Q (>= 1, at most bellman.MAX_CAMPAIGN_Q = 1e300), --seed,
--json.  Its JSON is the campaign report with `schema_version` and
`config: {lemma, Q, trials, seed}`.  It is the one campaign entry point of
the CLI; a campaign at a sweep's Q takes --Q from `a2`.

Exit codes: 0 success, 1 usage error, 2 invariant violation (a geom
campaign with violations, after its JSON is written).  A row whose weight
cannot be built (a missing file, a bad parameter) or whose experiments fail
(a form too deep to build, a negative --samples or --complexity, a
--samples above bellman.MAX_SAMPLES) carries the message in its `error`
column and does not stop the run: every output is written, then the
command exits 1 with the first row error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import bellman, embedding, shifts
from .tree import MAX_DEPTH, DomainError, InvariantError, LeafFunction, StructureError, _mean
from .weights import (
    Weight,
    a2_characteristic,
    dual,
    gen_cascade,
    gen_power,
    load_weight,
)

SCHEMA_VERSION = 4

CSV_COLUMNS = [
    "family", "param", "seed", "depth", "Q",
    "key_sum_max", "termI_max", "carleson_norm",
    "vavo_ratio_max", "duality_ratio_max",
]
EXTRA_COLUMNS = ["shift0_norm", "shift1_norm", "bellman_b1_ratio", "error"]

ALL_EXPERIMENTS = (
    "a2", "shift_norm", "key_sum", "four_terms", "carleson", "vavo",
    "duality", "bellman_b1",
)


class UsageError(ValueError):
    pass


@dataclass
class SweepConfig:
    family: str  # power | cascade | file
    params: List[float]
    depths: List[int]
    seeds: List[int]
    experiments: Tuple[str, ...]
    files: Tuple[str, ...] = ()
    iters: int = 40
    restarts: int = 6
    jobs: int = 0  # 0 -> available cores
    complexities: Tuple[int, ...] = (0, 1)  # shift_norm
    samples: int = 4  # bellman_b1: DP directions per split

    def __post_init__(self):
        if not self.experiments:
            raise UsageError("experiment set must be nonempty")
        for e in self.experiments:
            if e not in ALL_EXPERIMENTS:
                raise UsageError(f"unknown experiment {e!r}")
        if self.family not in ("power", "cascade", "file"):
            raise UsageError(f"unknown family {self.family!r}")
        if self.family == "file":
            if not self.files:
                raise UsageError("file family needs at least one file")
            if self.params or self.depths:
                raise UsageError("the file family takes no params or depths: "
                                 "each file gives its weight and depth")
        elif not self.params:
            raise UsageError("params list must be nonempty")
        elif not self.depths:
            raise UsageError("depths list must be nonempty")
        if self.family != "cascade" and any(self.seeds):
            raise UsageError(f"seeds apply to the cascade family only, not {self.family}")
        for d in self.depths:
            if not 1 <= d <= MAX_DEPTH:
                raise UsageError(f"depth {d} outside [1, {MAX_DEPTH}]")
        for a in self.params:  # no family takes a non-finite parameter
            if not np.isfinite(a):
                raise UsageError(f"param must be finite, got {a}")
        if self.jobs < 0:
            raise UsageError(f"jobs must be >= 0, got {self.jobs}")
        if self.iters < 1:
            raise UsageError(f"iters must be >= 1, got {self.iters}")
        if self.restarts < 1:
            raise UsageError(f"restarts must be >= 1, got {self.restarts}")


def fit_slope(pairs: Sequence[Tuple[float, float]]) -> Tuple[float, float, float]:
    """Least squares of log(value) against log(Q); zero values are dropped.

    Returns (slope, intercept, r2).  Raises UsageError when fewer than three
    usable pairs remain or when they have fewer than two distinct Q.
    """
    usable = [(q, v) for q, v in pairs if v > 0 and q > 0]
    if len(usable) < 3:
        raise UsageError(f"need >= 3 positive pairs for a slope fit, got {len(usable)}")
    if len({q for q, _ in usable}) < 2:
        raise UsageError(f"need >= 2 distinct Q for a slope fit, got Q = {usable[0][0]!r} only")
    lq = np.log([q for q, _ in usable])
    lv = np.log([v for _, v in usable])
    slope, intercept = np.polyfit(lq, lv, 1)
    pred = slope * lq + intercept
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - _mean(lv)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def n_dropped(pairs: Sequence[Tuple[float, float]]) -> int:
    return sum(1 for q, v in pairs if not (v > 0 and q > 0))


def make_weight(family: str, param: float, seed: int, depth: int,
                path: Optional[str] = None) -> Weight:
    if family == "power":
        return gen_power(depth, param)
    if family == "cascade":
        return gen_cascade(depth, param, seed)
    if family == "file":
        return load_weight(path)
    raise UsageError(f"unknown family {family!r}")


def _row_jobs(cfg: SweepConfig):
    """One row per file, else per (depth, param, cascade seed); a file row's
    depth is filled in once its weight is read."""
    if cfg.family == "file":
        for path in cfg.files:
            yield {"family": "file", "param": 0.0, "seed": 0, "depth": "", "path": path}
        return
    for depth in cfg.depths:
        for param in cfg.params:
            for seed in (cfg.seeds or [0]) if cfg.family == "cascade" else [0]:
                yield {"family": cfg.family, "param": param, "seed": seed,
                       "depth": depth, "path": None}


def _compute_row(cfg: SweepConfig, job: dict) -> dict:
    """One sweep row.  An error in building the weight or in an experiment
    (an over-deep form, a bad option) ends the row with its message in the
    `error` column; the cells computed before it are kept."""
    row = {c: "" for c in CSV_COLUMNS + EXTRA_COLUMNS}
    row.update(family=job["family"], param=job["param"], seed=job["seed"],
               depth=job["depth"])
    try:
        _fill_row(cfg, job, row)
    except (OSError, DomainError, StructureError) as exc:
        row["error"] = str(exc)
    return row


def _fill_row(cfg: SweepConfig, job: dict, row: dict) -> None:
    w = make_weight(job["family"], job["param"], job["seed"], job["depth"],
                    job["path"])
    row["depth"] = w.depth
    a2 = a2_characteristic(w)
    q = a2.characteristic
    row["Q"] = q
    row["a2_witness"] = [a2.witness.level, a2.witness.position]
    ex = set(cfg.experiments)
    seed = int(job["seed"]) + 7919 * w.depth
    # The key-sum form and the complexity-0 shift form have one supremum
    # (README "Conventions"), so a row that has one estimate of it writes
    # that into both key_sum_max and shift0_norm.
    key = None
    if "key_sum" in ex:
        key = embedding.key_sum_form(w).sup(cfg.iters, seed, cfg.restarts)
        row["key_sum_max"] = key.value
    if "four_terms" in ex:
        row["termI_max"] = math.sqrt(q)  # the exact supremum: see embedding.term1_form
    if "carleson" in ex:
        row["carleson_norm"] = embedding.carleson_norm(embedding.carleson_measure_of(w))
    if "vavo" in ex:
        u_fn = LeafFunction(w.values / q)
        row["vavo_ratio_max"] = embedding.two_weight_ratio_max(u_fn, dual(w).base)
    if "duality" in ex:
        rng = np.random.default_rng(seed)
        best = 0.0
        for _ in range(32):
            phi = LeafFunction(rng.standard_normal(1 << w.depth))
            psi = LeafFunction(rng.standard_normal(1 << w.depth))
            best = max(best, embedding.duality_product(phi, psi, w).ratio)
        row["duality_ratio_max"] = best
    if "shift_norm" in ex:
        for n in cfg.complexities:
            est = key if n == 0 and key is not None else shifts.shift_form(
                shifts.ShiftSpec.constant(n, w.depth), w).sup(cfg.iters, seed, cfg.restarts)
            row[f"shift{n}_norm"] = est.value
            # "exact" only when every shift cell of the row is
            if row.get("shift_norm_mode") != "lower_bound":
                row["shift_norm_mode"] = est.mode
    if "bellman_b1" in ex:
        rng = np.random.default_rng(seed)
        pts = bellman.sample_omega(q, 3, rng)
        est = bellman.DpEstimator(Q=q, samples=cfg.samples, seed=seed)
        row["bellman_b1_ratio"] = max(
            est.b1_ratio(bellman.BellmanPoint.from_array(p), bellman.DP_SATURATION_DEPTH)
            for p in pts
        )


def run_sweep(cfg: SweepConfig):
    """Execute the sweep; returns (rows, summary dict)."""
    jobs = list(_row_jobs(cfg))
    cores = os.cpu_count() or 1
    n_jobs = min(cfg.jobs or cores, len(jobs), cores)
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            rows = list(pool.map(_compute_row, [cfg] * len(jobs), jobs))
    else:
        rows = [_compute_row(cfg, job) for job in jobs]

    summary = {"schema_version": SCHEMA_VERSION, "config": {
        "family": cfg.family, "params": cfg.params, "depths": cfg.depths,
        "seeds": cfg.seeds, "experiments": list(cfg.experiments),
    }, "max_ratios": {}}

    # the summary is over the rows without an error
    good = [r for r in rows if not r["error"]]
    summary["slopes"] = _slopes(good, ["key_sum_max", "termI_max", "carleson_norm",
                                       *(f"shift{n}_norm" for n in cfg.complexities)])
    summary["dropped_zero_rows"] = {col: n_dropped(_pairs(good, col))
                                    for col in summary["slopes"]}
    for col in ("vavo_ratio_max", "duality_ratio_max", "bellman_b1_ratio"):
        vals = [r[col] for r in good if r[col] != ""]
        if vals:
            summary["max_ratios"][col] = max(vals)
    return rows, summary


def rows_to_csv(rows) -> str:
    """The fixed columns of the rows; other row keys (a2_witness,
    shift_norm_mode, shift{n}_norm for n >= 2) stay out of the CSV."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS + EXTRA_COLUMNS,
                            lineterminator="\n", extrasaction="ignore")
    writer.writeheader()
    for r in rows:
        writer.writerow({k: (repr(float(v)) if isinstance(v, float) else v)
                         for k, v in r.items()})
    return buf.getvalue()


# -- command-line interface ----------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sp):
    sp.add_argument("--depth", type=int, action="append", default=None)
    sp.add_argument("--family", default="power",
                    choices=["power", "cascade", "file"])
    sp.add_argument("--param", type=float, action="append", default=None)
    sp.add_argument("--seed", type=int, action="append", default=None)
    sp.add_argument("--file", action="append", default=None,
                    help="weight file (family=file)")
    sp.add_argument("--out", default=None, help="CSV output path")
    sp.add_argument("--jobs", type=int, default=0,
                    help="worker processes, one row each (0 = all cores)")


def build_parser() -> _Parser:
    p = _Parser(prog="dyadlab", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    for name, hlp in (
        ("a2", "A2 characteristic of a weight"),
        ("norm", "weighted shift form norms"),
        ("embed", "key sum / decomposition maxima"),
        ("carleson", "Carleson measure norm and difference-sum ratio"),
        ("bellman", "DP estimate and size-bound ratio"),
        ("geom", "geometric lemma campaigns"),
        ("sweep", "full multi-experiment sweep"),
    ):
        sp = sub.add_parser(name, help=hlp)
        sp.add_argument("--json", dest="json_path", default=None,
                        help="JSON output path")
        if name == "geom":
            sp.add_argument("--lemma", choices=["triangle", "barycenter"],
                            default="triangle")
            sp.add_argument("--trials", type=int, default=10000)
            sp.add_argument("--Q", type=float, default=4.0)
            sp.add_argument("--seed", type=int, default=0)
            continue
        _add_common(sp)
        if name in ("norm", "embed", "sweep"):
            sp.add_argument("--iters", type=int, default=40)
        if name == "norm":
            sp.add_argument("--complexity", type=int, default=1)
        if name == "bellman":
            sp.add_argument("--samples", type=int, default=4)
        if name == "sweep":
            sp.add_argument("--experiments",
                            default="a2,key_sum,four_terms,carleson,vavo,duality")
    return p


def _emit(rows, summary, args) -> int:
    """Write every output, then raise UsageError (exit 1) with the first
    row error, if a row carries one."""
    out = getattr(args, "out", None)  # geom writes no CSV
    text = json.dumps(summary, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(rows_to_csv(rows))
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
    if not out and not args.json_path:
        print(text)
    errors = [r["error"] for r in rows if r["error"]]
    if errors:
        raise UsageError(errors[0])
    return 0


def _pairs(rows, col) -> list:
    """(Q, value) of the rows whose col cell is filled."""
    return [(r["Q"], r[col]) for r in rows if r.get(col, "") != ""]


def _slopes(rows, cols) -> dict:
    """{col: fitted slope} for the columns whose (Q, value) pairs fix one."""
    slopes = {}
    for col in cols:
        try:
            slope, intercept, r2 = fit_slope(_pairs(rows, col))
        except UsageError:
            continue
        slopes[col] = {"slope": slope, "intercept": intercept, "r2": r2}
    return slopes


def _norm_keys(cfg, rows) -> dict:
    n = cfg.complexities[0]
    norms = [{"Q": r["Q"], "norm": r[f"shift{n}_norm"], "mode": r["shift_norm_mode"]}
             for r in rows]
    return {"complexity": n, "norms": norms}


# subcommand -> (experiments, None for sweep's --experiments; a function of
# (cfg, rows without errors) giving the keys it adds to the sweep summary)
PRESETS = {
    "a2": (("a2",), lambda cfg, rows: {
        "a2": [{"Q": r["Q"], "witness": r["a2_witness"]} for r in rows]}),
    "norm": (("shift_norm",), _norm_keys),
    "embed": (("key_sum", "four_terms"), lambda cfg, rows: {}),
    "carleson": (("carleson", "vavo"), lambda cfg, rows: {"max_carleson_over_Q": max(
        (r["carleson_norm"] / r["Q"] for r in rows), default=None)}),
    "bellman": (("bellman_b1",), lambda cfg, rows: {"bellman": [
        {"Q": r["Q"], "b1_ratio": r["bellman_b1_ratio"],
         "dp_depth": bellman.DP_SATURATION_DEPTH} for r in rows]}),
    "sweep": (None, lambda cfg, rows: {}),
}


def cmd_sweep(args) -> int:
    """Every weight subcommand: run its preset's sweep and emit the result."""
    experiments, extra_keys = PRESETS[args.command]
    opts = {k: getattr(args, k) for k in ("iters", "samples") if hasattr(args, k)}
    if hasattr(args, "complexity"):
        opts["complexities"] = (args.complexity,)
    if args.seed and args.family != "cascade":  # --seed 0 too: SweepConfig accepts [0]
        raise UsageError(f"--seed applies to --family cascade only, not {args.family}")
    from_file = args.family == "file"
    cfg = SweepConfig(
        family=args.family,
        params=args.param or ([] if from_file else [0.5]),
        depths=args.depth or ([] if from_file else [6]),
        seeds=args.seed or [0],
        experiments=experiments or tuple(e for e in args.experiments.split(",") if e),
        files=tuple(args.file or []),
        jobs=args.jobs,
        **opts,
    )
    rows, summary = run_sweep(cfg)
    summary.update(extra_keys(cfg, [r for r in rows if not r["error"]]))
    return _emit(rows, summary, args)


def cmd_geom(args) -> int:
    runner = (bellman.run_triangle_campaign if args.lemma == "triangle"
              else bellman.run_barycenter_campaign)
    rep = runner(Q=args.Q, valid_trials=args.trials, seed=args.seed).to_json()
    config = {"lemma": args.lemma, "Q": args.Q, "trials": args.trials, "seed": args.seed}
    _emit([], {"schema_version": SCHEMA_VERSION, "config": config, **rep}, args)
    if rep["violations"]:
        raise InvariantError(f"{rep['lemma']} lemma violated in {rep['violations']} trials")
    return 0


COMMANDS = {"geom": cmd_geom, **{name: cmd_sweep for name in PRESETS}}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except (UsageError, DomainError, StructureError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
