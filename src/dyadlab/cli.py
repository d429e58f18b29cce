"""Experiment runner: weight-family sweeps, scaling fits, lemma campaigns.

Subcommands: a2, norm, embed, carleson, bellman, geom, sweep.  CSV is the
contract for sweep output (schema below); JSON summaries carry fitted
slopes, max ratios and `schema_version: 1`.  Exit codes: 0 success,
1 usage error, 2 invariant violation.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import bellman, embedding, shifts
from .tree import DomainError, InvariantError, LeafFunction, StructureError
from .weights import (
    Weight,
    a2_characteristic,
    dual,
    gen_cascade,
    gen_power,
    load_weight,
)

SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "family", "param", "seed", "depth", "Q",
    "key_sum_max", "termI_max", "carleson_norm",
    "vavo_ratio_max", "duality_ratio_max",
]
EXTRA_COLUMNS = ["shift0_norm", "shift1_norm", "bellman_b1_ratio", "error"]

ALL_EXPERIMENTS = (
    "a2", "shift_norm", "key_sum", "four_terms", "carleson", "vavo",
    "duality", "bellman_b1", "lemma_triangle", "lemma_barycenter",
)

WEIGHT_EXPERIMENTS = {
    "a2", "shift_norm", "key_sum", "four_terms", "carleson", "vavo",
    "duality", "bellman_b1",
}


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
    trials: int = 1000
    jobs: int = 0  # 0 -> available cores

    def __post_init__(self):
        if not self.experiments:
            raise UsageError("experiment set must be nonempty")
        for e in self.experiments:
            if e not in ALL_EXPERIMENTS:
                raise UsageError(f"unknown experiment {e!r}")
        if self.family not in ("power", "cascade", "file"):
            raise UsageError(f"unknown family {self.family!r}")
        if self.family != "file" and not self.params:
            raise UsageError("params list must be nonempty")
        if self.family == "file" and not self.files:
            raise UsageError("file family needs at least one file")
        if not self.depths:
            raise UsageError("depths list must be nonempty")
        for d in self.depths:
            if not 1 <= d <= 20:
                raise UsageError(f"depth {d} outside [1, 20]")
        if self.jobs < 0:
            raise UsageError(f"jobs must be >= 0, got {self.jobs}")


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
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _slope_entry(pairs) -> Optional[dict]:
    """The fitted slope as a JSON object, or None when the pairs fix none."""
    try:
        slope, intercept, r2 = fit_slope(pairs)
    except UsageError:
        return None
    return {"slope": slope, "intercept": intercept, "r2": r2}


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
    if cfg.family == "file":
        for depth in cfg.depths:
            for path in cfg.files:
                yield {"family": "file", "param": 0.0, "seed": 0,
                       "depth": depth, "path": path}
    elif cfg.family == "power":
        for depth in cfg.depths:
            for param in cfg.params:
                yield {"family": "power", "param": param, "seed": 0,
                       "depth": depth, "path": None}
    else:
        for depth in cfg.depths:
            for param in cfg.params:
                for seed in cfg.seeds or [0]:
                    yield {"family": "cascade", "param": param, "seed": seed,
                           "depth": depth, "path": None}


def _compute_row(cfg: SweepConfig, job: dict) -> dict:
    row = {c: "" for c in CSV_COLUMNS + EXTRA_COLUMNS}
    row.update(family=job["family"], param=job["param"], seed=job["seed"],
               depth=job["depth"])
    try:
        w = make_weight(job["family"], job["param"], job["seed"], job["depth"],
                        job["path"])
    except (OSError, DomainError, StructureError) as exc:
        row["error"] = str(exc)
        return row
    sig = dual(w)
    q = a2_characteristic(w).characteristic
    row["Q"] = q
    ex = set(cfg.experiments)
    seed = int(job["seed"]) + 7919 * int(job["depth"])
    if "key_sum" in ex or "four_terms" in ex:
        res = embedding.key_sum_form(w).search_sup(cfg.iters, seed, cfg.restarts)
        row["key_sum_max"] = res.value
    if "four_terms" in ex:
        res = embedding.term1_form(w).search_sup(cfg.iters, seed, cfg.restarts)
        row["termI_max"] = res.value
    if "carleson" in ex:
        row["carleson_norm"] = embedding.carleson_norm(embedding.carleson_measure_of(w))
    if "vavo" in ex:
        u_fn = LeafFunction(w.values / q)
        row["vavo_ratio_max"] = embedding.two_weight_ratio_max(u_fn, sig.base)
    if "duality" in ex:
        rng = np.random.default_rng(seed)
        best = 0.0
        for _ in range(32):
            phi = LeafFunction(rng.standard_normal(1 << w.depth))
            psi = LeafFunction(rng.standard_normal(1 << w.depth))
            best = max(best, embedding.duality_product(phi, psi, w).ratio)
        row["duality_ratio_max"] = best
    if "shift_norm" in ex:
        for n, col in ((0, "shift0_norm"), (1, "shift1_norm")):
            spec = shifts.ShiftSpec.constant(n, w.depth)
            row[col] = shifts.norm_lower_search(
                spec, w, iters=cfg.iters, seed=seed, restarts=cfg.restarts
            ).value
    if "bellman_b1" in ex:
        rng = np.random.default_rng(seed)
        pts = bellman.sample_omega(q, 3, rng)
        est = bellman.DpEstimator(Q=q, samples=4, seed=seed)
        row["bellman_b1_ratio"] = max(
            est.b1_ratio(bellman.BellmanPoint.from_array(p), 6) for p in pts
        )
    return row


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
    }, "slopes": {}, "max_ratios": {}, "dropped_zero_rows": {}}

    slope_cols = ["key_sum_max", "termI_max", "carleson_norm",
                  "shift0_norm", "shift1_norm"]
    for col in slope_cols:
        pairs = [(r["Q"], r[col]) for r in rows if r["Q"] != "" and r[col] != ""]
        entry = _slope_entry(pairs)
        if entry:
            summary["slopes"][col] = entry
            summary["dropped_zero_rows"][col] = n_dropped(pairs)
    for col in ("vavo_ratio_max", "duality_ratio_max", "bellman_b1_ratio"):
        vals = [r[col] for r in rows if r[col] != ""]
        if vals:
            summary["max_ratios"][col] = max(vals)

    qs = [r["Q"] for r in rows if not r["error"]]
    for lemma, runner in (("lemma_triangle", bellman.run_triangle_campaign),
                          ("lemma_barycenter", bellman.run_barycenter_campaign)):
        if lemma in cfg.experiments:
            q = max(max(qs), 2.0) if qs else 4.0
            rep = runner(Q=q, valid_trials=cfg.trials,
                         seed=cfg.seeds[0] if cfg.seeds else 0)
            summary[lemma] = rep.to_json()
    return rows, summary


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS + EXTRA_COLUMNS,
                            lineterminator="\n")
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
    sp.add_argument("--json", dest="json_path", default=None,
                    help="JSON output path")
    sp.add_argument("--jobs", type=int, default=0,
                    help="worker processes for sweeps (0 = all cores)")


def build_parser() -> _Parser:
    p = _Parser(prog="dyadlab", description=__doc__)
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
        _add_common(sp)
        if name == "norm":
            sp.add_argument("--complexity", type=int, default=1)
            sp.add_argument("--iters", type=int, default=40)
            sp.add_argument("--exact", action="store_true")
        if name == "embed":
            sp.add_argument("--iters", type=int, default=40)
        if name == "bellman":
            sp.add_argument("--dp-depth", type=int, default=6)
            sp.add_argument("--samples", type=int, default=4)
        if name == "geom":
            sp.add_argument("--lemma", choices=["triangle", "barycenter"],
                            default="triangle")
            sp.add_argument("--trials", type=int, default=10000)
            sp.add_argument("--Q", type=float, default=4.0)
        if name == "sweep":
            sp.add_argument("--experiments",
                            default="a2,key_sum,four_terms,carleson,vavo,duality")
            sp.add_argument("--iters", type=int, default=40)
            sp.add_argument("--trials", type=int, default=1000)
    return p


def _weights_from_args(args):
    depths = args.depth or [6]
    params = args.param if args.param is not None else [0.5]
    seeds = args.seed or [0]
    out = []
    for depth in depths:
        if args.family == "file":
            for path in args.file or []:
                out.append(("file", 0.0, 0, depth, load_weight(path)))
        elif args.family == "power":
            for a in params:
                out.append(("power", a, 0, depth, gen_power(depth, a)))
        else:
            for eps in params:
                for seed in seeds:
                    out.append(("cascade", eps, seed, depth,
                                gen_cascade(depth, eps, seed)))
    if not out:
        raise UsageError("no weights selected")
    return out


def _emit(rows, summary, args):
    csv_text = rows_to_csv(rows) if rows is not None else None
    if args.out and csv_text is not None:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not args.out and not args.json_path:
        print(json.dumps(summary, indent=2, sort_keys=True))


def _blank_row():
    return {c: "" for c in CSV_COLUMNS + EXTRA_COLUMNS}


def cmd_a2(args) -> int:
    rows = []
    witnesses = []
    for family, param, seed, depth, w in _weights_from_args(args):
        rep = a2_characteristic(w)
        row = _blank_row()
        row.update(family=family, param=param, seed=seed, depth=depth,
                   Q=rep.characteristic)
        rows.append(row)
        witnesses.append({"Q": rep.characteristic,
                          "witness": [rep.witness.level, rep.witness.position]})
    _emit(rows, {"schema_version": SCHEMA_VERSION, "a2": witnesses}, args)
    return 0


def cmd_norm(args) -> int:
    rows = []
    values = []
    for family, param, seed, depth, w in _weights_from_args(args):
        spec = shifts.ShiftSpec.constant(args.complexity, depth)
        if args.exact:
            est = shifts.norm_exact_small(spec, w)
        else:
            est = shifts.norm_lower_search(spec, w, iters=args.iters,
                                           seed=seed)
        row = _blank_row()
        q = a2_characteristic(w).characteristic
        col = "shift0_norm" if args.complexity == 0 else "shift1_norm"
        row.update(family=family, param=param, seed=seed, depth=depth, Q=q)
        row[col] = est.value
        rows.append(row)
        values.append({"Q": q, "norm": est.value, "mode": est.mode})
    summary = {"schema_version": SCHEMA_VERSION,
               "complexity": args.complexity, "norms": values}
    entry = _slope_entry([(v["Q"], v["norm"]) for v in values])
    if entry:
        summary["slope"] = entry
    _emit(rows, summary, args)
    return 0


def cmd_embed(args) -> int:
    rows = []
    for family, param, seed, depth, w in _weights_from_args(args):
        row = _blank_row()
        q = a2_characteristic(w).characteristic
        key = embedding.key_sum_form(w).search_sup(args.iters, seed).value
        t1 = embedding.term1_form(w).search_sup(args.iters, seed).value
        row.update(family=family, param=param, seed=seed, depth=depth, Q=q,
                   key_sum_max=key, termI_max=t1)
        rows.append(row)
    summary = {"schema_version": SCHEMA_VERSION}
    for col in ("key_sum_max", "termI_max"):
        entry = _slope_entry([(r["Q"], r[col]) for r in rows])
        if entry:
            summary[col] = entry
    _emit(rows, summary, args)
    return 0


def cmd_carleson(args) -> int:
    rows = []
    for family, param, seed, depth, w in _weights_from_args(args):
        row = _blank_row()
        q = a2_characteristic(w).characteristic
        cn = embedding.carleson_norm(embedding.carleson_measure_of(w))
        u_fn = LeafFunction(w.values / q)
        ratio = embedding.two_weight_ratio_max(u_fn, dual(w).base)
        row.update(family=family, param=param, seed=seed, depth=depth, Q=q,
                   carleson_norm=cn, vavo_ratio_max=ratio)
        rows.append(row)
    summary = {"schema_version": SCHEMA_VERSION,
               "max_carleson_over_Q": max(r["carleson_norm"] / r["Q"] for r in rows),
               "max_vavo_ratio": max(r["vavo_ratio_max"] for r in rows)}
    entry = _slope_entry([(r["Q"], r["carleson_norm"]) for r in rows])
    if entry:
        summary["carleson_norm"] = entry
    _emit(rows, summary, args)
    return 0


def cmd_bellman(args) -> int:
    rows = []
    reports = []
    for family, param, seed, depth, w in _weights_from_args(args):
        q = a2_characteristic(w).characteristic
        rng = np.random.default_rng(seed)
        est = bellman.DpEstimator(Q=q, samples=args.samples, seed=seed)
        pts = bellman.sample_omega(q, 3, rng)
        ratio = max(est.b1_ratio(bellman.BellmanPoint.from_array(p), args.dp_depth)
                    for p in pts)
        row = _blank_row()
        row.update(family=family, param=param, seed=seed, depth=depth, Q=q,
                   bellman_b1_ratio=ratio)
        rows.append(row)
        reports.append({"Q": q, "b1_ratio": ratio, "dp_depth": args.dp_depth})
    _emit(rows, {"schema_version": SCHEMA_VERSION, "bellman": reports}, args)
    return 0


def cmd_geom(args) -> int:
    seed = (args.seed or [0])[0]
    if args.lemma == "triangle":
        rep = bellman.run_triangle_campaign(Q=args.Q, valid_trials=args.trials,
                                            seed=seed)
    else:
        rep = bellman.run_barycenter_campaign(Q=args.Q, valid_trials=args.trials,
                                              seed=seed)
    summary = {"schema_version": SCHEMA_VERSION, **rep.to_json()}
    _emit(None, summary, args)
    if rep.violations:
        raise InvariantError(
            f"{rep.lemma} lemma violated in {rep.violations} trials"
        )
    return 0


def cmd_sweep(args) -> int:
    cfg = SweepConfig(
        family=args.family,
        params=args.param if args.param is not None else [],
        depths=args.depth or [6],
        seeds=args.seed or [0],
        experiments=tuple(e for e in args.experiments.split(",") if e),
        files=tuple(args.file or []),
        iters=args.iters,
        trials=args.trials,
        jobs=args.jobs,
    )
    rows, summary = run_sweep(cfg)
    _emit(rows, summary, args)
    return 0


COMMANDS = {
    "a2": cmd_a2,
    "norm": cmd_norm,
    "embed": cmd_embed,
    "carleson": cmd_carleson,
    "bellman": cmd_bellman,
    "geom": cmd_geom,
    "sweep": cmd_sweep,
}


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
