#!/usr/bin/env python3
"""Write perfbench/reference.json: the input pools the workload seeds pick
from, and the value the current source computes for every pool entry.

Every pool entry must pass its output check; the script stops with an
error on the first one that fails.  The one exception is KNOWN_FAILING: two
barycenter campaigns at Q = 50 that report spurious violations at the commit
that defined the benchmark (a point drawn on the y-cap gives a cap quadratic
of about 1.02e-12 at the segment's end, above the absolute tolerance 1e-12,
where the cap values are near 4e3).  They are skipped without being run and
listed under "excluded".  Once the tolerance scales with the values, empty
the list and regenerate.

The committed file was made at the commit that introduced the benchmark, so
``value_ratio`` compares later code against that code.  Regenerate it only
when the workload configuration in workloads.py changes, and say so in the
change that does it.

Usage (from the repository root):
    python3 perfbench/make_reference.py
"""
import json
import sys

import run  # pins the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from dyadlab import bellman  # noqa: E402

POOL_SEED = 2011
KNOWN_FAILING = {
    "barycenter:Q=50.0:137677007": "2 violations",
    "barycenter:Q=50.0:603764293": "1 violations",
}


def row_cells(name, family, param, seed):
    row = wl._row_item(name, family, param, seed, None).run()
    return {col: row[col] for col in wl.FORM_CELLS}


def main():
    rng = np.random.default_rng(POOL_SEED)
    out = {"config": wl.CONFIG}
    for name, spec in wl.SWEEPS.items():
        table = {"power": {repr(a): row_cells(name, "power", a, 0) for a in spec["power"]},
                 "cascades": []}
        for _ in range(spec["pool"]):
            eps = round(float(rng.uniform(0.2, 0.9)), 4)
            seed = int(rng.integers(1 << 30))
            table["cascades"].append({"eps": eps, "seed": seed,
                                      "cells": row_cells(name, "cascade", eps, seed)})
        out[name] = table
        print(f"{name}: done", flush=True)
    out["campaigns"] = {}
    out["excluded"] = []
    for lemma in wl.RUNNERS:
        out["campaigns"][lemma] = {}
        for q in wl.CAMPAIGN["Q"]:
            pool = []
            while len(pool) < wl.CAMPAIGN["pool"]:
                seed = int(rng.integers(1 << 30))
                item = wl._campaign_item(lemma, q, seed, 1.0)
                if item.label in KNOWN_FAILING:
                    out["excluded"].append({"item": item.label,
                                            "failure": KNOWN_FAILING[item.label]})
                    continue
                rep = item.run()
                try:
                    item.check(rep)
                except wl.CheckFailed as exc:
                    sys.exit(f"error: {item.label} fails its output check: {exc}")
                pool.append({"seed": seed, "max_needed_k": rep.max_needed_k})
            out["campaigns"][lemma][repr(q)] = pool
    print("campaigns: done", flush=True)
    out["checks"] = {}
    for q in wl.CHECKS["dp_Q"]:
        pool = []
        while len(pool) < wl.CHECKS["dp_pool"]:
            point = [float(t) for t in bellman.sample_omega(q, 1, rng)[0]]
            value, _ = wl._dp_item(q, point, None).run()
            if value > 0.0:  # a zero reference has no ratio
                pool.append({"point": point, "estimate": value})
        out["checks"][repr(q)] = pool
    print("checks: done", flush=True)
    wl.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE}")


if __name__ == "__main__":
    main()
