#!/usr/bin/env python3
"""Scaling sweep over the power and cascade weight families.

Runs the standard experiment battery (Carleson norm, key-sum and first-term
form norms, shift form norms) across a Q range, writes one CSV per family
plus a JSON summary with fitted log-log slopes vs Q (each family's summary
carries the CLI's `provenance` object).  Bad options are
refused before the first sweep; a row that carries an error is written
like the others, and the script then exits 1 with the first row error.

Example:
    python3 scripts/run_scaling_sweep.py --depth 6 --out-dir results/
"""
import json
import pathlib
import sys

import numpy as np

from dyadlab.cli import SweepConfig, UsageError, _Parser, provenance, rows_to_csv, run_sweep
from dyadlab.tree import DomainError, StructureError

EXPERIMENTS = ("a2", "carleson", "key_sum", "four_terms", "shift_norm")


def main() -> int:
    """Run the sweeps; bad input prints one error line and exits 1."""
    try:
        return run()
    except (UsageError, DomainError, StructureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    ap = _Parser(description=__doc__)
    ap.add_argument("--depth", type=int, default=6)
    ap.add_argument("--cascades", type=int, default=50,
                    help="number of random cascade weights")
    ap.add_argument("--eps-lo", type=float, default=0.2)
    ap.add_argument("--eps-hi", type=float, default=0.9)
    ap.add_argument("--jobs", type=int, default=0, help="0 = all cores")
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()
    if args.cascades < 1:
        raise UsageError(f"need at least 1 cascade, got {args.cascades}")
    for name, eps in (("--eps-lo", args.eps_lo), ("--eps-hi", args.eps_hi)):
        if not 0.0 <= eps < 1.0:
            raise UsageError(f"{name} must lie in [0, 1), got {eps}")

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}

    power_params = [round(a, 2) for a in np.arange(-0.9, 0.95, 0.1)
                    if abs(a) > 1e-9]
    cfg = SweepConfig(family="power", params=power_params,
                      depths=[args.depth], seeds=[0],
                      experiments=EXPERIMENTS, jobs=args.jobs)
    power_rows, summary["power"] = run_sweep(cfg)
    (out / "power_sweep.csv").write_text(rows_to_csv(power_rows))

    rng = np.random.default_rng(0)
    eps = sorted(float(rng.uniform(args.eps_lo, args.eps_hi))
                 for _ in range(args.cascades))
    cfg = SweepConfig(family="cascade", params=eps, depths=[args.depth],
                      seeds=[0], experiments=EXPERIMENTS, jobs=args.jobs)
    cascade_rows, summary["cascade"] = run_sweep(cfg)
    (out / "cascade_sweep.csv").write_text(rows_to_csv(cascade_rows))

    prov = provenance(sys.argv[1:])
    (out / "scaling_summary.json").write_text(json.dumps(
        {fam: dict(s, provenance=prov) for fam, s in summary.items()}, indent=2))
    errors = [r["error"] for r in power_rows + cascade_rows if r["error"]]
    if errors:
        raise UsageError(errors[0])
    for fam in ("power", "cascade"):
        print(f"{fam}: slopes vs Q")
        for col, fit in summary[fam]["slopes"].items():
            print(f"  {col}: slope={fit['slope']:.3f} r2={fit['r2']:.4f}")
    print(f"wrote {out}/power_sweep.csv, cascade_sweep.csv, "
          f"scaling_summary.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
