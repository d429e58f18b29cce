#!/usr/bin/env python3
"""Large randomized campaigns for the two convexity-repair lemmas.

Runs the triangle (median-repair, asserted k = 4.5) and barycenter
(asserted k = 40) campaigns over a grid of domain parameters Q and writes
one JSON report per campaign.  Each report carries its Q and seed
(--seed + 1000 i for the i-th Q); each report and each printed line carries
the campaign's acceptance rate (premise-valid over drawn trials) and its
elapsed wall time in seconds.

Example:
    python3 scripts/run_lemma_campaigns.py --trials 100000 --out-dir results/
"""
import json
import pathlib
import sys
import time

from dyadlab.bellman import _check_campaign, run_barycenter_campaign, run_triangle_campaign
from dyadlab.cli import UsageError, _Parser
from dyadlab.tree import DomainError


def main() -> int:
    """Run the campaigns; bad input prints one error line and exits 1."""
    try:
        return run()
    except (UsageError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    ap = _Parser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100_000,
                    help="premise-valid trials per (lemma, Q)")
    ap.add_argument("--Q", type=float, action="append", default=None,
                    help="domain parameters (repeatable); default 1.5 3 10 50")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()
    qs = args.Q or [1.5, 3.0, 10.0, 50.0]
    # refuse any bad input before the first campaign runs
    for i, q in enumerate(qs):
        _check_campaign(q, args.trials, args.seed + 1000 * i)

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name, runner in (("triangle", run_triangle_campaign),
                         ("barycenter", run_barycenter_campaign)):
        reports = []
        for i, q in enumerate(qs):
            t0 = time.perf_counter()
            seed = args.seed + 1000 * i
            rep = runner(Q=q, valid_trials=args.trials, seed=seed)
            js = dict(rep.to_json(), Q=q, seed=seed, elapsed_s=time.perf_counter() - t0)
            reports.append(js)
            status = "OK" if rep.violations == 0 else "VIOLATED"
            failures += rep.violations
            print(f"{name} Q={q}: {rep.trials_valid} valid trials, "
                  f"accept {js['accept_ratio']:.4f}, "
                  f"violations={rep.violations}, max needed k="
                  f"{rep.max_needed_k:.4f} (asserted {rep.asserted_k}), "
                  f"{js['elapsed_s']:.2f} s [{status}]")
        (out / f"{name}_campaign.json").write_text(
            json.dumps(reports, indent=2))
    print(f"wrote {out}/triangle_campaign.json, barycenter_campaign.json")
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    raise SystemExit(main())
