#!/usr/bin/env python3
"""dyadlab benchmark: one workload per process, measured for a fixed time.

Usage (from the repository root):
    python3 perfbench/run.py --workload sweep_d5 --seed 1 --seconds 20 --trace 0

With --trace 0 the run times passes over the workload's fixed input set
until --seconds is used up and prints the end-to-end metrics, every time
scaled to a reference machine speed (see speed.py).  With --trace 1 it runs
untraced and traced passes in turn for about as long and prints the
per-layer metrics.  The last line of standard output is one JSON object; a
readable summary goes to standard error, and the full record (provenance,
every pass, failures, spans) to perfbench/out/.  The exit code is 1 when
any output check failed and 2 on a usage error or a missing source tree.
"""
import os

# Fixed BLAS thread count for every run on every commit, set before numpy
# loads.  One thread: search values do not depend on the core count, and a
# shared 2-core machine gives steadier times.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # extra fresh processes that repeat the set-up
SETUP_SPEED_PROBES = 5  # speed probes right after each set-up, for its scale
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="sweep_d5, sweep_d10, campaigns or checks")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def set_up(args):
    """Import dyadlab and build the workload's inputs; returns (workloads
    module, workload, seconds taken scaled to the reference speed by the
    speed probes run right after)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and dyadlab

    wl = workloads.build(args.workload, args.seed)
    elapsed = time.perf_counter() - t0
    import dyadlab
    import speed

    if Path(dyadlab.__file__).resolve().parent != SRC / "dyadlab":
        raise RuntimeError(f"imported dyadlab from {dyadlab.__file__}, not {SRC}")
    probes = [speed.probe_python() for _ in range(SETUP_SPEED_PROBES)]
    return workloads, wl, elapsed * speed.REFERENCE_S / statistics.fmean(probes)


def probe_setup(args):
    """Scaled set-up time of a fresh process, SETUP_PROBES times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def percentile(values, q):
    """q-th percentile (0 < q < 100) by linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def provenance(args):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "dyadlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "git_sha": sha or None, "source_sha256": digest.hexdigest(),
        "argv": sys.argv, "workload": args.workload, "seed": args.seed,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def another_round(start, done, seconds, minimum):
    """Whether to start round done+1: always below `minimum` rounds, else
    only if a round of average length still ends within `seconds`."""
    elapsed = time.monotonic() - start
    return done < minimum or elapsed * (done + 1) / done <= seconds


def measure(workloads, wl, seconds):
    """Passes over the input set until `seconds` is used, with the speed
    meter running."""
    import speed

    start = time.monotonic()
    passes = []
    with speed.Meter(wl.probe) as meter:
        while not passes or another_round(start, len(passes), seconds, MIN_PASSES):
            passes.append(workloads.run_pass(wl, meter=meter))
    return passes, meter


def geomean(ratios):
    if not ratios or min(ratios) <= 0.0:
        return 0.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def untraced_metrics(passes, setups):
    """End-to-end metrics.  Every time is scaled to the reference machine
    speed (speed.Meter): the speed changes within a run and between runs by
    up to 2x, the scaled times by far less.  `setups` holds scaled set-up
    times.  Pass time is the median over passes; an item's latency is its
    median over the passes, and the percentiles are over items."""
    per_item = {}
    for p in passes:
        for i, t, scale in p.item_times:
            per_item.setdefault(i, []).append(t * scale)
    items = [statistics.median(ts) for ts in per_item.values()]
    ratios = [r for p in passes for r in p.ratios]
    return {
        "wall_s": statistics.median(p.wall * p.scale for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "item_p50_ms": 1e3 * statistics.median(items) if items else 0.0,
        "item_p99_ms": 1e3 * percentile(items, 99) if items else 0.0,
        "value_ratio": geomean(ratios),
    }


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "item_p50_ms": "ms",
         "item_p99_ms": "ms", "value_ratio": "ratio"}


def traced_run(workloads, wl, seconds, record_base):
    """Untraced and traced passes in turn (at least MIN_TRACED_PAIRS pairs,
    then until `seconds` is used).  Each per-layer metric is the median over
    the traced passes (the overhead: over the pairs)."""
    import layers
    import spans

    start = time.monotonic()
    untraced, traced, recorders, per_pass = [], [], [], []
    while not traced or another_round(start, len(traced), seconds, MIN_TRACED_PAIRS):
        untraced.append(workloads.run_pass(wl))
        rec = spans.Recorder()
        with spans.Tracer(rec) as tracer:
            p = workloads.run_pass(wl, rec)
        traced.append(p)
        recorders.append(rec)
        per_name, per_module = spans.aggregate(rec.spans)
        extras = dict(p.extras, form_bytes=tracer.form_bytes, spans=len(rec.spans),
                      traced_wall_s=p.wall, untraced_wall_s=untraced[-1].wall)
        per_pass.append((layers.values(per_name, per_module, extras), per_name))
    spans.write(record_base.with_suffix(".spans.csv.gz"), recorders)
    metrics = {m: (statistics.median_low(v[m] for v, _ in per_pass), layers.unit_of(m)[0])
               for m in layers.METRICS}
    first = per_pass[0][1]
    every_span = {name: {"calls": c, "self_s": s} for name, (c, s) in sorted(first.items())}
    return untraced + traced, metrics, every_span


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dyadlab" / "__init__.py").is_file():
        print(f"error: no dyadlab source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        workloads, wl, setup_main = set_up(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_main}))
        return 0

    OUT.mkdir(exist_ok=True)
    record_base = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": provenance(args), "config": workloads.CONFIG}
    if args.trace:
        passes, metrics, record["spans_first_traced_pass"] = traced_run(
            workloads, wl, args.seconds, record_base)
    else:
        setups = [setup_main] + probe_setup(args)
        passes, meter = measure(workloads, wl, args.seconds)
        metrics = {k: (v, UNITS[k]) for k, v in untraced_metrics(passes, setups).items()}
        record["setup_times_s"] = setups
        record["probes_s"] = [e - s for s, e in meter.probes]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    record.update(
        passes=[{"wall_s": p.wall, "items": len(p.item_times), "attempted": p.attempted,
                 "failed": len(p.failures), "scale": p.scale,
                 "item_s": p.item_times} for p in passes],
        item_samples=sum(len(p.item_times) for p in passes),
        fail_ratio=len(failures) / attempted, failures=failures[:50],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    record_base.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
          f"{record['item_samples']} timed items, attempted {attempted}, "
          f"failed {len(failures)} (fail_ratio {record['fail_ratio']:.4g})", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"  {k:<48} {v:>14.6g} {u}", file=sys.stderr)
    for f in failures[:10]:
        print(f"  FAILED {f}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
