"""Golden outputs of the elementwise kernels: each (kernel, case) output of a
fixed input corpus, built here from seeds (NaN, infinities, signed zeros,
0-d and strided inputs, both memory orders, Q = 1, constant weights and
zero functions among them), is pinned in corpus.json by a digest of its
dtype, shape and bytes (repr for scalars).  Only elementwise outputs go in:
what BLAS computes moves in its last bits with the BLAS kernel, so
tests/test_search_reference.py keeps the form search live.  The campaign,
segment-kernel, embedding, heap-reader, interval-array and formula
reference files hold one case per (kernel, input) family, each checking the
digests of the entries it names through entry() and assert_pinned, so a
failure names the case; every entry is named by one of them, or by
tests/test_bellman.py for the draws above Q = 1.  The test here names
entries computed but not pinned, and pinned ones no longer computed.

np.exp, np.log and np.power round differently in numpy's AVX512 loops, so
the file holds one set of entries per platform, keyed by a digest of those
three on a probe input.  It is pinned for one numpy version and the CPU
targets each set records; on any other numpy or CPU class the digests may
differ.  `PYTHONPATH=src python tests/test_corpus.py` rewrites it from the
current code, for this process and, on an AVX512 CPU, for one with those
targets disabled (NPY_DISABLE_CPU_FEATURES), as on a CPU without them.  It
refuses to drop a pinned set it cannot make on this machine, unless the
file is deleted first.  Only a change that means to change outputs
runs it, and says why.
"""
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from dyadlab import bellman, embedding, shifts, tree, weights
from dyadlab.bellman import (CAMPAIGN_TOL, _barycenter_sampler, _median_premise, _quad_max_01,
                             _segment_checks, _triangle_sampler)
from dyadlab.tree import DomainError, DyadicIndex, LeafFunction
from dyadlab.weights import Weight, gen_cascade, gen_power

CORPUS = Path(__file__).with_name("corpus.json")

REGENERATE = (
    "A numpy or platform change that moves a last bit fails here too: such a "
    "failure needs a regeneration (PYTHONPATH=src python tests/test_corpus.py) "
    "with its reason stated, never a looser comparison.")


# -- digests -------------------------------------------------------------------


def _encode(x) -> bytes:
    """Bytes that determine x: an array's dtype, shape and bytes; the fields
    of a dataclass, the items of a dict, list or tuple, each length-prefixed;
    repr for a number, a numpy scalar, a string or None.  Any other type
    raises TypeError: its repr might hold a memory address."""
    if isinstance(x, np.ndarray):
        return f"ndarray {x.dtype.str} {x.shape} ".encode() + x.tobytes()
    if dataclasses.is_dataclass(x):
        x = (type(x).__name__,) + tuple(getattr(x, f.name) for f in dataclasses.fields(x))
    elif isinstance(x, dict):
        x = ("dict",) + tuple(x.items())
    if isinstance(x, (list, tuple)):
        parts = [_encode(e) for e in x]
        return b"(" + b"".join(len(p).to_bytes(8, "little") + p for p in parts) + b")"
    if x is None or isinstance(x, (int, float, str, np.generic)):
        return repr(x).encode()
    raise TypeError(f"no digest for a {type(x).__name__}")


def digest(x) -> str:
    return hashlib.sha256(_encode(x)).hexdigest()[:16]


def entry(kernel: str, *labels: str, **params) -> str:
    """The corpus name of kernel's output on one case: the case's labels,
    then its parameters as key=repr(value).  The groups below and the
    reference files' cases both name entries through it."""
    return f"{kernel}/" + ",".join([*labels, *(f"{k}={v!r}" for k, v in params.items())])


# -- campaigns and sampling ----------------------------------------------------

SAMPLE_Q = [1.0, 1.0 + 1e-7, 1.5, 3.0, 50.0, 1e6]


def _outcome(call, *args):
    """call(*args), or the message of the DomainError it raises."""
    try:
        return call(*args)
    except DomainError as error:
        return f"DomainError: {error}"


def _streamed(seed, call):
    """call(rng) on a fresh stream of seed, and the stream's next draw."""
    rng = np.random.default_rng(seed)
    return call(rng), rng.random()


def _draws(sampler, Q, batch, seed, times):
    """times consecutive draws of sampler(Q, batch), and the next draw."""
    draw = sampler(Q, batch)
    return _streamed(seed, lambda rng: [draw(rng) for _ in range(times)])


def _mirrored(sampler):
    """sampler's draws, each followed by its (X, x, v) <-> (Y, y, u) mirror
    image, which needs the same k: a campaign over them has ties at every
    new worst case, and keeps the first of the two."""
    def setup(Q, batch):
        draw = sampler(Q, batch)

        def mirrored(rng):
            rows, pts = draw(rng)
            pts = [np.stack([a, a[[1, 0, 3, 2, 5, 4]]], axis=-1).reshape(6, -1) for a in pts]
            return np.stack([2 * rows, 2 * rows + 1], axis=-1).reshape(-1), pts
        return mirrored
    return setup


def campaign_outputs():
    # u, v in [0.1, 10 sqrt(Q)] keep X v and Y u normal up to the largest finite Q
    for sample, Qs in ((bellman.sample_omega, SAMPLE_Q + [1e300, float(np.finfo(float).max)]),
                       (bellman._sample_strip, SAMPLE_Q)):
        for Q, n in itertools.product(Qs, (1, 7, 40000)):
            yield entry(f"bellman.{sample.__name__}", Q=Q, n=n), [
                _streamed(seed, lambda rng: sample(Q, n, rng)) for seed in range(8)]
    # draws with no row to mend, pinned while they matched the sampler from
    # before rows left outside at Q = 1 were drawn again
    for Q in (1.5, 4.0, 50.0):
        yield entry("bellman.sample_omega", "above Q = 1", Q=Q, n=1000), [
            _streamed(seed, lambda rng: bellman.sample_omega(Q, 1000, rng)) for seed in range(20)]
    for sampler in (_triangle_sampler, _barycenter_sampler):
        for Q in (1.0, 1.5, 50.0):
            yield (entry(f"bellman.{sampler.__name__}", Q=Q, batch=5000),
                   [_draws(sampler, Q, 5000, seed, 2) for seed in range(3)])
    # at Q = 1 the barycenter draws redraw some rows, and no draw is valid
    yield (entry("bellman._barycenter_sampler", Q=1.0, batch=40000),
           _draws(_barycenter_sampler, 1.0, 40000, 5, 1))
    for runner in (bellman.run_triangle_campaign, bellman.run_barycenter_campaign):
        for Q in (1.5, 3.0, 50.0):
            for seed, trials, batch in ((0, 20000, 40000), (1, 3000, 4000), (2, 3000, 4000),
                                        (3, 1, 4000)):
                report = runner(Q=Q, valid_trials=trials, seed=seed, batch=batch)
                yield (entry(f"bellman.{runner.__name__}", Q=Q, seed=seed, trials=trials,
                             batch=batch), report.to_json())
        yield (entry(f"bellman.{runner.__name__}", Q=1.0, seed=4, batch=2000),
               _outcome(runner, 1.0, 5, 4, 2000))
    for lemma, sampler, segments in (
            ("triangle", _triangle_sampler, bellman.TRIANGLE_SEGMENTS),
            ("barycenter", _barycenter_sampler, bellman.BARYCENTER_SEGMENTS)):
        report = bellman._run_campaign(lemma, _mirrored(sampler), segments, 1.5, 3000, 1, 40.0,
                                       4000)
        yield entry("bellman._run_campaign", lemma, "mirrored draws"), report.to_json()
    for Q in (1.5, 50.0):
        # the premise on coordinate-major points and membership on the
        # row-major ones
        pts = barycenter_points(Q)
        yield entry("bellman._barycenter_premise", Q=Q), (
            bellman._barycenter_premise([np.ascontiguousarray(p.T) for p in pts], Q),
            np.all([bellman.in_domain_arr(p, Q, CAMPAIGN_TOL) for p in pts], axis=0))


def barycenter_points(Q):
    """Four row-major batches of sample_omega, their barycenter first."""
    rng = np.random.default_rng(9)
    pts = [bellman.sample_omega(Q, 20000, rng) for _ in range(4)]
    return [sum(pts) / 4.0] + pts


# -- the segment kernel and the strip premise ----------------------------------

TINY = 5e-324  # the smallest subnormal
SPECIAL = (np.nan, np.inf, -np.inf, 0.0, -0.0, TINY, -TINY, 1e-310, 1.0, -1.0, 0.5, -0.5,
           2.0, -3.0, 1e-300, -1e300, 1e308, -1e308)
UV_SPECIAL = (0.0, -0.0, -1.0, -1e-3, np.nan, np.inf)


def general_points(rng, n):
    """(6, n) points of mixed size: X, Y, u, v mostly positive, x, y of
    either sign, and a few negative or special coordinates."""
    p = np.abs(rng.standard_normal((6, n))) * np.exp(rng.uniform(-3.0, 3.0, (6, n)))
    p[2:4] *= rng.choice([-1.0, 1.0], size=(2, n))
    p[rng.random((6, n)) < 0.02] *= -1.0
    special = rng.random((6, n)) < 0.02
    p[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return p


def strip_pairs(Q, rng, n=6000):
    """(2, n) (u, v) arrays: strip samples, a fifth of them spread so wide
    that u or v can be below 1e-15, points just off the strip, and zero,
    negative and nan entries."""
    spread = np.where(rng.random(n) < 0.2, 40.0, np.log(10.0))
    u = np.exp(rng.uniform(-spread, spread))
    v = np.exp(rng.uniform(0.0, np.log(Q) if Q > 1 else 0.0, n)) / u
    off = rng.random(n) < 0.2
    v[off] *= 1.0 + 1e-9 * rng.standard_normal(int(off.sum()))
    special = rng.random((2, n)) < 0.03
    uv = np.array([u, v])
    uv[special] = rng.choice(UV_SPECIAL, size=int(special.sum()))
    return uv


def strided_rows():
    """Rows of an (n, 8) array read through .T, which are strided, as the
    kernel reads (n, 6) points."""
    P = np.random.default_rng(3).standard_normal((3000, 8))
    return [P.T[i] for i in range(4)]


def segment_points():
    rng = np.random.default_rng(21)
    return general_points(rng, 4000), general_points(rng, 4000)


def strip_segments(Q):
    rng = np.random.default_rng(5)
    return strip_pairs(Q, rng), strip_pairs(Q, rng)


def segment_outputs():
    g = np.array(list(itertools.product(SPECIAL, repeat=4))).T.copy()  # one 4-tuple a column
    yield entry("bellman._quad_max_01", "special"), _quad_max_01(*g)
    # the scalar checks pass (6,) points, whose rows are numpy scalars
    for zero_d in (np.float64, np.array):
        yield (entry("bellman._quad_max_01", "special", f"0-d {zero_d.__name__}"),
               [_quad_max_01(*[zero_d(c) for c in col]) for col in g.T[::7]])
    for seed in range(4):
        for scale in (1e-3, 1.0, 1e6):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((4, 5000)) * scale
            g[3] = g[0] + g[1] + g[2] + rng.standard_normal(5000) * scale * 1e-12
            # exact-t cases: g1 = -g2 gives t = 1/2, g1 = -2 g2 gives t = 1
            g[1, :100] = -g[2, :100]
            g[1, 100:200] = -2.0 * g[2, 100:200]
            yield entry("bellman._quad_max_01", "random", seed=seed, scale=scale), _quad_max_01(*g)
    yield entry("bellman._quad_max_01", "strided"), _quad_max_01(*strided_rows())
    for tol in (0.0, 1e-12, -1e-9, 1e3):
        p, q = segment_points()
        # and (6,) points, as the scalar checks pass
        yield (entry("bellman._segment_checks", tol=tol),
               (_segment_checks(p, q, tol),
                [_segment_checks(p[:, i], q[:, i], tol) for i in range(0, 4000, 97)]))
    # segments from p to c p, with p on both caps: each cap quadratic is 0
    # up to rounding all along, so caps_ok at tol = 0 turns on the last bits
    rng = np.random.default_rng(13)
    X, Y, u, v = np.exp(rng.uniform(-3.0, 3.0, (4, 4000)))
    sx, sy = rng.choice([-1.0, 1.0], size=(2, 4000))
    p = np.array([X, Y, sx * np.sqrt(X * v), sy * np.sqrt(Y * u), u, v])
    yield (entry("bellman._segment_checks", "along the cap cones"),
           _segment_checks(p, p * np.exp(rng.uniform(-1.0, 1.0, 4000)), 0.0))
    # A and B in the strip, C where the segment from mid(A, B) to C touches
    # uv = Q + tol at its midpoint: the premise turns on the last bits of
    # mid(A, B)
    rng = np.random.default_rng(14)
    u, ratio = np.exp(rng.uniform(-2.0, 2.0, 20000)), np.exp(rng.uniform(-0.7, 0.7, 20000))
    uv = rng.uniform(1.0, 1.3, (2, 20000))
    A, B = np.array([u, uv[0] / u]), np.array([u * ratio, uv[1] / (u * ratio)])
    mid, edge = (A + B) / 2.0, 3.0 + CAMPAIGN_TOL
    # the tangent to uv = edge at (p, edge / p) meets mid at -lam, C at +lam
    lam = -np.sqrt(1.0 - mid[0] * mid[1] / edge)
    p = mid[0] / (1.0 + lam)
    C = np.array([p * (1.0 - lam), edge / p * (1.0 + lam)])
    yield entry("bellman._median_premise", "tolerance edge"), _median_premise([A, B, C], 3.0)
    for Q in (1.0, 1.5, 50.0):
        yield (entry("bellman._strip_segments_ok", Q=Q),
               bellman._strip_segments_ok(*strip_segments(Q), Q))
        rng = np.random.default_rng(8)
        strips = [strip_pairs(Q, rng) for _ in range(3)]
        yield entry("bellman._median_premise", Q=Q), _median_premise(strips, Q)
        yield (entry("bellman._triangle_sampler", Q=Q, batch=4000),
               _draws(_triangle_sampler, Q, 4000, 2, 2))


# -- heap-ordered averages, the weight cache and the embedding kernels ---------


def _weight(depth, seed):
    """Cascades of every roughness, a power weight and a constant weight, in turn."""
    rng = np.random.default_rng(1000 * depth + seed)
    kind = seed % 4
    if kind == 0:
        return gen_power(depth, float(rng.uniform(-0.9, 2.0)))
    if kind == 1:
        return Weight(LeafFunction.constant(depth, float(rng.uniform(0.1, 10.0))))
    if kind == 2:
        return Weight.from_values(np.exp(rng.uniform(-3.0, 3.0, 1 << depth)))
    return gen_cascade(depth, float(rng.uniform(0.05, 0.95)), int(rng.integers(1 << 30)))


def _leaf(depth, seed, salt):
    """Random leaf values; every fifth input is identically zero."""
    if (seed + salt) % 5 == 0:
        return LeafFunction(np.zeros(1 << depth))
    rng = np.random.default_rng([depth, seed, salt])
    return LeafFunction(rng.standard_normal(1 << depth) * 3.0)


def _matrix(a):
    """A form operand's type and matrix; an operator (past depth 8) by its
    products with random blocks on either side instead."""
    if isinstance(a, np.ndarray):
        return "ndarray", a
    rng = np.random.default_rng(a.shape[0])
    return (type(a).__name__, a @ rng.standard_normal((a.shape[1], 3)),
            rng.standard_normal((2, a.shape[0])) @ a)


EMBEDDING_CASES = [(d, s) for d in range(1, 11) for s in range(20)]


def embedding_inputs(depth, seed):
    """A case's weight and its two functions."""
    return _weight(depth, seed), _leaf(depth, seed, 1), _leaf(depth, seed, 2)


def embedding_outputs():
    for case, (depth, seed) in enumerate(EMBEDDING_CASES):
        w, phi, psi = embedding_inputs(depth, seed)
        sig = LeafFunction(1.0 / w.values)
        name = {"d": depth, "seed": seed}
        yield entry("tree.level_functions", **name), [
            (tree.level_averages(v), tree.level_diffs(tree.level_averages(v)),
             tree.haar_analysis(LeafFunction(v)).coefficients)
            for v in (phi.values, w.values, 1.0 / w.values)]
        yield entry("tree.heap_averages", "stack", **name), tree.heap_averages(
            np.array([phi.values, w.values, 1.0 / w.values]))
        m = embedding.carleson_measure_of(w)
        yield entry("weights.cache", **name), (w._avg, w._delta, w._haar[:, 0],
                                        weights.a2_characteristic(w), m.alpha,
                                        embedding.carleson_norm(m))
        if case % 3 == 0:
            form = embedding.term1_form(w)
            yield entry("embedding.term1_form", **name), (
                _matrix(form.left_map), _matrix(form.right_map), form.left_metric,
                form.right_metric)
        yield entry("embedding.kernels", **name), (
            embedding.key_sum(phi, psi, w), embedding.four_terms(phi, psi, w),
            embedding.maximal_weighted(phi, w).values, embedding.duality_product(phi, psi, w),
            embedding.carleson_box_check(phi, psi, w))
        # one interval at every level, leaves included
        rng = np.random.default_rng([depth, seed, 99])
        intervals = [DyadicIndex(lev, int(rng.integers(1 << lev))) for lev in range(depth + 1)]
        yield entry("bellman.point_from_data", **name), [
            (point.as_array(), local) for point, local in
            (bellman.point_from_data(phi, psi, w, J) for J in intervals)]
        yield (entry("embedding.two_weight_ratio_max", "w-sigma", **name),
               embedding.two_weight_ratio_max(w.base, sig))
        if case % 7 == 0:
            rng = np.random.default_rng([depth, seed, 7])
            u = LeafFunction(np.exp(rng.standard_normal(1 << depth)))
            v = LeafFunction(np.exp(rng.standard_normal(1 << depth)))
            yield (entry("embedding.two_weight_ratio_max", "unrelated", **name),
                   embedding.two_weight_ratio_max(u, v))


# -- row operators and the heap readers ----------------------------------------


def _tied(depth):
    """A Carleson sequence on the leftmost path whose ratio
    (1/|L|) sum_{I inside or equal to L} alpha_I is exactly 1, its maximum,
    at every level: alpha = 2^-(lev + 1) above the last internal level and
    2^-(depth - 1) on it."""
    alpha = np.zeros((1 << depth) - 1)
    for lev in range(depth):
        alpha[(1 << lev) - 1] = 2.0 ** -min(lev + 1, depth - 1)
    return alpha


def _heap_weights(depth):
    return {"power": gen_power(depth, 0.6), "cascade": gen_cascade(depth, 0.8, depth)}


def _applications(op, rng):
    """What a row operator gives on random vectors and blocks, both sides,
    and on the identity."""
    rows, cols = op.shape
    out = [op.shape, op.nbytes]
    for x in (rng.standard_normal(cols), rng.standard_normal((cols, 3))):
        out.append(op @ x)
    for y in (rng.standard_normal(rows), rng.standard_normal((rows, 2))):
        out += [op.T @ y, y.T @ op]
    return out + [op @ np.eye(cols)]


def heap_outputs():
    for depth in range(1, 11):
        rng = np.random.default_rng(depth)
        mult = rng.uniform(0.1, 3.0, 1 << depth)
        ops = {"haar": tree._haar_operator(depth),
               "haar,mult": tree._haar_operator(depth, mult)}
        for kind, w in _heap_weights(depth).items():
            ops[f"weighted {kind},mult"] = tree.TwoValuedRowOperator(depth, *w._haar[:, 0],
                                                                     mult)
        for kind, op in ops.items():
            yield entry("tree.TwoValuedRowOperator", kind, d=depth), _applications(op, rng)
        yield entry("tree.haar_analysis_matrix", d=depth), tree.haar_analysis_matrix(depth)
        for kind, w in _heap_weights(depth).items():
            leaf = DyadicIndex(depth, 0)
            yield entry("weights.readers", kind, d=depth), (
                w._avg, w._delta, w._haar, w._alpha, w._carleson, w.sigma,
                weights.weighted_haar_matrix(w), weights.haar_splits(w),
                [(weights.weighted_haar(w, I), weights.haar_split(w, I))
                 for I in tree.internal_indices(depth)],
                [_outcome(lookup, w, leaf) for lookup in (weights.weighted_haar,
                                                          weights.haar_split)])
        rng = np.random.default_rng(50 + depth)
        expansions = [tree.haar_analysis(LeafFunction(v)) for v in
                      (rng.standard_normal(1 << depth), _heap_weights(depth)["cascade"].values)]
        yield entry("tree.haar_analysis", d=depth), [(e.mean, e.coefficients) for e in expansions]
        n = (1 << depth) - 1
        rng = np.random.default_rng(90 + depth)
        # the spike peaks at the deepest internal level, its ratio 2^(depth - 1)
        spike = np.zeros(n)
        spike[-1] = 1.0
        yield entry("embedding.carleson_norm", d=depth), [
            embedding.carleson_norm(embedding.CarlesonMeasure(depth=depth, alpha=alpha))
            for alpha in (np.zeros(n), _tied(depth), spike, rng.uniform(0.0, 1.0, n),
                          *(w._alpha for w in _heap_weights(depth).values()))]
        pairs = []
        for w in _heap_weights(depth).values():
            sig = LeafFunction(w.sigma)
            pairs += [(w.base, sig), (sig, w.base), (w.base, w.base)]
        one = LeafFunction(np.ones(1 << depth))
        yield entry("embedding.two_weight_ratio_max", "heap pairs", d=depth), [
            embedding.two_weight_ratio_max(u, v) for u, v in pairs + [(one, one)]]
    yield entry("weights._carleson_norm", "empty"), weights._carleson_norm(np.zeros(0))


# -- shift coefficients, Carleson measures and Haar expansions to depth 12 -----

SEEDS = (0, 7, 2024)


def interval_outputs():
    for depth in range(1, 13):
        for n in range(4):
            specs = [shifts.ShiftSpec.constant(n, depth),
                     shifts.ShiftSpec.constant(n, depth, value=-0.375),
                     *(shifts.ShiftSpec.random(n, depth, seed=seed) for seed in SEEDS)]
            yield entry("shifts.ShiftSpec", n=n, d=depth), [
                (spec.coeffs, shifts.ShiftOperator(spec).blocks) for spec in specs]
        ws = [gen_power(depth, 0.7), Weight(LeafFunction.constant(depth, 3.0)),
              *(gen_cascade(depth, 0.8, seed) for seed in SEEDS)]
        yield entry("embedding.carleson_measure_of", d=depth), [
            (m.alpha, embedding.carleson_norm(m)) for m in map(embedding.carleson_measure_of, ws)]
        leaves = [LeafFunction(np.random.default_rng([depth, seed]).standard_normal(1 << depth))
                  for seed in SEEDS] + [LeafFunction(np.zeros(1 << depth))]
        yield entry("tree.haar_synthesis", d=depth), [
            (e.mean, e.coefficients, tree.haar_synthesis(e).values)
            for e in map(tree.haar_analysis, leaves)]


# -- the form builders' operands -----------------------------------------------

BUILDERS = {
    "key_sum": embedding.key_sum_form,
    "term1": embedding.term1_form,
    "shift0": lambda w: shifts.shift_form(shifts.ShiftSpec.constant(0, w.depth), w),
    "shift1": lambda w: shifts.shift_form(shifts.ShiftSpec.random(1, w.depth, 7), w),
}


def form_weight(family: str, depth: int):
    return gen_power(depth, 0.8) if family == "power" else gen_cascade(depth, 0.7, 2)


def form_outputs():
    for depth in range(1, 11):
        for kind, build in BUILDERS.items():
            for family in ("power", "cascade"):
                form = build(form_weight(family, depth))
                yield entry("forms.operands", kind, family, d=depth), [
                    _matrix(getattr(form, name)) for name in
                    ("m", "left_map", "right_map", "left_metric", "right_metric")]


GROUPS = (campaign_outputs, segment_outputs, embedding_outputs, heap_outputs,
          interval_outputs, form_outputs)


@functools.cache
def computed(group) -> dict:
    """The digest of each output of group, by entry name, computed once a
    process."""
    out = {}
    # the segment kernel's special values overflow and divide by zero
    with np.errstate(all="ignore") if group is segment_outputs else nullcontext():
        for name, value in group():
            assert name not in out, f"two outputs named {name}"
            out[name] = digest(value)
    return out


def compute() -> dict:
    """The digest of every (kernel, case) output, by entry name."""
    out = {}
    for group in GROUPS:
        for name, value in computed(group).items():
            assert name not in out, f"two outputs named {name}"
            out[name] = value
    return out


def platform() -> str:
    """The digest of np.exp, np.log and np.power on a probe input: the
    elementwise functions whose last bits this process's CPU features set."""
    x = np.linspace(-700.0, 700.0, 4099)
    y = np.abs(x) + 0.5
    return digest((np.exp(x), np.log(y), np.power(y, 0.37)))


def cpu_targets() -> str:
    """The CPU targets numpy dispatches to in this process.  The table is
    private to numpy, so only a failure message and a regeneration read it."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return "unknown"
    return " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f])


def pin_this_process() -> dict:
    return {platform(): {"cpu_targets": cpu_targets(), "entries": compute()}}


@functools.cache
def _pinned() -> dict:
    return json.loads(CORPUS.read_text())


def supported_setup() -> str:
    """The numpy version and the CPU targets corpus.json is pinned for, and
    this process's."""
    pinned = _pinned()
    return (f"{CORPUS.name} is pinned for numpy {pinned['numpy']} on the CPU targets "
            + " and ".join(f"[{p['cpu_targets']}]" for p in pinned["platforms"].values())
            + f"; this process runs numpy {np.__version__} on [{cpu_targets()}].")


def _pinned_here() -> dict:
    """corpus.json's entries for this platform."""
    platforms = _pinned()["platforms"]
    assert platform() in platforms, (
        f"{CORPUS.name} pins no entries for this platform's np.exp, np.log and np.power "
        f"(digest {platform()}). {supported_setup()} {REGENERATE}")
    return platforms[platform()]["entries"]


def _fail_on(problems, *notes):
    assert not problems, "\n".join(
        [f"{len(problems)} corpus entries fail. {supported_setup()}"] + problems
        + [*notes, REGENERATE])


def assert_pinned(group, *names):
    """Each named output of group, as the code computes it now, has the
    digest that corpus.json pins for it."""
    got, want = computed(group), _pinned_here()
    _fail_on([f"not computed: {name}" for name in names if name not in got]
             + [f"missing from {CORPUS.name}: {name}" for name in names
                if name in got and name not in want]
             + [f"differs: {name}" for name in names
                if name in got and name in want and got[name] != want[name]],
             f"dict(test_corpus.{group.__name__}())[name] rebuilds an entry's output.")


def test_corpus_pins_every_entry_and_no_other():
    # the reference files' cases check the digests; this names entries
    # computed but not pinned, and pinned ones no longer computed
    got, want = compute(), _pinned_here()
    _fail_on([f"not pinned: {name}" for name in got if name not in want]
             + [f"stale (no longer computed): {name}" for name in want if name not in got])


if __name__ == "__main__":
    if sys.argv[1:] == ["--this-process"]:
        json.dump(pin_this_process(), sys.stdout)
        sys.exit()
    platforms = pin_this_process()
    avx512 = [f for f in cpu_targets().split() if "AVX512" in f or f == "X86_V4"]
    if avx512:
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(avx512))
        child = subprocess.run([sys.executable, __file__, "--this-process"], env=env,
                               stdout=subprocess.PIPE, check=True)
        platforms.update(json.loads(child.stdout))
    # a set pinned for CPU targets this machine cannot reproduce is not dropped
    dropped = [f"[{p['cpu_targets']}]" for key, p in
               (_pinned()["platforms"].items() if CORPUS.exists() else ()) if key not in platforms]
    if dropped:
        sys.exit(f"not written: this machine cannot reproduce the entries pinned for the CPU "
                 f"targets {' and '.join(dropped)}; regenerate on one that can, or delete "
                 f"{CORPUS} first to write only the sets made here")
    CORPUS.write_text(json.dumps({"numpy": np.__version__, "platforms": platforms},
                                 indent=0) + "\n")
    print(f"wrote {len(platforms)} platforms of {len(platforms[platform()]['entries'])} "
          f"entries to {CORPUS}", file=sys.stderr)
