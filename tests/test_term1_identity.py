"""The term-I form's supremum is sqrt(Q), attained at the A2 witness.

The proof is in the docstring of embedding.term1_form; these tests check it
against the exact mode, the witness pair, the search and the sweep rows.
"""
import json
import math

import numpy as np
import pytest

from dyadlab.cli import SweepConfig, main, run_sweep
from dyadlab.embedding import term1_form
from dyadlab.weights import a2_characteristic, dual, gen_cascade, gen_power, weighted_haar

WEIGHTS = {
    "power-0.5": lambda d: gen_power(d, -0.5),
    "power0.8": lambda d: gen_power(d, 0.8),
    "cascade0.6": lambda d: gen_cascade(d, 0.6, 11 + d),
    "cascade0.9": lambda d: gen_cascade(d, 0.9, 23 + d),
}


def root_q(w) -> float:
    return math.sqrt(a2_characteristic(w).characteristic)


def haar_leaf_values(w, J) -> np.ndarray:
    """Leaf values of the weighted Haar function h^w_J."""
    h = weighted_haar(w, J)
    vals = np.zeros(1 << w.depth)
    sl = J.leaf_slice(w.depth)
    half = (sl.stop - sl.start) // 2
    vals[sl.start : sl.start + half] = h.value_left
    vals[sl.start + half : sl.stop] = h.value_right
    return vals


@pytest.mark.parametrize("name", sorted(WEIGHTS))
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_exact_sup_is_root_q(depth, name):
    w = WEIGHTS[name](depth)
    res = term1_form(w).exact_sup()
    assert res.mode == "exact"
    assert res.value == pytest.approx(root_q(w), rel=1e-12)
    assert res.upper_bound == pytest.approx(root_q(w), rel=1e-12)


@pytest.mark.parametrize("name", sorted(WEIGHTS))
@pytest.mark.parametrize("depth", range(1, 11))
def test_a2_witness_attains_root_q(depth, name):
    w = WEIGHTS[name](depth)
    J = a2_characteristic(w).witness
    assert J.level < depth  # every weight here is non-constant
    form = term1_form(w)
    f = haar_leaf_values(w, J)
    g = haar_leaf_values(dual(w), J)
    assert math.sqrt(np.sum(form.left_metric * f * f)) == pytest.approx(1.0, rel=1e-12)
    assert form.right_norm(g) == pytest.approx(1.0, rel=1e-12)
    assert form.value(f, g) == pytest.approx(root_q(w), rel=1e-12)


@pytest.mark.parametrize("name", sorted(WEIGHTS))
@pytest.mark.parametrize("depth", range(4, 11))
def test_search_never_exceeds_root_q(depth, name):
    w = WEIGHTS[name](depth)
    found = term1_form(w).search_sup(iters=40, seed=depth, restarts=2).value
    assert found <= root_q(w) * (1.0 + 1e-12)


def test_sweep_row_reads_root_q():
    cfg = SweepConfig(family="cascade", params=[0.3, 0.7], depths=[2, 5], seeds=[0, 4],
                      experiments=("four_terms",), jobs=1)
    rows, _ = run_sweep(cfg)
    assert len(rows) == 8
    for row in rows:
        assert not row["error"]
        assert row["termI_max"] == math.sqrt(row["Q"])


def test_termI_slope_is_one_half(capsys):
    assert main(["embed", "--depth", "4", "--param", "-0.5", "--param", "0.3",
                 "--param", "0.8", "--jobs", "1"]) == 0
    fit = json.loads(capsys.readouterr().out)["slopes"]["termI_max"]
    assert fit["slope"] == pytest.approx(0.5, abs=1e-12)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)
