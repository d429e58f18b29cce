"""The alternating search against the code it replaced, which formed each
map product again in the next argmax step, the step value and the final
signs: every FormResult of the four sweep forms (key sum, term I, shifts of
complexity 0 and 1) must be byte-identical, through the dense maps
(depth <= 8) and the matrix-free operators (depths 9 and 10).

This copy stays live, not pinned in tests/corpus.json: the search runs on
BLAS products and SVDs, whose last bits depend on the BLAS kernel
(OPENBLAS_CORETYPE=Haswell moves a depth-6 search's value by an ulp), so
only a comparison run on the same BLAS in the same process is portable."""
import numpy as np
import pytest

from dyadlab import embedding, shifts
from dyadlab.forms import FLIP_LIMIT, AbsBilinearForm, FormResult
from dyadlab.tree import DomainError
from dyadlab.weights import gen_cascade, gen_power

# -- the search that recomputed the map products, kept verbatim --------------


class ReferenceForm(AbsBilinearForm):
    def value(self, f, g) -> float:
        a = np.abs(self.left_map @ f)
        b = np.abs(self.right_map @ g)
        return float(a @ self.m @ b)

    def _argmax_generic(self, u, amap, metric, prev):
        """Maximize sum_i u_i |(amap x)_i| over the metric unit sphere, u >= 0."""
        if not (u > 0).any():
            x = np.ones(amap.shape[1])
            return x / np.sqrt((metric * x**2).sum())
        s = np.sign(amap @ prev) if prev is not None else np.ones(amap.shape[0])
        s[s == 0] = 1.0
        x = prev
        for _ in range(30):
            ell = amap.T @ (u * s)
            nrm = np.sqrt((ell**2 / metric).sum())
            if nrm == 0.0:
                break
            x = ell / metric / nrm
            s_new = np.sign(amap @ x)
            s_new[s_new == 0] = 1.0
            if (s_new == s).all():
                break
            s = s_new
        if x is None:
            x = np.ones(amap.shape[1]) / np.sqrt(metric.sum())
        return x

    def _argmax_left(self, g, prev):
        u = self.m @ np.abs(self.right_map @ g)
        return self._argmax_generic(u, self.left_map, self.left_metric, prev)

    def _argmax_right(self, f, prev):
        u = self.m.T @ np.abs(self.left_map @ f)
        return self._argmax_generic(u, self.right_map, self.right_metric, prev)

    def search_sup(self, iters: int, seed: int, restarts: int = 8) -> FormResult:
        """Multi-start alternating maximization; monotone per iteration.

        On small instances each run is finished by an exact sign-flip local
        search (1-opt in sign space with the true singular-value objective).
        """
        if iters < 1:
            raise DomainError("iters must be >= 1")
        rng = np.random.default_rng(seed)
        n1, n2 = self.m.shape
        flips = n1 + n2 <= FLIP_LIMIT
        best = None
        for _ in range(restarts):
            g = rng.standard_normal(self.right_map.shape[1])
            g = g / self.right_norm(g)
            f = None
            val = -1.0
            for _ in range(iters):
                f = self._argmax_left(g, f)
                g = self._argmax_right(f, g)
                new = self.value(f, g)
                if new <= val * (1.0 + 1e-13):
                    val = new
                    break
                val = new
            s = np.sign(self.left_map @ f)
            s[s == 0] = 1.0
            t = np.sign(self.right_map @ g)
            t[t == 0] = 1.0
            if flips:
                fval, ff, fg, _ = self._flip_polish(s[:, None] * self.m * t[None, :])
                if fval > val:
                    val, f, g = fval, ff, fg
                # the achieved form value can only be at least the signed one
                achieved = self.value(f, g)
                if achieved > val:
                    val = achieved
            if best is None or val > best.value:
                best = FormResult(value=val, left=f, right=g)
        return best


# -- comparison ---------------------------------------------------------------


def reference_of(form: AbsBilinearForm) -> ReferenceForm:
    return ReferenceForm(form.m, form.left_map, form.right_map,
                         form.left_metric, form.right_metric)


def sweep_form(kind: str, w) -> AbsBilinearForm:
    if kind == "key_sum":
        return embedding.key_sum_form(w)
    if kind == "term1":
        return embedding.term1_form(w)
    return shifts.shift_form(shifts.ShiftSpec.constant(int(kind[-1]), w.depth), w)


def weight(family: str, depth: int):
    return gen_power(depth, 0.6) if family == "power" else gen_cascade(depth, 0.5, 3)


def assert_same(got: FormResult, ref: FormResult) -> None:
    assert np.float64(got.value).tobytes() == np.float64(ref.value).tobytes()
    for name in ("left", "right"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.upper_bound == ref.upper_bound


FORMS = ("key_sum", "term1", "shift0", "shift1")


@pytest.mark.parametrize("restarts", (1, 3))
@pytest.mark.parametrize("family", ("power", "cascade"))
@pytest.mark.parametrize("kind", FORMS)
@pytest.mark.parametrize("depth", range(2, 11))
def test_search_matches_reference(depth, kind, family, restarts):
    form = sweep_form(kind, weight(family, depth))
    seed = 1 + 7919 * depth
    assert_same(form.search_sup(40, seed, restarts),
                reference_of(form).search_sup(40, seed, restarts))


def test_zero_coefficients_match_reference():
    # u = 0 in every argmax step: the flat start and its image
    form = embedding.key_sum_form(gen_cascade(3, 0.5, 1))
    zero = AbsBilinearForm(np.zeros(form.m.shape), form.left_map, form.right_map,
                           form.left_metric, form.right_metric)
    assert_same(zero.search_sup(40, 2, 2), reference_of(zero).search_sup(40, 2, 2))
