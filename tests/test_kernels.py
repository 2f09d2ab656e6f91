"""Filter, projection polynomials, compiled kernels, reductions.

Oracles: the tensor-product slice enumeration (proj_tensor), closed-form
Mehler sums, frozen coefficient values cross-checked at build time, 40-digit
mpmath tables at q = 2, 3, 5 and 1000, and the Hermite series over the compiled
table, which the evaluated piecewise-Chebyshev form is checked against.
"""

import math
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from hermloc import kernels
from hermloc.hermite import gauss_hermite_rule, hermite_matrix, psi_zero_even
from hermloc.kernels import (
    _BLOCK,
    _eval_even_series,
    compile_kernel,
    eval_kernel,
    filter_h,
    kernel_form,
)
from oracles import (
    MAX_COMPOSITIONS,
    d_sequence,
    mehler_closed_form,
    p_coeffs,
    phi_localized,
    proj_reduced,
    proj_tensor,
    proj_via_extension,
)


def _mp40():
    mp = mpmath.mp.clone()
    mp.dps = 40
    return mp


def _mp_filter(mp, t):
    """filter_h at the context's precision."""
    if t <= 0.5:
        return mp.mpf(1)
    if t >= 1:
        return mp.mpf(0)
    up, down = mp.exp(-1 / (2 - 2 * t)), mp.exp(-1 / (2 * t - 1))
    return up / (up + down)


class TestFilterH:
    def test_plateaus(self):
        assert filter_h(0.0) == 1.0
        assert filter_h(0.5) == 1.0
        assert filter_h(1.0) == 0.0
        assert filter_h(7.3) == 0.0

    def test_frozen_values(self):
        assert filter_h(0.75) == pytest.approx(0.5, abs=1e-15)
        assert filter_h(0.6) == pytest.approx(0.9770226300899744, abs=1e-15)

    def test_partition_identity(self):
        for s in np.linspace(0.001, 0.249, 40):
            total = filter_h(0.75 - s) + filter_h(0.75 + s)
            assert total == pytest.approx(1.0, abs=1e-15)

    def test_monotone_on_transition(self):
        ts = np.linspace(0.5, 1.0, 200)
        vals = filter_h(ts)
        assert np.all(np.diff(vals) <= 0)

    def test_shapes(self):
        assert isinstance(filter_h(0.3), float)
        out = filter_h(np.array([[0.1, 0.9], [1.5, 0.75]]))
        assert out.shape == (2, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            filter_h(-0.1)
        with pytest.raises(ValueError):
            filter_h(math.nan)


class TestPCoeffs:
    def test_single_term_for_q1(self):
        for m in [0, 1, 5]:
            pc = p_coeffs(m, 1)
            want = np.zeros(m + 1)
            want[m] = psi_zero_even(m + 1)[m]
            np.testing.assert_array_equal(pc.coeffs, want)

    def test_frozen_values(self):
        np.testing.assert_allclose(
            p_coeffs(1, 2).coeffs,
            [0.21188860406187882, -0.29965573757661185],
            rtol=0,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            p_coeffs(2, 3).coeffs,
            [0.23909068656837365, -0.1690626457910444, 0.14641254608605475],
            rtol=0,
            atol=1e-15,
        )

    def test_sign_pattern(self):
        for m, q in [(3, 2), (4, 3), (6, 5)]:
            c = p_coeffs(m, q).coeffs
            assert np.all(np.sign(c) == [(-1.0) ** l for l in range(m + 1)])

    def test_matches_tensor_slice_at_origin(self):
        # P_{m,q}(r) must equal the degree-2m slice Proj_{2m,q}(0, r e_1)
        for q in [1, 2, 3]:
            for m in [0, 1, 2, 4]:
                c = p_coeffs(m, q).coeffs
                for r in [0.0, 0.3, 1.1]:
                    row = hermite_matrix(2 * m, np.array([r]))[0]
                    series = float(np.dot(c, row[::2]))
                    zero = np.zeros(q)
                    e1 = np.zeros(q)
                    e1[0] = r
                    oracle = proj_tensor(2 * m, q, zero, e1)
                    assert series == pytest.approx(oracle, abs=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            p_coeffs(-1, 2)
        with pytest.raises(ValueError):
            p_coeffs(2, 0)


class TestCompileKernel:
    def test_frozen_values_n8_q1(self):
        table = compile_kernel(8.0, 1)
        assert eval_kernel(table, 0.0) == pytest.approx(2.719912266936782, abs=1e-14)
        assert eval_kernel(table, 1.0) == pytest.approx(0.15828658869820952, abs=1e-14)

    def test_cutoff_and_passband(self):
        n = 8.0
        table = compile_kernel(n, 1)
        psi0 = psi_zero_even(table.a.size)
        for l in range(table.a.size):
            if 2 * l >= n * n:
                assert table.a[l] == 0.0
            elif math.sqrt(2 * l) / n <= 0.5:
                # filter is identically 1 below half the bandwidth
                assert table.a[l] == pytest.approx(psi0[l], rel=1e-13)

    def test_matches_tensor_kernel(self):
        # Phi~_{n,q}(|x|) = Phi_{n,q}(0, x); the right side enumerates
        # multi-indices and never sees the folded-coefficient path
        for n, q in [(2.0, 1), (3.0, 2), (3.0, 3)]:
            table = compile_kernel(n, q)
            for r in [0.0, 0.7, 2.0]:
                zero = np.zeros(q)
                e1 = np.zeros(q)
                e1[0] = r
                oracle = phi_localized(n, q, zero, e1)
                assert eval_kernel(table, r) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("n", [6, 6.5, 7, 8, 64])
    def test_q1_table_is_filter_times_psi_zero(self, n):
        # at q = 1 the filter sum is the filter itself: no rounding beyond
        # the one product; entries with 2l >= n**2 are zero, and at odd n**2
        # there are none
        L = int(n * n // 2)
        want = filter_h(np.sqrt(2.0 * np.arange(L + 1)) / n) * psi_zero_even(L + 1)
        want[2 * np.arange(L + 1) >= n * n] = 0.0
        assert compile_kernel(float(n), 1).a.tobytes() == want.tobytes()

    def test_large_q_table_stays_finite(self):
        # the binomials grow to 1e545 at n = 64, q = 1000; the filter sum
        # rescales them by powers of two
        n, q = 64, 1000
        a = compile_kernel(float(n), q).a
        assert np.all(np.isfinite(a)) and np.max(np.abs(a)) > 1e279
        mp = _mp40()
        alpha = mp.mpf(q - 1) / 2
        total, b = mp.mpf(0), mp.mpf(1)
        for j in range(a.size):
            total += _mp_filter(mp, mp.sqrt(2 * j) / n) * b
            b *= (alpha + j) / (j + 1)
        want = mp.pi ** (-mp.mpf(2 * q - 1) / 4) * total
        assert abs((mp.mpf(a[0]) - want) / want) < 1e-12

    def test_first_entry_is_the_peak(self):
        # the range check looks at a_0 alone
        for n in (1.5, 2.0, 6.0, 8.0, 16.0, 64.0):
            for q in (1, 2, 3, 5, 50, 1000):
                a = compile_kernel(n, q).a
                assert np.abs(a).max() == a[0] > 0, (n, q)

    @pytest.mark.parametrize("n, q", [(64, 1239), (64, 2000), (80, 1000)])
    def test_table_past_the_double_range_raises(self, n, q):
        # pi**s is subnormal from q = 1239 on and 0 at q = 2000, where the
        # table came out all zero; at (80, 1000) the peak a_0 passes 1e308
        with pytest.raises(ValueError, match=f"n = {n}, q = {q} leaves the double range"):
            compile_kernel(float(n), q)

    def test_build_memory_at_q2(self):
        # the filter sum runs over the table once per binomial, with no
        # (L + 1)**2 array
        tracemalloc.start()
        try:
            compile_kernel(64.0, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_tables_match_mpmath(self, q):
        # a_l = (-1)**l pi**(-(2q-1)/4) sqrt((2l)!) / (2**l l!)
        #       * sum_j H(sqrt(2(l + j))/n) Gamma(alpha + j) / (Gamma(alpha) j!),
        # alpha = (q - 1)/2, filter included, at 40 digits
        mp = _mp40()
        alpha = mp.mpf(q - 1) / 2
        for n in [4, 5, 6, 7, 8, 16]:
            got = compile_kernel(float(n), q).a
            L = got.size - 1
            h = [_mp_filter(mp, mp.sqrt(2 * m) / n) for m in range(L + 1)]
            b = [mp.gamma(alpha + j) / (mp.gamma(alpha) * mp.factorial(j)) for j in range(L + 1)]
            want = np.array([
                float((-1) ** l * mp.pi ** (-mp.mpf(2 * q - 1) / 4)
                      * mp.sqrt(mp.factorial(2 * l)) / (2 ** l * mp.factorial(l))
                      * mp.fsum(h[l + j] * b[j] for j in range(L + 1 - l)))
                for l in range(L + 1)
            ])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)),
                                       err_msg=f"n={n} q={q}")

    def test_localization(self):
        # bandwidth-n kernels concentrate near 0: the far tail is small
        rs = np.linspace(4.0, 16.0, 400)
        for n, q in [(8.0, 1), (16.0, 1), (8.0, 2), (8.0, 3)]:
            table = compile_kernel(n, q)
            peak = abs(eval_kernel(table, 0.0))
            tail = np.max(np.abs(eval_kernel(table, rs)))
            assert tail < 1e-3 * peak

    def test_eval_bitwise_stable_across_shapes(self):
        table = compile_kernel(16.0, 2)
        rs = np.linspace(0.0, 5.0, 101)
        batch = eval_kernel(table, rs)
        single = np.array([eval_kernel(table, float(r)) for r in rs])
        np.testing.assert_array_equal(batch, single)
        mat = eval_kernel(table, rs.reshape(101, 1))
        np.testing.assert_array_equal(mat[:, 0], batch)

    def test_eval_matches_matrix_recurrence(self):
        table = compile_kernel(10.0, 2)
        rs = np.linspace(0.0, 6.0, 37)
        mat = hermite_matrix(2 * (table.a.size - 1), rs)
        direct = mat[:, ::2] @ table.a
        np.testing.assert_allclose(eval_kernel(table, rs), direct, rtol=0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            compile_kernel(0.5, 1)
        with pytest.raises(ValueError):
            compile_kernel(8.0, 0)
        table = compile_kernel(4.0, 1)
        with pytest.raises(ValueError):
            eval_kernel(table, -0.2)
        with pytest.raises(ValueError):
            eval_kernel(table, math.inf)


class TestKernelForm:
    CASES = [(2, 1), (3, 2), (3, 3), (6, 1), (8, 1), (8, 2), (10, 2), (16, 2), (32, 1), (64, 1)]

    def test_certificate_bounds_series_deviation(self):
        rng = np.random.default_rng(20)
        for n, q in self.CASES:
            table = compile_kernel(float(n), q)
            form = kernel_form(table)
            # dense near the peak, where rounding noise is largest, and
            # across the whole cutoff range and beyond it
            rs = np.concatenate([
                [0.0],
                rng.uniform(0.0, 1.0, 6000),
                rng.uniform(0.0, 1.1 * form.rcut, 14000),
            ])
            series = _eval_even_series(table.a, rs)
            dev = float(np.max(np.abs(eval_kernel(table, rs) - series)))
            assert dev <= form.certificate, (n, q, dev, form.certificate)
            peak = float(np.max(np.abs(series)))
            assert form.certificate <= 1e-13 * max(1.0, peak), (n, q)

    def test_series_single_equals_batch_across_underflow(self):
        # psi_0 underflows to 0 between r = 38.5 and 38.7: such radii are
        # exactly 0 and leave the others' values untouched
        a = compile_kernel(16.0, 2).a
        rs = np.array([38.7, 0.0, 5.0, 1e3, 38.5, 12.25, 40.0])
        batch = _eval_even_series(a, rs)
        single = [_eval_even_series(a, np.array([r]))[0] for r in rs]
        np.testing.assert_array_equal(batch, single)
        assert batch[0] == batch[3] == batch[6] == 0.0
        np.testing.assert_array_equal(_eval_even_series(a, rs[[0, 3, 6]]), 0.0)

    def test_zero_beyond_cutoff(self):
        for n, q in [(1, 1), (8, 2), (64, 1)]:
            table = compile_kernel(float(n), q)
            form = kernel_form(table)
            assert form.rcut >= math.sqrt(4 * (table.a.size - 1) + 1) + 6.0
            far = np.array([form.rcut, np.nextafter(form.rcut, np.inf),
                            form.rcut + 0.3, 2.0 * form.rcut, 1e6, 1e300,
                            np.finfo(float).max])
            assert np.all(eval_kernel(table, far) == 0.0)
            assert eval_kernel(table, form.rcut) == 0.0

    def test_attributes_read_only(self):
        form = kernel_form(compile_kernel(8.0, 1))
        assert form.panels == 1120 and form.width == 1 / 64 and form.rcut == 17.5
        # one more column, all zeros, guards the radii past rcut
        assert form.coeffs.shape == (form.degree + 1, form.panels + 1)
        assert np.all(form.coeffs[:, -1] == 0.0)
        with pytest.raises(AttributeError):
            form.certificate = 0.0
        with pytest.raises(ValueError):
            form.coeffs[0, 0] = 1.0

    def test_short_horner_on_dyadic_sub_panels(self):
        for n, q in self.CASES:
            form = kernel_form(compile_kernel(float(n), q))
            assert form.degree <= 8, (n, q, form.degree)
            j = round(math.log2(0.25 / form.width))
            assert j >= 0 and form.width == 2.0**-j / 4, (n, q, form.width)
            assert form.panels * form.width == form.rcut, (n, q)
        assert kernel_form(compile_kernel(6.0, 1)).width == 1 / 64
        assert kernel_form(compile_kernel(64.0, 1)).width == 1 / 256

    def test_check_grid_lands_in_every_sub_panel(self, monkeypatch):
        fit = kernels._fit_panels
        grids = []

        def recording_fit(a, panels, degree):
            out = fit(a, panels, degree)
            grids.append(out[1])
            return out

        monkeypatch.setattr(kernels, "_FORMS", {})
        monkeypatch.setattr(kernels, "_fit_panels", recording_fit)
        for n, q in self.CASES:
            form = kernel_form(compile_kernel(float(n), q))
            hit = np.unique((grids[-1] / form.width).astype(np.intp))
            np.testing.assert_array_equal(hit, np.arange(form.panels), err_msg=str((n, q)))

    def test_cold_build_memory_at_n64(self, monkeypatch):
        # re-expanding all 24,768 sub-panels at once would hold tens of MB
        monkeypatch.setattr(kernels, "_FORMS", {})
        table = compile_kernel(64.0, 1)
        tracemalloc.start()
        try:
            kernel_form(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_missed_budget_names_last_fitted_degree(self, monkeypatch):
        monkeypatch.setattr(kernels, "_CERT_BUDGET", 1e-30)
        monkeypatch.setattr(kernels, "_FORMS", {})
        # fitted once, at degree 16
        with pytest.raises(RuntimeError, match="at fit degree 16$"):
            kernel_form(compile_kernel(8.0, 1))

    def test_single_equals_batch_on_sub_panel_edges(self):
        table = compile_kernel(64.0, 1)
        form = kernel_form(table)
        edges = form.width * np.arange(form.panels + 1)
        rs = np.concatenate([edges, np.nextafter(edges, -np.inf)[1:]])
        batch = eval_kernel(table, rs)
        for r, v in zip(rs, batch):
            assert eval_kernel(table, float(r)) == v, r

    def test_single_equals_batch_across_blocks(self):
        table = compile_kernel(64.0, 1)
        rs = np.random.default_rng(21).uniform(0.0, 20.0, 2 * _BLOCK + 5000)
        batch = eval_kernel(table, rs)
        for b in (1, 2):
            for i in (b * _BLOCK - 1, b * _BLOCK, b * _BLOCK + 1):
                assert eval_kernel(table, float(rs[i])) == batch[i]
        tail = eval_kernel(table, rs[_BLOCK - 3 : _BLOCK + 3])
        np.testing.assert_array_equal(tail, batch[_BLOCK - 3 : _BLOCK + 3])
        mat = eval_kernel(table, rs[: 2 * _BLOCK].reshape(2, _BLOCK))
        np.testing.assert_array_equal(mat.ravel(), batch[: 2 * _BLOCK])

    def test_concurrent_cold_build_builds_once(self, monkeypatch):
        build = kernels._build_form
        calls = []

        def slow_build(table):
            calls.append(table.n)
            time.sleep(0.05)  # hold the build so the second thread arrives
            return build(table)

        monkeypatch.setattr(kernels, "_FORMS", {})
        monkeypatch.setattr(kernels, "_build_form", slow_build)
        table = compile_kernel(5.5, 1)
        start = threading.Barrier(2)
        got = []

        def worker():
            start.wait(timeout=10)
            got.append(kernel_form(table))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
            assert not th.is_alive()
        assert calls == [5.5]
        assert len(got) == 2 and got[0] is got[1]


class TestDSequence:
    def test_frozen_d1(self):
        want = [
            0.5641895835477563,
            0,
            0.2820947917738782,
            0,
            0.21157109383040865,
            0,
            0.17630924485867386,
        ]
        np.testing.assert_allclose(d_sequence(1, 6).values, want, rtol=0, atol=1e-15)

    def test_d2_is_inverse_pi(self):
        vals = d_sequence(2, 10).values
        np.testing.assert_allclose(vals[::2], 1.0 / math.pi, rtol=1e-15, atol=0)
        assert np.all(vals[1::2] == 0.0)

    def test_degenerate_orders(self):
        np.testing.assert_array_equal(
            d_sequence(0, 4).values, [1.0, 0.0, 0.0, 0.0, 0.0]
        )
        np.testing.assert_allclose(
            d_sequence(-2, 6).values,
            [math.pi, 0, -math.pi, 0, 0, 0, 0],
            rtol=0,
            atol=1e-15,
        )

    def test_convolution_identity(self):
        # the generating functions multiply, so coefficients convolve
        rmax = 12
        for a, b in [(1, 1), (1, 2), (2, 3), (2, -2)]:
            da = d_sequence(a, rmax).values
            db = d_sequence(b, rmax).values
            dab = d_sequence(a + b, rmax).values
            conv = np.convolve(da, db)[: rmax + 1]
            np.testing.assert_allclose(conv, dab, rtol=0, atol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            d_sequence(1.5, 4)
        with pytest.raises(ValueError):
            d_sequence(1, -1)


class TestMehler:
    def test_series_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for d in [1, 2]:
            for w in [-0.6, 0.3, 0.9]:
                x = rng.normal(size=d)
                y = rng.normal(size=d)
                jmax = 60 if abs(w) <= 0.6 else 340
                series = math.fsum(
                    w**m * proj_tensor(m, d, x, y) for m in range(jmax)
                )
                closed = mehler_closed_form(d, x, y, w)
                assert series == pytest.approx(closed, rel=1e-11, abs=1e-13)

    def test_w_zero_reduces_to_gaussian(self):
        x = np.array([0.4, -1.2])
        y = np.array([0.0, 0.3])
        want = math.pi**-1.0 * math.exp(-0.5 * float(x @ x + y @ y))
        assert mehler_closed_form(2, x, y, 0.0) == pytest.approx(want, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            mehler_closed_form(1, [0.0], [0.0], 0.96)
        with pytest.raises(ValueError):
            mehler_closed_form(2, [0.0], [0.0, 1.0], 0.5)


class TestProjTensor:
    def test_d1_is_plain_product(self):
        for m in [0, 3, 10]:
            for xv, yv in [(0.2, -1.3), (1.0, 1.0)]:
                got = proj_tensor(m, 1, [xv], [yv])
                u, v = hermite_matrix(m, np.array([xv, yv]))[:, m]
                want = u * v
                assert got == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        for m in [0, 2, 5]:
            assert proj_tensor(m, 3, x, y) == pytest.approx(
                proj_tensor(m, 3, y, x), rel=1e-13, abs=1e-300
            )

    def test_composition_cap(self):
        with pytest.raises(ValueError):
            proj_tensor(300, 4, np.zeros(4), np.zeros(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            proj_tensor(2, 5, np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            proj_tensor(2, 2, [0.0], [0.0, 0.0])


class TestProjReduced:
    def test_matches_tensor_when_q_equals_Q(self):
        rng = np.random.default_rng(11)
        for q in [2, 3]:
            for _ in range(5):
                x = rng.normal(size=q)
                y = rng.normal(size=q)
                for m in range(9):
                    got = proj_reduced(m, q, q, x, y)
                    want = proj_tensor(m, q, x, y)
                    assert got == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        mat = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        for m in [0, 1, 4, 7]:
            a = proj_reduced(m, 2, 3, x, y)
            b = proj_reduced(m, 2, 3, mat @ x, mat @ y)
            assert a == pytest.approx(b, rel=1e-11, abs=1e-13)

    def test_q1_collinear(self):
        x = np.array([0.6, -0.8, 0.0])
        for c in [0.5, -1.25]:
            for m in [0, 2, 5]:
                got = proj_reduced(m, 1, 3, x, c * x)
                nx = float(np.linalg.norm(x))
                u, v = hermite_matrix(m, np.array([nx, c * nx]))[:, m]
                want = u * v
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        with pytest.raises(ValueError):
            proj_reduced(2, 1, 3, x, np.array([1.0, 1.0, 0.0]))

    def test_degenerate_point_keeps_norms(self):
        # a zero argument fixes the angle to 0, preserving |x| and |y|
        rng = np.random.default_rng(9)
        x = rng.normal(size=2)
        nx = float(np.linalg.norm(x))
        for m in range(6):
            got = proj_reduced(m, 2, 2, x, np.zeros(2))
            want = proj_tensor(m, 2, [nx, 0.0], [0.0, 0.0])
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            proj_reduced(1, 3, 2, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            proj_reduced(1, 2, 2, np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            proj_reduced(1, 2, 2, np.array([math.nan, 0.0]), np.zeros(2))


class TestProjExtension:
    def test_rebuilds_ambient_slice(self):
        rng = np.random.default_rng(13)
        for q, Q in [(1, 2), (1, 3), (2, 3)]:
            x = rng.normal(size=Q)
            y = rng.normal(size=Q)
            if q == 1:
                y = 0.7 * x  # the reduced q = 1 slice needs collinearity
            for m in range(7):
                got = proj_via_extension(m, q, Q, x, y)
                want = proj_tensor(m, Q, x, y)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_identity_when_q_equals_Q(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        for m in range(5):
            got = proj_via_extension(m, 2, 2, x, y)
            want = proj_reduced(m, 2, 2, x, y)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-300)


class TestPhiLocalized:
    def test_reduced_kernel_sum_matches_table_in_ambient(self):
        # sum_m H(sqrt(m)/n) Proj_{m,q,Q}(0, x) telescopes to the radial table
        n = 3.0
        for q, Q in [(1, 3), (2, 3)]:
            table = compile_kernel(n, q)
            mmax = int(math.ceil(n * n)) - 1
            x = np.array([0.4, -0.2, 0.5])
            total = 0.0
            for m in range(mmax + 1):
                h = filter_h(math.sqrt(m) / n)
                if h:
                    total += h * proj_reduced(m, q, Q, np.zeros(Q), x)
            want = eval_kernel(table, float(np.linalg.norm(x)))
            assert total == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            phi_localized(0.5, 1, [0.0], [0.0])
        with pytest.raises(ValueError):
            phi_localized(20.0, 1, [0.0], [0.0])
