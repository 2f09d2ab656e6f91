"""Hermite functions and Gauss-Hermite quadrature.

Oracles: closed forms for psi_0, psi_1, psi_2; 50-digit mpmath values of
psi_{2l}(0); analytic Gaussian moments Gamma(j + 1/2); the classical
5-point Gauss-Hermite rule; 40-digit mpmath rules (Newton on the
orthonormal recurrence, Christoffel weights); and 60-digit reference values
for the extreme node and weight of the m=256 rule.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import gamma

from hermloc.gaussian_net import MAX_M
from hermloc.hermite import (
    MAX_RULE_SIZE,
    QuadratureRule,
    gauss_hermite_rule,
    hermite_matrix,
    psi_zero_even,
)
from oracles import quad_integrate

PI_M14 = math.pi ** -0.25


def mp_rule(m: int, dps: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """Size-m Gauss-Hermite rule in mpmath, rounded to doubles.

    Each nonnegative node is three Newton steps on h_m, with
    h_m' = sqrt(2m) h_{m-1}, from the double rule's node; its weight is the
    Christoffel value 1 / sum_{j<m} h_j(x)**2 at the converged node.
    """
    mp = mpmath.mp.clone()
    mp.dps = dps
    c1 = [None, None] + [mp.sqrt(mp.mpf(2) / k) for k in range(2, m + 1)]
    c2 = [None, None] + [mp.sqrt(mp.mpf(k - 1) / k) for k in range(2, m + 1)]
    h0 = mp.pi ** mp.mpf(-0.25)

    def recurrence(x):
        hs = [h0, mp.sqrt(2) * h0 * x]
        for k in range(2, m + 1):
            hs.append(c1[k] * x * hs[-1] - c2[k] * hs[-2])
        return hs

    nodes, weights = [], []
    for start in gauss_hermite_rule(m).nodes[m // 2 :]:
        x = mp.mpf(float(start))
        for _ in range(3):
            hs = recurrence(x)
            x -= hs[m] / (mp.sqrt(2 * m) * hs[m - 1])
        hs = recurrence(x)
        # converged: one more step would not move the node
        assert abs(hs[m] / hs[m - 1]) < mp.mpf(10) ** (5 - dps) * max(1, abs(x))
        nodes.append(float(x))
        weights.append(float(1 / mp.fsum(h * h for h in hs[:m])))
    half = m // 2
    nodes = np.array([-v for v in reversed(nodes[len(nodes) - half :])] + nodes)
    weights = np.array(list(reversed(weights[len(weights) - half :])) + weights)
    return nodes, weights


def psi0_direct(x: float) -> float:
    return PI_M14 * math.exp(-x * x / 2.0)


def psi1_direct(x: float) -> float:
    return math.sqrt(2.0) * PI_M14 * x * math.exp(-x * x / 2.0)


def psi2_direct(x: float) -> float:
    # h_2(x) = (2 x^2 - 1) / sqrt(2) * pi^{-1/4}
    return PI_M14 * (2.0 * x * x - 1.0) / math.sqrt(2.0) * math.exp(-x * x / 2.0)


class TestRecurrence:
    def test_low_degrees_match_closed_forms(self):
        xs = [-2.5, -1.0, 0.0, 0.3, 1.5, 4.0]
        for x, row in zip(xs, hermite_matrix(2, np.array(xs))):
            assert row[0] == pytest.approx(psi0_direct(x), abs=1e-15)
            assert row[1] == pytest.approx(psi1_direct(x), abs=1e-15)
            assert row[2] == pytest.approx(psi2_direct(x), abs=1e-15)

    def test_frozen_row_at_1p5(self):
        row = hermite_matrix(4, np.array([1.5]))[0]
        want = [
            0.24385476130642741,
            0.5172940660332053,
            0.6035097437054061,
            0.31677662718773497,
            -0.186662417671542,
        ]
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-15)

    def test_matrix_agrees_with_rows(self):
        # a row depends on its own point only, whatever else is in the grid
        xs = np.array([-1.7, 0.0, 0.4, 2.2])
        mat = hermite_matrix(12, xs)
        for i in range(xs.size):
            np.testing.assert_array_equal(mat[i], hermite_matrix(12, xs[i : i + 1])[0])

    def test_uniform_bound_holds(self):
        # sup_x |psi_k(x)| is maximized at k=0; 1.1 is a safe envelope
        xs = np.linspace(-25.0, 25.0, 4001)
        mat = hermite_matrix(200, xs)
        assert np.max(np.abs(mat)) <= 1.1

    def test_high_degree_stays_finite(self):
        vals = hermite_matrix(5000, np.array([30.0, 0.0]))
        assert np.all(np.isfinite(vals))

    def test_validation(self):
        with pytest.raises(ValueError):
            hermite_matrix(-1, np.zeros(3))
        with pytest.raises(ValueError):
            hermite_matrix(5001, np.zeros(3))
        with pytest.raises(ValueError):
            hermite_matrix(3, np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            hermite_matrix(3, np.array([math.inf]))


class TestPsiAtZero:
    def test_frozen_values(self):
        vec = psi_zero_even(3)
        assert vec[0] == pytest.approx(0.7511255444649425, abs=1e-16)
        assert vec[1] == pytest.approx(-0.5311259660135985, abs=1e-15)
        assert vec[2] == pytest.approx(0.45996857917732675, abs=1e-15)

    def test_odd_degrees_vanish(self):
        # the even-only closed form relies on this
        row = hermite_matrix(99, np.zeros(1))[0]
        assert np.all(row[1::2] == 0.0)

    def test_matches_recurrence(self):
        row = hermite_matrix(60, np.zeros(1))[0]
        np.testing.assert_allclose(psi_zero_even(31), row[0::2], rtol=0, atol=1e-13)

    def test_sign_alternates(self):
        vec = psi_zero_even(10)
        assert np.all(np.sign(vec) == [(-1.0) ** l for l in range(10)])

    def test_validation(self):
        with pytest.raises(ValueError):
            psi_zero_even(0)

    def test_matches_mpmath(self):
        # pi**(-1/4) (-1)**l sqrt((2l)! / (4**l (l!)**2)) at 50 digits, by
        # the exact running product of (2i - 1) / (2i)
        mp = mpmath.mp.clone()
        mp.dps = 50
        ratio, want = mp.mpf(1), []
        for l in range(2049):
            if l:
                ratio = ratio * (2 * l - 1) / (2 * l)
            want.append(float((-1) ** l * mp.pi ** mp.mpf(-0.25) * mp.sqrt(ratio)))
        want = np.array(want)
        got = psi_zero_even(2049)
        picked = list(range(41)) + [500, 1000, 2048]
        assert np.all(np.abs(got[picked] - want[picked]) <= 4 * np.spacing(np.abs(want[picked])))
        # the documented bound over the whole range
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))


class TestGaussHermiteRule:
    def test_frozen_five_point_rule(self):
        rule = gauss_hermite_rule(5)
        want_nodes = [
            -2.020182870456084,
            -0.9585724646138176,
            0.0,
            0.9585724646138176,
            2.020182870456084,
        ]
        want_weights = [
            0.019953242059046035,
            0.39361932315224146,
            0.9453087204829409,
            0.39361932315224146,
            0.019953242059046035,
        ]
        np.testing.assert_allclose(rule.nodes, want_nodes, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rule.weights, want_weights, rtol=1e-13, atol=0)

    def test_exact_symmetry_and_normalization(self):
        for m in [2, 7, 16, 64]:
            rule = gauss_hermite_rule(m)
            np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
            np.testing.assert_array_equal(rule.weights, rule.weights[::-1])
            assert np.all(rule.weights > 0)
            assert math.fsum(rule.weights.tolist()) == pytest.approx(
                math.sqrt(math.pi), abs=5e-16
            )

    def test_against_independent_implementation(self):
        # 40-digit rules at a network center grid size 2n^2 (n = 3, 6) and
        # at the size cap
        for m in [18, 2 * MAX_M * MAX_M, MAX_RULE_SIZE]:
            rule = gauss_hermite_rule(m)
            nodes, weights = mp_rule(m)
            assert np.all(np.diff(nodes) > 0), f"m={m}"
            np.testing.assert_allclose(
                rule.nodes, nodes, rtol=0, atol=4e-15, err_msg=f"m={m}"
            )
            np.testing.assert_allclose(
                rule.weights, weights, rtol=1e-13, atol=0, err_msg=f"m={m}"
            )
        # the m=256 extreme node and weight against 60-digit reference
        # values (Newton on H_256 in mpmath)
        rule = gauss_hermite_rule(256)
        assert rule.nodes[0] == pytest.approx(
            -21.99169337968173143150578, rel=0, abs=4e-15
        )
        assert rule.weights[0] == pytest.approx(
            5.235854530678407140045257e-211, rel=5e-13, abs=0
        )

    def test_nodes_are_newton_fixed_points(self):
        # a Newton step on psi_m, psi_m' = sqrt(2m) psi_{m-1} - x psi_m,
        # moves no node by more than 4 ulps: every node sits on its zero
        for m in range(1, MAX_RULE_SIZE + 1):
            nodes = gauss_hermite_rule(m).nodes
            psi = hermite_matrix(m, nodes)
            step = psi[:, m] / (math.sqrt(2.0 * m) * psi[:, m - 1] - nodes * psi[:, m])
            ulps = np.abs(step) / np.spacing(np.maximum(1.0, np.abs(nodes)))
            assert np.all(ulps <= 4.0), f"m={m}: {ulps.max():.2f} ulps"

    def test_moments_match_gamma(self):
        # integral x^{2j} exp(-x^2) dx = Gamma(j + 1/2)
        rule = gauss_hermite_rule(20)
        for j in range(20):
            got = quad_integrate(rule, lambda x, j=j: x ** (2 * j))
            assert got == pytest.approx(float(gamma(j + 0.5)), rel=1e-13)

    def test_odd_moments_vanish(self):
        # x * (x*x)**(j-1) evaluates with exact odd parity, so the
        # symmetrized rule cancels it to exactly zero under fsum
        rule = gauss_hermite_rule(12)
        for j in [1, 3, 11]:
            got = quad_integrate(rule, lambda x, j=j: x * (x * x) ** (j - 1))
            assert got == 0.0

    def test_degree_boundary(self):
        # degree 2m fails, degree 2m-1 is exact: the defining property
        m = 6
        rule = gauss_hermite_rule(m)
        exact = quad_integrate(rule, lambda x: x ** (2 * m - 2))
        assert exact == pytest.approx(float(gamma(m - 0.5)), rel=1e-13)
        beyond = quad_integrate(rule, lambda x: x ** (2 * m))
        assert abs(beyond - float(gamma(m + 0.5))) > 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)
        with pytest.raises(ValueError):
            gauss_hermite_rule(MAX_RULE_SIZE + 1)
        with pytest.raises(ValueError):
            gauss_hermite_rule(2.5)


class TestQuadIntegrate:
    def test_weightless_orthonormality(self):
        # integral psi_j psi_k dx = delta_jk via exp(x^2)-inflated weights
        rule = gauss_hermite_rule(64)
        mat = hermite_matrix(10, rule.nodes)
        for j in range(11):
            for k in range(j, 11):
                got = quad_integrate(
                    rule, lambda x, j=j, k=k: mat[:, j] * mat[:, k], weightless=True
                )
                assert got == pytest.approx(1.0 if j == k else 0.0, abs=1e-13)

    def test_weightless_gaussian_mass(self):
        # plain integral of exp(-2 x^2) is sqrt(pi/2); the weightless sum
        # reduces to the plain rule applied to exp(-x^2), which converges fast
        rule = gauss_hermite_rule(32)
        got = quad_integrate(rule, lambda x: np.exp(-2.0 * x * x), weightless=True)
        assert got == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    def test_rejects_bad_return_shapes(self):
        rule = gauss_hermite_rule(8)
        with pytest.raises(ValueError):
            quad_integrate(rule, lambda x: np.zeros(3))
        with pytest.raises(ValueError):
            quad_integrate(rule, lambda x: x * math.nan)

    def test_single_point_rule(self):
        rule = gauss_hermite_rule(1)
        assert rule.nodes[0] == 0.0 and rule.weights[0] == math.sqrt(math.pi)
        assert quad_integrate(rule, lambda x: np.ones_like(x)) == math.sqrt(math.pi)
