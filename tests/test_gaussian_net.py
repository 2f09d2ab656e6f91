"""Gaussian network synthesis: basis emulation, prefab kernels, estimates.

Oracles: the Hermite recurrence for the emulated functions, the compiled
kernel tables for the prefab surrogates, and the plain kernel estimator
for the shallow-network estimate.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from hermloc import gaussian_net
from hermloc.estimator import Dataset, EstimatorConfig, estimate_at
from hermloc.gaussian_net import (
    GaussianNetwork,
    WeightedPolyCoeffs,
    gaussian_basis_network,
    poly_to_gaussian,
    prefab_kernel_network,
    read_network_json,
    shallow_net_estimate,
    write_network_json,
)
from hermloc.hermite import hermite_matrix
from hermloc.kernels import compile_kernel, eval_kernel

XS = np.linspace(-4.0, 4.0, 801)


def basis_error(k, m, d):
    net = gaussian_basis_network(k, m, d)
    if d == 1:
        got = net(XS[:, None])
        want = hermite_matrix(k[0], XS)[:, k[0]]
    else:
        side = np.linspace(-3.0, 3.0, 61)
        g = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
        got = net(g)
        want = hermite_matrix(max(k), g[:, 0])[:, k[0]]
        want = want * hermite_matrix(max(k), g[:, 1])[:, k[1]]
    return float(np.max(np.abs(got - want)))


U = 2.0**-53


def dense_sum(net, x):
    """Reference sum_j c_j exp(-|s x - z_j|**2) over every center of the grid.

    Each term is formed from the squared distance itself (no expansion
    into |x|**2 - 2 x.z + |z|**2) and the terms are added by numpy's
    pairwise summation.
    """
    grids = np.meshgrid(*([net.axis_centers] * net.dim), indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=1)
    coeffs = net.coeffs.ravel()
    out = []
    for p in np.atleast_2d(x) * net.scale:
        r2 = np.sum((p - centers) ** 2, axis=1)
        with np.errstate(under="ignore"):
            out.append(np.sum(coeffs * np.exp(-r2)))
    return np.array(out)


class TestGaussianNetwork:
    def test_call_scalar_and_batch(self):
        # centers (0, 0) and (1, -1) with weights 2 and -0.5
        coeffs = np.zeros((3, 3))
        coeffs[1, 1] = 2.0
        coeffs[2, 0] = -0.5
        net = GaussianNetwork(
            dim=2, scale=1.0, axis_centers=np.array([-1.0, 0.0, 1.0]), coeffs=coeffs
        )
        x = np.array([0.3, 0.4])
        single = net(x)
        want = 2.0 * math.exp(-0.25) - 0.5 * math.exp(-(0.7**2 + 1.4**2))
        assert single == pytest.approx(want, rel=1e-14)
        batch = net(np.stack([x, x]))
        assert batch.shape == (2,)
        np.testing.assert_allclose(batch, single, rtol=1e-15)

    def test_scale_composes_with_input(self):
        net = GaussianNetwork(
            dim=1, scale=3.0, axis_centers=np.array([0.6]), coeffs=np.array([1.0])
        )
        assert net(np.array([0.2])) == pytest.approx(1.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianNetwork(dim=2, scale=1.0, axis_centers=np.zeros(3), coeffs=np.zeros(3))
        with pytest.raises(ValueError):
            GaussianNetwork(dim=1, scale=1.0, axis_centers=np.zeros(3), coeffs=np.zeros(2))
        with pytest.raises(ValueError):
            GaussianNetwork(dim=1, scale=0.0, axis_centers=np.zeros(1), coeffs=np.zeros(1))
        with pytest.raises(ValueError):
            GaussianNetwork(
                dim=1, scale=1.0, axis_centers=np.zeros((1, 1)), coeffs=np.zeros(1)
            )
        with pytest.raises(ValueError, match="coeffs"):
            GaussianNetwork(
                dim=1, scale=1.0, axis_centers=np.zeros(2), coeffs=np.array([1.0, math.inf])
            )
        with pytest.raises(ValueError, match="axis_centers"):
            GaussianNetwork(
                dim=1, scale=1.0, axis_centers=np.array([math.nan]), coeffs=np.ones(1)
            )
        net = GaussianNetwork(dim=1, scale=1.0, axis_centers=np.zeros(1), coeffs=np.ones(1))
        with pytest.raises(ValueError):
            net(np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gaussian_basis_network((3,), 3, 1),
            lambda: prefab_kernel_network(4, 1, 2, 0.5),
            lambda: prefab_kernel_network(4, 2, 3, 1.0),
        ],
        ids=["d1", "d2", "d3"],
    )
    def test_matches_dense_sum_to_rounding(self, build):
        # the network and the reference round differently; both stay within
        # a small multiple of u * sum |c_j|, the scale of cancellation noise
        net = build()
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.0, 2.0, size=(60, net.dim))
        gap = float(np.max(np.abs(net(pts) - dense_sum(net, pts))))
        assert gap <= 2.0 * U * float(np.sum(np.abs(net.coeffs)))

    @pytest.mark.parametrize(
        "n, q, Q, entries",
        [(4, 1, 2, None), (4, 2, 3, None), (4, 2, 3, 3 * 32 * 32)],
        ids=["d2", "d3", "d3-small-chunks"],
    )
    def test_scalar_batch_and_chunks_agree_bitwise(self, n, q, Q, entries, monkeypatch):
        if entries is not None:
            monkeypatch.setattr(gaussian_net, "_CHUNK_ENTRIES", entries)
        net = prefab_kernel_network(n, q, Q, 1.0)
        step = gaussian_net._CHUNK_ENTRIES // net.axis_centers.size ** (Q - 1)
        pts = np.random.default_rng(4).uniform(-2.0, 2.0, size=(step + 5, Q))
        batch = net(pts)
        assert batch.shape == (step + 5,)
        for i in (0, 1, step - 1, step, step + 4):
            assert net(pts[i]) == batch[i]
        np.testing.assert_array_equal(net(pts[step - 2 :]), batch[step - 2 :])

    @pytest.mark.parametrize("count", [121, 1024])
    def test_memory_is_flat_in_points(self, count):
        # the dense sum over all 373,248 centers at once needs hundreds of MB
        net = prefab_kernel_network(6, 2, 3, 1.0)
        pts = np.zeros((count, 3))
        pts[:, 0] = np.linspace(0.0, 3.0, count)
        tracemalloc.start()
        try:
            net(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestBasisSynthesis:
    def test_ground_state_error_law(self):
        errs = [basis_error((0,), m, 1) for m in (2, 3, 4)]
        assert errs[0] < 1e-5
        assert errs[1] < 1e-11
        assert errs[2] < 1e-14
        # each synthesis size step shrinks the error by well over 20x
        assert errs[0] / errs[1] >= 20.0
        assert errs[1] / errs[2] >= 20.0

    def test_excited_states(self):
        assert basis_error((2,), 3, 1) < 1e-9
        assert basis_error((5,), 3, 1) < 1e-6
        assert basis_error((2,), 4, 1) < 1e-12

    def test_two_dimensional_modes(self):
        assert basis_error((1, 1), 3, 2) < 1e-10
        assert basis_error((2, 0), 3, 2) < 1e-9

    def test_synthesis_is_linear(self):
        pa = WeightedPolyCoeffs(d=1, entries={(0,): 1.0})
        pb = WeightedPolyCoeffs(d=1, entries={(2,): 1.0})
        pm = WeightedPolyCoeffs(d=1, entries={(0,): 2.0, (2,): -0.5})
        m = 3
        ga, gb, gm = (poly_to_gaussian(p, m) for p in (pa, pb, pm))
        np.testing.assert_allclose(
            gm.coeffs, 2.0 * ga.coeffs - 0.5 * gb.coeffs, rtol=1e-12, atol=1e-300
        )
        np.testing.assert_array_equal(gm.axis_centers, ga.axis_centers)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_basis_network((4,), 2, 1)  # |k| >= m**2
        with pytest.raises(ValueError):
            gaussian_basis_network((0,), 7, 1)  # m above synthesis cap
        with pytest.raises(ValueError):
            gaussian_basis_network((0, 0), 2, 1)
        with pytest.raises(ValueError):
            gaussian_basis_network((-1,), 2, 1)
        with pytest.raises(ValueError):
            poly_to_gaussian(WeightedPolyCoeffs(d=4, entries={}), 2)
        with pytest.raises(ValueError):
            WeightedPolyCoeffs(d=1, entries={(0,): math.nan})
        with pytest.raises(ValueError):
            WeightedPolyCoeffs(d=2, entries={(0,): 1.0})


class TestPrefabKernel:
    def test_matches_compiled_kernel(self):
        budgets = {(4, 1, 2): 1e-11, (6, 2, 2): 1e-9, (4, 2, 3): 1e-11}
        rng = np.random.default_rng(0)
        for (n, q, Q), budget in budgets.items():
            net = prefab_kernel_network(n, q, Q, 1.0)
            table = compile_kernel(float(n), q)
            pts = rng.uniform(-3.0, 3.0, size=(400, Q))
            pts = pts[np.linalg.norm(pts, axis=1) <= 3.0]
            got = net(pts)
            want = eval_kernel(table, np.linalg.norm(pts, axis=1))
            assert float(np.max(np.abs(got - want))) < budget

    def test_alpha_folding(self):
        # scale appears on the input, the q-power prefactor on the weights
        n, q, Q, alpha = 4, 1, 2, 0.5
        net = prefab_kernel_network(n, q, Q, alpha)
        assert net.scale == pytest.approx(n ** (1.0 - alpha))
        table = compile_kernel(float(n), q)
        pts = np.random.default_rng(1).uniform(-2.0, 2.0, size=(200, Q))
        got = net(pts)
        r = net.scale * np.linalg.norm(pts, axis=1)
        want = n ** (q * (1.0 - alpha)) * eval_kernel(table, r)
        assert float(np.max(np.abs(got - want))) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            prefab_kernel_network(1, 1, 2, 1.0)
        with pytest.raises(ValueError):
            prefab_kernel_network(4, 2, 1, 1.0)
        with pytest.raises(ValueError):
            prefab_kernel_network(4, 1, 4, 1.0)
        with pytest.raises(ValueError):
            prefab_kernel_network(4, 1, 2, 0.0)


class TestShallowEstimate:
    def test_matches_kernel_estimator(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(64, 2)) * 0.8
        ds = Dataset(pts, np.cos(pts @ np.array([1.0, -0.5])), 1)
        net = prefab_kernel_network(4, 1, 2, 1.0)
        cfg = EstimatorConfig.build(4.0, 1.0, 1)
        for x in rng.normal(size=(10, 2)) * 0.5:
            a = shallow_net_estimate(ds, net, x)
            b = estimate_at(ds, cfg, x)
            assert a == pytest.approx(b, abs=1e-10)

    def test_validation(self):
        ds = Dataset(np.zeros((2, 3)), np.ones(2), 1)
        net = prefab_kernel_network(4, 1, 2, 1.0)
        with pytest.raises(ValueError):
            shallow_net_estimate(ds, net, np.zeros(3))
        with pytest.raises(ValueError):
            shallow_net_estimate(
                Dataset(np.zeros((2, 2)), np.ones(2), 1), net, np.zeros(3)
            )


class TestNetworkJson:
    def test_bit_exact_round_trip(self, tmp_path):
        net = prefab_kernel_network(4, 1, 2, 0.5)
        path = tmp_path / "net.json"
        write_network_json(net, str(path))
        back = read_network_json(str(path))
        assert back.dim == net.dim
        assert back.scale == net.scale
        np.testing.assert_array_equal(back.axis_centers, net.axis_centers)
        assert back.coeffs.shape == net.coeffs.shape == (32, 32)
        np.testing.assert_array_equal(back.coeffs, net.coeffs)

    def test_tensor_form_on_disk(self, tmp_path):
        path = tmp_path / "net.json"
        write_network_json(prefab_kernel_network(3, 1, 2, 1.0), str(path))
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["axis_centers", "coeffs", "dim", "scale"]
        assert len(doc["axis_centers"]) == 18
        assert doc["coeffs"]["shape"] == [18, 18]
        assert len(doc["coeffs"]["values"]) == 18 * 18

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"dim": 1, "scale": 1.0, "axis_centers": [0.0]}')
        with pytest.raises(ValueError, match="'coeffs'"):
            read_network_json(str(path))

    def test_dense_format_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"dim": 1, "scale": 1.0, "centers": [[0.0]], "coeffs": [1.0]}')
        with pytest.raises(ValueError, match="'centers'"):
            read_network_json(str(path))

    def test_dim_not_matching_shape_rejected(self, tmp_path):
        # a huge dim must be refused before anything of that size is built
        path = tmp_path / "net.json"
        doc = {"dim": 10**12, "scale": 1.0, "axis_centers": [0.0, 1.0],
               "coeffs": {"shape": [2, 2], "values": [1.0, 2.0, 3.0, 4.0]}}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="coeffs must have shape"):
            read_network_json(str(path))

    def test_count_not_matching_shape_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        doc = {"dim": 2, "scale": 1.0, "axis_centers": [0.0, 1.0],
               "coeffs": {"shape": [2, 2], "values": [1.0, 2.0, 3.0]}}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'coeffs' holds 3 values for shape"):
            read_network_json(str(path))

    @pytest.mark.parametrize(
        "field, text",
        [
            ("scale", '"scale": NaN, "axis_centers": [0.0], "coeffs": '
                      '{"shape": [1], "values": [1.0]}'),
            ("axis_centers", '"scale": 1.0, "axis_centers": [Infinity], "coeffs": '
                             '{"shape": [1], "values": [1.0]}'),
            ("coeffs", '"scale": 1.0, "axis_centers": [0.0], "coeffs": '
                       '{"shape": [1], "values": [NaN]}'),
        ],
        ids=["scale", "axis_centers", "coeffs"],
    )
    def test_non_finite_values_rejected(self, tmp_path, field, text):
        path = tmp_path / "net.json"
        path.write_text('{"dim": 1, ' + text + "}")
        with pytest.raises(ValueError, match=field):
            read_network_json(str(path))
