"""Gaussian network synthesis: basis emulation, prefab kernels, estimates.

Oracles: the Hermite recurrence for the emulated functions, the compiled
kernel tables for the prefab surrogates, the dense synthesis and the
center-by-center sum of ``oracles`` for the factored networks, and the
plain kernel estimator for the shallow-network estimate.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from hermloc import gaussian_net
from hermloc.estimator import Dataset, EstimatorConfig, _chunk_rows, estimate_batch
from hermloc.gaussian_net import (
    MAX_DIM,
    MAX_M,
    GaussianNetwork,
    poly_to_gaussian,
    prefab_kernel_network,
    read_network_json,
    shallow_net_estimate,
    write_network_json,
)
from hermloc.hermite import hermite_matrix
from hermloc.kernels import compile_kernel, eval_kernel
from oracles import dense_prefab_coeffs, dense_sum

XS = np.linspace(-4.0, 4.0, 801)


def basis_error(k, m, d):
    B = np.zeros((m * m,) * d)
    B[k] = 1.0
    net = poly_to_gaussian(B)
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


class TestGaussianNetwork:
    def test_call_scalar_and_batch(self):
        # centers (0, 0) and (1, -1) with weights 2 and -0.5: a dense network
        coeffs = np.zeros((3, 3))
        coeffs[1, 1] = 2.0
        coeffs[2, 0] = -0.5
        net = GaussianNetwork(
            scale=1.0, axis_centers=np.array([-1.0, 0.0, 1.0]), factor=np.eye(3), core=coeffs
        )
        assert net.dim == 2
        x = np.array([0.3, 0.4])
        single = net(x[None, :])
        assert single.shape == (1,)
        want = 2.0 * math.exp(-0.25) - 0.5 * math.exp(-(0.7**2 + 1.4**2))
        assert single[0] == pytest.approx(want, rel=1e-14)
        batch = net(np.stack([x, x]))
        assert batch.shape == (2,)
        np.testing.assert_allclose(batch, single[0], rtol=1e-15)
        # a single point is a batch of one
        with pytest.raises(ValueError, match="batch"):
            net(x)

    def test_scale_composes_with_input(self):
        net = GaussianNetwork(
            scale=3.0, axis_centers=np.array([0.6]), factor=np.eye(1), core=np.array([1.0])
        )
        assert net(np.array([[0.2]]))[0] == pytest.approx(1.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="core must have shape"):
            GaussianNetwork(1.0, np.zeros(3), np.eye(3), np.float64(1.0))
        with pytest.raises(ValueError, match="core must have shape"):
            GaussianNetwork(1.0, np.zeros(3), np.eye(3), np.zeros((3, 2)))
        # factor rows not K, factor columns not the core's r
        with pytest.raises(ValueError, match="factor must have shape"):
            GaussianNetwork(1.0, np.zeros(3), np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="factor must have shape"):
            GaussianNetwork(1.0, np.zeros(3), np.eye(3), np.zeros(2))
        with pytest.raises(ValueError):
            GaussianNetwork(0.0, np.zeros(1), np.eye(1), np.zeros(1))
        with pytest.raises(ValueError):
            GaussianNetwork(1.0, np.zeros((1, 1)), np.eye(1), np.zeros(1))
        with pytest.raises(ValueError, match="core"):
            GaussianNetwork(1.0, np.zeros(2), np.eye(2), np.array([1.0, math.inf]))
        with pytest.raises(ValueError, match="factor"):
            GaussianNetwork(1.0, np.zeros(1), np.array([[math.nan]]), np.ones(1))
        with pytest.raises(ValueError, match="axis_centers"):
            GaussianNetwork(1.0, np.array([math.nan]), np.eye(1), np.ones(1))
        net = GaussianNetwork(1.0, np.zeros(1), np.eye(1), np.ones(1))
        with pytest.raises(ValueError):
            net(np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: poly_to_gaussian(np.eye(9)[3]),
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
        [
            (4, 1, 2, None),
            (4, 2, 3, None),
            (4, 2, 3, 3 * 32 * 32),
            # r = 5 even degrees on each of the 18 center axes
            (3, 1, 3, None),
            # the benchmark's network, each chunk of 3 points holding its
            # intermediates of 3 * 72 + 3 * 18 + 18 * 18 values per point
            (6, 2, 3, 3 * (3 * 72 + 3 * 18 + 18 * 18)),
        ],
        ids=["d2", "d3", "d3-small-chunks", "d3-odd-n", "d3-chunks-of-3"],
    )
    def test_scalar_batch_and_chunks_agree_bitwise(self, n, q, Q, entries, monkeypatch):
        if entries is not None:
            monkeypatch.setattr(gaussian_net, "_CHUNK_ENTRIES", entries)
        net = prefab_kernel_network(n, q, Q, 1.0)
        k, r = net.factor.shape
        step = gaussian_net._CHUNK_ENTRIES // (Q * k + Q * r + r ** (Q - 1))
        pts = np.random.default_rng(4).uniform(-2.0, 2.0, size=(step + 5, Q))
        batch = net(pts)
        assert batch.shape == (step + 5,)
        picked = [0, 1, step - 1, step, step + 4]
        for i in picked:
            assert net(pts[i : i + 1])[0] == batch[i]
        np.testing.assert_array_equal(net(pts[step - 2 :]), batch[step - 2 :])
        # every chunk is contracted: the values are the network's
        gap = np.max(np.abs(batch[picked] - dense_sum(net, pts[picked])))
        assert gap <= 2.0 * U * float(np.sum(np.abs(net.coeffs)))
        assert net(pts[:0]).shape == (0,)

    @pytest.mark.parametrize("count", [121, 1024, 100_000])
    def test_memory_is_flat_in_points(self, count):
        # the dense sum over all 373,248 centers at once needs hundreds of MB,
        # and 100,000 points in one chunk would hold 475 MB of intermediates
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
        m = 3
        ba, bb = np.eye(m * m)[[0, 2]]
        ga, gb, gm = (poly_to_gaussian(b) for b in (ba, bb, 2.0 * ba - 0.5 * bb))
        np.testing.assert_allclose(
            gm.coeffs, 2.0 * ga.coeffs - 0.5 * gb.coeffs, rtol=1e-12, atol=1e-300
        )
        np.testing.assert_array_equal(gm.axis_centers, ga.axis_centers)

    def test_validation(self):
        B = np.zeros((4, 4))
        B[3, 0] = 1.0
        poly_to_gaussian(B)  # m = 2, |k|_1 = 3 < m**2
        # m past MAX_M, m = 0, and axes that are not all m**2 long
        for bad in (np.zeros((MAX_M + 1) ** 2), np.zeros(0), np.zeros(3), np.zeros((10, 10)),
                    np.zeros((4, 5))):
            with pytest.raises(ValueError, match=f"shape .* in 1..{MAX_M}, got"):
                poly_to_gaussian(bad)
        for bad in (np.float64(1.0), np.zeros((4,) * (MAX_DIM + 1))):
            with pytest.raises(ValueError, match="axes"):
                poly_to_gaussian(bad)
        B[0, 0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            poly_to_gaussian(B)
        B[0, 0] = 0.0
        B[2, 2] = 1e-300  # |k|_1 = 4 = m**2
        with pytest.raises(ValueError, match=r"\|k\|_1 >= m\*\*2"):
            poly_to_gaussian(B)


# dense coefficients of prefab_kernel_network(n, q, Q, alpha) at the indices
# (K//2,)*Q (the peak), (K//4,)*Q and (K//2, K//4, ..), or (K//2 + 2,) at
# Q = 1, as built from the sparse multi-index form the dense tensor replaced
PREFAB_REFERENCE = {
    (4, 1, 2, 1.0): (5.001290016700444, -0.0015601963870406845, 0.08391101313177043),
    (6, 2, 2, 1.0): (5248.020804140962, 0.0008577802933832395, 0.7982915330999827),
    (4, 2, 3, 1.0): (1.9674576570916358, 3.132405040703613e-05, -0.0003235193785980402),
    (6, 2, 3, 1.0): (3236.0030092822235, -3.0860191055813785e-07, 9.57296233817192e-05),
    (3, 1, 1, 0.5): (1.8598263442661065, 0.21425586053891982, -0.8547758908463988),
    (5, 1, 3, 0.5): (146.96536001485325, 2.1988666233782057e-06, -0.0003033408004575293),
    (2, 1, 2, 1.0): (0.26470565297032417, -0.06150535789128299, -0.016530498585212515),
}


class TestPrefabKernel:
    @pytest.mark.parametrize("args", sorted(PREFAB_REFERENCE), ids=str)
    def test_coefficients_match_reference(self, args):
        coeffs = dense_prefab_coeffs(*args)
        k, d = coeffs.shape[0], coeffs.ndim
        mixed = (k // 2,) + (k // 4,) * (d - 1) if d > 1 else (k // 2 + 2,)
        got = [coeffs[(k // 2,) * d], coeffs[(k // 4,) * d], coeffs[mixed]]
        want = PREFAB_REFERENCE[args]
        assert float(np.max(np.abs(coeffs))) == pytest.approx(want[0], rel=1e-15)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * want[0])

    @pytest.mark.parametrize("args", [*sorted(PREFAB_REFERENCE), (6, 1, 3, 1.0)], ids=str)
    def test_factored_coefficients_match_dense_oracle(self, args):
        # c_j = sum_k core[k] prod_a factor[j_a, k_a], computed by both sides
        # with at most nr = Q (n**2 + 3) + 4 roundings per term (Q sums of at
        # most n**2 terms, the axis products and the prefactors), so each is
        # within gamma_nr T_j of the exact value, T_j = sum_k |core[k]| prod_a
        # |factor[j_a, k_a]|; max_j T_j <= sum_j T_j = sum_k |core[k]| prod_a
        # w[k_a], with w the column sums of |factor|
        n, _, Q, _ = args
        net = prefab_kernel_network(*args)
        mass = np.abs(net.core)
        for _ in range(Q):
            mass = np.tensordot(mass, np.sum(np.abs(net.factor), axis=0), axes=([0], [0]))
        nr = Q * (n * n + 3) + 4
        bound = 2.0 * nr * U / (1.0 - nr * U) * float(mass)
        assert float(np.max(np.abs(net.coeffs - dense_prefab_coeffs(*args)))) <= bound

    def test_matches_compiled_kernel(self):
        # (6, 2, 3) is the benchmark's network, with its budget, and the one
        # half-integer s = (Q - q)/2 among these
        budgets = {(4, 1, 2): 1e-11, (6, 2, 2): 1e-9, (4, 2, 3): 1e-11, (6, 2, 3): 1e-9}
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

    @pytest.mark.parametrize(
        "name, args",
        [("n", (True, 1, 2, 1.0)), ("q", (4, True, 2, 1.0)), ("Q", (4, 1, True, 1.0)),
         ("alpha", (4, 1, 1, True))],
        ids=["n", "q", "Q", "alpha"],
    )
    def test_bool_arguments_rejected(self, name, args):
        with pytest.raises(ValueError, match=f"^{name} must be of type"):
            prefab_kernel_network(*args)

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
            a = shallow_net_estimate(ds, net, x[None, :])[0]
            b = estimate_batch(ds, cfg, x[None, :])[0]
            assert a == pytest.approx(b, abs=1e-10)

    def test_single_equals_batch_across_chunks(self):
        # 200 points against 1000 samples span four chunks of test points
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(1000, 2)) * 0.8
        ds = Dataset(pts, np.sin(pts[:, 0] - pts[:, 1]), 1)
        net = prefab_kernel_network(4, 1, 2, 1.0)
        xs = rng.normal(size=(200, 2)) * 0.5
        assert 2 * _chunk_rows(ds.size) < xs.shape[0]
        batch = shallow_net_estimate(ds, net, xs)
        assert batch.shape == (200,)
        for i in range(200):
            assert shallow_net_estimate(ds, net, xs[i : i + 1])[0] == batch[i]

    def test_validation(self):
        ds = Dataset(np.zeros((2, 3)), np.ones(2), 1)
        net = prefab_kernel_network(4, 1, 2, 1.0)
        with pytest.raises(ValueError):
            shallow_net_estimate(ds, net, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            shallow_net_estimate(
                Dataset(np.zeros((2, 2)), np.ones(2), 1), net, np.zeros((1, 3))
            )


def net_doc(**fields):
    """A valid one-dimensional factored network document, with ``fields`` replaced."""
    doc = {"dim": 1, "scale": 1.0, "axis_centers": [0.0, 1.0],
           "factor": {"shape": [2, 1], "values": [1.0, 0.5]},
           "core": {"shape": [1], "values": [2.0]}}
    doc.update(fields)
    return doc


class TestNetworkJson:
    def test_bit_exact_round_trip(self, tmp_path):
        net = prefab_kernel_network(4, 1, 2, 0.5)
        path = tmp_path / "net.json"
        write_network_json(net, str(path))
        back = read_network_json(str(path))
        assert back.dim == net.dim
        assert back.scale == net.scale
        np.testing.assert_array_equal(back.axis_centers, net.axis_centers)
        assert back.factor.shape == net.factor.shape == (32, 8)
        np.testing.assert_array_equal(back.factor, net.factor)
        assert back.core.shape == net.core.shape == (8, 8)
        np.testing.assert_array_equal(back.core, net.core)

    def test_tensor_form_on_disk(self, tmp_path):
        path = tmp_path / "net.json"
        write_network_json(prefab_kernel_network(3, 1, 2, 1.0), str(path))
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["axis_centers", "core", "dim", "factor", "scale"]
        assert len(doc["axis_centers"]) == 18
        assert doc["factor"]["shape"] == [18, 5]
        assert len(doc["factor"]["values"]) == 18 * 5
        assert doc["core"]["shape"] == [5, 5]
        assert len(doc["core"]["values"]) == 5 * 5

    def test_written_document_reads_back(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(net_doc()))
        net = read_network_json(str(path))
        assert net(np.array([[0.0]]))[0] == 2.0 * (1.0 + 0.5 * math.exp(-1.0))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        doc = net_doc()
        del doc["core"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'core'"):
            read_network_json(str(path))

    def test_dense_format_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"dim": 1, "scale": 1.0, "centers": [[0.0]], "coeffs": [1.0]}')
        with pytest.raises(ValueError, match="'centers'"):
            read_network_json(str(path))

    def test_unfactored_tensor_format_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        doc = {"dim": 2, "scale": 1.0, "axis_centers": [0.0, 1.0],
               "coeffs": {"shape": [2, 2], "values": [1.0, 2.0, 3.0, 4.0]}}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="field 'coeffs' belongs to the unfactored"):
            read_network_json(str(path))

    def test_dim_not_matching_shape_rejected(self, tmp_path):
        # a huge dim must be refused before anything of that size is built
        path = tmp_path / "net.json"
        path.write_text(json.dumps(net_doc(dim=10**12)))
        with pytest.raises(ValueError, match="field 'dim' must be 1"):
            read_network_json(str(path))

    @pytest.mark.parametrize("dim", [True, 2.0, 1, 3, None], ids=repr)
    def test_dim_must_be_the_coeffs_axis_count(self, tmp_path, dim):
        path = tmp_path / "net.json"
        doc = net_doc(dim=dim, factor={"shape": [2, 2], "values": [1.0, 0.0, 0.0, 1.0]},
                      core={"shape": [2, 2], "values": [1.0, 2.0, 3.0, 4.0]})
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="field 'dim' must be 2"):
            read_network_json(str(path))

    def test_count_not_matching_shape_rejected(self, tmp_path):
        # a shape of 10**12 entries is refused by its count, not built
        path = tmp_path / "net.json"
        path.write_text(json.dumps(net_doc(core={"shape": [10**6, 10**6], "values": [1.0]})))
        with pytest.raises(ValueError, match=r"'core' holds 1 values for shape \[1000000, 10"):
            read_network_json(str(path))
        path.write_text(json.dumps(net_doc(factor={"shape": [2, 1], "values": [1.0]})))
        with pytest.raises(ValueError, match="'factor' holds 1 values for shape"):
            read_network_json(str(path))

    @pytest.mark.parametrize(
        "field, fields",
        [
            ("core", {"dim": 2, "core": {"shape": [1, 2], "values": [1.0, 2.0]}}),
            ("factor", {"factor": {"shape": [3, 1], "values": [1.0, 0.5, 0.25]}}),
            ("factor", {"factor": {"shape": [2, 2], "values": [1.0, 0.5, 0.25, 0.0]}}),
        ],
        ids=["core-not-square", "factor-rows-not-K", "factor-columns-not-r"],
    )
    def test_shapes_must_fit(self, tmp_path, field, fields):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(net_doc(**fields)))
        with pytest.raises(ValueError, match=f"{field} must have shape"):
            read_network_json(str(path))

    @pytest.mark.parametrize(
        "field, text",
        [
            ("scale", '"scale": NaN'),
            ("axis_centers", '"axis_centers": [0.0, Infinity]'),
            ("factor", '"factor": {"shape": [2, 1], "values": [1.0, -Infinity]}'),
            ("core", '"core": {"shape": [1], "values": [NaN]}'),
        ],
        ids=["scale", "axis_centers", "factor", "core"],
    )
    def test_non_finite_values_rejected(self, tmp_path, field, text):
        path = tmp_path / "net.json"
        doc = net_doc()
        del doc[field]
        path.write_text(json.dumps(doc)[:-1] + ", " + text + "}")
        with pytest.raises(ValueError, match=field):
            read_network_json(str(path))
