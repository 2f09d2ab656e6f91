"""DAG-composed functions: pooling, evaluation, error propagation.

The propagation bound is checked two ways: exactly, with constant-offset
perturbations where the recursion is tight, and empirically, with
kernel-estimate constituents produced by build_deep_approx.
"""

import json
import math
from dataclasses import astuple

import numpy as np
import pytest

from hermloc import estimator
from hermloc.deep_net import (
    Dag,
    DagNode,
    PropagationReport,
    _walk,
    build_deep_approx,
    eval_gfunction,
    make_pooling,
    propagation_gap,
    read_dag_json,
    write_dag_json,
)
from hermloc.estimator import Dataset, EstimatorConfig, estimate_batch, ratio_reconstruction
from oracles import estimate_lipschitz


def two_level_tree():
    """Two sources feeding one clipped sink; constituents attached."""
    nodes = {
        "s1": DagNode(
            id="s1", kind="source", in_dim=1,
            constituent=lambda x: math.sin(float(x[0])), lipschitz=1.0,
        ),
        "s2": DagNode(
            id="s2", kind="source", in_dim=1,
            constituent=lambda x: math.cos(float(x[0])), lipschitz=1.0,
        ),
        "top": DagNode(
            id="top", kind="internal", in_dim=2, children=("s1", "s2"),
            pooling_name="clip", pooling_params={"lo": -1.0, "hi": 1.0},
            pooling_c=1.0, lipschitz=1.0,
            constituent=lambda z: math.cos(float(z[0]) * float(z[1])),
        ),
    }
    return Dag(nodes=nodes, sink="top")


def seven_node_tree():
    """Four 1-d sources, s1,s2 -> a and s3,s4 -> b, then a,b -> sink, clipped."""
    fns = {"s1": lambda x: math.sin(1.5 * x[0]), "s2": lambda x: math.cos(2.0 * x[0]),
           "s3": lambda x: float(x[0]) ** 3, "s4": lambda x: math.tanh(2.0 * x[0])}
    nodes = {sid: DagNode(id=sid, kind="source", in_dim=1, constituent=fn)
             for sid, fn in fns.items()}
    for nid, children, fn in (("a", ("s1", "s2"), lambda z: math.sin(z[0] + z[1])),
                              ("b", ("s3", "s4"), lambda z: float(z[0] * z[1])),
                              ("sink", ("a", "b"), lambda z: math.cos(z[0] - z[1]))):
        nodes[nid] = DagNode(id=nid, kind="internal", in_dim=2, children=children,
                             pooling_name="clip", pooling_params={"lo": -1.0, "hi": 1.0},
                             lipschitz=1.0, constituent=fn)
    return Dag(nodes=nodes, sink="sink")


def per_node_sink(dag, datasets, cfgs, inputs, exact=()):
    """The sink value with every node its own ``ratio_reconstruction`` call, children first.

    Nodes named in ``exact`` keep their constituent.
    """
    values = {}
    for nid in dag.order:
        node = dag.nodes[nid]
        if node.kind == "source":
            z = np.asarray(inputs[nid], dtype=float)
        else:
            z = node.pooling(np.array([values[c] for c in node.children]))
        if nid in exact:
            values[nid] = float(node.constituent(z))
        else:
            values[nid] = float(ratio_reconstruction(datasets[nid], cfgs[nid], z[None, :])[0])
    return values[dag.sink]


def counted_passes(monkeypatch) -> list:
    """Record the batch size of every ``estimator._weighted_passes`` call."""
    calls = []
    passes = estimator._weighted_passes
    monkeypatch.setattr(estimator, "_weighted_passes",
                        lambda ds, xs, *rest: calls.append(len(xs)) or passes(ds, xs, *rest))
    return calls


def node_datasets(dag, points, cfgs):
    return {nid: Dataset(points[nid], np.array([float(dag.nodes[nid].constituent(p))
                                                for p in points[nid]]), cfgs[nid].table.q)
            for nid in dag.nodes}


class TestPooling:
    def test_identity(self):
        v = np.array([0.3, -2.0])
        np.testing.assert_array_equal(make_pooling("identity", {})(v), v)

    def test_clip(self):
        pool = make_pooling("clip", {"lo": -1.0, "hi": 1.0})
        np.testing.assert_array_equal(
            pool(np.array([0.5, -3.0, 2.0])), [0.5, -1.0, 1.0]
        )

    def test_clip_is_contracting(self):
        pool = make_pooling("clip", {"lo": -1.0, "hi": 1.0})
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.uniform(-3, 3, 4)
            b = rng.uniform(-3, 3, 4)
            gap = float(np.linalg.norm(pool(a) - pool(b)))
            assert gap <= float(np.sum(np.abs(a - b))) + 1e-12

    def test_radial(self):
        pool = make_pooling("radial", {"radius": 2.0})
        out = pool(np.array([3.0, 4.0]))
        np.testing.assert_allclose(out, [1.2, 1.6], rtol=1e-15)
        origin = pool(np.zeros(3))
        np.testing.assert_array_equal(origin, [2.0, 0.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            make_pooling("clip", {"lo": 1.0, "hi": 1.0})
        for radius in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="radius"):
                make_pooling("radial", {"radius": radius})
        with pytest.raises(ValueError):
            make_pooling("softmax", {})


class TestDagStructure:
    def test_orders_levels_sources(self):
        dag = two_level_tree()
        order = dag.order
        pos = {nid: i for i, nid in enumerate(order)}
        for node in dag.nodes.values():
            for child in node.children:
                assert pos[child] < pos[node.id]
        assert dag.sources() == ["s1", "s2"]
        assert dag.layers == (("s1", "s2"), ("top",))

    def test_layers_follow_the_longest_path_from_the_sources(self):
        # t reads s directly and through a -> b, so it lies past b
        nodes = {
            "s": DagNode(id="s", kind="source", in_dim=1),
            "u": DagNode(id="u", kind="source", in_dim=1),
            "a": DagNode(id="a", kind="internal", in_dim=1, children=("s",)),
            "b": DagNode(id="b", kind="internal", in_dim=2, children=("a", "u")),
            "t": DagNode(id="t", kind="internal", in_dim=2, children=("s", "b")),
        }
        dag = Dag(nodes=nodes, sink="t")
        assert dag.layers == (("s", "u"), ("a",), ("b",), ("t",))
        assert dag.order == ("s", "u", "a", "b", "t")
        assert seven_node_tree().layers == (("s1", "s2", "s3", "s4"), ("a", "b"), ("sink",))

    def test_node_validation(self):
        with pytest.raises(ValueError):
            DagNode(id="a", kind="middle", in_dim=1)
        with pytest.raises(ValueError):
            DagNode(id="a", kind="source", in_dim=0)
        with pytest.raises(ValueError):
            DagNode(id="a", kind="source", in_dim=1, children=("b",))
        with pytest.raises(ValueError):
            DagNode(id="a", kind="internal", in_dim=1)
        with pytest.raises(ValueError):
            DagNode(id="a", kind="internal", in_dim=3, children=("b", "c"))
        for c in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="node a: pooling_c must be finite and positive"):
                DagNode(id="a", kind="source", in_dim=1, pooling_c=c)
        for lip in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="node a: lipschitz must be finite and >= 0"):
                DagNode(id="a", kind="internal", in_dim=1, children=("b",), lipschitz=lip)
        with pytest.raises(ValueError, match="node a: unknown pooling 'softmax'"):
            DagNode(id="a", kind="source", in_dim=1, pooling_name="softmax")
        with pytest.raises(ValueError, match="node a: "):
            DagNode(id="a", kind="source", in_dim=1, pooling_name="clip",
                    pooling_params={"lo": [0.0]})

    def test_graph_validation(self):
        src = DagNode(id="s", kind="source", in_dim=1)
        with pytest.raises(ValueError):
            Dag(nodes={"s": src}, sink="t")
        top = DagNode(id="t", kind="internal", in_dim=1, children=("missing",))
        with pytest.raises(ValueError):
            Dag(nodes={"s": src, "t": top}, sink="t")
        # two unreferenced nodes: no unique sink
        s2 = DagNode(id="u", kind="source", in_dim=1)
        t1 = DagNode(id="t", kind="internal", in_dim=1, children=("s",))
        with pytest.raises(ValueError):
            Dag(nodes={"s": src, "u": s2, "t": t1}, sink="t")

    def test_cycle_detection(self):
        a = DagNode(id="a", kind="internal", in_dim=1, children=("b",))
        b = DagNode(id="b", kind="internal", in_dim=1, children=("a",))
        t = DagNode(id="t", kind="internal", in_dim=1, children=("a",))
        with pytest.raises(ValueError, match="cycle"):
            Dag(nodes={"a": a, "b": b, "t": t}, sink="t")


class TestEvalGFunction:
    def test_composite_value(self):
        dag = two_level_tree()
        out = eval_gfunction(dag, {"s1": [0.5], "s2": [0.25]})
        want = math.cos(math.sin(0.5) * math.cos(0.25))
        assert out == pytest.approx(want, rel=1e-15)

    def test_pooling_applies_before_constituent(self):
        dag = two_level_tree()
        big = {"s1": [math.pi / 2], "s2": [0.0]}  # sin -> 1.0, cos -> 1.0
        out = eval_gfunction(dag, big)
        assert out == pytest.approx(math.cos(1.0), rel=1e-15)

    def test_shared_child_memoized(self):
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return float(x[0])

        nodes = {
            "s": DagNode(id="s", kind="source", in_dim=1, constituent=counted),
            "a": DagNode(id="a", kind="internal", in_dim=1, children=("s",),
                         constituent=lambda z: float(z[0]) + 1.0),
            "b": DagNode(id="b", kind="internal", in_dim=1, children=("s",),
                         constituent=lambda z: float(z[0]) - 1.0),
            "t": DagNode(id="t", kind="internal", in_dim=2, children=("a", "b"),
                         constituent=lambda z: float(z[0]) * float(z[1])),
        }
        dag = Dag(nodes=nodes, sink="t")
        out = eval_gfunction(dag, {"s": [2.0]})
        assert out == pytest.approx(3.0, rel=1e-15)
        assert calls["n"] == 1

    def test_validation(self):
        dag = two_level_tree()
        with pytest.raises(ValueError):
            eval_gfunction(dag, {"s1": [0.0]})
        with pytest.raises(ValueError):
            eval_gfunction(dag, {"s1": [0.0, 1.0], "s2": [0.0]})
        bare = Dag(
            nodes={
                "s": DagNode(id="s", kind="source", in_dim=1),
                "t": DagNode(id="t", kind="internal", in_dim=1, children=("s",),
                             constituent=lambda z: 0.0),
            },
            sink="t",
        )
        with pytest.raises(ValueError):
            eval_gfunction(bare, {"s": [0.0]})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_source_named(self, bad):
        # exact constituents would carry NaN to the sink, kernel channels
        # would raise without naming a node
        dag = two_level_tree()
        g1 = np.linspace(-1.0, 1.0, 20).reshape(-1, 1)
        approx = build_deep_approx(
            dag, {"s1": g1, "s2": g1, "top": np.zeros((4, 2))},
            {nid: EstimatorConfig.build(4.0, 1.0, 1) for nid in dag.nodes})
        for graph in (dag, approx):
            with pytest.raises(ValueError, match=r"source 's2': coordinates must be finite"):
                eval_gfunction(graph, {"s1": [0.5], "s2": [bad]})


class TestEstimateLipschitz:
    def test_linear_function(self):
        rng = np.random.default_rng(1)
        slope = np.array([2.0, -1.0])
        est = estimate_lipschitz(lambda x: float(x @ slope), 2, rng, trials=400)
        norm = float(np.linalg.norm(slope))
        assert est <= norm + 1e-9
        assert est >= 0.9 * norm


class TestPropagation:
    def test_constant_offsets_make_bound_tight(self):
        # f and f + delta at every node, with a summing sink whose slope is
        # +1 in each child: offsets add coherently and the measured gap hits
        # the recursion value 3 delta exactly
        nodes = {
            "s1": DagNode(id="s1", kind="source", in_dim=1,
                          constituent=lambda x: math.sin(float(x[0]))),
            "s2": DagNode(id="s2", kind="source", in_dim=1,
                          constituent=lambda x: math.cos(float(x[0]))),
            "top": DagNode(id="top", kind="internal", in_dim=2,
                           children=("s1", "s2"), lipschitz=1.0,
                           constituent=lambda z: float(z[0]) + float(z[1])),
        }
        dag = Dag(nodes=nodes, sink="top")
        delta = 1e-3
        f_set = {nid: dag.nodes[nid].constituent for nid in dag.nodes}
        g_set = {
            nid: (lambda fn: lambda z, fn=fn: fn(z) + delta)(f_set[nid])
            for nid in dag.nodes
        }
        probes = [{"s1": [0.2 * i - 0.5], "s2": [0.1 * i - 0.3]} for i in range(5)]
        rep = propagation_gap(dag, f_set, g_set, probes)
        assert rep.node_eps == pytest.approx(delta, rel=1e-9)
        assert rep.predicted_bound == pytest.approx(3.0 * delta, rel=1e-9)
        assert rep.measured_gap == pytest.approx(3.0 * delta, rel=1e-9)

    def test_kernel_estimates_respect_bound(self):
        dag = two_level_tree()
        g1 = np.linspace(-1.0, 1.0, 200).reshape(-1, 1)
        side = np.linspace(-1.0, 1.0, 20)
        g2 = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
        approx = build_deep_approx(
            dag,
            {"s1": g1, "s2": g1, "top": g2},
            {
                "s1": EstimatorConfig.build(8.0, 1.0, 1),
                "s2": EstimatorConfig.build(8.0, 1.0, 1),
                "top": EstimatorConfig.build(8.0, 1.0, 2),
            },
        )
        f_set = {nid: dag.nodes[nid].constituent for nid in dag.nodes}
        g_set = {nid: approx.nodes[nid].constituent for nid in dag.nodes}
        rng = np.random.default_rng(0)
        probes = [
            {"s1": rng.uniform(-1, 1, 1), "s2": rng.uniform(-1, 1, 1)}
            for _ in range(20)
        ]
        rep = propagation_gap(dag, f_set, g_set, probes)
        assert rep.measured_gap <= rep.predicted_bound
        assert rep.node_eps < 0.1  # frozen sanity envelope for this setup

    def test_validation(self):
        dag = two_level_tree()
        f_set = {nid: dag.nodes[nid].constituent for nid in dag.nodes}
        nodes = {
            nid: DagNode(
                id=n.id, kind=n.kind, in_dim=n.in_dim, children=n.children,
                pooling_name=n.pooling_name, pooling_params=dict(n.pooling_params),
                pooling_c=n.pooling_c, lipschitz=None, constituent=n.constituent,
            )
            for nid, n in dag.nodes.items()
        }
        unbounded = Dag(nodes=nodes, sink="top")
        with pytest.raises(ValueError):
            propagation_gap(unbounded, f_set, f_set, [])
        with pytest.raises(ValueError):
            propagation_gap(dag, f_set, {"s1": f_set["s1"]}, [])

    def test_non_finite_gap_is_raised_not_dropped(self):
        # s -> t with identity constituents; g at t is NaN for z > 0.5, so
        # probe 0 (z = 0.1) is fine and probe 1 (z = 0.9) is not
        nodes = {
            "s": DagNode(id="s", kind="source", in_dim=1, constituent=lambda x: float(x[0])),
            "t": DagNode(id="t", kind="internal", in_dim=1, children=("s",), lipschitz=1.0,
                         constituent=lambda z: float(z[0])),
        }
        dag = Dag(nodes=nodes, sink="t")
        f_set = {nid: n.constituent for nid, n in nodes.items()}
        g_set = {"s": f_set["s"], "t": lambda z: math.nan if z[0] > 0.5 else float(z[0])}
        probes = [{"s": [0.1]}, {"s": [0.9]}]
        finite = propagation_gap(dag, f_set, g_set, probes[:1])
        assert finite == PropagationReport(0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="probe 1: node 't' has the non-finite gap nan"):
            propagation_gap(dag, f_set, g_set, probes)
        # every node gap finite (1.8 at s, 0 at t), but the families' sinks
        # lie 2e308 apart, past the float range
        big = lambda z: math.copysign(1e308, z[0])
        f_set = {"s": f_set["s"], "t": big}
        g_set = {"s": lambda x: -float(x[0]), "t": big}
        with pytest.raises(ValueError, match="probe 0: node 't' has the non-finite gap inf"):
            propagation_gap(dag, f_set, g_set, probes[1:])
        with pytest.raises(ValueError, match="at least one probe input"):
            propagation_gap(dag, f_set, f_set, [])

    def test_probe_of_wrong_shape_rejected(self):
        dag = two_level_tree()
        f_set = {nid: dag.nodes[nid].constituent for nid in dag.nodes}
        with pytest.raises(ValueError, match="missing input for source 's2'"):
            propagation_gap(dag, f_set, f_set, [{"s1": [0.0]}])
        with pytest.raises(ValueError, match="source s1: expected 1 coordinates"):
            propagation_gap(dag, f_set, f_set, [{"s1": [0.0, 1.0], "s2": [0.0]}])

    def test_each_constituent_called_twice_per_node_per_probe(self):
        # one walk per family, plus the other family at the recorded inputs
        dag = two_level_tree()
        calls = {}

        def counted(label, nid, fn):
            def wrapped(z):
                calls[label, nid] = calls.get((label, nid), 0) + 1
                return fn(z)
            return wrapped

        f_set = {nid: counted("f", nid, n.constituent) for nid, n in dag.nodes.items()}
        g_set = {nid: counted("g", nid, lambda z, fn=n.constituent: fn(z) + 1e-3)
                 for nid, n in dag.nodes.items()}
        probes = [{"s1": [0.1 * i], "s2": [-0.2 * i]} for i in range(3)]
        propagation_gap(dag, f_set, g_set, probes)
        assert calls == {(label, nid): 2 * len(probes)
                         for label in "fg" for nid in dag.nodes}


class TestBuildDeepApprox:
    def test_g_equals_two_estimate_calls_bitwise(self):
        # one shared kernel pass must give exactly the old value pass over
        # unit pass, including the zero-mass guard
        dag = two_level_tree()
        side = np.linspace(-1.0, 1.0, 12)
        pts = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
        g1 = np.linspace(-1.0, 1.0, 50).reshape(-1, 1)
        cfg = EstimatorConfig.build(8.0, 1.0, 2)
        approx = build_deep_approx(
            dag,
            {"s1": g1, "s2": g1, "top": pts},
            {
                "s1": EstimatorConfig.build(8.0, 1.0, 1),
                "s2": EstimatorConfig.build(8.0, 1.0, 1),
                "top": cfg,
            },
        )
        g = approx.nodes["top"].constituent
        labels = np.array([float(dag.nodes["top"].constituent(p)) for p in pts])
        ds = Dataset(pts, labels, 2)
        ones = ds.with_unit_values()
        zs = np.random.default_rng(3).uniform(-1.2, 1.2, (25, 2))
        for z in list(zs) + [np.array([40.0, 40.0])]:
            num = float(estimate_batch(ds, cfg, z.reshape(1, -1))[0])
            den = float(estimate_batch(ones, cfg, z.reshape(1, -1))[0])
            want = 0.0 if den == 0.0 else num / den
            assert g(z) == want

    def test_g_follows_the_zero_mass_policy(self):
        # one sample at 0 seen from 15.5: the unit pass is about 1.4e-21, so g
        # reports 0 like ratio_reconstruction, not the sample value 2.5
        node = DagNode(id="s", kind="source", in_dim=1, constituent=lambda x: 2.5)
        dag = Dag(nodes={"s": node}, sink="s")
        cfg = EstimatorConfig.build(8, 1, 1)
        approx = build_deep_approx(dag, {"s": np.zeros((1, 1))}, {"s": cfg})
        g = approx.nodes["s"].constituent
        ds = Dataset(np.zeros((1, 1)), np.array([2.5]), 1)
        want = ratio_reconstruction(ds, cfg, [[15.5]])[0]
        assert want == 0.0
        assert g(np.array([15.5])) == want
        assert g(np.array([0.5])) == 2.5

    def test_validation(self):
        dag = two_level_tree()
        pts = {"s1": np.zeros((4, 1)), "s2": np.zeros((4, 1)), "top": np.zeros((4, 1))}
        cfgs = {nid: EstimatorConfig.build(4.0, 1.0, 1) for nid in dag.nodes}
        with pytest.raises(ValueError):
            build_deep_approx(dag, pts, cfgs)  # top points have wrong width
        pts["top"] = np.zeros((4, 2))
        with pytest.raises(ValueError, match="node s2: no sample points"):
            build_deep_approx(dag, {k: v for k, v in pts.items() if k != "s2"}, cfgs)
        with pytest.raises(ValueError, match="node top: no estimator config"):
            build_deep_approx(dag, pts, {k: v for k, v in cfgs.items() if k != "top"})
        with pytest.raises(ValueError, match="node s1: q must be an integer in 1..Q"):
            build_deep_approx(dag, pts, {**cfgs, "s1": EstimatorConfig.build(4.0, 1.0, 2)})
        bare = Dag(
            nodes={
                "s": DagNode(id="s", kind="source", in_dim=1),
                "t": DagNode(id="t", kind="internal", in_dim=1, children=("s",),
                             constituent=lambda z: 0.0),
            },
            sink="t",
        )
        with pytest.raises(ValueError):
            build_deep_approx(
                bare,
                {"s": np.zeros((4, 1)), "t": np.zeros((4, 1))},
                {nid: EstimatorConfig.build(4.0, 1.0, 1) for nid in bare.nodes},
            )


class TestLayeredChannels:
    """Kernel channels of a layer sharing table, alpha, M and Q take one pass, bitwise."""

    @staticmethod
    def fitted(dag, ms, cfgs, seed=0):
        rng = np.random.default_rng(seed)
        points = {nid: rng.uniform(-1.0, 1.0, (ms[nid], dag.nodes[nid].in_dim))
                  for nid in sorted(dag.nodes)}
        return build_deep_approx(dag, points, cfgs), node_datasets(dag, points, cfgs)

    def seven(self):
        dag = seven_node_tree()
        cfgs = {nid: EstimatorConfig.build(8.0, 1.0, dag.nodes[nid].in_dim) for nid in dag.nodes}
        approx, datasets = self.fitted(dag, dict.fromkeys(dag.nodes, 256), cfgs)
        return dag, approx, datasets, cfgs

    def test_layered_walk_equals_per_node_estimates(self):
        dag, approx, datasets, cfgs = self.seven()
        rng = np.random.default_rng(1)
        inputs = [{sid: rng.uniform(-1.0, 1.0, 1) for sid in dag.sources()} for _ in range(200)]
        # s1 far from its samples: zero mass, so s1 reads 0 in a layer with mass
        inputs.append({"s1": [40.0], "s2": [0.3], "s3": [-0.2], "s4": [0.9]})
        for inp in inputs:
            assert eval_gfunction(approx, inp) == per_node_sink(dag, datasets, cfgs, inp)
        assert approx.nodes["s1"].constituent([40.0]) == 0.0

    def test_one_pass_per_layer(self, monkeypatch):
        dag, approx, _, _ = self.seven()
        calls = counted_passes(monkeypatch)
        for k in range(5):
            eval_gfunction(approx, {sid: [0.1 * k] for sid in dag.sources()})
            assert calls == [4, 2, 1]
            calls.clear()

    def test_channel_alone_equals_its_row_in_the_layer(self):
        dag, approx, _, _ = self.seven()
        funcs = {nid: node.constituent for nid, node in approx.nodes.items()}
        rng = np.random.default_rng(2)
        for _ in range(20):
            inputs, values = _walk(approx, {sid: rng.uniform(-1.0, 1.0, 1)
                                            for sid in dag.sources()}, funcs)
            for nid, fn in funcs.items():
                assert fn(inputs[nid]) == values[nid], nid

    def test_mixed_layer_groups_by_table_and_sample_count(self, monkeypatch):
        # layer 0: s1, s2 share a stack; s3 has another M and s4 another
        # table; s5 is a plain callable.  The sink is one more pass.
        nodes = {f"s{k}": DagNode(id=f"s{k}", kind="source", in_dim=1,
                                  constituent=lambda x, k=k: math.sin(k * x[0]))
                 for k in range(1, 6)}
        nodes["sink"] = DagNode(id="sink", kind="internal", in_dim=5,
                                children=tuple(sorted(nodes)), pooling_name="clip",
                                constituent=lambda z: float(np.sum(z)) / 5.0)
        dag = Dag(nodes=nodes, sink="sink")
        cfgs = {nid: EstimatorConfig.build(8.0, 1.0, 1) for nid in dag.nodes}
        cfgs["s4"] = EstimatorConfig.build(6.0, 1.0, 1)
        ms = {**dict.fromkeys(dag.nodes, 64), "s3": 96}
        approx, datasets = self.fitted(dag, ms, cfgs, seed=3)
        approx = approx.with_constituents({"s5": dag.nodes["s5"].constituent})
        stacks = {id(approx.nodes[nid].constituent.stack) for nid in ("s1", "s2", "s3", "s4")}
        assert len(stacks) == 3
        calls = counted_passes(monkeypatch)
        rng = np.random.default_rng(4)
        for _ in range(20):
            inp = {sid: rng.uniform(-1.0, 1.0, 1) for sid in dag.sources()}
            calls.clear()
            got = eval_gfunction(approx, inp)
            assert sorted(calls[:3]) == [1, 1, 2] and calls[3:] == [1]
            assert got == per_node_sink(dag, datasets, cfgs, inp, exact=("s5",))

    def test_gap_probes_take_one_pass_per_stack(self, monkeypatch):
        # per probe: the g walk, then g at every f input in one evaluator
        # call, 4, 2 and 1 rows each; the exact family f takes no pass
        dag, approx, _, _ = self.seven()
        f_set = {nid: n.constituent for nid, n in dag.nodes.items()}
        g_set = {nid: n.constituent for nid, n in approx.nodes.items()}
        probes = [{sid: [0.1 * k - 0.2] for sid in dag.sources()} for k in range(3)]
        calls = counted_passes(monkeypatch)
        propagation_gap(dag, f_set, g_set, probes)
        assert calls == [4, 2, 1, 4, 2, 1] * len(probes)

    def test_gap_report_equals_plain_closures_bitwise(self):
        # each channel against ratio_reconstruction on its node's dataset, in
        # either family's place; the last probe puts s1 where it has no mass
        dag, approx, datasets, cfgs = self.seven()
        f_set = {nid: n.constituent for nid, n in dag.nodes.items()}
        g_set = {nid: n.constituent for nid, n in approx.nodes.items()}
        plain = {nid: lambda z, ds=datasets[nid], cfg=cfgs[nid]:
                 float(ratio_reconstruction(ds, cfg, np.reshape(z, (1, -1)))[0])
                 for nid in dag.nodes}
        rng = np.random.default_rng(5)
        probes = [{sid: rng.uniform(-1.0, 1.0, 1) for sid in dag.sources()} for _ in range(30)]
        probes.append({"s1": [40.0], "s2": [0.3], "s3": [-0.2], "s4": [0.9]})
        assert g_set["s1"]([40.0]) == 0.0
        for chosen in (probes, probes[-1:]):
            for got, want in ((propagation_gap(dag, f_set, g_set, chosen),
                               propagation_gap(dag, f_set, plain, chosen)),
                              (propagation_gap(dag, g_set, f_set, chosen),
                               propagation_gap(dag, plain, f_set, chosen))):
                assert [v.hex() for v in astuple(got)] == [v.hex() for v in astuple(want)]

    def test_channels_of_one_stack_in_other_layers(self):
        # the source channels (one stack) and b's channel on another graph:
        # p and q in layer 0 read rows 3 and 1, out of order, r reads row 0
        # in layer 1, and the sink t reads b's row of the layer-1 stack
        dag, approx, datasets, cfgs = self.seven()
        ch = {nid: n.constituent for nid, n in approx.nodes.items()}
        nodes = {"p": DagNode(id="p", kind="source", in_dim=1),
                 "q": DagNode(id="q", kind="source", in_dim=1),
                 "r": DagNode(id="r", kind="internal", in_dim=1, children=("p",),
                              pooling_name="clip"),
                 "t": DagNode(id="t", kind="internal", in_dim=2, children=("q", "r"),
                              pooling_name="clip")}
        other = Dag(nodes=nodes, sink="t").with_constituents(
            {"p": ch["s4"], "q": ch["s2"], "r": ch["s1"], "t": ch["b"]})
        assert other.layers == (("p", "q"), ("r",), ("t",))
        own = {"p": "s4", "q": "s2", "r": "s1", "t": "b"}
        funcs = {nid: n.constituent for nid, n in other.nodes.items()}
        rng = np.random.default_rng(6)
        inputs = [{"p": rng.uniform(-1.0, 1.0, 1), "q": rng.uniform(-1.0, 1.0, 1)}
                  for _ in range(20)]
        for inp in inputs + [{"p": [40.0], "q": [0.5]}]:
            at, values = _walk(other, inp, funcs)
            assert eval_gfunction(other, inp) == values["t"]
            for nid, fn in funcs.items():
                alone = ratio_reconstruction(datasets[own[nid]], cfgs[own[nid]], at[nid][None, :])
                assert fn(at[nid]) == values[nid] == alone[0], nid


class TestDagJson:
    def test_round_trip(self, tmp_path):
        dag = two_level_tree()
        path = tmp_path / "graph.json"
        write_dag_json(dag, str(path))
        back = read_dag_json(str(path))
        assert back.sink == dag.sink
        assert set(back.nodes) == set(dag.nodes)
        for nid, node in dag.nodes.items():
            other = back.nodes[nid]
            assert other.kind == node.kind
            assert other.in_dim == node.in_dim
            assert other.children == node.children
            assert other.pooling_name == node.pooling_name
            assert other.pooling_params == node.pooling_params
            assert other.pooling_c == node.pooling_c
            assert other.lipschitz == node.lipschitz
            assert other.constituent is None  # structure only

    def test_reattach_and_evaluate(self, tmp_path):
        dag = two_level_tree()
        path = tmp_path / "graph.json"
        write_dag_json(dag, str(path))
        back = read_dag_json(str(path)).with_constituents(
            {nid: dag.nodes[nid].constituent for nid in dag.nodes}
        )
        inputs = {"s1": [0.3], "s2": [0.8]}
        assert eval_gfunction(back, inputs) == eval_gfunction(dag, inputs)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": []}')
        with pytest.raises(ValueError):
            read_dag_json(str(path))
        path.write_text(
            '{"nodes": [{"id": "s", "kind": "source", "in_dim": 1},'
            ' {"id": "s", "kind": "source", "in_dim": 1}], "sink": "s"}'
        )
        with pytest.raises(ValueError):
            read_dag_json(str(path))
        path.write_text('{"nodes": [{"id": "s", "kind": "source"}], "sink": "s"}')
        with pytest.raises(ValueError):
            read_dag_json(str(path))
        top = {"id": "t", "kind": "internal", "in_dim": 1, "children": ["s"]}
        for key, bad in (("in_dim", 1.9), ("in_dim", True), ("pooling", "clip"),
                         ("children", "s"), ("children", [1]),
                         ("lipschitz", "1"), ("lipschitz", True)):
            doc = {"nodes": [{"id": "s", "kind": "source", "in_dim": 1}, {**top, key: bad}],
                   "sink": "t"}
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=f"node 't': {key} must be"):
                read_dag_json(str(path))
        # numbers that would break the propagation bound; json reads NaN and Infinity
        for key, bad in (("lipschitz", -1.0), ("lipschitz", math.nan), ("lipschitz", math.inf),
                         ("pooling", {"name": "identity", "c": math.nan}),
                         ("pooling", {"name": "identity", "c": math.inf}),
                         ("pooling", {"name": "radial", "radius": math.nan}),
                         ("pooling", {"name": "radial", "radius": math.inf})):
            doc = {"nodes": [{"id": "s", "kind": "source", "in_dim": 1}, {**top, key: bad}],
                   "sink": "t"}
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="node t: .*finite"):
                read_dag_json(str(path))
        path.write_text('{"nodes": [1], "sink": "s"}')
        with pytest.raises(ValueError, match="node 0: row must be an object"):
            read_dag_json(str(path))
        path.write_text('{"nodes": 1, "sink": "s"}')
        with pytest.raises(ValueError, match="'nodes' must be a list"):
            read_dag_json(str(path))
        doc = {"nodes": [{"id": "s", "kind": "source", "in_dim": 1},
                         {**top, "pooling": {"name": "identity", "c": [1]}}], "sink": "t"}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="node 't': pooling c must be a number"):
            read_dag_json(str(path))
