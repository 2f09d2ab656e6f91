"""Composition of scalar functions along a DAG, with error propagation.

Each node v of the graph owns a constituent function f_v.  A source node
reads a point of R^{in_dim} supplied by the caller; an internal node reads
the tuple of its children's outputs, passed through the node's pooling map,
and the single sink's output is the value of the composite.  Children are
ordered.  A Dag fixes its layers when it is built: the sources, then every
node whose children all lie in earlier layers, by longest path from the
sources.  Every evaluation walks the layers once, computing each node once,
as a deep network is computed one layer at a time.

When every constituent f_v is replaced by an approximation g_v with
per-node sup gap <= eps, the sink gap obeys the recursion

    bound(v) = eps                                   (source)
    bound(v) = eps + c(v) * L * sum_k bound(u_k)     (internal)

where L is the largest Lipschitz bound among internal constituents and
c(v) is the pooling contract constant: the pooling must satisfy
|pool(a) - pool(b)| <= c(v) * sum_k |a_k - b_k| on its inputs.
``propagation_gap`` measures eps on the node inputs realized under both
families: one walk per family, then the other family at every recorded input.

``build_deep_approx`` replaces every constituent by a one-shot kernel
estimate from per-node training data: ``estimator.ratio_reconstruction``,
the two-pass form (value pass over a unit-value pass), so sampling density
never biases the node scale; where the unit pass vanishes the estimator
module's zero-mass policy applies.  The datasets of one layer's channels
that share a kernel table, alpha, sample count M and input width Q are one
``estimator._DatasetStack``; ``_values`` evaluates any set of nodes with one
estimator pass per stack, each row bitwise the channel's value alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .estimator import (
    Dataset,
    EstimatorConfig,
    _DatasetStack,
    _kernel_passes,
    _read_json,
    _write_json,
    guarded_ratio,
)

__all__ = [
    "make_pooling",
    "DagNode",
    "Dag",
    "read_dag_json",
    "dag_from_doc",
    "write_dag_json",
    "eval_gfunction",
    "PropagationReport",
    "propagation_gap",
    "build_deep_approx",
]


_POOLING_PARAMS = {"identity": (), "clip": ("lo", "hi"), "radial": ("radius",)}


def make_pooling(name: str, params: Mapping) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve a pooling map by name.

    identity            -- passes the child vector through
    clip(lo, hi)        -- componentwise clamp to the box [lo, hi]
    radial(radius)      -- projects onto the sphere of the given radius;
                           the origin maps to radius * e_1

    A parameter the pooling does not read raises ``ValueError`` naming it.
    """
    if name not in _POOLING_PARAMS:
        raise ValueError(f"unknown pooling {name!r}")
    unread = sorted(set(params) - set(_POOLING_PARAMS[name]))
    if unread:
        raise ValueError(f"{name} pooling reads no parameter {unread[0]!r}")
    if name == "identity":
        return lambda v: v
    if name == "clip":
        lo = float(params.get("lo", -1.0))
        hi = float(params.get("hi", 1.0))
        if not lo < hi:
            raise ValueError("clip pooling requires lo < hi")
        return lambda v: np.clip(v, lo, hi)
    radius = float(params.get("radius", 1.0))
    if not 0 < radius < math.inf:
        raise ValueError(f"radial pooling requires a finite positive radius, got {radius!r}")

    def _radial(v: np.ndarray) -> np.ndarray:
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            out = np.zeros_like(v)
            out[0] = radius
            return out
        return (radius / nrm) * v

    return _radial


@dataclass(frozen=True)
class DagNode:
    """One vertex: identity, role, fan-in, ordered children, pooling, bounds.

    ``pooling`` is resolved from ``pooling_name`` and ``pooling_params`` when
    the node is built, so a bad pooling fails here, not at evaluation.
    """

    id: str
    kind: str  # "source" | "internal"
    in_dim: int
    children: tuple = ()
    pooling_name: str = "identity"
    pooling_params: dict = field(default_factory=dict)
    pooling_c: float = 1.0
    lipschitz: float | None = None
    constituent: Callable | None = None
    pooling: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("source", "internal"):
            raise ValueError(f"node {self.id}: kind must be source or internal")
        if self.in_dim < 1:
            raise ValueError(f"node {self.id}: in_dim must be >= 1")
        if self.kind == "source" and self.children:
            raise ValueError(f"node {self.id}: source nodes take no children")
        if self.kind == "internal":
            if not self.children:
                raise ValueError(f"node {self.id}: internal nodes need children")
            if len(self.children) != self.in_dim:
                raise ValueError(
                    f"node {self.id}: in_dim {self.in_dim} != fan-in {len(self.children)}"
                )
        # the propagation bound multiplies by both (NaN fails each comparison)
        if not 0 < self.pooling_c < math.inf:
            raise ValueError(f"node {self.id}: pooling_c must be finite and positive")
        if self.lipschitz is not None and not 0 <= self.lipschitz < math.inf:
            raise ValueError(f"node {self.id}: lipschitz must be finite and >= 0")
        try:
            pooling = make_pooling(self.pooling_name, self.pooling_params)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"node {self.id}: {exc}") from exc
        object.__setattr__(self, "pooling", pooling)


@dataclass(frozen=True)
class Dag:
    """Validated DAG with ordered children and exactly one sink.

    ``layers`` are fixed at construction by Kahn's algorithm run in waves,
    which also rejects cycles: layer 0 holds the sources, and a node lies
    one layer past its deepest child (its longest path from a source).
    Each layer is sorted by id.  ``order``, the children-first evaluation
    order, is the layers concatenated.
    """

    nodes: dict
    sink: str
    layers: tuple = field(init=False, compare=False)
    order: tuple = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.sink not in self.nodes:
            raise ValueError(f"sink {self.sink!r} is not a node")
        parents: dict = {nid: [] for nid in self.nodes}
        for nid, node in self.nodes.items():
            for child in node.children:
                if child not in self.nodes:
                    raise ValueError(f"node {nid}: unknown child {child!r}")
                parents[child].append(nid)
        unreferenced = {nid for nid, ps in parents.items() if not ps}
        if unreferenced != {self.sink}:
            raise ValueError(
                f"graph must have exactly one sink; unreferenced nodes: {sorted(unreferenced)}"
            )
        indeg = {nid: len(node.children) for nid, node in self.nodes.items()}
        layers: list = []
        ready = [nid for nid, dgr in indeg.items() if dgr == 0]
        while ready:
            layers.append(tuple(sorted(ready)))
            ready = []
            for cur in layers[-1]:
                for parent in parents[cur]:
                    indeg[parent] -= 1
                    if indeg[parent] == 0:
                        ready.append(parent)
        order = tuple(nid for layer in layers for nid in layer)
        if len(order) != len(self.nodes):
            raise ValueError("graph contains a cycle")
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "order", order)

    def sources(self) -> list:
        return sorted(i for i, n in self.nodes.items() if n.kind == "source")

    def with_constituents(self, constituents: Mapping) -> "Dag":
        nodes = {
            nid: replace(node, constituent=constituents.get(nid, node.constituent))
            for nid, node in self.nodes.items()
        }
        return Dag(nodes=nodes, sink=self.sink)


def read_dag_json(path: str) -> Dag:
    """Load graph structure from JSON; constituents are attached in code."""
    return dag_from_doc(_read_json(path), path)


def dag_from_doc(doc, path: str) -> Dag:
    """Graph structure from a parsed DAG JSON document read from ``path``.

    ``path`` only names the source in error messages.  A node field of the
    wrong JSON type raises ``ValueError`` naming the node and the field; a
    node row that is not an object is named by its position.
    """
    if not isinstance(doc, dict) or "nodes" not in doc or "sink" not in doc:
        raise ValueError(f"{path}: document needs 'nodes' and 'sink'")
    if not isinstance(doc["nodes"], list):
        raise ValueError(f"{path}: 'nodes' must be a list, got {doc['nodes']!r}")
    nodes = {}
    for i, row in enumerate(doc["nodes"]):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: node {i}: row must be an object, got {row!r}")
        for key in ("id", "kind", "in_dim"):
            if key not in row:
                raise ValueError(f"{path}: node missing field {key!r}")
        nid = str(row["id"])
        pooling = row.get("pooling", {"name": "identity"})
        children = row.get("children", [])
        lipschitz = row.get("lipschitz")
        # exact JSON types: a bool is neither an integer nor a number
        for key, ok, want in (
            ("in_dim", type(row["in_dim"]) is int, "an integer"),
            ("pooling", isinstance(pooling, dict), "an object"),
            ("children", isinstance(children, list)
             and all(isinstance(c, str) for c in children), "a list of strings"),
            ("lipschitz", lipschitz is None or type(lipschitz) in (int, float),
             "a number or null"),
        ):
            if not ok:
                raise ValueError(f"{path}: node {nid!r}: {key} must be {want}, got {row[key]!r}")
        for key, value in pooling.items():
            if key != "name" and type(value) not in (int, float):
                raise ValueError(
                    f"{path}: node {nid!r}: pooling {key} must be a number, got {value!r}")
        if nid in nodes:
            raise ValueError(f"{path}: duplicate node id {nid!r}")
        nodes[nid] = DagNode(
            id=nid, kind=str(row["kind"]), in_dim=row["in_dim"], children=tuple(children),
            pooling_name=str(pooling.get("name", "identity")),
            pooling_params={k: v for k, v in pooling.items() if k not in ("name", "c")},
            pooling_c=float(pooling.get("c", 1.0)),
            lipschitz=None if lipschitz is None else float(lipschitz),
        )
    return Dag(nodes=nodes, sink=str(doc["sink"]))


def write_dag_json(dag: Dag, path: str) -> None:
    rows = []
    for nid in sorted(dag.nodes):
        node = dag.nodes[nid]
        pooling = {"name": node.pooling_name, **node.pooling_params}
        if node.pooling_c != 1.0:
            pooling["c"] = node.pooling_c
        rows.append({"id": node.id, "kind": node.kind, "in_dim": node.in_dim,
                     "children": list(node.children), "pooling": pooling,
                     "lipschitz": node.lipschitz})
    _write_json(path, {"nodes": rows, "sink": dag.sink})


@dataclass(frozen=True, eq=False)
class _KernelChannel:
    """Row ``row`` of a stack of node datasets sharing ``cfg``; see ``_values``."""

    stack: _DatasetStack
    cfg: EstimatorConfig
    row: int

    def __call__(self, z) -> float:
        return _values([self], [np.asarray(z, dtype=float).reshape(-1)], [0])[0]


def _values(funcs: Mapping, at: Mapping, nids) -> dict:
    """``{v: float(funcs[v](at[v]))}`` for v in ``nids``, at 1-d points ``at[v]``.

    Kernel channels of one stack take one pass; None raises naming its node.
    """
    values, stacks = {}, {}
    for nid in nids:
        fn = funcs[nid]
        if isinstance(fn, _KernelChannel):
            stacks.setdefault(fn.stack, []).append(nid)
        elif fn is None:
            raise ValueError(f"node {nid}: no constituent attached")
        else:
            values[nid] = float(fn(at[nid]))
    for stack, members in stacks.items():
        rows = stack.take([funcs[nid].row for nid in members])
        zs = np.array([at[nid] for nid in members])
        passes = _kernel_passes(rows, funcs[members[0]].cfg, zs, unit_pass=True)
        values.update(zip(members, guarded_ratio(*passes).tolist()))
    return values


def _walk(dag: Dag, inputs: Mapping, funcs: Mapping) -> tuple[dict, dict]:
    """Each node's input point and value at one assignment of source inputs.

    Walks ``dag.layers`` once: one ``_values`` call per layer, at inputs
    taken from ``inputs`` or the earlier layers.  A source without an input,
    with coordinates that are not numbers, of the wrong count or not finite
    raises ``ValueError`` naming it.
    """
    node_inputs, node_values = {}, {}
    for layer in dag.layers:
        for nid in layer:
            node = dag.nodes[nid]
            if node.kind == "source":
                if nid not in inputs:
                    raise ValueError(f"missing input for source {nid!r}")
                try:
                    z = np.asarray(inputs[nid], dtype=float).reshape(-1)
                except (TypeError, ValueError) as exc:
                    msg = f"source coordinates must be numbers: source {nid!r}: {exc}"
                    raise ValueError(msg) from None
                if z.size != node.in_dim:
                    raise ValueError(f"source {nid}: expected {node.in_dim} coordinates")
                if not np.isfinite(z).all():
                    raise ValueError(
                        f"source {nid!r}: coordinates must be finite, got {z.tolist()}"
                    )
            else:
                z = node.pooling(np.array([node_values[c] for c in node.children], dtype=float))
            node_inputs[nid] = z
        node_values.update(_values(funcs, node_inputs, layer))
    return node_inputs, node_values


def eval_gfunction(dag: Dag, inputs: Mapping) -> float:
    """Evaluate the composite at one assignment of source inputs.

    ``inputs`` maps each source id to its point (array of length in_dim).
    Each node's function is its constituent; attach them with
    :meth:`Dag.with_constituents`.  It is ``_walk`` on the constituents.
    """
    funcs = {nid: node.constituent for nid, node in dag.nodes.items()}
    return _walk(dag, inputs, funcs)[1][dag.sink]


@dataclass(frozen=True)
class PropagationReport:
    measured_gap: float
    predicted_bound: float
    node_eps: float


def propagation_gap(dag: Dag, f_set: Mapping, g_set: Mapping, probe_inputs) -> PropagationReport:
    """Measured sink gap between two constituent families vs the recursion bound.

    ``probe_inputs`` is a non-empty sequence of source-input assignments.
    Per-node sup gaps are measured on the node inputs realized under both
    families: each family's walk, then the other family at its inputs in one
    ``_values`` call.  The predicted bound propagates them through the pooling
    constants and the largest internal Lipschitz bound.  A gap that is not
    finite raises ``ValueError`` naming the node and the probe's index.
    """
    for nid, node in dag.nodes.items():
        if node.kind == "internal" and node.lipschitz is None:
            raise ValueError(f"internal node {nid} is missing a Lipschitz bound")
        if nid not in f_set or nid not in g_set:
            raise ValueError(f"node {nid}: both constituent families must cover it")
    if not probe_inputs:
        raise ValueError("propagation_gap needs at least one probe input")

    eps = measured = 0.0
    for probe, inputs in enumerate(probe_inputs):
        f_inputs, f_values = _walk(dag, inputs, f_set)
        g_inputs, g_values = _walk(dag, inputs, g_set)
        # per-node gaps, on inputs realized under either family
        g_at_f, f_at_g = _values(g_set, f_inputs, dag.order), _values(f_set, g_inputs, dag.order)
        gaps = [(nid, f_values[nid] - g_at_f[nid]) for nid in dag.order]
        gaps += [(nid, f_at_g[nid] - g_values[nid]) for nid in dag.order]
        sink_gap = f_values[dag.sink] - g_values[dag.sink]
        for nid, gap in gaps + [(dag.sink, sink_gap)]:
            if not math.isfinite(gap):
                raise ValueError(f"probe {probe}: node {nid!r} has the non-finite gap {gap}")
        eps = max(eps, *(abs(gap) for _, gap in gaps))
        measured = max(measured, abs(sink_gap))

    L = max((n.lipschitz for n in dag.nodes.values() if n.kind == "internal"), default=1.0)
    bound: dict = {}
    for nid in dag.order:
        node = dag.nodes[nid]
        if node.kind == "source":
            bound[nid] = eps
        else:
            bound[nid] = eps + node.pooling_c * L * sum(bound[c] for c in node.children)
    return PropagationReport(float(measured), float(bound[dag.sink]), float(eps))


def build_deep_approx(dag: Dag, node_points: Mapping, node_configs: Mapping) -> Dag:
    """Replace every constituent by its one-shot kernel estimate.

    ``node_points`` maps node id -> sample points of that node's input set
    (shape (M, in_dim)); labels come from the node's true constituent.
    ``node_configs`` maps node id -> EstimatorConfig.  Each resulting g_v is
    a kernel channel, ``ratio_reconstruction`` on its dataset.  The datasets
    of one layer whose configs share alpha and the table's content, and
    whose points share the shape (M, Q), form one stack, built here once;
    ``eval_gfunction`` evaluates each stack of a layer in one pass.  A
    missing entry or a bad dataset raises ``ValueError`` naming the node.
    """
    datasets: dict = {}
    for nid, node in dag.nodes.items():
        if node.constituent is None:
            raise ValueError(f"node {nid}: no true constituent to sample")
        for what, table in (("sample points", node_points), ("estimator config", node_configs)):
            if nid not in table:
                raise ValueError(f"node {nid}: no {what}")
        pts = np.asarray(node_points[nid], dtype=float)
        if pts.ndim != 2 or pts.shape[1] != node.in_dim:
            raise ValueError(f"node {nid}: points must have shape (M, {node.in_dim})")
        labels = np.array([float(node.constituent(p)) for p in pts])
        try:
            datasets[nid] = Dataset(pts, labels, node_configs[nid].table.q)
        except ValueError as exc:
            raise ValueError(f"node {nid}: {exc}") from None

    approx: dict = {}
    for layer in dag.layers:
        groups: dict = {}
        for nid in layer:
            cfg, ds = node_configs[nid], datasets[nid]
            key = (cfg.alpha, cfg.table.n, cfg.table.q, cfg.table.a.tobytes(), ds.points.shape)
            groups.setdefault(key, []).append(nid)
        for members in groups.values():
            stack = _DatasetStack.of([datasets[nid] for nid in members])
            cfg = node_configs[members[0]]
            for row, nid in enumerate(members):
                approx[nid] = _KernelChannel(stack, cfg, row)
    return dag.with_constituents(approx)
