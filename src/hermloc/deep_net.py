"""Composition of scalar functions along a DAG, with error propagation.

Each node v of the graph owns a constituent function f_v.  A source node
reads a point of R^{in_dim} supplied by the caller; an internal node reads
the tuple of its children's outputs, passed through the node's pooling map,
and the single sink's output is the value of the composite.  Children are
ordered.  A Dag fixes its children-first evaluation order when it is built,
and every evaluation walks that order once, computing each node once.

When every constituent f_v is replaced by an approximation g_v with
per-node sup gap <= eps, the sink gap obeys the recursion

    bound(v) = eps                                   (source)
    bound(v) = eps + c(v) * L * sum_k bound(u_k)     (internal)

where L is the largest Lipschitz bound among internal constituents and
c(v) is the pooling contract constant: the pooling must satisfy
|pool(a) - pool(b)| <= c(v) * sum_k |a_k - b_k| on its inputs.
``propagation_gap`` measures eps on the node inputs realized under both
families: one walk per family, and each node's gap taken by calling the
other family's constituent at the recorded inputs.

``build_deep_approx`` replaces every constituent by a one-shot kernel
estimate from per-node training data: ``estimator.ratio_reconstruction``,
the two-pass form (value pass over a unit-value pass), so sampling density
never biases the node scale; where the unit pass vanishes the estimator
module's zero-mass policy applies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .estimator import Dataset, EstimatorConfig, _read_json, ratio_reconstruction

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


def make_pooling(name: str, params: Mapping) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve a pooling map by name.

    identity            -- passes the child vector through
    clip(lo, hi)        -- componentwise clamp to the box [lo, hi]
    radial(radius)      -- projects onto the sphere of the given radius;
                           the origin maps to radius * e_1
    """
    if name == "identity":
        return lambda v: v
    if name == "clip":
        lo = float(params.get("lo", -1.0))
        hi = float(params.get("hi", 1.0))
        if not lo < hi:
            raise ValueError("clip pooling requires lo < hi")
        return lambda v: np.clip(v, lo, hi)
    if name == "radial":
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
    raise ValueError(f"unknown pooling {name!r}")


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

    ``order`` is the children-first evaluation order, fixed at construction
    by Kahn's algorithm, which also rejects cycles.
    """

    nodes: dict
    sink: str
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
        ready = sorted(nid for nid, dgr in indeg.items() if dgr == 0)
        order: list = []
        while ready:
            cur = ready.pop()
            order.append(cur)
            for parent in parents[cur]:
                indeg[parent] -= 1
                if indeg[parent] == 0:
                    ready.append(parent)
        if len(order) != len(self.nodes):
            raise ValueError("graph contains a cycle")
        object.__setattr__(self, "order", tuple(order))

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
        pooling_c = pooling.get("c", 1.0)
        if type(pooling_c) not in (int, float):
            raise ValueError(
                f"{path}: node {nid!r}: pooling c must be a number, got {pooling_c!r}"
            )
        if nid in nodes:
            raise ValueError(f"{path}: duplicate node id {nid!r}")
        nodes[nid] = DagNode(
            id=nid, kind=str(row["kind"]), in_dim=row["in_dim"], children=tuple(children),
            pooling_name=str(pooling.get("name", "identity")),
            pooling_params={k: v for k, v in pooling.items() if k not in ("name", "c")},
            pooling_c=float(pooling_c),
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"nodes": rows, "sink": dag.sink}, fh, indent=1)
        fh.write("\n")


def _walk(dag: Dag, inputs: Mapping, funcs: Mapping) -> tuple[dict, dict]:
    """Each node's input point and value at one assignment of source inputs.

    Walks ``dag.order`` once and calls ``funcs[v]`` once per node.  A source
    without an input, or with the wrong number of coordinates, raises
    ``ValueError``.
    """
    node_inputs: dict = {}
    node_values: dict = {}
    for nid in dag.order:
        node = dag.nodes[nid]
        if node.kind == "source":
            if nid not in inputs:
                raise ValueError(f"missing input for source {nid!r}")
            z = np.asarray(inputs[nid], dtype=float).reshape(-1)
            if z.size != node.in_dim:
                raise ValueError(f"source {nid}: expected {node.in_dim} coordinates")
        else:
            z = node.pooling(np.array([node_values[c] for c in node.children], dtype=float))
        node_inputs[nid] = z
        node_values[nid] = float(funcs[nid](z))
    return node_inputs, node_values


def eval_gfunction(dag: Dag, inputs: Mapping) -> float:
    """Evaluate the composite at one assignment of source inputs.

    ``inputs`` maps each source id to its point (array of length in_dim).
    Each node's function is its constituent; attach them with
    :meth:`Dag.with_constituents`.
    """
    funcs = {}
    for nid, node in dag.nodes.items():
        if node.constituent is None:
            raise ValueError(f"node {nid}: no constituent attached")
        funcs[nid] = node.constituent
    return _walk(dag, inputs, funcs)[1][dag.sink]


@dataclass(frozen=True)
class PropagationReport:
    measured_gap: float
    predicted_bound: float
    node_eps: float


def propagation_gap(dag: Dag, f_set: Mapping, g_set: Mapping, probe_inputs) -> PropagationReport:
    """Measured sink gap between two constituent families vs the recursion bound.

    ``probe_inputs`` is a sequence of source-input assignments.  Per-node sup
    gaps are measured on the node inputs realized under both families; the
    predicted bound propagates them through the pooling constants and the
    largest internal Lipschitz bound.
    """
    for nid, node in dag.nodes.items():
        if node.kind == "internal" and node.lipschitz is None:
            raise ValueError(f"internal node {nid} is missing a Lipschitz bound")
        if nid not in f_set or nid not in g_set:
            raise ValueError(f"node {nid}: both constituent families must cover it")

    eps = measured = 0.0
    for inputs in probe_inputs:
        f_inputs, f_values = _walk(dag, inputs, f_set)
        g_inputs, g_values = _walk(dag, inputs, g_set)
        # per-node sup gap, on inputs realized under either family
        for nid in dag.order:
            eps = max(eps, abs(f_values[nid] - float(g_set[nid](f_inputs[nid]))))
        for nid in dag.order:
            eps = max(eps, abs(float(f_set[nid](g_inputs[nid])) - g_values[nid]))
        measured = max(measured, abs(f_values[dag.sink] - g_values[dag.sink]))

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
    ``ratio_reconstruction`` closed over its dataset, evaluated pointwise.
    """
    approx: dict = {}
    for nid, node in dag.nodes.items():
        if node.constituent is None:
            raise ValueError(f"node {nid}: no true constituent to sample")
        pts = np.asarray(node_points[nid], dtype=float)
        if pts.ndim != 2 or pts.shape[1] != node.in_dim:
            raise ValueError(f"node {nid}: points must have shape (M, {node.in_dim})")
        labels = np.array([float(node.constituent(p)) for p in pts])
        cfg: EstimatorConfig = node_configs[nid]
        ds = Dataset(pts, labels, cfg.table.q)

        def g(z, ds=ds, cfg=cfg):
            z = np.asarray(z, dtype=float).reshape(1, -1)
            return float(ratio_reconstruction(ds, cfg, z)[0])

        approx[nid] = g
    return dag.with_constituents(approx)
